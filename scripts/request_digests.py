"""Print one digest line per benchmark request, to compare two versions.

For each seed and workload, the benchmark's machine files are written to a
temporary directory and every request is sent through tuatara.cli.run in
this process, in deck order. Each request prints one line:

    WORKLOAD INDEX SHA256

where the digest covers the exit code, stdout and stderr. Two versions of
the package give the same lines exactly when every request gave the same
bytes, so a diff of two runs is the check:

    python3 scripts/request_digests.py --seed 7 --seed 31 --seed 90210 > new.txt
    python3 scripts/request_digests.py --seed 7 --seed 31 --seed 90210 \\
        --src OTHER_CHECKOUT/src > old.txt
    diff old.txt new.txt

The decks come from perfbench/workloads.py, which is only read. Machine
file paths are relative to the temporary directory, so they are the same
in every run and never show in the digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("streams", "exponents", "reducer", "tables")
SECONDS = 10  # perfbench/run.py's default run length: 100 requests per workload


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, action="append", required=True,
                   help="deck seed; repeat for several")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="directory holding the tuatara package to run")
    args = p.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    import workloads
    import tuatara.cli as cli

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    home = os.getcwd()
    for seed in args.seed:
        for name in names:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    wl = workloads.generate(name, seed, SECONDS, "machines")
                    os.mkdir("machines")
                    for fname, text in wl.files.items():
                        Path("machines", fname).write_text(text, encoding="utf-8")
                    for index, req in enumerate(wl.requests):
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = cli.run(list(req.argv))
                        record = json.dumps([code, out.getvalue(), err.getvalue()])
                        digest = hashlib.sha256(record.encode()).hexdigest()
                        print(f"{name} {index} {digest}", flush=True)
                finally:
                    os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
