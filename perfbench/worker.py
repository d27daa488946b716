"""One benchmark process: set up a workload, then (in pass mode) send every
request through tuatara.cli.run in-process, one at a time, and write the
outputs and timings as JSON.  run.py starts each worker as a fresh process.

    python3 perfbench/worker.py --workload W --seed N --seconds T
        --mode setup|pass --trace 0|1 --dir MACHINE_DIR --out RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import calib  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "pass"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    calib.loop_seconds()  # warm the loop itself
    loop_before = calib.loop_seconds()
    t0, c0 = time.perf_counter(), time.process_time()
    import tuatara.cli as cli

    wl = workloads.generate(args.workload, args.seed, args.seconds, args.dir)
    os.makedirs(args.dir, exist_ok=True)
    for name, text in wl.files.items():
        with open(os.path.join(args.dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    setup_wall, setup_cpu = time.perf_counter() - t0, time.process_time() - c0
    loop = calib.loop_seconds()
    report: dict = {"setup": [setup_wall, calib.calibrate(setup_cpu, loop_before, loop)]}

    if args.mode == "pass":
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        results = []
        for req in wl.requests:
            out, err = io.StringIO(), io.StringIO()
            if tracer:
                tracer.begin_request()
            t, c = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(req.argv))
            wall, cpu = time.perf_counter() - t, time.process_time() - c
            nxt = calib.loop_seconds()
            cal = calib.calibrate(cpu, loop, nxt)
            if tracer:
                tracer.end_request(cal / wall)  # the tracer's clock is the wall clock
            results.append([code, out.getvalue(), err.getvalue(), wall, cal])
            loop = nxt
        report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report["results"] = results
        if tracer:
            report["times"] = dict(tracer.times)
            report["counts"] = dict(tracer.counts)
            if args.spans:
                tracer.write_spans(args.spans)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
