"""Benchmark runner for tuatara's command line, run from the repository root:

    python3 perfbench/run.py --workload streams|exponents|reducer|tables|all
        --seed N --seconds T --trace 0|1

Each workload pass is a closed loop with one client: a fresh worker process
sends its seeded requests through tuatara.cli.run one after another.  With
--trace 0 the runner starts several set-up-only workers and three untraced
passes of the same requests, checks every output against references it
computes itself, and prints the end-to-end metrics; a request's latency is
the median of its three calibrated times, which filters out the moments a
busy host slows one pass.  With --trace 1 it runs an untraced and a traced pass,
requires byte-identical request outputs from both, and prints the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("streams", "exponents", "reducer", "tables")
PASSES = 3  # untraced passes per run; latencies are per-request medians over them
SETUP_PROBES = 6  # set-up-only workers per untraced run, besides the pass workers
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _spawn(work: Path, deadline: float, tag: str, **opts) -> dict:
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(out)]
    for key, value in opts.items():
        cmd += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} failed:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _check_pass(wl, results) -> tuple[list, list]:
    """Failure reason (or None) per request, and every enclosure returned."""
    ref = checks.Reference()
    reasons, enclosures = [], []
    for req, (code, out, _err, _wall, _cal) in zip(wl.requests, results):
        why, encs = checks.check_request(ref, req, code, out)
        reasons.append(why)
        enclosures += encs
    return reasons, enclosures


def _report_failures(wl, reasons) -> None:
    for req, why in zip(wl.requests, reasons):
        if why is not None:
            print(f"FAILED {' '.join(req.argv)[:120]}: {why}", file=sys.stderr)


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "tuatara" / "__init__.py").is_file():
        raise BenchError(f"no tuatara sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    machine_dir = os.path.relpath(work / "machines", ROOT)
    opts = dict(workload=name, seed=seed, seconds=seconds, dir=machine_dir)
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.generate(name, seed, seconds, machine_dir)
        plain = _spawn(work, deadline, "pass", mode="pass", trace=0, **opts)
        results = plain["results"]
        reasons, enclosures = _check_pass(wl, results)
        passes = [plain]
        if trace:
            spans = ROOT / ".perfbench_work" / f"spans-{name}.jsonl"
            traced = _spawn(work, deadline, "traced", mode="pass", trace=1, spans=spans, **opts)
            repeats = [traced]
        else:
            passes += [_spawn(work, deadline, f"pass{i}", mode="pass", trace=0, **opts)
                       for i in range(1, PASSES)]
            repeats = passes[1:]
            setups = [_spawn(work, deadline, f"setup{i}", mode="setup", **opts)["setup"]
                      for i in range(SETUP_PROBES)]
            setups += [p["setup"] for p in passes]
        for other in repeats:  # exit code, stdout and stderr must repeat byte for byte
            for i, (a, b) in enumerate(zip(results, other["results"])):
                if a[:3] != b[:3] and reasons[i] is None:
                    reasons[i] = "output differs from the first pass"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _report_failures(wl, reasons)
    failed = sum(r is not None for r in reasons)
    lat = [statistics.median(p["results"][i][4] for p in passes) for i in range(len(results))]
    wall = [statistics.median(p["results"][i][3] for p in passes) for i in range(len(results))]
    n = len(results)
    print(f"# {name} seed={seed}: {n} requests, closed loop, one client; "
          f"{failed} failed (failed_frac={failed / n:.4f})")
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        overhead = sum(r[4] for r in traced["results"]) / sum(lat) - 1
        metrics = tracing.layer_metrics(traced["times"], traced["counts"], overhead)
        for key, (value, unit) in metrics.items():
            print(f"{name} {key} = {value:.6g} {unit}")
    else:
        metrics = {
            "setup_s": (statistics.median(c for _, c in setups), "s"),
            "run_s": (sum(lat), "s"),
            "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
            "op_p90_ms": (_p90(lat) * 1000, "ms"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
            "certified_bits": (checks.mean_certified_bits(enclosures), "bits"),
            "passed_frac": (1 - failed / n, "ratio"),
        }
        wall_of = {
            "setup_s": (statistics.median(w for w, _ in setups), len(setups)),
            "run_s": (sum(wall), n),
            "op_p50_ms": (statistics.median(wall) * 1000, n),
            "op_p90_ms": (_p90(wall) * 1000, n),
        }
        for key, (value, unit) in metrics.items():
            line = f"{name} {key} = {value:.6g} {unit}"
            if key in wall_of:
                line += f" (raw wall {wall_of[key][0]:.6g} {unit}, n={wall_of[key][1]})"
            elif key == "certified_bits":
                line += f" (n={len(enclosures)} enclosures)"
            else:
                line += f" (n={len(passes)} passes)" if key == "peak_rss_mb" else f" (n={n})"
            print(line)
        print(f"{name} failed_frac = {failed / n:.6g} ratio (n={n})")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # reference values are read back from long decimals
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
