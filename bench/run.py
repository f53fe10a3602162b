"""wavegrf benchmark: one workload, measured in fresh worker processes.

    python3 bench/run.py --workload krige --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src``.  An untraced run starts six fresh workers one after another; each
sets the workload up (``setup_s``), then runs unit operations for its share
of ``--seconds`` (at least the workload's fixed count, which ``total_s``
covers).  A traced run (``--trace 1``) starts one untraced and one traced
worker on the same inputs and reports per-layer spans and counts.  The last
line of standard output is the JSON result; with ``--trace 1`` the spans are
also written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: workload -> dimension p
WORKLOADS = {"krige": 512, "mlmc": 512}
SMALL_P = 64
#: fresh workers per untraced run; each sets up and runs ops, so that the
#: medians span the host's slow and fast spells over the whole run
SETUP_WORKERS = 6
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_worker(cfg: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {cfg['worker']} ran past the time limit") from e
    if proc.returncode != 0:
        raise BenchError(f"worker {cfg['worker']} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def self_times(spans: list[dict]) -> dict[str, list[float]]:
    """Per span name, each span's duration minus the time its child spans cover."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, list[float]] = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s["end"] - s["start"] - child.get(s["id"], 0.0))
    return out


def end_to_end(results: list[dict]) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "op_s_mean": statistics.fmean(t for r in results for t in r["op_times"]),
        "total_s": statistics.median(r["total_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def per_layer(names, plain: dict, traced: dict) -> dict:
    """Metric ``<span>_s`` is the median self time of that span; any other
    name is the median of that count.  A layer the workload never calls
    reports 0."""
    times = self_times(traced["spans"])
    ops = plain["op_times"]
    special = {
        "op_s_p50": statistics.median(ops),
        "op_s_p90": (statistics.quantiles(ops, n=10, method="inclusive")[-1]
                     if len(ops) > 1 else ops[0]),
        "op_count": len(ops),
        "tracing_overhead_s": traced["total_s"] - plain["total_s"],
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith("_s"):
            out[name] = statistics.median(times.get(name[:-2], [0.0]))
        else:
            out[name] = statistics.median(traced["counts"].get(name, [0]))
    return out


def trace_report(workload: str, seed: int, plain: dict, traced: dict, env: dict,
                 metrics: dict) -> Path:
    times = self_times(traced["spans"])
    print(f"trace {workload} seed {seed}: self time per span (median s, calls)")
    for name, v in times.items():
        print(f"  {name:28s} {statistics.median(v):10.4f} {len(v):5d}")
    for name, v in traced["counts"].items():
        print(f"  count {name:22s} {statistics.median(v):14.1f} {len(v):5d}")
    print(f"  op_s_p50 {metrics['op_s_p50']:.4f} s, op_s_p90 {metrics['op_s_p90']:.4f} s "
          f"over {metrics['op_count']} untraced ops")
    print(f"  tracing overhead {metrics['tracing_overhead_s']:+.4f} s "
          f"(traced total_s {traced['total_s']:.4f} - untraced {plain['total_s']:.4f})")
    out = HERE / "out" / f"trace-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": workload, "seed": seed, "environment": env,
                               "spans": traced["spans"], "counts": traced["counts"],
                               "self_time_s": times, "metrics": metrics}, indent=1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help=f"run at p = {SMALL_P} (smoke test; the numbers mean nothing)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "wavegrf" / "__init__.py").is_file():
        print(f"error: no wavegrf sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    base = {"workload": args.workload, "seed": args.seed, "src": str(SRC),
            "p": SMALL_P if args.small else WORKLOADS[args.workload]}
    if args.trace:
        plan = [dict(base, worker=0, trace=False, seconds=args.seconds / 2),
                dict(base, worker=0, trace=True, seconds=args.seconds / 2)]
    else:
        plan = [dict(base, worker=w, trace=False, seconds=args.seconds / SETUP_WORKERS)
                for w in range(SETUP_WORKERS)]
    try:
        results = [run_worker(cfg, deadline) for cfg in plan]
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    env = {"nproc": os.cpu_count(), "cpu": cpu_model(),
           "python": platform.python_version(), "numpy": results[0]["numpy"],
           "scipy": results[0]["scipy"], "blas": results[0]["blas"],
           "blas_threads": BLAS_THREADS, "p": base["p"]}
    print("environment " + json.dumps(env))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.trace:
        values = per_layer(units, *results)
        print(f"trace written to {trace_report(args.workload, args.seed, *results, env, values)}")
    else:
        values = end_to_end(results)
    failures = [f for r in results for f in r["failures"]]
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in results)
    print(f"checks: {attempted - len(failures)} of {attempted} unit operations passed")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
