"""One fresh benchmark worker process: set up a workload, time its unit ops.

Run by ``run.py`` as ``python3 worker.py '<json config>'`` with the BLAS
thread count pinned in the environment and ``src`` on ``PYTHONPATH``.  It
prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import scipy

import wavegrf
from workloads import WORKLOADS


class Tracer:
    """In-memory spans and counts, recorded by the benchmark around library calls.

    A span holds name, start, end, parent and run id.  Disabled, ``span`` and
    ``count`` record nothing.
    """

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, list] = {}
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(value)


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        return "unknown"


def main(cfg: dict) -> dict:
    src = Path(cfg["src"]).resolve()
    if src not in Path(wavegrf.__file__).resolve().parents:
        raise RuntimeError(f"wavegrf imported from {wavegrf.__file__}, not from {src}")
    tr = Tracer(cfg["trace"], f"{cfg['workload']}-{cfg['seed']}-{cfg['worker']}")
    wl = WORKLOADS[cfg["workload"]](cfg["p"], cfg["seed"], cfg["worker"], tr)

    t0 = time.perf_counter()
    with tr.span("setup"):
        wl.setup()
    setup_s = time.perf_counter() - t0

    op_times, records = [], []
    deadline = time.perf_counter() + cfg["seconds"]
    while len(records) < wl.n_full or time.perf_counter() < deadline:
        t = time.perf_counter()
        try:
            with tr.span("op"):
                records.append(wl.op(len(records)))
        except Exception as e:            # a failed op is counted, the run goes on
            records.append(e)
        op_times.append(time.perf_counter() - t)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for i, rec in enumerate(records):
        if isinstance(rec, Exception):
            failures.append(f"op {i} raised {type(rec).__name__}: {rec}")
        elif (why := wl.check(i, rec)) is not None:
            failures.append(f"op {i}: {why}")

    return {
        "setup_s": setup_s, "op_times": op_times,
        "total_s": setup_s + sum(op_times[:wl.n_full]),
        "peak_rss_mb": peak_rss_mb, "attempted": len(records), "failures": failures,
        "spans": tr.spans, "counts": tr.counts,
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_name(),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
