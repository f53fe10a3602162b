"""Multilevel Monte Carlo estimation of the tapered covariance matrix.

Level-pair blocks of the covariance are averaged over block-dependent
sample counts ``M_{jj'} = M~_{max(j,j')}`` where the per-level budget
follows the geometric schedule ``M~_j = M_finest * 2^((J-j)(n+alpha)2/3)``
(rounded up), anchored at the finest level.  Each block uses fresh draws;
blocks (j,j') and (j',j) are estimated once and mirrored, gathered on the
taper pattern only.  Dense level roots are kept for one covariance array at a
time, keyed by the array itself, which the source makes read-only; a distinct
array of equal content forms its own table.

Every draw of a block (j,j') with j <= j' is at resolution j', so ``estimate``
runs one task per level j' on the calling thread and one helper thread per
further available CPU (no more threads than levels; there is no setting for
it).  Source contract: draws at one level come from one thread, in serial
stream order; draws at different levels may run at the same time.  The
result does not depend on the number of threads.
"""

from __future__ import annotations

import os
import queue
import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import rng
from .compression import TaperPattern
from .linalg import SparseSymMatrix, dense_eigvals, sym_function
from .wavelets import LevelIndexSet


@dataclass(frozen=True)
class SampleSchedule:
    j0: int
    J: int
    counts: dict                       # level -> samples available at that level
    n: int

    def __post_init__(self):
        lv = sorted(self.counts)
        if lv != list(range(self.j0, self.J + 1)):
            raise ValueError("schedule must cover levels j0..J")
        vals = [self.counts[j] for j in lv]
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("per-level sample counts must be non-increasing in j")

    def block_count(self, j: int, jp: int) -> int:
        return self.counts[max(j, jp)]

    def work(self) -> int:
        """Cost counter sum_j M~_j 2^(j n)."""
        return int(sum(m * 2 ** (j * self.n) for j, m in self.counts.items()))


def schedule(J: int, j0: int, n: int = 1, alpha: float = 0.5,
             alpha0: float = 2.0, M_finest: int = 100) -> SampleSchedule:
    if alpha > alpha0:
        raise ValueError("need alpha <= alpha0")
    if M_finest < 1:
        raise ValueError("need at least one sample at the finest level")
    rate = (n + alpha) * 2.0 / 3.0
    counts = {j: int(np.ceil(M_finest * 2.0 ** ((J - j) * rate)))
              for j in range(j0, J + 1)}
    return SampleSchedule(j0=j0, J=J, counts=counts, n=n)


#: the read-only level roots of one covariance, as (C, {p_j: root}): rebound whole
#: when a source is built on another array (racing threads at worst compute a root
#: twice; each source keeps its own table, so none gets a wrong one).  Module-level,
#: as the replicates of one run each build a new source on one ndarray, which
#: cannot carry the table itself
_ROOTS: tuple = (None, {})
#: largest level dimension p_j given a dense root
ROOT_MAX_P = 4096


def _psd_sqrt(lam: np.ndarray) -> np.ndarray:
    if np.min(lam) < -1e-12 * np.max(lam):
        raise np.linalg.LinAlgError("matrix square root needs PSD input")
    return np.sqrt(np.maximum(lam, 0.0))


class GaussianCoefficientSource:
    """Exact draws of wavelet coefficient vectors at any resolution level.

    Sampling at resolution ``j`` uses the dense symmetric square root of the
    leading principal block of the covariance (the law of the truncated
    coefficient vector).  Sources built one after another on the same array
    share one table of roots; the source keeps that array (float64 ``C`` is
    not copied) and makes it read-only, so no later write can mislabel a
    root.  A distinct array of equal content forms its own table.  Draws are
    keyed by (seed, stream), reproducible.  Safe to call from several threads.
    """

    def __init__(self, C: np.ndarray, idx: LevelIndexSet, seed: int):
        global _ROOTS
        self.idx = idx
        self.seed = seed
        self.C = C = np.asarray(C, dtype=float)
        C.flags.writeable = False
        roots = _ROOTS
        if roots[0] is not C:               # holding C keeps its id from being reused
            roots = _ROOTS = (C, {})
        self._roots = roots[1]              # p_j -> read-only root, shared by this array

    def _root(self, j: int) -> np.ndarray:
        if not self.idx.j0 <= j <= self.idx.J:
            raise ValueError(f"level {j} outside [{self.idx.j0}, {self.idx.J}]")
        p_j = 2 ** (j + 1)
        root = self._roots.get(p_j)
        if root is None:
            if p_j > ROOT_MAX_P:
                raise ValueError(f"dense level root capped at p = {ROOT_MAX_P}")
            root = sym_function(self.C[:p_j, :p_j], _psd_sqrt)
            root.flags.writeable = False
            root = self._roots.setdefault(p_j, root)    # a root another thread kept first
        return root

    def draw(self, j_res: int, count: int, stream_id: int, cols=slice(None)) -> np.ndarray:
        """Columns ``cols`` of (count, p(j_res)) i.i.d. coefficient vectors at
        resolution j_res, equal to those of the full draw."""
        root = self._root(j_res)
        xi = rng.stream(self.seed, stream_id).standard_normal((count, root.shape[0]))
        return xi @ root[cols].T


class CsvSampleSource:
    """Reads per-level coefficient samples from CSV files.

    Each file holds one sample per row, columns in the flat level-major
    layout for the level recorded in its ``# level:`` header line.
    """

    def __init__(self, paths: dict):
        self._data = {j: np.loadtxt(path, delimiter=",", ndmin=2)
                      for j, path in paths.items()}
        self._used = {j: 0 for j in self._data}

    def draw(self, j_res: int, count: int, stream_id: int, cols=slice(None)) -> np.ndarray:
        data = self._data.get(j_res)
        if data is None:
            raise KeyError(f"no sample file for resolution level {j_res}")
        start = self._used[j_res]
        if start + count > len(data):
            raise RuntimeError(
                f"sample source exhausted at level {j_res}: "
                f"need {count}, have {len(data) - start} of {len(data)} left")
        self._used[j_res] = start + count
        # rows in C order, as a full draw has them: a column index array would
        # give a transposed layout, and BLAS products differ in the last bit
        return np.ascontiguousarray(data[start:start + count, cols])


def write_sample_csv(path, level: int, samples: np.ndarray) -> None:
    samples = np.atleast_2d(samples)
    with open(path, "w", newline="") as f:
        f.write(f"# level: {level}\n")
        np.savetxt(f, samples, fmt="%.17g", delimiter=",", newline="\r\n")


@dataclass
class MlmcEstimate:
    matrix: SparseSymMatrix
    seed: int


def _run_levels(task, levels) -> None:
    """``task(j)`` for each level, finest first, on the calling thread and up
    to one helper thread per further available CPU; re-raises a task's error
    once every helper has stopped."""
    todo = queue.SimpleQueue()
    for j in sorted(levels, reverse=True):
        todo.put(j)
    failed = []

    def work():
        try:
            while not failed:
                try:
                    j = todo.get_nowait()
                except queue.Empty:
                    return
                task(j)
        except BaseException as e:      # re-raised by the calling thread below
            failed.append(e)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    helpers = [threading.Thread(target=work) for _ in range(min(cpus or 1, len(levels)) - 1)]
    for t in helpers:
        t.start()
    work()
    for t in helpers:
        t.join()
    if failed:
        raise failed[0]


def estimate(pattern: TaperPattern, sched: SampleSchedule, source,
             seed: int) -> MlmcEstimate:
    """Blockwise multilevel Monte Carlo estimator on the taper pattern.

    The level-pair sum runs over ordered pairs, so each off-diagonal block
    is estimated twice with independent draws of ``M_{jj'}`` samples (once
    per orientation); the two estimates are averaged, which keeps the result
    exactly symmetric and halves the off-diagonal block variance relative to
    a single mirrored estimate.

    Block (j, j') with j <= j' draws at resolution j' from streams numbered
    in row order of the blocks (one per diagonal block, two per off-diagonal
    one).  The levels j' run concurrently; ``source.draw`` is called for one
    level from one thread only, in increasing stream order, and for
    different levels possibly at the same time.  The result is the same for
    any number of threads.  It shares the index arrays of ``pattern.csr``.
    """
    idx, csr = pattern.idx, pattern.csr
    if sched.J != idx.J or sched.j0 != idx.j0:
        raise ValueError("schedule and pattern must share the level range")
    levels = list(idx.levels)
    streams = {}                        # block (j, j') -> its first stream id
    stream_id = 1
    for a, j in enumerate(levels):
        for jp in levels[a:]:
            streams[j, jp] = stream_id
            stream_id += 1 if jp == j else 2
    data = np.empty(csr.nnz)            # the estimate, in the order of pattern.csr

    def level(jp):
        """Blocks (j, j') and their mirrors for j <= j', in increasing j."""
        sp = idx.level_slice(jp)
        for j in levels[:levels.index(jp) + 1]:
            sj, m, sid = idx.level_slice(j), sched.block_count(j, jp), streams[j, jp]
            if jp == j:
                Z = source.draw(j, m, sid, sj)
                blk = (Z.T @ Z) / m         # syrk: exactly symmetric
            else:
                # only the columns of levels j and j' are drawn, those of j first
                n, cols = sj.stop - sj.start, np.r_[sj, sp]
                Z = source.draw(jp, m, sid, cols)
                Z2 = source.draw(jp, m, sid + 1, cols)
                blk = (Z[:, :n].T @ Z[:, n:]) / m
                blk = 0.5 * (blk + (Z2[:, n:].T @ Z2[:, :n]).T / m)
            r, c, pos, mirror = pattern.block(j, jp)
            data[pos] = data[mirror] = blk[r, c]

    _run_levels(level, levels)
    M = sparse.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape)
    return MlmcEstimate(matrix=SparseSymMatrix(M), seed=seed)


def error_report(est: MlmcEstimate, truth: np.ndarray, idx: LevelIndexSet) -> dict:
    """Operator-norm error: the largest |eigenvalue| of ``truth - E``
    (``truth`` must be symmetric and match ``idx``)."""
    truth = np.asarray(truth, dtype=float)
    E = est.matrix.to_dense()
    if not truth.shape == E.shape == (idx.p, idx.p):
        raise ValueError("dimension mismatch between estimate, truth and index set")
    np.subtract(truth, E, out=E)        # truth - E, without a second p x p array
    return {"op_norm_error": float(np.max(np.abs(dense_eigvals(E))))}
