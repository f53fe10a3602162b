"""Multilevel Monte Carlo estimation of the tapered covariance matrix.

Level-pair blocks of the covariance are averaged over block-dependent
sample counts ``M_{jj'} = M~_{max(j,j')}`` where the per-level budget
follows the geometric schedule ``M~_j = M_finest * 2^((J-j)(n+alpha)2/3)``
(rounded up), anchored at the finest level.  Each block uses fresh draws;
blocks (j,j') and (j',j) are estimated once and mirrored, gathered on the
taper pattern only.  Dense level roots are cached per covariance content.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

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
    alpha: float
    alpha0: float

    def __post_init__(self):
        lv = sorted(self.counts)
        if lv != list(range(self.j0, self.J + 1)):
            raise ValueError("schedule must cover levels j0..J")
        vals = [self.counts[j] for j in lv]
        if any(a < b for a, b in zip(vals, vals[1:])):
            raise ValueError("per-level sample counts must be non-increasing in j")

    @property
    def regime(self) -> str:
        if 2 * self.alpha > self.n:
            return "2a>n"
        if 2 * self.alpha == self.n:
            return "2a=n"
        return "2a<n"

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
    return SampleSchedule(j0=j0, J=J, counts=counts, n=n, alpha=alpha, alpha0=alpha0)


#: read-only level roots by (sha256 of C, shape, p_j), least recently used first
_ROOTS: dict = {}
_ROOTS_MAX = 16
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
    coefficient vector), cached per content of ``C``; the source keeps a copy,
    so later changes to ``C`` cannot mislabel a cached root.  Draws are keyed
    by (seed, stream), reproducible.
    """

    def __init__(self, C: np.ndarray, idx: LevelIndexSet, seed: int):
        self.idx = idx
        self.seed = seed
        self.C = np.array(C, dtype=float, order="C")
        self._digest = hashlib.sha256(self.C).digest()
        self._xi = np.empty(0)          # reused buffer of the standard normals

    def _root(self, j: int) -> np.ndarray:
        p_j = self.idx.truncate(j).p
        key = (self._digest, self.C.shape, p_j)
        root = _ROOTS.pop(key, None)
        if root is None:
            if p_j > ROOT_MAX_P:
                raise ValueError(f"dense level root capped at p = {ROOT_MAX_P}")
            root = sym_function(self.C[:p_j, :p_j], _psd_sqrt)
            root.flags.writeable = False
        _ROOTS[key] = root
        if len(_ROOTS) > _ROOTS_MAX:
            del _ROOTS[next(iter(_ROOTS))]
        return root

    def draw(self, j_res: int, count: int, stream_id: int, cols=slice(None)) -> np.ndarray:
        """Columns ``cols`` of (count, p(j_res)) i.i.d. coefficient vectors at
        resolution j_res, equal to those of the full draw."""
        root = self._root(j_res)
        if self._xi.size < count * root.shape[0]:
            self._xi = np.empty(count * root.shape[0])
        xi = self._xi[:count * root.shape[0]].reshape(count, root.shape[0])
        rng.stream(self.seed, stream_id).standard_normal(out=xi)
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
        return data[start:start + count, cols]


def write_sample_csv(path, level: int, samples: np.ndarray) -> None:
    samples = np.atleast_2d(samples)
    with open(path, "w", newline="") as f:
        f.write(f"# level: {level}\n")
        np.savetxt(f, samples, fmt="%.17g", delimiter=",", newline="\r\n")


@dataclass
class MlmcEstimate:
    matrix: SparseSymMatrix
    block_counts: dict
    work: int
    seed: int
    diagnostics: dict = field(default_factory=dict)


def estimate(pattern: TaperPattern, sched: SampleSchedule, source,
             seed: int) -> MlmcEstimate:
    """Blockwise multilevel Monte Carlo estimator on the taper pattern.

    The level-pair sum runs over ordered pairs, so each off-diagonal block
    is estimated twice with independent draws of ``M_{jj'}`` samples (once
    per orientation); the two estimates are averaged, which keeps the result
    exactly symmetric and halves the off-diagonal block variance relative to
    a single mirrored estimate.
    """
    idx = pattern.idx
    if sched.J != idx.J or sched.j0 != idx.j0:
        raise ValueError("schedule and pattern must share the level range")
    parts = []                          # (rows, cols, values) on the pattern
    block_counts = {}
    stream_id = 1
    for a, j in enumerate(idx.levels):
        sj = idx.level_slice(j)
        for jp in idx.levels[a:]:
            sp = idx.level_slice(jp)
            m = sched.block_count(j, jp)
            block_counts[(j, jp)] = m
            if jp == j:
                Z = source.draw(j, m, stream_id, sj)
                stream_id += 1
                blk = (Z.T @ Z) / m
                blk = 0.5 * (blk + blk.T)
            else:
                # only the columns of levels j and j' are drawn, those of j first
                n, cols = sj.stop - sj.start, np.r_[sj, sp]
                Z = source.draw(jp, m, stream_id, cols)
                Z2 = source.draw(jp, m, stream_id + 1, cols)
                stream_id += 2
                blk = (Z[:, :n].T @ Z[:, n:]) / m
                blk = 0.5 * (blk + (Z2[:, n:].T @ Z2[:, :n]).T / m)
            r, c = pattern.block(j, jp)
            parts.append((r + sj.start, c + sp.start, blk[r, c]))
            if jp != j:
                parts.append((c + sp.start, r + sj.start, blk[r, c]))
    r, c, v = (np.concatenate(x) for x in zip(*parts))
    M = sparse.csr_matrix((v, (r, c)), shape=(idx.p, idx.p))
    return MlmcEstimate(matrix=SparseSymMatrix(M), block_counts=block_counts,
                        work=sched.work(), seed=seed,
                        diagnostics={"regime": sched.regime})


def error_report(est: MlmcEstimate, truth: np.ndarray, idx: LevelIndexSet) -> dict:
    """Operator-norm error: the largest |eigenvalue| of ``truth - E``
    (``truth`` must be symmetric and match ``idx``)."""
    truth = np.asarray(truth, dtype=float)
    E = est.matrix.to_dense()
    if not truth.shape == E.shape == (idx.p, idx.p):
        raise ValueError("dimension mismatch between estimate, truth and index set")
    return {"op_norm_error": float(np.max(np.abs(dense_eigvals(truth - E))))}
