"""A-priori tapering patterns and a-posteriori thresholding.

The taper drops an entry (lam, lam') of the wavelet-coordinate matrix when
the supports of the two basis functions are farther apart (chordally, on the
curve) than a level-pair cutoff ``tau_{jj'}``, or, for unequal levels, when
the finer function's support keeps a distance ``tau'_{jj'}`` from the
coarser one's spline knots while the supports themselves are close.  All
pairs touching the coarsest block are kept.  The curve is evaluated at
O(p * ARC_SAMPLES) points, tabulated once per level.  The kept positions are
one symmetric boolean CSR matrix, built in O(nnz); every matrix on the pattern
is a value array on its index arrays.  The cutoffs are

  tau_{jj'}  = a  * max(2^-min(j,j'),
                        2^((2J(d'-r/2) - (j+j')(d'+dt)) / (2 dt + r)))
  tau'_{jj'} = a' * max(2^-max(j,j'),
                        2^((2J(d'-r/2) - (j+j')d' - max(j,j') dt) / (dt + r)))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .curves import ChordBounds, CurveSpec
from .linalg import SparseSymMatrix, precondition
from .wavelets import LevelIndexSet, WaveletSystem

#: points per support arc (endpoints included) in the sampled distance minima
ARC_SAMPLES = 8


@dataclass(frozen=True)
class CompressionParams:
    d: int
    dt: int
    r: float
    a: float = 2.0
    a_prime: float = 2.0
    dprime: float | None = None

    def __post_init__(self):
        if self.a <= 1.0 or self.a_prime <= 1.0:
            raise ValueError("taper constants a, a' must exceed 1")
        dp = self.resolved_dprime
        # d < d' < dt + r, with equality admitted in the borderline case
        # dt = d - r (the loglinear regime, still run in the experiments)
        if not (self.d <= dp <= self.dt + self.r):
            raise ValueError(
                f"d' = {dp} violates d <= d' <= dt + r = {self.dt + self.r}")

    @property
    def resolved_dprime(self) -> float:
        if self.dprime is not None:
            return self.dprime
        return self.d + (self.dt - self.d + self.r) / 4.0


def taper_params(params: CompressionParams, j: int, jp: int, J: int) -> tuple[float, float]:
    """The pair (tau_{jj'}, tau'_{jj'}) for finest level J."""
    if not (j <= J and jp <= J):
        raise ValueError("levels must not exceed J")
    dp = params.resolved_dprime
    d, dt, r = params.d, params.dt, params.r
    num = 2.0 * J * (dp - r / 2.0)
    tau = params.a * max(2.0 ** (-min(j, jp)),
                         2.0 ** ((num - (j + jp) * (dp + dt)) / (2.0 * dt + r)))
    taup = params.a_prime * max(2.0 ** (-max(j, jp)),
                                2.0 ** ((num - (j + jp) * dp - max(j, jp) * dt) / (dt + r)))
    return tau, taup


@dataclass
class TaperPattern:
    """Kept positions of the taper: ``csr``, a symmetric boolean (p, p) CSR
    matrix with O(p) entries (a dense mask is converted to it), is the one index
    set of the pattern; matrices on it are values in the order of ``csr.data``."""
    idx: LevelIndexSet
    csr: sparse.csr_matrix

    def __post_init__(self):
        self.csr = sparse.csr_matrix(self.csr, dtype=bool)
        self.csr.sum_duplicates()           # canonical: row-major, sorted columns

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def nnz_fraction(self) -> float:
        return self.nnz / float(self.idx.p) ** 2

    @property
    def mask(self) -> sparse.csr_matrix:
        """:attr:`csr`, under the name the benchmark check still reads."""
        return self.csr

    @cached_property
    def _blocks(self) -> dict:
        # entries numbered from 1 in csr order, so that no entry reads as zero
        ids = sparse.csr_matrix((np.arange(1, self.nnz + 1), self.csr.indices, self.csr.indptr),
                                shape=self.csr.shape)
        t = ids.T.tocsr()           # if symmetric: the same structure, numbered by mirror
        if (t.indptr != self.csr.indptr).any() or (t.indices != self.csr.indices).any():
            raise ValueError("taper pattern is not symmetric")
        out = {}
        for a, j in enumerate(self.idx.levels):
            rows = ids[self.idx.level_slice(j)]
            for jp in self.idx.levels[a:]:
                b = rows[:, self.idx.level_slice(jp)].tocoo()
                out[j, jp] = (b.row, b.col, b.data - 1, t.data[b.data - 1] - 1)
        return out

    def block(self, j: int, jp: int) -> tuple[np.ndarray, ...]:
        """Local (rows, cols) of the kept entries of level-pair block (j, j')
        for j <= j', row-major, then the positions in ``csr.data`` of those
        entries and of their mirrors in block (j', j)."""
        return self._blocks[j, jp]


def _classify_vs_threshold(gap, thresh, bounds: ChordBounds, chord_fn):
    """Sign of (chordal distance - thresh) from parameter gaps.

    ``gap`` is the circular parameter distance between the two sets; pairs in
    the bracket band get an exact sampled chordal distance via ``chord_fn``.
    Returns boolean "distance > thresh".
    """
    above = bounds.c_lo * gap > thresh
    below = bounds.c_hi * gap <= thresh
    unsure = ~(above | below)
    if np.any(unsure):
        above = above.copy()
        above[unsure] = chord_fn(np.nonzero(unsure)) > thresh
    return above


def build_pattern(system: WaveletSystem, curve: CurveSpec,
                  params: CompressionParams, J: int) -> TaperPattern:
    """A-priori taper pattern over ``Lambda_J`` with chordal distances.

    Support-to-support distances are minima over ``ARC_SAMPLES`` points
    per arc (endpoints included), gathered from per-level tables of arc points
    and spline knots (at most ``p * (ARC_SAMPLES + 2 dt + 3)`` curve points);
    a two-sided comparison of chord versus parameter distance keeps the
    sampled minima to a thin band.  As the level-j' support centers are
    equispaced, only a circular window of columns around each row can be
    within ``tau_{jj'}``, so O(nnz) pairs are classified.  The cutoffs use
    the single-scale resolution level ``J + 1 = log2 p`` (the coarsest block
    shifts the wavelet level count down by one relative to the dimension).
    """
    idx = system.index_set(J)
    j0 = idx.j0
    bounds = ChordBounds(curve)
    geom = {j: system.level_geometry(j) for j in range(j0 + 1, J + 1)}
    # (2^j, points, 2) curve points per level: ARC_SAMPLES per arc, 2 dt + 3 knots
    arcs = {j: curve.xy_t((g["start"][:, None] + np.linspace(0.0, 1.0, ARC_SAMPLES)
                           * g["width"]) % 1.0) for j, g in geom.items()}
    knots = {j: curve.xy_t((g["start"][:, None] + np.arange(2 * system.dt + 3)
                            * g["knot_step"]) % 1.0) for j, g in geom.items()}

    def circ(x):
        x = np.abs(np.mod(x, 1.0))
        return np.minimum(x, 1.0 - x)

    rows, cols = [], []
    for a, j in enumerate(idx.levels):
        for jp in idx.levels[a:]:
            n_p = idx.level_sizes[jp]
            first, width = np.zeros(idx.level_sizes[j], dtype=int), n_p   # whole block
            if j > j0:
                gj, gp = geom[j], geom[jp]
                half = (gj["width"] + gp["width"]) / 2.0
                tau, taup = taper_params(params, j, jp, J + 1)
                # every pair with c_lo * gap <= tau has its column center within
                # reach of the row center; add one index of margin on each side
                reach = tau / bounds.c_lo + half
                w = 2 * int(np.ceil(reach / gp["h"])) + 3
                if w < n_p:
                    first = np.floor((gj["center"] - reach) / gp["h"] - 0.5).astype(int) - 1
                    width = w
            ii = np.repeat(np.arange(len(first)), width)
            jj = ((first[:, None] + np.arange(width)) % n_p).ravel()
            # pairs touching the coarsest block, or with wrapping supports, are kept
            if j > j0 and half < 0.5:
                gap = np.maximum(0.0, circ(gj["center"][ii] - gp["center"][jj]) - half)

                def support_chord(w):
                    return _min_chord(arcs[j][ii[w]], arcs[jp][jj[w]])

                drop = _classify_vs_threshold(gap, tau, bounds, support_chord)
                if jp > j:
                    # second branch: support of the finer function inside the
                    # smooth part of the coarser one
                    near = ~_classify_vs_threshold(gap, 2.0 ** (-j), bounds, support_chord)
                    cand = np.nonzero(near & ~drop)[0]
                    kgap = _knot_gap(gj, gp, ii[cand], jj[cand])

                    def chord_knots(w):
                        return _min_chord(knots[j][ii[cand[w]]], arcs[jp][jj[cand[w]]])

                    drop[cand[_classify_vs_threshold(kgap, taup, bounds, chord_knots)]] = True
                ii, jj = ii[~drop], jj[~drop]
            r, c = ii + idx.level_slice(j).start, jj + idx.level_slice(jp).start
            # a diagonal block is stored transposed, as (c, r)
            rows += [c] if jp == j else [r, c]
            cols += [r] if jp == j else [c, r]
    r, c = np.concatenate(rows), np.concatenate(cols)
    csr = sparse.csr_matrix((np.ones(len(r), dtype=bool), (r, c)), shape=(idx.p, idx.p))
    return TaperPattern(idx=idx, csr=csr)


def _min_chord(a, b):
    """Least distance between the point sets ``a[k]`` and ``b[k]``, per row k."""
    d = a[:, :, None, :] - b[:, None, :, :]
    return np.sqrt(np.sum(d * d, axis=-1)).min(axis=(1, 2))


def _knot_gap(gj, gp, ii, jj):
    """Circular parameter distance from the knot grid of the coarse function
    (clamped to its support) to the fine support arc."""
    w_f = gp["width"]
    cen_f = gp["center"][jj]
    s_c = gj["start"][ii]
    w_c = gj["width"]
    step = gj["knot_step"]
    nk = int(round(w_c / step))
    # signed offset of the fine center from the coarse support start, in [0,1)
    delta = np.mod(cen_f - s_c, 1.0)
    knot_pos = np.clip(np.round(delta / step), 0, nk)
    d = np.abs(delta - knot_pos * step)
    d = np.minimum(d, 1.0 - d)
    return np.maximum(0.0, d - w_f / 2.0)


def apply_pattern(A: np.ndarray, pattern: TaperPattern):
    """Zero the complement of the pattern, keeping entries bit-exactly, as
    values gathered onto the pattern's own index arrays."""
    A, csr = np.asarray(A), pattern.csr
    if A.shape != csr.shape:
        raise ValueError("dimension mismatch between matrix and pattern")
    r, c = csr.nonzero()
    return SparseSymMatrix(sparse.csr_matrix((A[r, c], csr.indices, csr.indptr), shape=A.shape))


def aposteriori_threshold(S, idx: LevelIndexSet, ra: float, delta: float):
    """Drop entries of the SparseSymMatrix ``S`` small after diagonal preconditioning.

    Entry (lam, lam') is dropped when ``2^(ra(|lam|+|lam'|)) |entry| < delta``;
    the diagonal is never dropped and drops are symmetric.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    R = precondition(S, idx, ra).csr.tocoo()       # on S's index arrays
    keep = sparse.csr_matrix(((np.abs(R.data) >= delta) | (R.row == R.col),
                              S.csr.indices, S.csr.indptr), shape=S.shape)
    # symmetric drops: keep an entry only if its mirror is kept too
    return SparseSymMatrix(S.csr.multiply(keep.multiply(keep.T)))

