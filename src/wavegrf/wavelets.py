"""Periodic multiresolution system on the parameter circle [0, 1).

Index convention: the wavelet index set ``Lambda_J`` holds the coarsest
scaling block (level label ``j0``, the ``2**(j0+1)`` scaling functions of
level ``j0 + 1``) followed by genuine wavelet blocks at levels
``j0+1, ..., J`` with ``2**j`` translates each, so ``p = 2**(J+1)``.  The
flat layout is level-major, translate-minor.  A coefficient vector of
length ``p`` in single-scale (hat) coordinates lives at level ``J + 1``.

Basis functions are L2-normalized in the parameter domain; the curve
measure is handled by Galerkin assembly.

The fast transforms are chains of sparse level operators: one analysis
level step at length ``n`` is an ``n x n`` CSR matrix built once from the
filter masks and kept in a bounded cache keyed on ``(d, dt, kind, n)``.
Each transform costs one sparse product per level, O(p) in total, and acts
along axis 0, so a 2-D array is transformed column by column in one call;
a scipy sparse matrix runs the same chain as sparse products and stays CSR.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import sparse

from .filters import FilterBank, build_filter_bank

SQRT2 = np.sqrt(2.0)


class LevelIndexSet:
    """Flat layout bookkeeping for ``Lambda_J = {(j,k): j0 <= j <= J}``."""

    def __init__(self, j0: int, J: int):
        if J < j0:
            raise ValueError(f"need J >= j0, got j0={j0}, J={J}")
        self.j0 = j0
        self.J = J
        sizes = [2 ** (j0 + 1)] + [2**j for j in range(j0 + 1, J + 1)]
        self.level_sizes = dict(zip(range(j0, J + 1), sizes))
        offs = np.concatenate([[0], np.cumsum(sizes)])
        self._offsets = {j: int(offs[i]) for i, j in enumerate(range(j0, J + 1))}
        self.p = int(offs[-1])

    @property
    def levels(self) -> range:
        return range(self.j0, self.J + 1)

    def level_slice(self, j: int) -> slice:
        off = self._offsets[j]
        return slice(off, off + self.level_sizes[j])

    def level_of_position(self) -> np.ndarray:
        out = np.empty(self.p, dtype=int)
        for j in self.levels:
            out[self.level_slice(j)] = j
        return out


def index_set_for_dim(p: int, j0: int) -> LevelIndexSet:
    J = int(p).bit_length() - 2
    if 2 ** (J + 1) != p or J < j0:
        raise ValueError(f"p={p} is not 2**(J+1) with J >= j0={j0}")
    return LevelIndexSet(j0, J)


def diag_scaling(idx: LevelIndexSet, s: float) -> np.ndarray:
    """Entries ``2**(s*|lambda|)`` over the flat layout."""
    return np.power(2.0, s * idx.level_of_position())


@lru_cache(maxsize=256)
def _level_operator(d: int, dt: int, kind: str, n: int,
                    transpose: bool = False) -> sparse.csr_matrix:
    """One periodic analysis level step at length ``n`` as an ``n x n`` CSR matrix.

    Rows ``k < n/2`` are the low-pass outputs and rows ``n/2 + k`` the
    high-pass outputs ``2^-1/2 sum_i m_i c[(2k+i) mod n]``; taps that wrap
    onto the same column are summed.  ``kind`` names the analysis whose
    masks are used: ``"fwt"`` (dual masks) or ``"fwt_dual"`` (spline masks).
    With ``transpose=True`` the cached transpose is returned: the matching
    synthesis step of the other family.
    """
    if transpose:
        return _level_operator(d, dt, kind, n).T.tocsr()
    bank = build_filter_bank(d, dt)
    lo, hi = (bank.lo_dual, bank.hi_dual) if kind == "fwt" else (bank.lo, bank.hi)
    k = np.arange(n // 2)
    rows, cols, vals = [], [], []
    for off, mask in ((0, lo), (n // 2, hi)):
        for i, w in zip(range(mask.start, mask.stop + 1), mask.coeffs):
            rows.append(off + k)
            cols.append((2 * k + i) % n)
            vals.append(np.full(n // 2, w / SQRT2))
    coo = sparse.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n))
    return coo.tocsr()


class WaveletSystem:
    """Biorthogonal spline wavelet system with fast periodic transforms.

    ``fwt``/``ifwt`` move between single-scale (hat) coefficients and
    coefficients of the spline-wavelet expansion; ``fwt_dual``/``ifwt_dual``
    are the corresponding analysis/synthesis for the dual family.  The four
    maps satisfy ``ifwt = fwt^-1``, ``ifwt_dual = fwt_dual^-1`` and the
    adjoint relations ``fwt_dual = ifwt^T``, ``fwt = ifwt_dual^T``.

    Each map is a chain of cached sparse level operators: analysis applies
    the level steps of its own masks from the finest level down, synthesis
    applies the transposed level steps of the other family from the
    coarsest level up.  Input of shape ``(p,)`` or ``(p, m)`` is accepted,
    dense or scipy sparse; sparse input comes back as CSR.
    """

    def __init__(self, d: int, dt: int, j0: int | None = None):
        self.bank: FilterBank = build_filter_bank(d, dt)
        self.d = d
        self.dt = dt
        self.j0 = self.bank.default_j0 if j0 is None else j0
        if self.j0 < 1:
            raise ValueError("coarsest level j0 must be >= 1")
        # translates must stay distinguishable after periodization at the
        # coarsest block produced by the transforms
        halfcorr = (len(self.bank.lo_dual.coeffs) + len(self.bank.lo.coeffs)) // 4 + 1
        if 2 ** (self.j0 + 1) <= halfcorr:
            raise ValueError(f"j0={self.j0} too small for (d,dt)=({d},{dt})")

    # -- index helpers -----------------------------------------------------
    def index_set(self, J: int) -> LevelIndexSet:
        return LevelIndexSet(self.j0, J)

    def index_set_for_dim(self, p: int) -> LevelIndexSet:
        return index_set_for_dim(p, self.j0)

    # -- transforms --------------------------------------------------------
    def fwt(self, values: np.ndarray) -> np.ndarray:
        """Single-scale coefficients -> spline-wavelet coefficients."""
        return self._transform(values, "fwt", synthesis=False)

    def ifwt(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`fwt` (synthesis with the spline masks)."""
        return self._transform(coeffs, "fwt_dual", synthesis=True)

    def fwt_dual(self, values: np.ndarray) -> np.ndarray:
        """Analysis with the spline masks (adjoint of :meth:`ifwt`)."""
        return self._transform(values, "fwt_dual", synthesis=False)

    def ifwt_dual(self, coeffs: np.ndarray) -> np.ndarray:
        """Synthesis with the dual masks (adjoint of :meth:`fwt`)."""
        return self._transform(coeffs, "fwt", synthesis=True)

    def _transform(self, values: np.ndarray, kind: str, synthesis: bool) -> np.ndarray:
        x = (sparse.csr_matrix(values, dtype=float, copy=True) if sparse.issparse(values)
             else np.array(values, dtype=float, order="C"))
        J = self.index_set_for_dim(x.shape[0]).J
        for j in range(self.j0 + 1, J + 1) if synthesis else range(J, self.j0, -1):
            n = 2 ** (j + 1)
            op = _level_operator(self.d, self.dt, kind, n, synthesis)
            if sparse.issparse(x):
                x = sparse.vstack((op @ x[:n], x[n:]), format="csr")
            else:
                x[:n] = op @ x[:n]
        return x

    # -- support geometry --------------------------------------------------
    def support_width(self, j: int) -> float:
        """Support width at level j (the coarse hats span two cells of level j0 + 1)."""
        return 2.0 ** (-self.j0) if j == self.j0 else self.level_geometry(j)["width"]

    def level_geometry(self, j: int) -> dict:
        """Supports of the level-j wavelets, ``j > j0``: ``start`` (per
        translate k, mod 1), ``width``, ``center`` (``(k + 1/2) h`` mod 1),
        the cell ``h = 2^-j`` and the step ``h/2`` of the spline knots,
        which run from each ``start`` to its end."""
        if j <= self.j0:
            raise ValueError(f"level {j} is not a wavelet level above j0 = {self.j0}")
        h = 2.0 ** (-j)
        start = ((np.arange(2**j) - self.dt / 2.0) * h) % 1.0
        width = (self.dt + 1.0) * h
        center = (start + width / 2.0) % 1.0
        return dict(start=start, width=width, center=center, h=h, knot_step=h / 2.0)

    # -- pointwise evaluation ----------------------------------------------
    @lru_cache(maxsize=8)
    def scaling_values(self, dual: bool = True, sweeps: int = 8) -> tuple[np.ndarray, float]:
        """Values of the (dual) scaling function on a dyadic grid.

        Returns ``(values, step)`` with ``values[i]`` the function at
        ``support_start + i * step``, by the refinement cascade of its mask
        seeded with its exact integer-grid values (the eigenvector of the
        downsampled two-scale relation).  The primal hat comes out exact:
        every value is a dyadic rational.
        """
        mask = self.bank.lo_dual if dual else self.bank.lo
        lo, hi = mask.start, mask.stop
        # exact values at the interior integers: eigenvector of T[n,i] = a_{2n-i}
        pts = np.arange(lo + 1, hi)
        t = 2 * pts[:, None] - pts[None, :] - lo
        T = np.where((t >= 0) & (t <= hi - lo), mask.coeffs[np.clip(t, 0, hi - lo)], 0.0)
        w, V = np.linalg.eig(T)
        v = np.real(V[:, np.argmin(np.abs(w - 1.0))])
        v /= v.sum()
        vals = np.zeros(hi - lo + 1)
        vals[1:-1] = v
        for m in range(1, sweeps + 1):
            n_prev = len(vals)
            new = np.zeros(2 * n_prev - 1)
            new[::2] = vals
            # odd grid points: f(lo + s 2^-m) = sum_i a_i f(2(lo + s 2^-m) - i),
            # the argument sits at previous-grid index (lo - i) 2^(m-1) + s
            s = np.arange(1, 2 * n_prev - 1, 2)
            acc = np.zeros(len(s))
            for i, c in zip(range(mask.start, mask.stop + 1), mask.coeffs):
                j = (lo - i) * 2 ** (m - 1) + s
                ok = (j >= 0) & (j < n_prev)
                acc[ok] += c * vals[j[ok]]
            new[1::2] = acc
            vals = new
        return vals, 2.0**-sweeps

    @lru_cache(maxsize=8)
    def wavelet_values(self, dual: bool = True, sweeps: int = 8) -> tuple[np.ndarray, float]:
        """Values of the (dual) mother wavelet on a dyadic grid, as above."""
        phi, step = self.scaling_values(dual=dual, sweeps=sweeps)
        mask = self.bank.hi_dual if dual else self.bank.hi
        sc = self.bank.lo_dual if dual else self.bank.lo
        sc_lo, sc_hi = sc.start, sc.stop
        lo = (mask.start + sc_lo) / 2.0
        hi = (mask.stop + sc_hi) / 2.0
        n = int(round((hi - lo) / (step / 1))) + 1
        x = lo + np.arange(n) * step
        out = np.zeros(n)
        for i, c in zip(range(mask.start, mask.stop + 1), mask.coeffs):
            arg = 2.0 * x - i
            j = np.round((arg - sc_lo) / step).astype(int)
            ok = (j >= 0) & (j < len(phi))
            out[ok] += c * phi[j[ok]]
        return out, step

    def synthesize_at(self, coeffs: np.ndarray, positions: np.ndarray,
                      resolution: int, dual: bool = True) -> np.ndarray:
        """Evaluate ``sum_lam coeffs[lam] * basis_lam`` at the grid points
        ``positions * 2^-resolution`` (integers, periodic) in O(p) for the
        inverse transform plus O(len(positions) * support) for the gather.

        With ``dual=True`` this realizes the field expansion in the dual
        family.  ``resolution`` must be at least the single-scale level.
        """
        L = self.index_set_for_dim(np.asarray(coeffs).shape[0]).J + 1
        if resolution < L:
            raise ValueError(f"resolution 2^-{resolution} too coarse for level {L}")
        c = self.ifwt_dual(coeffs) if dual else self.ifwt(coeffs)
        sweeps = resolution - L
        phi, _ = self.scaling_values(dual=dual, sweeps=max(sweeps, 1))
        vals = phi[::1 if sweeps >= 1 else 2]      # values at step 2^-sweeps
        start = (self.bank.lo_dual if dual else self.bank.lo).start
        per = 2**sweeps
        tab = np.pad(vals * 2.0 ** (L / 2.0), (0, -len(vals) % per))
        # field(t_m) = sum_k c_k 2^{L/2} phi(m/per - k): point m sums, in increasing
        # i, the tabulated values i = r, r + per, ... where m = per*(k + start) + i
        q, r = np.divmod(np.asarray(positions) - per * start, per)
        out = np.zeros(np.shape(q))
        for s in range(len(tab) // per):
            out += tab[r + per * s] * c[(q - s) % 2**L]
        return out

    def synthesize_on_grid(self, coeffs: np.ndarray, resolution: int,
                           dual: bool = True) -> np.ndarray:
        """:meth:`synthesize_at` at all 2^resolution grid points, O(2^resolution * support)."""
        return self.synthesize_at(coeffs, np.arange(2**resolution), resolution, dual)


@lru_cache(maxsize=16)
def get_system(d: int, dt: int) -> WaveletSystem:
    return WaveletSystem(d, dt)
