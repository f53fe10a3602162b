"""Galerkin assembly of covariance matrices on a closed curve.

Entries are

    A[k,k'] = int int k(|gamma(s) - gamma(t)|) phi_k(s) phi_k'(t) w(s) w(t) ds dt

with hat functions ``phi_k`` (L2-normalized in the parameter domain) and the
arc-length weight ``w = |gamma'|``.  The dense single-scale matrix is
``Phi^T K Phi`` over the upper triangle of cell pairs, plus triangle-rule
self blocks; the congruence transform takes it to wavelet coordinates.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse

from .curves import CurveSpec
from .wavelets import WaveletSystem

#: Gauss order of the self-pair triangle rule and of the far-order probe reference
SELF_ORDER = 8


@lru_cache(maxsize=32)
def gauss_rule(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(q)
    return 0.5 * (x + 1.0), 0.5 * w


def _kernel_callable(kernel):
    if callable(kernel):
        return kernel
    raise TypeError("kernel must be callable (KernelSpec or function of distance)")


class CellInteractions:
    """Cell quadrature data for hat functions at one level.

    The interaction of cells ``c`` and ``cp`` is the 2x2 array of integrals
    of ``kern * phi_{c+i} * phi_{cp+j} * w * w`` over cell ``c`` x cell ``cp``.
    The kernel has a kink only across the diagonal s = t, which meets the
    domain only for self pairs; those are split into two triangles on which
    the integrand is one-sidedly smooth and integrated by mapped tensor
    Gauss panels of order ``SELF_ORDER`` (``self_blocks``).  All other pairs
    (including adjacent cells, where the diagonal touches just a corner)
    have an analytic integrand and take one plain panel per cell pair, from
    the points and weighted hats of ``panel(m)``.
    """

    def __init__(self, curve: CurveSpec, kernel, level: int):
        self.curve = curve
        self.kern = _kernel_callable(kernel)
        self.N = 2**level
        self.h = 1.0 / self.N
        self.norm = 2.0 ** (level / 2.0)

    def panel(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Order-``m`` plain-panel points (N, m, 2) and weighted hats (N, m, 2)."""
        x, w = gauss_rule(m)
        t = (np.arange(self.N)[:, None] + x[None, :]) * self.h
        pts, uw = self.curve.xy_weight_t(t)
        uw *= w[None, :] * self.h                                   # weight * quad wt
        basis = np.stack([1.0 - x, x], axis=1) * self.norm          # (m, 2)
        return pts, uw[:, :, None] * basis[None, :, :]

    def pair_blocks(self, m: int, partners: np.ndarray) -> np.ndarray:
        """(S, N, 2, 2) blocks of the cell pairs (c, partners[s, c]) at order m."""
        pts, uwb = self.panel(m)
        d = pts[None, :, :, None, :] - pts[partners][:, :, None, :, :]
        K = self.kern(np.sqrt(np.sum(d * d, axis=-1)))                    # (S, N, m, m)
        return np.einsum("scab,cai,scbj->scij", K, uwb, uwb[partners])

    def folded_partners(self) -> np.ndarray:
        """For each cell c, the cell c + s (2 <= s <= N/2) nearest to it in
        space relative to s: across a narrow neck, the cell on the other side.
        O(N^2) distances between cell centres, in blocks of about 2^18."""
        N, cells = self.N, np.arange(self.N)
        x, y = np.tile(self.curve.xy_t((cells + 0.5) * self.h).T, 2)   # centres, twice round
        win = np.lib.stride_tricks.sliding_window_view
        hi, step = max(2, N // 2) + 1, max(1, (1 << 18) // N)
        best, out = np.full(N, np.inf), cells.copy()
        for s0 in range(2, hi, step):
            s1 = min(s0 + step, hi)
            d2 = (win(x, N)[s0:s1] - x[:N]) ** 2                      # (s1 - s0, N)
            d2 += (win(y, N)[s0:s1] - y[:N]) ** 2
            d2 /= np.arange(s0, s1)[:, None] ** 2
            k = d2.argmin(axis=0)
            r2 = d2[k, cells]
            closer = r2 < best
            best[closer], out[closer] = r2[closer], (cells + s0 + k)[closer] % N
        return out

    def far_order(self) -> int:
        """Lowest plain-panel order that matches ``SELF_ORDER`` to 1e-14 of the
        largest entry on a probe of three pairs per cell: the adjacent one
        (the Gauss error is largest there or nearly so on a smooth arc), the
        one N/4 cells on (for kernels whose error is flat in the separation)
        and the folded one (``folded_partners``).  Every non-self integrand
        is analytic."""
        cells = np.arange(self.N)
        partners = np.stack([(cells + 1) % self.N, (cells + max(1, self.N // 4)) % self.N,
                             self.folded_partners()])
        ref = self.pair_blocks(SELF_ORDER, partners)
        tol = 1e-14 * np.abs(ref).max()
        for m in range(1, SELF_ORDER):
            if np.abs(self.pair_blocks(m, partners) - ref).max() <= tol:
                return m
        return SELF_ORDER

    # -- self pairs: two smooth triangles ------------------------------------
    @cached_property
    def self_blocks(self) -> np.ndarray:
        """Blocks for all pairs (c, c): split at the diagonal and map each
        triangle {s fixed, t between s and the cell edge} to a tensor panel.

        With ``T[i,j]`` the upper triangle (t > s), the lower one equals
        ``T[j,i]`` by symmetry of the integrand.
        """
        x, w = gauss_rule(SELF_ORDER)
        cells = np.arange(self.N)
        ts = (cells[:, None] + x[None, :]) * self.h     # s in [0, 1]
        ps, us = self.curve.xy_weight_t(ts)                                 # (N, q, 2)
        us *= w[None, :] * self.h                                           # (N, q)
        bs = np.stack([1.0 - x, x], axis=1) * self.norm                     # (q, 2)
        acc = np.zeros((self.N, 2, 2))
        # t in [s, 1] (upper) and in [0, s] (lower) at (a, b), with Jacobian jac[a]
        for xt, jac in ((x[:, None] + (1.0 - x[:, None]) * x[None, :], 1.0 - x),
                        (x[:, None] * x[None, :], x)):
            tt = (cells[:, None, None] + xt[None, :, :]) * self.h
            pt, ut = self.curve.xy_weight_t(tt)                              # (N, q, q, 2)
            K = self.kern(np.sqrt(np.sum((ps[:, :, None, :] - pt) ** 2, axis=-1)))
            ut *= (w[None, :] * jac[:, None]) * self.h                      # (N, q, q)
            bt = np.stack([1.0 - xt, xt], axis=-1) * self.norm              # (q, q, 2)
            acc += np.einsum("mab,ma,mab,ai,abj->mij", K, us, ut, bs, bt)
        return acc


def assemble_single_scale(curve: CurveSpec, kernel, J: int) -> np.ndarray:
    """Dense single-scale Galerkin matrix spanning the space of ``Lambda_J``.

    The hat basis lives at level ``L = J + 1`` (dimension ``p = N = 2**L``).
    Self pairs take the ``SELF_ORDER`` triangle rule, every other cell pair
    one plain panel of order ``m = far_order() <= SELF_ORDER``; ``Phi`` is the sparse
    (N m x N) map from those points to hats.  Row chunks of at most 16 cells
    c add ``Phi^T K Phi`` over the pairs c < c' to ``B``, self pairs add half
    their blocks, and the result ``B + B^T`` is symmetric by construction.
    """
    if J < 2:
        raise ValueError("need J >= 2")
    inter = CellInteractions(curve, kernel, J + 1)
    m = inter.far_order()
    pts, uwb = inter.panel(m)
    N, cells, pt = inter.N, np.arange(inter.N), np.arange(inter.N * m)
    hat_of = (np.repeat(pt // m, 2) + np.tile([0, 1], N * m)) % N     # hats c, c+1 of points
    Phi = sparse.csr_matrix((uwb.ravel(), (np.repeat(pt, 2), hat_of)), shape=(N * m, N))
    X, Y = pts[..., 0].ravel(), pts[..., 1].ravel()
    A = np.zeros((N, N))
    # short chunks keep the discarded lower half of each diagonal block small
    chunk = max(1, min(16, (1 << 22) // (N * m * m)))
    for s in range(0, N, chunk):
        e = min(s + chunk, N)
        r, c = slice(s * m, e * m), slice(s * m, N * m)
        d2 = np.subtract.outer(X[c], X[r]) ** 2
        d2 += np.subtract.outer(Y[c], Y[r]) ** 2
        K = inter.kern(np.sqrt(d2, out=d2))                       # (cols, rows)
        # keep cell pairs c' > c only: self pairs take the triangle rule
        lower = np.nonzero(cells[:e - s, None] <= cells[None, :e - s])
        K.reshape(N - s, m, e - s, m)[lower[0], :, lower[1], :] = 0.0
        # hats s..e: cell N - 1 has no partner c' > c, so its wrapped hat 0 gets nothing
        A[s:e + 1] += Phi[r, s:e + 1].T @ (Phi[c].T @ K).T
    hat = (cells[:, None, None] + np.indices((2, 2))[:, None]) % N     # (i, j) hats of c
    np.add.at(A, (hat[0], hat[1]), 0.5 * inter.self_blocks)
    A += A.T
    if not np.all(np.isfinite(A)):
        raise FloatingPointError("non-finite kernel value during assembly")
    return A


def to_wavelet_coordinates(system: WaveletSystem, A: np.ndarray) -> np.ndarray:
    """Congruence transform of a single-scale matrix to wavelet coordinates.

    ``C = T^T A T`` with ``T`` the wavelet-to-single-scale synthesis; rows
    and columns are transformed by the fast adjoint cascade.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    B = system.fwt_dual(A)            # T^T applied to columns
    C = system.fwt_dual(B.T)
    C = 0.5 * (C + C.T)
    return C
