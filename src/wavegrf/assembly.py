"""Galerkin assembly of covariance matrices on a closed curve.

Entries are

    A[k,k'] = int int k(|gamma(s) - gamma(t)|) phi_k(s) phi_k'(t) w(s) w(t) ds dt

with hat functions ``phi_k`` (L2-normalized in the parameter domain) and the
arc-length weight ``w = |gamma'|``.  The dense single-scale matrix is
``Phi^T K Phi`` over the upper triangle of cell pairs, plus triangle-rule
self blocks; the congruence transform takes it to wavelet coordinates.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse

from .curves import CurveSpec
from .quadrature import gauss_rule
from .wavelets import WaveletSystem


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
    Gauss panels (``self_blocks``).  All other pairs (including adjacent
    cells, where the diagonal touches just a corner) take one plain panel
    per cell pair, from the points ``pts`` and weighted hats ``uwb``.
    """

    def __init__(self, curve: CurveSpec, kernel, level: int, q: int = 8):
        self.curve = curve
        self.kern = _kernel_callable(kernel)
        self.N = 2**level
        self.h = 1.0 / self.N
        x, w = gauss_rule(q)
        self.x, self.w = x, w
        self.norm = 2.0 ** (level / 2.0)
        # per-cell plain-panel data
        t = (np.arange(self.N)[:, None] + x[None, :]) * self.h     # (N, q)
        self.pts = curve.xy_t(t)                                   # (N, q, 2)
        uw = curve.weight_t(t) * (w[None, :] * self.h)             # weight * quad wt
        basis = np.stack([1.0 - x, x], axis=1) * self.norm         # (q, 2)
        self.uwb = uw[:, :, None] * basis[None, :, :]              # (N, q, 2)

    # -- self pairs: two smooth triangles ------------------------------------
    @cached_property
    def self_blocks(self) -> np.ndarray:
        """Blocks for all pairs (c, c): split at the diagonal and map each
        triangle {s fixed, t between s and the cell edge} to a tensor panel.

        With ``T[i,j]`` the upper triangle (t > s), the lower one equals
        ``T[j,i]`` by symmetry of the integrand.
        """
        x, w = self.x, self.w
        cells = np.arange(self.N)
        acc = np.zeros((self.N, 2, 2))
        for upper in (True, False):
            if upper:
                xs = x                                   # s in [0, 1]
                xt = x[:, None] + (1.0 - x[:, None]) * x[None, :]   # (a, b)
                jac = (1.0 - x)[:, None] * np.ones_like(x)[None, :]
            else:
                xs = x
                xt = x[:, None] * x[None, :]             # t in [0, s]
                jac = x[:, None] * np.ones_like(x)[None, :]
            ts = (cells[:, None] + xs[None, :]) * self.h
            tt = (cells[:, None, None] + xt[None, :, :]) * self.h
            ps = self.curve.xy_t(ts)                     # (N, q, 2)
            pt = self.curve.xy_t(tt)                     # (N, q, q, 2)
            d = ps[:, :, None, :] - pt
            K = self.kern(np.sqrt(np.sum(d * d, axis=-1)))
            us = self.curve.weight_t(ts) * (w[None, :] * self.h)            # (N, q)
            ut = self.curve.weight_t(tt) * ((w[None, :] * jac) * self.h)    # (N, q, q)
            bs = np.stack([1.0 - xs, xs], axis=1) * self.norm               # (q, 2)
            bt = np.stack([1.0 - xt, xt], axis=-1) * self.norm              # (q, q, 2)
            acc += np.einsum("mab,ma,mab,ai,abj->mij", K, us, ut, bs, bt)
        return acc


def assemble_single_scale(curve: CurveSpec, kernel, J: int, j0: int = 2,
                          q: int = 8) -> np.ndarray:
    """Dense single-scale Galerkin matrix spanning the space of ``Lambda_J``.

    The hat basis lives at level ``L = J + 1`` (dimension ``p = N = 2**L``).
    ``Phi`` is the sparse (N q x N) map from plain-panel quadrature points to
    hats (entries ``uwb``).  Row chunks of cells c add ``Phi^T K Phi`` over
    the cell pairs c < c' to ``B``, self pairs add half their triangle-rule
    blocks, and the result ``B + B^T`` is symmetric by construction.
    """
    if J < j0:
        raise ValueError("need J >= j0")
    inter = CellInteractions(curve, kernel, J + 1, q=q)
    N, cells, pt = inter.N, np.arange(inter.N), np.arange(inter.N * q)
    hat_of = (np.repeat(pt // q, 2) + np.tile([0, 1], N * q)) % N     # hats c, c+1 of points
    Phi = sparse.csr_matrix((inter.uwb.ravel(), (np.repeat(pt, 2), hat_of)), shape=(N * q, N))
    X, Y = inter.pts[..., 0].ravel(), inter.pts[..., 1].ravel()
    A = np.zeros((N, N))
    chunk = max(1, (1 << 22) // (N * q * q))
    for s in range(0, N, chunk):
        e = min(s + chunk, N)
        r, c = slice(s * q, e * q), slice(s * q, N * q)
        d2 = np.subtract.outer(X[c], X[r]) ** 2
        d2 += np.subtract.outer(Y[c], Y[r]) ** 2
        K = inter.kern(np.sqrt(d2, out=d2))                       # (cols, rows)
        # keep cell pairs c' > c only: self pairs take the triangle rule
        lower = np.nonzero(cells[:e - s, None] <= cells[None, :e - s])
        K.reshape(N - s, q, e - s, q)[lower[0], :, lower[1], :] = 0.0
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
