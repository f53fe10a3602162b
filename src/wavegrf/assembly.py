"""Galerkin assembly of covariance matrices on a closed curve.

Entries are

    A[k,k'] = int int k(|gamma(s) - gamma(t)|) phi_k(s) phi_k'(t) w(s) w(t) ds dt

with hat functions ``phi_k`` (L2-normalized in the parameter domain) and the
arc-length weight ``w = |gamma'|``.  The dense single-scale matrix is
``Phi^T K Phi`` over the upper triangle of cell pairs, plus triangle-rule
self blocks; the same cell-pair rules back the pattern-restricted
wavelet-coordinate assembly so both paths agree to quadrature accuracy.
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
    """Pairwise cell interaction blocks for hat functions at one level.

    ``block(c, cp)`` is the 2x2 array of integrals of
    ``kern * phi_{c+i} * phi_{cp+j} * w * w`` over cell ``c`` x cell ``cp``.
    The kernel has a kink only across the diagonal s = t, which meets the
    domain only for self pairs; those are split into two triangles on which
    the integrand is one-sidedly smooth and integrated by mapped tensor
    Gauss panels.  All other pairs (including adjacent cells, where the
    diagonal touches just a corner) take one plain panel per cell pair.
    """

    def __init__(self, curve: CurveSpec, kernel, level: int, q: int = 8):
        self.curve = curve
        self.kern = _kernel_callable(kernel)
        self.level = level
        self.N = 2**level
        self.h = 1.0 / self.N
        self.q = q
        x, w = gauss_rule(q)
        self.x, self.w = x, w
        self.norm = 2.0 ** (level / 2.0)
        # per-cell plain-panel data
        t = (np.arange(self.N)[:, None] + x[None, :]) * self.h     # (N, q)
        self.pts = curve.xy_t(t)                                   # (N, q, 2)
        uw = curve.weight_t(t) * (w[None, :] * self.h)             # weight * quad wt
        self.basis = np.stack([1.0 - x, x], axis=1) * self.norm    # (q, 2)
        self.uwb = uw[:, :, None] * self.basis[None, :, :]         # (N, q, 2)

    # -- plain far-field panels -------------------------------------------
    def plain_blocks(self, c: np.ndarray, cp: np.ndarray) -> np.ndarray:
        """Tensor-Gauss blocks for pair arrays (must not be touching)."""
        d = self.pts[c][:, :, None, :] - self.pts[cp][:, None, :, :]
        K = self.kern(np.sqrt(np.sum(d * d, axis=-1)))             # (m, q, q)
        return np.einsum("mab,mai,mbj->mij", K, self.uwb[c], self.uwb[cp])

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

    def blocks(self, c: np.ndarray, cp: np.ndarray) -> np.ndarray:
        """Interaction blocks for arbitrary pair arrays."""
        c = np.asarray(c, dtype=int)
        cp = np.asarray(cp, dtype=int)
        off = (cp - c) % self.N
        out = np.empty((len(c), 2, 2))
        far = off != 0
        if np.any(far):
            # chunk to bound the (m, q, q) temporaries
            idx = np.nonzero(far)[0]
            for s in range(0, len(idx), 4096):
                sel = idx[s:s + 4096]
                out[sel] = self.plain_blocks(c[sel], cp[sel])
        if np.any(~far):
            out[~far] = self.self_blocks[c[~far]]
        return out


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


def from_wavelet_coordinates(system: WaveletSystem, C: np.ndarray) -> np.ndarray:
    """Inverse congruence of :func:`to_wavelet_coordinates`."""
    B = system.ifwt_dual(np.asarray(C, dtype=float))
    A = system.ifwt_dual(B.T)
    return 0.5 * (A + A.T)


def assemble_compressed(curve: CurveSpec, kernel, system: WaveletSystem,
                        J: int, pattern, q: int = 8,
                        max_level: int = 11) -> "object":
    """Assemble only the pattern entries of the wavelet-coordinate matrix.

    Each kept entry is the quadrature of the kernel against the two wavelets
    synthesized from single-scale pieces on their supports, reusing the same
    cell-pair rules as the dense path.  Returns a sparse symmetric matrix.
    """
    from .linalg import SparseSymMatrix

    idx = system.index_set(J)
    if pattern.idx.p != idx.p:
        raise ValueError("pattern dimension mismatch")
    L = J + 1
    if L > max_level:
        raise ValueError(f"compressed assembly capped at level {max_level}")
    inter = CellInteractions(curve, kernel, L, q=q)
    N = inter.N
    # hat coefficients (cell-edge weights) of every basis function: column
    # lam of T maps the wavelet to single-scale hats
    T = system.ifwt(np.eye(idx.p))
    cell_w = {}
    for lam in range(idx.p):
        col = T[:, lam]
        nz = np.nonzero(np.abs(col) > 1e-14)[0]
        cell_w[lam] = (nz, col[nz])
    rows, cols, vals = [], [], []
    mask = pattern.mask
    for lam in range(idx.p):
        hats_a, wa = cell_w[lam]
        partners = np.nonzero(mask[lam, :lam + 1])[0]
        for mu in partners:
            hats_b, wb = cell_w[mu]
            # cells supporting a hat k are k-1 and k
            ca = np.unique(np.concatenate([(hats_a - 1) % N, hats_a]) % N)
            cb = np.unique(np.concatenate([(hats_b - 1) % N, hats_b]) % N)
            cc, pp = np.meshgrid(ca, cb, indexing="ij")
            blk = inter.blocks(cc.ravel(), pp.ravel()).reshape(len(ca), len(cb), 2, 2)
            # accumulate hat-pair interactions weighted by the two columns
            wa_full = np.zeros(N)
            wa_full[hats_a] = wa
            wb_full = np.zeros(N)
            wb_full[hats_b] = wb
            shift = np.array([0, 1])
            v = np.einsum("abij,ai,bj->", blk,
                          wa_full[(ca[:, None] + shift[None, :]) % N],
                          wb_full[(cb[:, None] + shift[None, :]) % N])
            rows.append(lam)
            cols.append(mu)
            vals.append(v)
    M = sparse.coo_matrix((vals, (rows, cols)), shape=(idx.p, idx.p)).tocsr()
    upper = sparse.triu(M.T, k=1)
    return SparseSymMatrix((M + upper).tocsr())
