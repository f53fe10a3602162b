"""Symmetric linear algebra: sparse storage, preconditioning, CG, Lanczos,
condition numbers, and the dense eigen map ``V diag(f(lam)) V^T``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .wavelets import LevelIndexSet, diag_scaling

#: relative widening of Lanczos bounds (Ritz values lie inside the spectrum),
#: Lanczos step cap and start-vector seed
BOUNDS_SAFETY, LANCZOS_MAX_ITER, LANCZOS_SEED = 0.1, 400, 7
#: largest model p given dense bounds, sparse cond, sampler operator and kriging
#: Gram (whatever K); above, Krylov
DENSE_MAX_P = 2048


def read_only(csr: sparse.csr_matrix) -> sparse.csr_matrix:
    """``csr`` with its ``data``, ``indices`` and ``indptr`` made read-only."""
    for a in (csr.data, csr.indices, csr.indptr):
        a.flags.writeable = False
    return csr


class SparseSymMatrix:
    """CSR-backed symmetric sparse matrix (both triangles stored), read-only once built."""

    def __init__(self, csr: sparse.csr_matrix, check: bool = True):
        csr = sparse.csr_matrix(csr)
        if not csr.data.all():          # in a copy: the caller's arrays stay as they are
            csr = csr.copy()
            csr.eliminate_zeros()
        csr.sum_duplicates()
        if check:
            if csr.shape[0] != csr.shape[1]:
                raise ValueError("matrix must be square")
            d = (csr - csr.T).tocoo()
            if d.nnz and np.max(np.abs(d.data)) > 1e-12 * max(1.0, abs(csr).max()):
                raise ValueError("matrix is not symmetric")
        self.csr = read_only(csr)

    @property
    def shape(self):
        return self.csr.shape

    @property
    def p(self) -> int:
        return self.csr.shape[0]

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.csr @ x

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def scaled(self, dvec: np.ndarray) -> "SparseSymMatrix":
        """``diag(d) A diag(d)``: values ``(d[row] * a) * d[col]`` on the same index arrays."""
        c = self.csr.tocoo()
        data = dvec[c.row] * c.data * dvec[c.col]
        return SparseSymMatrix(sparse.csr_matrix((data, self.csr.indices, self.csr.indptr),
                                                 shape=self.shape), check=False)


def precondition(A, idx: LevelIndexSet, s: float):
    """Two-sided diagonal scaling ``D A D`` with ``D = diag(2^(s |lam|))``
    over ``idx``.  Returns the same container type (dense array or
    SparseSymMatrix).
    """
    d = diag_scaling(idx, s)
    if isinstance(A, SparseSymMatrix):
        return A.scaled(d)
    A = np.asarray(A)
    if A.shape[0] != len(d):
        raise ValueError("dimension mismatch")
    return d[:, None] * A * d[None, :]


@dataclass
class CgResult:
    x: np.ndarray | None                # None once a caller has folded it into its result
    iterations: int
    converged: bool
    residual: float


def _as_apply(A):
    """``v -> A v`` of a callable, an array or a ``SparseSymMatrix``."""
    return A if callable(A) else A.__matmul__


def cg_solve(A, b: np.ndarray, tol: float = 1e-12,
             max_iter: int | None = None, precond=None) -> CgResult:
    """Conjugate gradients with residual stopping ``|r| <= tol |b|``,
    preconditioned by the SPD operator ``precond`` (``r -> M^-1 r``) if given.

    ``converged`` and ``residual`` report the true residual ``b - A x``. It
    is computed when the recursive residual meets ``max(tol, eps)`` (below
    eps that one drifts from it and underflows), or at ``max_iter``; above
    ``tol |b|`` it replaces the recursive one and the search restarts, unless
    it is no lower than at the last restart: then ``tol`` is out of reach.
    Raises on non-finite values, on indefinite curvature (p^T A p <= 0) or
    on an indefinite preconditioner (r^T M^-1 r <= 0).  Without ``precond``
    the iterates are those of plain CG, bit for bit.
    """
    if not 0.0 < tol < 1.0:             # at tol >= 1 the start x = 0 already passes
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    apply_A = _as_apply(A)
    apply_M = None if precond is None else _as_apply(precond)

    def preconditioned(r, rs):
        """``M^-1 r`` and ``r^T M^-1 r``; plain CG hands back ``r`` and ``rs``."""
        if apply_M is None:
            return r, rs
        z = apply_M(r)
        rz = float(r @ z)               # a non-finite z reaches p^T A p next
        if rz <= 0.0 < rs:
            raise np.linalg.LinAlgError("PCG breakdown: preconditioner is not SPD")
        return z, rz

    b = np.asarray(b, dtype=float)
    n = len(b)
    max_iter = 10 * n if max_iter is None else max_iter
    x = np.zeros_like(b)
    r = b.copy()
    rs = float(r @ r)
    bn = np.sqrt(float(b @ b))
    if bn == 0.0:
        return CgResult(x, 0, True, 0.0)
    z, rz = preconditioned(r, rs)
    p = z.copy()
    check = max(tol, np.finfo(float).eps) * bn
    it, restart_rs = 0, np.inf
    while True:
        if np.sqrt(rs) <= check or it >= max_iter:
            r = b - apply_A(x)
            rs = float(r @ r)
            if np.sqrt(rs) <= tol * bn or it >= max_iter or rs >= restart_rs:
                break
            restart_rs = rs
            z, rz = preconditioned(r, rs)
            p = z.copy()
        Ap = apply_A(p)
        # any inf or NaN in p or Ap reaches p @ Ap, since 0 * inf is NaN
        pAp = float(p @ Ap)
        if not np.isfinite(pAp):
            raise FloatingPointError("non-finite value in CG matvec")
        if pAp <= 0.0:
            raise np.linalg.LinAlgError("CG breakdown: operator is not SPD")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rs = float(r @ r)
        z, rz_new = preconditioned(r, rs)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return CgResult(x, it, np.sqrt(rs) <= tol * bn, float(np.sqrt(rs) / bn))


@dataclass
class SpectralBounds:
    lambda_min: float
    lambda_max: float

    def widened(self) -> "SpectralBounds":
        """The interval stretched by ``1 + BOUNDS_SAFETY`` at both ends."""
        return SpectralBounds(self.lambda_min / (1.0 + BOUNDS_SAFETY),
                              self.lambda_max * (1.0 + BOUNDS_SAFETY))


def lanczos_extremes(A, tol: float = 1e-8) -> SpectralBounds:
    """Extremal eigenvalues of the p x p ``A`` by Lanczos with full reorthogonalization.

    Deterministic (the start vector is drawn from ``LANCZOS_SEED``).  Raises
    if the extremes have not stabilized to relative tolerance within
    ``LANCZOS_MAX_ITER`` steps.
    """
    from scipy.linalg import eigvalsh_tridiagonal   # at module level: +7 MB per process
    apply_A, p = _as_apply(A), A.shape[0]
    max_iter = min(p, LANCZOS_MAX_ITER)
    rng = np.random.Generator(np.random.Philox(key=[LANCZOS_SEED, 0x1a2b3c4d]))
    q = rng.standard_normal(p)
    q /= np.linalg.norm(q)
    Q = np.zeros((p, max_iter))
    alphas, betas = [], []
    prev = None
    beta = 0.0
    q_prev = np.zeros(p)
    for m in range(max_iter):
        Q[:, m] = q
        u = apply_A(q)
        a = float(q @ u)
        alphas.append(a)
        u = u - a * q - beta * q_prev
        u -= Q[:, :m + 1] @ (Q[:, :m + 1].T @ u)          # full reorthogonalization
        beta = float(np.linalg.norm(u))
        cur = tuple(eigvalsh_tridiagonal(alphas, betas, select="i", select_range=(i, i))[0]
                    for i in (0, m))
        if m + 1 == p or beta == 0.0:
            return SpectralBounds(*cur)
        if prev is not None:
            ok_min = abs(cur[0] - prev[0]) <= tol * max(abs(cur[0]), 1e-300)
            ok_max = abs(cur[1] - prev[1]) <= tol * abs(cur[1])
            if ok_min and ok_max and m >= 8:
                return SpectralBounds(*cur)
        prev = cur
        betas.append(beta)
        q_prev = q
        q = u / beta
    raise RuntimeError(f"Lanczos did not converge; best bounds {prev}")


def dense_bounds(A) -> SpectralBounds:
    ev = dense_eigvals(A)
    return SpectralBounds(float(ev[0]), float(ev[-1]))


def _require_symmetric(A) -> np.ndarray:
    """Dense copy of a symmetric matrix; a SparseSymMatrix was checked when built."""
    if isinstance(A, SparseSymMatrix):
        return A.to_dense()
    M = np.asarray(A, dtype=float)
    if M.shape[0] != M.shape[1] or not (np.array_equal(M, M.T) or np.allclose(
            M, M.T, atol=1e-12 * max(1.0, np.abs(M).max()))):
        raise ValueError("dense eigensolver requires a symmetric matrix")
    return M


def dense_eigvals(A) -> np.ndarray:
    return np.linalg.eigvalsh(_require_symmetric(A))


def sym_function(A, f) -> np.ndarray:
    """``V diag(f(lam)) V^T`` from one ``eigh`` of the symmetric ``A = V diag(lam) V^T``."""
    lam, V = np.linalg.eigh(_require_symmetric(A))
    return (V * f(lam)) @ V.T


def condition_number(A) -> float:
    """2-norm condition number: dense for a dense array (it is formed already)
    or up to ``DENSE_MAX_P``, else Lanczos."""
    p = A.shape[0]
    if isinstance(A, np.ndarray) or p <= DENSE_MAX_P:
        ev = dense_eigvals(A)
        lo, hi = float(ev[0]), float(ev[-1])
    else:
        b = lanczos_extremes(A)
        lo, hi = b.lambda_min, b.lambda_max
    if lo <= 0:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (min eig {lo:.3e})")
    return hi / lo

