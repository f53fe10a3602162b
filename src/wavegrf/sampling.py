"""Gaussian field simulation through a rational matrix square root.

The preconditioned tapered covariance ``R = D^ra C_eps D^ra`` has its
spectrum in a J-independent interval ``[c-, c+]``; its square root is
approximated by a K-node quadrature of the inverse-square-root contour
integral,

    sqrt(R) ~ S_K = (2 T sqrt(c-) / (pi K)) R sum_k (dn/cn^2)(t_k | m)
                                               (R + w_k^2 I)^(-1),

with m = 1 - c-/c+, t_k = (k - 1/2) T / K, w_k = sqrt(c-) sn/cn(t_k | m)
and T the complete first-kind integral K(m) (the half-period over which
w sweeps (0, inf)); convergence in K is exponential at a rate set only by
c+/c-.  The one rule serves every pair of bounds: at c- = c+ it is m = 0
and returns sqrt(c-) to rounding.  A field sample is then
``z = D^-ra S_K xi`` with standard normal ``xi`` from a counter-based stream,
one per sample index; the rows of ``draw_matrix`` are those draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rng
from .elliptic import elliptic_complete, jacobi_sn_cn_dn
from .linalg import SpectralBounds, cg_solve, precondition, sym_function, _as_apply
from .wavelets import LevelIndexSet, diag_scaling


@dataclass(frozen=True)
class ContourQuadrature:
    c_minus: float
    K: int
    half_period: float            # K(m), the integration endpoint
    poles: np.ndarray             # w_k^2
    weights: np.ndarray           # dn/cn^2 at the nodes

    @property
    def prefactor(self) -> float:
        return 2.0 * self.half_period * np.sqrt(self.c_minus) / (np.pi * self.K)

    def scalar_values(self, lam):
        """The rational approximation evaluated at scalar arguments."""
        lam = np.asarray(lam, dtype=float)
        acc = np.zeros_like(lam)
        for w2, g in zip(self.poles, self.weights):
            acc += g / (lam + w2)
        return self.prefactor * lam * acc


def build_contour(bounds: SpectralBounds, K: int) -> ContourQuadrature:
    """Quadrature data for given spectral bounds and node count."""
    if K < 1:
        raise ValueError("need at least one quadrature node")
    lo, hi = bounds.lambda_min, bounds.lambda_max
    if lo <= 0 or hi <= 0:
        raise ValueError("spectral bounds must be positive")
    if lo > hi:
        raise ValueError(f"spectral bounds reversed: lambda_min {lo} > lambda_max {hi}")
    m = 1.0 - lo / hi
    T, _ = elliptic_complete(m)
    t = (np.arange(1, K + 1) - 0.5) * T / K
    sn, cn, dn = jacobi_sn_cn_dn(t, m)
    w2 = lo * (sn / cn) ** 2
    return ContourQuadrature(lo, K, T, w2, dn / cn**2)


def apply_sqrt(R, contour: ContourQuadrature, x: np.ndarray,
               cg_tol: float = 1e-12) -> np.ndarray:
    """Apply the rational square-root approximation of ``R`` to ``x``.

    Multi-shift CG: one CG on the smallest shift carries all K systems
    ``(R + w_k^2 I) y_k = x``, so a draw costs the matvecs of the slowest shift.
    A shift whose true residual then misses ``cg_tol |x|`` goes on by CG on that
    residual, as ``cg_solve`` restarts; one that misses it still raises.
    """
    x = np.asarray(x, dtype=float)
    apply_R, w2, xn = _as_apply(R), contour.poles, np.linalg.norm(x)
    Y, P, r = np.zeros((contour.K, len(x))), np.tile(x, (contour.K, 1)), x.copy()
    zeta = zeta_old = np.ones(contour.K)
    alpha_old, beta_old, rs, it = 1.0, 0.0, float(x @ x), 0
    n = 0 if rs == 0.0 else contour.K   # live shifts, a prefix: zeta falls as w^2 grows
    while n and it < 10 * len(x):
        zeta, zeta_old, P = zeta[:n], zeta_old[:n], P[:n]
        Ap = apply_R(P[0]) + w2[0] * P[0]                  # zeta_0 = 1: the base system
        pAp = float(P[0] @ Ap)
        if not 0.0 < pAp < np.inf:
            raise np.linalg.LinAlgError(f"CG breakdown: p^T A p = {pAp} (not SPD or not finite)")
        alpha = rs / pAp
        zeta_new = zeta * zeta_old * alpha_old / (alpha_old * zeta_old * (
            1.0 + alpha * (w2[:n] - w2[0])) + alpha * beta_old * (zeta_old - zeta))
        ratio = zeta_new / zeta
        Y[:n] += (alpha * ratio)[:, None] * P
        r -= alpha * Ap
        rs, rs_old, it = float(r @ r), rs, it + 1
        alpha_old, beta_old, zeta_old, zeta = alpha, rs / rs_old, zeta, zeta_new
        P = zeta[:, None] * r + (beta_old * ratio**2)[:, None] * P
        n = int(np.count_nonzero(zeta * np.sqrt(rs) > max(cg_tol, np.finfo(float).eps) * xn))
    res = x - apply_R(Y.T).T - w2[:, None] * Y          # one block product for all K
    for k in np.flatnonzero(np.linalg.norm(res, axis=1) > cg_tol * xn):
        fix = cg_solve(lambda v, s=w2[k]: apply_R(v) + s * v, res[k],
                       tol=cg_tol * xn / np.linalg.norm(res[k]))
        if not fix.converged:
            raise RuntimeError(f"CG for the shift w^2 = {w2[k]:.6g} stopped unconverged "
                               f"after {it + fix.iterations} iterations")
        Y[k] += fix.x
    return contour.prefactor * apply_R(contour.weights @ Y)


@dataclass
class GrfSample:
    coefficients: np.ndarray


class GrfSampler:
    """Draws dual-coordinate field samples ``z = D^-ra S_K xi``.

    Up to ``linalg.DENSE_MAX_P`` the p x p operator ``D^-ra S_K`` is formed
    once from one ``eigh`` of R (fast for repeated draws); above it each draw
    is one multi-shift CG solve and no matrix is formed.  Either way a draw is
    one vector ``xi`` at a time, so every batch of draws is those draws.
    """

    def __init__(self, Ceps, idx: LevelIndexSet, ra: float, contour: ContourQuadrature):
        self.idx = idx
        self.contour = contour
        self.R = precondition(Ceps, idx, ra)
        self.dinv = diag_scaling(idx, -ra)
        self._op = self._dense_op() if idx.p <= linalg.DENSE_MAX_P else None

    def _dense_op(self) -> np.ndarray:
        return self.dinv[:, None] * sym_function(self.R, self.contour.scalar_values)

    def covariance(self) -> np.ndarray:
        """The exact covariance of the draws, ``D^-ra S_K^2 D^-ra``."""
        op = self._dense_op() if self._op is None else self._op
        return op @ op.T                       # S_K is symmetric

    def draw(self, seed: int, sample_index: int = 0) -> GrfSample:
        xi = rng.standard_normal(seed, sample_index, self.idx.p)
        if self._op is not None:
            return GrfSample(self._op @ xi)
        return GrfSample(self.dinv * apply_sqrt(self.R, self.contour, xi))

    def draw_matrix(self, seed: int, count: int) -> np.ndarray:
        """(count, p) array whose row i is ``draw(seed, i)``, bit for bit."""
        return np.stack([self.draw(seed, i).coefficients for i in range(count)])
