"""Matern covariance kernels and the analytic circle-spectrum oracle.

The half-integer Matern kernels have elementary closed forms:

    k_{1/2}(z) = exp(-z/l)
    k_{3/2}(z) = (1 + sqrt(3) z / l) exp(-sqrt(3) z / l)
    k_{5/2}(z) = (1 + sqrt(5) z / l + 5 z^2 / (3 l^2)) exp(-sqrt(5) z / l)

with ``z`` the chordal distance.  On a curve (n = 1) the associated
covariance operators have pseudodifferential order ``r = -(2 nu + 1)``.

For validation, :class:`CircleSpectrum` provides the exact eigenvalues
``(kappa^2 + m^2)^(-2 beta)`` of the squared-inverse shifted Laplacian on
the unit circle together with the induced translation-invariant kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL_NAMES = {"matern12": 0.5, "matern32": 1.5, "matern52": 2.5}

SUPPORTED_NU = tuple(KERNEL_NAMES.values())

#: largest eigenvalue tail a CircleSpectrum may drop
TAIL_TOL = 1e-12


@dataclass(frozen=True)
class OperatorOrder:
    r: float          # covariance operator order (negative)
    ra: float         # coloring operator order, ra = -r/2


@dataclass(frozen=True)
class KernelSpec:
    nu: float
    ell: float = 1.0

    def __post_init__(self):
        if self.nu not in SUPPORTED_NU:
            raise ValueError(f"nu must be one of {SUPPORTED_NU}")
        if not 0 < self.ell < np.inf:
            raise ValueError("ell must be positive and finite")

    def __call__(self, z):
        return eval_kernel(self, z)

    @property
    def name(self) -> str:
        return next(k for k, nu in KERNEL_NAMES.items() if nu == self.nu)


def kernel_from_name(name: str, ell: float = 1.0) -> KernelSpec:
    try:
        nu = KERNEL_NAMES[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; options: {sorted(KERNEL_NAMES)}") from None
    return KernelSpec(nu=nu, ell=ell)


def eval_kernel(spec: KernelSpec, z):
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("distance must be nonnegative")
    u = z / spec.ell
    if spec.nu == 0.5:
        val = np.exp(-u)
    elif spec.nu == 1.5:
        s = np.sqrt(3.0) * u
        val = (1.0 + s) * np.exp(-s)
    else:
        s = np.sqrt(5.0) * u
        val = (1.0 + s + 5.0 * u * u / 3.0) * np.exp(-s)
    return val


def operator_order(spec: KernelSpec) -> OperatorOrder:
    """Pseudodifferential order of the covariance operator on a curve (n = 1)."""
    r = -(2.0 * spec.nu + 1)
    return OperatorOrder(r=r, ra=-r / 2.0)


class CircleSpectrum:
    """Whittle-Matern covariance on the unit circle with exact eigenvalues.

    Eigenpairs of ``(kappa^2 - d^2/dtheta^2)^(-2 beta)`` on [0, 2 pi): the
    Fourier modes with eigenvalues ``lam_m = (kappa^2 + m^2)^(-2 beta)``.
    """

    def __init__(self, kappa: float, beta: float, modes: int):
        if kappa <= 0 or beta <= 0:
            raise ValueError("kappa and beta must be positive")
        if 4.0 * beta <= 1.0:
            raise ValueError("need beta > 1/4 for a summable spectrum")
        self.kappa = kappa
        self.beta = beta
        self.modes = int(modes)
        tail = self.tail_bound(modes)
        if tail >= TAIL_TOL:
            raise ValueError(
                f"eigenvalue tail {tail:.3e} above tolerance {TAIL_TOL:.1e}; "
                f"need at least M = {self.required_modes(kappa, beta, TAIL_TOL)} modes")

    def tail_bound(self, M: int) -> float:
        # sum_{|m|>M} lam_m <= 2 int_M^inf x^(-4 beta) dx
        return 2.0 * M ** (1.0 - 4.0 * self.beta) / (4.0 * self.beta - 1.0)

    @staticmethod
    def required_modes(kappa: float, beta: float, tol: float) -> int:
        return int(np.ceil((2.0 / ((4.0 * beta - 1.0) * tol)) ** (1.0 / (4.0 * beta - 1.0)))) + 1

    def eigenvalue(self, m):
        m = np.asarray(m, dtype=float)
        return (self.kappa**2 + m * m) ** (-2.0 * self.beta)

    def kernel(self, theta):
        """Covariance k(theta) = (1/2pi) sum_m lam_m cos(m theta)."""
        theta = np.asarray(theta, dtype=float)
        m = np.arange(0, self.modes + 1)
        lam = self.eigenvalue(m)
        lam[1:] *= 2.0                       # fold +-m pairs
        out = (np.cos(theta[..., None] * m) @ lam) / (2.0 * np.pi)
        return float(out) if out.ndim == 0 else out
