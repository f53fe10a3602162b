"""End-to-end covariance model: curve + kernel + wavelet discretization.

Bundles the steps every experiment repeats (normalize the curve, assemble
the single-scale matrix, transform to wavelet coordinates, taper,
precondition) with lazy caching, so the command-line runners and the test
suite share one construction path.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import assembly, compression, curves, kernels, linalg, wavelets

#: wavelet family with enough dual moments for optimal compression per kernel
_DEFAULT_FAMILY = {"matern12": (2, 6), "matern32": (2, 8), "matern52": (2, 10)}


def default_wavelet_for(kernel_name: str) -> tuple[int, int]:
    return _DEFAULT_FAMILY[kernel_name]


class CovarianceModel:
    """All derived objects for one (curve, kernel, wavelet family, p) choice."""

    def __init__(self, kernel: str = "matern12", wavelet: tuple[int, int] | None = None, *,
                 p: int, curve: curves.CurveSpec | str | dict = "paper-boundary",
                 ell: float = 1.0, a: float = 2.0, a_prime: float = 2.0,
                 dprime: float | None = None, normalize_curve: bool = True):
        self.kernel = kernels.kernel_from_name(kernel, ell=ell)
        d, dt = wavelet if wavelet is not None else default_wavelet_for(self.kernel.name)
        self.system = wavelets.get_system(d, dt)
        self.idx = self.system.index_set_for_dim(p)
        base = curve if isinstance(curve, curves.CurveSpec) else curves.from_config(curve)
        self.curve = curves.normalize_to_unit_diameter(base) if normalize_curve else base
        self.order = kernels.operator_order(self.kernel)
        self.params = compression.CompressionParams(
            d=self.system.d, dt=self.system.dt, r=self.order.r, a=a, a_prime=a_prime, dprime=dprime)

    # -- matrices ----------------------------------------------------------
    @cached_property
    def single_scale(self) -> np.ndarray:
        return assembly.assemble_single_scale(self.curve, self.kernel, self.idx.J)

    @cached_property
    def wavelet_dense(self) -> np.ndarray:
        return assembly.to_wavelet_coordinates(self.system, self.single_scale)

    @cached_property
    def pattern(self) -> compression.TaperPattern:
        return compression.build_pattern(self.system, self.curve, self.params,
                                         self.idx.J)

    @cached_property
    def tapered(self) -> linalg.SparseSymMatrix:
        return compression.apply_pattern(self.wavelet_dense, self.pattern)

    @cached_property
    def preconditioned(self) -> linalg.SparseSymMatrix:
        """R_eps = D^ra C_eps D^ra."""
        return linalg.precondition(self.tapered, self.idx, self.order.ra)

    def spectral_bounds(self, exact: bool = False) -> linalg.SpectralBounds:
        """Dense bounds up to ``linalg.DENSE_MAX_P`` or if ``exact``, else widened Lanczos."""
        if exact or self.idx.p <= linalg.DENSE_MAX_P:
            return linalg.dense_bounds(self.preconditioned)
        return linalg.lanczos_extremes(self.preconditioned).widened()

    @property
    def meta(self) -> dict:
        return {
            "kernel": self.kernel.name, "ell": self.kernel.ell,
            "wavelet": [self.params.d, self.params.dt],
            "j0": self.idx.j0, "J": self.idx.J, "p": self.idx.p,
            "table_level": int(np.log2(self.idx.p)),
            "r": self.order.r, "ra": self.order.ra,
            "a": self.params.a, "a_prime": self.params.a_prime,
            "dprime": self.params.resolved_dprime,
            "curve": curves.to_config(self.curve),
            "notes": [
                "p = 2**(J+1) counts the coarsest scaling block at level j0;"
                " table_level = log2(p) is the single-scale resolution",
                "kernel distances are chordal on the unit-diameter rescaled curve",
            ],
        }

