"""Periodic biorthogonal spline filter banks of CDF type.

The primal scaling function is the centered B-spline of order 2 (hat
function); the dual family is indexed by the number of vanishing moments
``dt`` of the spline wavelet.  All masks are exact dyadic rationals and are
embedded below as integer numerators over a power-of-two denominator, in the
two-scale normalization ``sum(mask) == 2``.

Mask roles (``d = 2``, ``dt`` even):

* ``lo``     -- primal scaling mask, support [-1, 1]
* ``lo_dual``-- dual scaling mask, support [-dt, dt]
* ``hi``     -- mask of the spline wavelet (``dt`` vanishing moments),
                obtained from the dual scaling mask by modulation
* ``hi_dual``-- mask of the dual wavelet (``d`` vanishing moments),
                obtained from the primal scaling mask by modulation
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Dual scaling masks: {dt: (denominator, numerators on [-dt, dt])}.
# Derived from the spline/interpolatory factorization of the two-scale
# symbol; biorthogonality against the hat mask is exact in rational
# arithmetic (see tests).
_DUAL_NUMERATORS = {
    4: (64, [3, -6, -16, 38, 90, 38, -16, -6, 3]),
    6: (512, [-5, 10, 34, -78, -123, 324, 700, 324, -123, -78, 34, 10, -5]),
    8: (16384, [35, -70, -300, 670, 1228, -3126, -3796, 10718, 22050,
                10718, -3796, -3126, 1228, 670, -300, -70, 35]),
    10: (131072, [-63, 126, 658, -1442, -3219, 7880, 10328, -28536, -29486,
                  87508, 174636, 87508, -29486, -28536, 10328, 7880, -3219,
                  -1442, 658, 126, -63]),
}

#: coarsest admissible level per family, chosen so that periodized filters
#: at the first decomposition level keep their translates distinguishable
_DEFAULT_J0 = {4: 2, 6: 2, 8: 3, 10: 3}

SUPPORTED_PAIRS = tuple((2, dt) for dt in (4, 6, 8, 10))


@dataclass(frozen=True)
class Mask:
    """A finitely supported filter, ``coeffs[i]`` sitting at ``start + i``."""

    start: int
    coeffs: np.ndarray

    @property
    def stop(self) -> int:
        return self.start + len(self.coeffs) - 1

    def moments(self, upto: int) -> np.ndarray:
        """Discrete moments ``sum_k k^m coeffs[k]`` for ``m < upto``."""
        k = np.arange(self.start, self.stop + 1, dtype=float)
        return np.array([np.sum(k**m * self.coeffs) for m in range(upto)])


def _modulate(mask: Mask) -> Mask:
    """Return the wavelet mask ``b_m = (-1)^m a_{1-m}``."""
    start = 1 - mask.stop
    idx = np.arange(start, 1 - mask.start + 1)
    coeffs = np.array([(-1) ** int(m) * mask.coeffs[1 - m - mask.start] for m in idx])
    return Mask(start, coeffs)


@dataclass(frozen=True)
class FilterBank:
    d: int
    dt: int
    lo: Mask
    lo_dual: Mask
    hi: Mask
    hi_dual: Mask

    @property
    def default_j0(self) -> int:
        return _DEFAULT_J0[self.dt]

    def rational_table(self) -> list[tuple[str, int, Fraction]]:
        """All four masks as exact rationals, for audit dumps."""
        den, nums = _DUAL_NUMERATORS[self.dt]
        out = []
        for k, n in zip(range(-1, 2), (1, 2, 1)):
            out.append(("lo", k, Fraction(n, 2)))
        for k, n in zip(range(-self.dt, self.dt + 1), nums):
            out.append(("lo_dual", k, Fraction(n, den)))
        for name, src in (("hi", self.lo_dual), ("hi_dual", self.lo)):
            mask = _modulate(src)
            for i, c in enumerate(mask.coeffs):
                out.append((name, mask.start + i, Fraction(c).limit_denominator(1 << 40)))
        return out


def build_filter_bank(d: int, dt: int) -> FilterBank:
    """Filter bank for the pair ``(d, dt)``; only ``d = 2`` is supported."""
    if (d, dt) not in SUPPORTED_PAIRS:
        raise ValueError(f"unsupported wavelet pair ({d}, {dt}); "
                         f"supported: {SUPPORTED_PAIRS}")
    lo = Mask(-1, np.array([0.5, 1.0, 0.5]))
    den, nums = _DUAL_NUMERATORS[dt]
    lo_dual = Mask(-dt, np.array(nums, dtype=float) / den)
    return FilterBank(
        d=d, dt=dt,
        lo=lo, lo_dual=lo_dual,
        hi=_modulate(lo_dual), hi_dual=_modulate(lo),
    )
