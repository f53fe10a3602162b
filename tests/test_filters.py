import numpy as np
import pytest

from wavegrf.filters import SUPPORTED_PAIRS, build_filter_bank

PAIRS = list(SUPPORTED_PAIRS)


@pytest.mark.parametrize("d,dt", PAIRS)
def test_perfect_reconstruction_identities(d, dt):
    """(1/2) sum_n lo[n] lo_dual[n + 2m] = delta_m, exactly."""
    fb = build_filter_bank(d, dt)
    for m in range(-dt, dt + 1):
        s = 0.0
        for i, a in zip(range(fb.lo.start, fb.lo.stop + 1), fb.lo.coeffs):
            j = i + 2 * m
            if fb.lo_dual.start <= j <= fb.lo_dual.stop:
                s += a * fb.lo_dual.coeffs[j - fb.lo_dual.start]
        assert abs(s - (2.0 if m == 0 else 0.0)) <= 1e-14


@pytest.mark.parametrize("d,dt", PAIRS)
def test_highpass_cross_orthogonality(d, dt):
    fb = build_filter_bank(d, dt)

    def corr(x, y, m):
        s = 0.0
        for i, a in zip(range(x.start, x.stop + 1), x.coeffs):
            j = i + 2 * m
            if y.start <= j <= y.stop:
                s += a * y.coeffs[j - y.start]
        return s

    for m in range(-dt - 1, dt + 2):
        assert abs(corr(fb.hi, fb.hi_dual, m) - (2.0 if m == 0 else 0.0)) <= 1e-14
        assert abs(corr(fb.lo, fb.hi_dual, m)) <= 1e-14
        assert abs(corr(fb.lo_dual, fb.hi, m)) <= 1e-14


@pytest.mark.parametrize("d,dt", PAIRS)
def test_discrete_vanishing_moments(d, dt):
    """The mask built from the dual lowpass annihilates monomials of degree
    < dt; the one from the spline lowpass of degree < d."""
    fb = build_filter_bank(d, dt)
    m_hi = fb.hi.moments(dt + 1)
    assert np.all(np.abs(m_hi[:dt]) <= 1e-10)
    assert abs(m_hi[dt]) > 1e-6
    m_hid = fb.hi_dual.moments(d + 1)
    assert np.all(np.abs(m_hid[:d]) <= 1e-14)
    assert abs(m_hid[d]) > 1e-6


def test_primal_mask_is_bspline():
    fb = build_filter_bank(2, 4)
    assert fb.lo.start == -1
    np.testing.assert_allclose(fb.lo.coeffs, [0.5, 1.0, 0.5])


def test_masks_sum_to_two():
    for d, dt in PAIRS:
        fb = build_filter_bank(d, dt)
        assert abs(np.sum(fb.lo.coeffs) - 2.0) < 1e-15
        assert abs(np.sum(fb.lo_dual.coeffs) - 2.0) < 1e-14
        assert abs(np.sum(fb.hi.coeffs)) < 1e-14
        assert abs(np.sum(fb.hi_dual.coeffs)) < 1e-15


def test_rational_table_matches_floats():
    fb = build_filter_bank(2, 6)
    table = {(name, k): frac for name, k, frac in fb.rational_table()}
    for i, c in enumerate(fb.lo_dual.coeffs):
        assert float(table[("lo_dual", fb.lo_dual.start + i)]) == c
    for i, c in enumerate(fb.hi.coeffs):
        assert float(table[("hi", fb.hi.start + i)]) == c


def test_unsupported_pair_rejected():
    with pytest.raises(ValueError):
        build_filter_bank(2, 3)
    with pytest.raises(ValueError):
        build_filter_bank(3, 5)
