import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wavegrf.elliptic import elliptic_complete, jacobi_sn_cn_dn


def test_degenerate_parameter():
    K, E = elliptic_complete(0.0)
    assert K == pytest.approx(np.pi / 2, abs=1e-15)
    assert E == pytest.approx(np.pi / 2, abs=1e-15)
    # one AGM step with c = 0: the Landen ascent returns phi = u exactly
    u = np.linspace(-20.0, 20.0, 100001)
    sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
    assert np.array_equal(sn, np.sin(u)) and np.array_equal(cn, np.cos(u))
    assert np.array_equal(dn, np.ones_like(u))


def test_near_one_limit_tanh():
    m = 1.0 - 1e-8
    u = np.linspace(0.1, 3.0, 8)
    sn, _, _ = jacobi_sn_cn_dn(u, m)
    np.testing.assert_allclose(sn, np.tanh(u), atol=1e-6)


def test_against_scipy_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = float(rng.uniform(0.0, 0.9999))
        K, E = elliptic_complete(m)
        assert K == pytest.approx(float(special.ellipk(m)), abs=1e-14 * max(1, K))
        assert E == pytest.approx(float(special.ellipe(m)), abs=1e-14)
        u = float(rng.uniform(-3.0, 3.0))
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        s, c, d, _ = special.ellipj(u, m)
        assert sn == pytest.approx(float(s), abs=1e-12)
        assert cn == pytest.approx(float(c), abs=1e-12)
        assert dn == pytest.approx(float(d), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(0.0, 0.999999))
def test_pythagorean_identities(u, m):
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-13)
    assert dn * dn + m * sn * sn == pytest.approx(1.0, abs=1e-13)


def test_domain_validation():
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            elliptic_complete(bad)
        with pytest.raises(ValueError):
            jacobi_sn_cn_dn(0.3, bad)
