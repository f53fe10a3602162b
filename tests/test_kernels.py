import numpy as np
import pytest

from wavegrf.kernels import (CircleSpectrum, KernelSpec, eval_kernel,
                             kernel_from_name, operator_order)


def test_closed_forms_at_zero_and_one():
    assert eval_kernel(KernelSpec(0.5, 1.0), 0.0) == 1.0
    assert eval_kernel(KernelSpec(0.5, 1.0), 1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert eval_kernel(KernelSpec(1.5, 1.0), 0.0) == 1.0
    assert eval_kernel(KernelSpec(2.5, 1.0), 0.0) == 1.0
    z = 0.3
    assert eval_kernel(KernelSpec(1.5, 1.0), z) == pytest.approx(
        (1 + np.sqrt(3) * z) * np.exp(-np.sqrt(3) * z), rel=1e-15)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        KernelSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(0.5, -1.0)
    for ell in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            KernelSpec(0.5, ell)
    with pytest.raises(ValueError):
        eval_kernel(KernelSpec(0.5, 1.0), -0.5)
    with pytest.raises(ValueError):
        kernel_from_name("matern72")


def test_operator_orders():
    for nu, r in ((0.5, -2.0), (1.5, -4.0), (2.5, -6.0)):
        o = operator_order(KernelSpec(nu, 1.0))
        assert o.r == r
        assert o.ra == -r / 2


def test_monotone_on_grid():
    z = np.linspace(0.0, 3.0, 400)
    for nu in (0.5, 1.5, 2.5):
        for ell in (0.25, 1.0):
            v = eval_kernel(KernelSpec(nu, ell), z)
            assert np.all(np.diff(v) <= 1e-15)


@pytest.mark.parametrize("ell", [0.05, 0.25, 1.0, 3.0])
def test_closed_forms_and_psd_over_ell(ell):
    """Each kernel equals its textbook closed form in u = z / ell, and its
    Gram matrix on 400 points of [0, 1] is positive semidefinite."""
    z = np.linspace(0.0, 3.0, 61)
    u = z / ell
    s3, s5 = np.sqrt(3.0) * u, np.sqrt(5.0) * u
    closed = {0.5: np.exp(-u),
              1.5: (1.0 + s3) * np.exp(-s3),
              2.5: (1.0 + s5 + s5 * s5 / 3.0) * np.exp(-s5)}
    t = np.linspace(0.0, 1.0, 400)
    for nu, want in closed.items():
        spec = KernelSpec(nu, ell)
        np.testing.assert_allclose(eval_kernel(spec, z), want, rtol=1e-13, atol=0)
        ev = np.linalg.eigvalsh(eval_kernel(spec, np.abs(t[:, None] - t[None, :])))
        assert ev[0] >= -1e-10 * ev[-1]


def test_names():
    assert kernel_from_name("matern32").nu == 1.5
    assert KernelSpec(2.5, 1.0).name == "matern52"


# -- circle spectrum oracle --------------------------------------------------

def test_circle_eigenvalues_closed_form():
    cs = CircleSpectrum(kappa=1.0, beta=1.0,
                        modes=CircleSpectrum.required_modes(1.0, 1.0, 1e-12))
    assert cs.eigenvalue(0) == pytest.approx(1.0)
    assert cs.eigenvalue(1) == pytest.approx(0.25)
    lam = cs.eigenvalue(np.arange(-cs.modes, cs.modes + 1))
    assert lam.shape == (2 * cs.modes + 1,)
    assert np.all(lam > 0)
    m = np.arange(-cs.modes, cs.modes + 1)
    assert np.all(np.diff(lam[m >= 0]) <= 0)


def test_circle_kernel_symmetry_and_peak():
    cs = CircleSpectrum(kappa=1.0, beta=1.0,
                        modes=CircleSpectrum.required_modes(1.0, 1.0, 1e-12))
    th = np.linspace(0.1, np.pi, 7)
    np.testing.assert_allclose(cs.kernel(th), cs.kernel(-th), rtol=1e-13)
    lam = cs.eigenvalue(np.arange(-cs.modes, cs.modes + 1))
    assert cs.kernel(0.0) == pytest.approx(np.sum(lam) / (2 * np.pi))
    assert np.all(cs.kernel(th) < cs.kernel(0.0))


def test_tail_tolerance_enforced():
    with pytest.raises(ValueError, match="need at least"):
        CircleSpectrum(kappa=1.0, beta=1.0, modes=10)
    M = CircleSpectrum.required_modes(1.0, 1.0, 1e-12)
    CircleSpectrum(kappa=1.0, beta=1.0, modes=M)    # constructible


def test_gram_psd_on_equispaced_points():
    cs = CircleSpectrum(kappa=2.0, beta=1.0,
                        modes=CircleSpectrum.required_modes(2.0, 1.0, 1e-12))
    for m in (16, 64):
        th = 2 * np.pi * np.arange(m) / m
        G = cs.kernel(np.abs(th[:, None] - th[None, :]))
        ev = np.linalg.eigvalsh(0.5 * (G + G.T))
        assert ev.min() >= -1e-10


def test_plateau_and_tail_slope():
    """Plateau lam_m ~ kappa^(-4 beta) for |m| <= kappa: the exact dimming is
    (1 + m^2/kappa^2)^(-2 beta), between 1/4 and 1 on that range; beyond
    10 kappa the log-log slope is -4 beta within 5 percent."""
    kappa, beta = 10.0, 1.0
    cs = CircleSpectrum(kappa=kappa, beta=beta,
                        modes=CircleSpectrum.required_modes(kappa, beta, 1e-12))
    m = np.arange(0, 11)
    ratio = cs.eigenvalue(m) / kappa ** (-4 * beta)
    assert np.all(ratio <= 1.0 + 1e-12)
    assert np.all(ratio >= 2.0 ** (-2 * beta) - 1e-12)
    m_half = np.arange(0, int(kappa / 2) + 1)
    assert np.all(cs.eigenvalue(m_half) / kappa ** (-4 * beta) >= 0.49)
    mm = np.arange(100, 1000)
    slope = np.polyfit(np.log(mm), np.log(cs.eigenvalue(mm)), 1)[0]
    assert slope == pytest.approx(-4 * beta, rel=0.05)
