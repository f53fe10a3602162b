import numpy as np
import pytest
from scipy import stats

from wavegrf import linalg, sampling
from wavegrf.linalg import SpectralBounds, dense_bounds, sym_function
from wavegrf.sampling import GrfSampler, apply_sqrt, build_contour


def bounds(lo, hi):
    return SpectralBounds(lo, hi)


def test_contour_nodes_and_poles():
    q = build_contour(bounds(1.0, 4.0), 10)
    assert np.all(np.diff(q.poles) > 0)
    assert np.all(q.poles > 0)
    assert np.all(q.weights > 0)
    q2 = build_contour(bounds(1.0, 4.0), 20)
    # doubling K leaves the half-period unchanged
    assert q2.half_period == pytest.approx(q.half_period)
    with pytest.raises(ValueError):
        build_contour(bounds(1.0, 4.0), 0)
    with pytest.raises(ValueError):
        build_contour(bounds(-1.0, 4.0), 5)


def test_degenerate_bounds_shortcut():
    """Equal bounds need no special case: the general rule at m = 0 returns
    sqrt(c) to rounding, and reversed bounds are refused."""
    for c in (2.0, 1e-8, 87.7):
        for K in (1, 7, 40):
            q = build_contour(bounds(c, c), K)
            assert q.scalar_values(c) == pytest.approx(np.sqrt(c), rel=1e-15)
            y = apply_sqrt(np.array([[c]]), q, np.array([3.0]))
            assert y[0] == pytest.approx(3.0 * np.sqrt(c), rel=1e-15)
    with pytest.raises(ValueError, match="reversed"):
        build_contour(bounds(4.0, 1.0), 5)


def test_scalar_square_root_exact():
    """One-by-one matrix [4] with bounds (1, 4): the rule is numerically
    exact once K reaches 20."""
    q = build_contour(bounds(1.0, 4.0), 20)
    y = apply_sqrt(np.array([[4.0]]), q, np.array([1.0]), cg_tol=1e-14)
    assert abs(y[0] - 2.0) <= 1e-12


def test_apply_linearity_and_zero():
    q = build_contour(bounds(0.5, 3.0), 12)
    A = np.diag([0.5, 1.0, 3.0])
    assert np.all(apply_sqrt(A, q, np.zeros(3)) == 0.0)
    x = np.array([1.0, -2.0, 0.5])
    y1 = apply_sqrt(A, q, 2.0 * x, cg_tol=1e-13)
    y2 = 2.0 * apply_sqrt(A, q, x, cg_tol=1e-13)
    np.testing.assert_allclose(y1, y2, rtol=1e-11)


def test_unconverged_shifted_solve_raises():
    """CG cannot converge on I + S with S skew (p^T A p > 0 but A is not
    symmetric); the failed shift is named instead of returning its iterate."""
    n = 16
    S = np.triu(np.ones((n, n)), 1)
    q = build_contour(bounds(0.5, 2.0), 4)
    with pytest.raises(RuntimeError, match=f"shift w\\^2 = {q.poles[0]:.6g} "):
        apply_sqrt(np.eye(n) + S - S.T, q, np.ones(n))


def test_multi_shift_breakdown_raises():
    """Zero or non-finite curvature p^T A p stops the solve instead of
    dividing by it."""
    q = build_contour(bounds(0.5, 2.0), 4)
    with pytest.raises(np.linalg.LinAlgError, match="not SPD or not finite"):
        apply_sqrt(np.diag([-1.0, 1.0]), q, np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="nan"):
        apply_sqrt(np.eye(2), q, np.array([np.nan, 1.0]))


def test_shifted_solve_at_unattainable_tolerance_raises(model):
    """A tolerance below attainable accuracy is reported, not met."""
    m = model("matern12", 2, 6, 64)
    q = build_contour(dense_bounds(m.preconditioned), 10)
    with pytest.raises(RuntimeError, match="stopped unconverged"):
        apply_sqrt(m.preconditioned, q, np.ones(64), cg_tol=1e-300)


@pytest.mark.parametrize("p", [64, 128])
def test_sqrt_matrix_matches_shifted_solves(model, p):
    """The one-eigh evaluation equals the K shifted solves
    prefactor * R sum_k g_k (R + w_k^2 I)^-1."""
    m = model("matern12", 2, 6, p)
    q = build_contour(dense_bounds(m.preconditioned), 30)
    R = m.preconditioned.to_dense()
    eye = np.eye(p)
    ref = q.prefactor * R @ sum(g * np.linalg.solve(R + w2 * eye, eye)
                                for w2, g in zip(q.poles, q.weights))
    S = sym_function(m.preconditioned, q.scalar_values)
    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dense_covariance_matches_sqrt_matrix(model):
    m = model("matern12", 2, 6, 128)
    q = build_contour(dense_bounds(m.preconditioned), 30)
    sampler = GrfSampler(m.tapered, m.idx, m.order.ra, q)
    SK = sym_function(sampler.R, q.scalar_values)
    ref = sampler.dinv[:, None] * (SK @ SK) * sampler.dinv[None, :]
    cov = sampler.covariance()
    assert np.abs(cov - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(cov, cov.T)


def test_exponential_convergence_and_k40_machine_precision(model):
    m = model("matern12", 2, 6, 256)
    R = m.preconditioned.to_dense()
    ev = np.linalg.eigvalsh(R)
    sq = np.sqrt(ev)
    b = dense_bounds(R)
    errs = []
    Ks = [4, 8, 12, 16, 20]
    for K in Ks:
        q = build_contour(b, K)
        errs.append(np.max(np.abs(q.scalar_values(ev) - sq)) / sq.max())
    # fitted slope of log error vs K is negative (exponential convergence)
    slope = np.polyfit(Ks, np.log(np.maximum(errs, 1e-17)), 1)[0]
    assert slope < -0.5
    q40 = build_contour(b, 40)
    assert np.max(np.abs(q40.scalar_values(ev) - sq)) / sq.max() <= 1e-13


def test_misestimated_conditioning(model):
    """Widening the spectral interval twofold (condition number
    overestimated, its reciprocal underestimated) is harmless; narrowing it
    (condition number underestimated) slows the rate but still converges to
    tolerance well before K = 40."""
    m = model("matern12", 2, 6, 256)
    R = m.preconditioned.to_dense()
    ev = np.linalg.eigvalsh(R)
    sq = np.sqrt(ev)

    def err_at(K, lo, hi):
        q = build_contour(bounds(lo, hi), K)
        return np.max(np.abs(q.scalar_values(ev) - sq)) / sq.max()

    def nodes_to(tol, lo, hi):
        return next(K for K in range(1, 41) if err_at(K, lo, hi) <= tol)

    # harmless: at most one node more to reach 1e-12 (a tolerance above the
    # rounding floor, where slopes over large K would measure rounding error)
    assert nodes_to(1e-12, ev[0] / 2, ev[-1]) <= nodes_to(1e-12, ev[0], ev[-1]) + 1
    Ks = np.array([6, 10, 14, 18])
    s_narrow = np.polyfit(Ks, np.log([err_at(K, 2 * ev[0], ev[-1]) for K in Ks]), 1)[0]
    assert s_narrow < -0.2                    # slower, still exponential
    assert err_at(40, 2 * ev[0], ev[-1]) <= 1e-12
    assert err_at(60, ev[0] / 2, ev[-1]) <= 1e-12


def test_convergence_rate_independent_of_p(model):
    Ks = np.array([6, 10, 14])
    slopes = []
    for p in (128, 512):
        m = model("matern12", 2, 6, p)
        ev = np.linalg.eigvalsh(m.preconditioned.to_dense())
        sq = np.sqrt(ev)
        b = bounds(ev[0], ev[-1])
        errs = [np.max(np.abs(build_contour(b, K).scalar_values(ev) - sq)) / sq.max()
                for K in Ks]
        slopes.append(np.polyfit(Ks, np.log(errs), 1)[0])
    assert slopes[0] == pytest.approx(slopes[1], rel=0.2)


def test_apply_sqrt_matches_dense_route(model):
    m = model("matern12", 2, 6, 128)
    b = dense_bounds(m.preconditioned)
    q = build_contour(b, 16)
    S = sym_function(m.preconditioned, q.scalar_values)
    x = np.random.default_rng(4).standard_normal(128)
    y_cg = apply_sqrt(m.preconditioned, q, x, cg_tol=1e-13)
    np.testing.assert_allclose(y_cg, S @ x, rtol=1e-10)
    # S_K^2 approximates R itself
    R = m.preconditioned.to_dense()
    assert np.linalg.norm(S @ S - R, 2) <= 1e-10 * np.linalg.norm(R, 2)


def _per_shift_reference(R, q, x, tol):
    """The rule evaluated by K separate CG solves, one per shift."""
    acc = sum(g * linalg.cg_solve(lambda v, s=w2: R @ v + s * v, x, tol=tol).x
              for w2, g in zip(q.poles, q.weights))
    return q.prefactor * (R @ acc)


def test_multi_shift_solve_matches_per_shift_solves(model):
    """Draw 347 has a shift whose recursive residual meets the tolerance
    while its true one does not; a CG on the remaining residual mends it."""
    m = model("matern12", 2, 6, 512)
    R = m.preconditioned
    q = build_contour(linalg.lanczos_extremes(R, 512).widened(), 40)
    for i in (0, 1, 347):
        x = np.random.default_rng(i).standard_normal(512)
        ref = _per_shift_reference(R, q, x, 1e-12)
        y = apply_sqrt(R, q, x)
        assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(ref)


def test_multi_shift_draw_costs_the_slowest_shift_only(model):
    """One Krylov space serves all K = 30 shifts: at p = 2048 a draw takes
    at most 100 products with R, where K separate solves take about 866."""
    m = model("matern12", 2, 6, 2048)
    R = m.preconditioned
    q = build_contour(linalg.lanczos_extremes(R, 2048).widened(), 30)
    calls = []

    def counted(v):
        calls.append(1)
        return R @ v

    y = apply_sqrt(counted, q, np.random.default_rng(0).standard_normal(2048))
    assert np.all(np.isfinite(y))
    assert len(calls) <= 100


def test_draws_deterministic(model):
    m = model("matern12", 2, 6, 64)
    q = build_contour(dense_bounds(m.preconditioned), 30)
    s1 = GrfSampler(m.tapered, m.idx, m.order.ra, q).draw(seed=42, sample_index=5)
    s2 = GrfSampler(m.tapered, m.idx, m.order.ra, q).draw(seed=42, sample_index=5)
    assert np.array_equal(s1.coefficients, s2.coefficients)
    s3 = GrfSampler(m.tapered, m.idx, m.order.ra, q).draw(seed=43, sample_index=5)
    assert not np.array_equal(s1.coefficients, s3.coefficients)


def test_cg_sampler_matches_dense_sampler(model, monkeypatch):
    m = model("matern12", 2, 6, 64)
    q = build_contour(dense_bounds(m.preconditioned), 30)
    d = GrfSampler(m.tapered, m.idx, m.order.ra, q).draw(7)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 32)       # p = 64 is now above it
    c = GrfSampler(m.tapered, m.idx, m.order.ra, q).draw(7)
    np.testing.assert_allclose(c.coefficients, d.coefficients, atol=1e-9)


def _refuse(*args):
    raise AssertionError("dense operator formed above linalg.DENSE_MAX_P")


def test_draw_matrix_rows_are_draws(model, monkeypatch):
    """Row i of ``draw_matrix`` is ``draw(seed, i)`` bit for bit, on the dense
    side and on the Krylov side (``linalg.DENSE_MAX_P`` below p = 64)."""
    m = model("matern12", 2, 6, 64)
    q = build_contour(dense_bounds(m.preconditioned), 40)
    for side in ("dense", "krylov"):
        if side == "krylov":
            monkeypatch.setattr(linalg, "DENSE_MAX_P", 32)
            monkeypatch.setattr(sampling, "sym_function", _refuse)
        sampler = GrfSampler(m.tapered, m.idx, m.order.ra, q)
        assert (sampler._op is None) == (side == "krylov")
        Z = sampler.draw_matrix(seed=3, count=5)
        assert Z.shape == (5, 64)
        for i in range(5):
            assert np.array_equal(Z[i], sampler.draw(3, i).coefficients), (side, i)


def test_krylov_side_above_dense_max_p(model, monkeypatch):
    """Above ``linalg.DENSE_MAX_P`` the bounds come from Lanczos and the
    draws from shifted CG, no dense operator is formed, and the draws match
    the dense side's."""
    m = model("matern12", 2, 6, 512)

    def draws():
        bounds = m.spectral_bounds()
        sampler = GrfSampler(m.tapered, m.idx, m.order.ra, build_contour(bounds, 40))
        return bounds, sampler, sampler.draw_matrix(5, 2)

    b_dense, _, Z_dense = draws()
    assert b_dense == dense_bounds(m.preconditioned)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 256)
    assert m.spectral_bounds(exact=True) == b_dense               # still forced
    monkeypatch.setattr(linalg, "dense_bounds", _refuse)
    monkeypatch.setattr(sampling, "sym_function", _refuse)
    b_krylov, sampler, Z_krylov = draws()
    assert b_krylov.lambda_min < b_dense.lambda_min <= b_dense.lambda_max < b_krylov.lambda_max
    assert sampler._op is None
    assert np.linalg.norm(Z_krylov - Z_dense) <= 1e-10 * np.linalg.norm(Z_dense)


def test_marginals_standard_normal_ks(model):
    """Kolmogorov-Smirnov at the 1 percent level for normalized coordinates."""
    m = model("matern12", 2, 6, 64)
    q = build_contour(dense_bounds(m.preconditioned), 40)
    sampler = GrfSampler(m.tapered, m.idx, m.order.ra, q)
    Z = sampler.draw_matrix(seed=123, count=10_000)
    var = np.diag(sampler.covariance())
    pvals = np.array([stats.kstest(Z[:, c] / np.sqrt(var[c]), "norm").pvalue
                      for c in range(64)])
    # 64 tests at the 1 percent level: allow the expected handful of
    # borderline rejections but no gross violation
    assert np.count_nonzero(pvals <= 0.01) <= 2
    assert pvals.min() >= 1e-4


def test_level_norm_decay_rate(model):
    """E ||z(j)||_2 decays like 2^(-j (ra - 1/2)); checked by regression on
    10^3 draws and against the exact block traces."""
    m = model("matern12", 2, 6, 128)
    q = build_contour(dense_bounds(m.preconditioned), 40)
    sampler = GrfSampler(m.tapered, m.idx, m.order.ra, q)
    Z = sampler.draw_matrix(seed=9, count=1000)
    Sigma = sampler.covariance()
    levels = list(m.idx.levels)[1:]
    emp, exact = [], []
    for j in levels:
        sl = m.idx.level_slice(j)
        emp.append(np.mean(np.sum(Z[:, sl] ** 2, axis=1)))
        exact.append(np.trace(Sigma[sl, sl]))
    slope_emp = np.polyfit(levels, 0.5 * np.log2(emp), 1)[0]
    slope_exact = np.polyfit(levels, 0.5 * np.log2(exact), 1)[0]
    target = -(m.order.ra - 0.5)
    assert slope_exact == pytest.approx(target, abs=0.15)
    assert slope_emp == pytest.approx(target, abs=0.35)


def test_synthesize_field_basics(model):
    m = model("matern12", 2, 6, 64)
    res = m.idx.J + 4
    assert np.all(m.system.synthesize_on_grid(np.zeros(64), res) == 0.0)
    # linearity
    rng = np.random.default_rng(11)
    a = rng.standard_normal(64)
    b = rng.standard_normal(64)
    fa = m.system.synthesize_on_grid(a, res)
    fb = m.system.synthesize_on_grid(b, res)
    fab = m.system.synthesize_on_grid(a + b, res)
    np.testing.assert_allclose(fab, fa + fb, atol=1e-12)


def test_field_norm_vs_coefficient_norm_stable(model):
    """|| field ||_L2 over the parameter circle stays within fixed Riesz
    constants of the coefficient norm, across independent samples."""
    m = model("matern12", 2, 6, 64)
    q = build_contour(dense_bounds(m.preconditioned), 40)
    sampler = GrfSampler(m.tapered, m.idx, m.order.ra, q)
    res = m.idx.J + 5
    ratios = []
    for i in range(12):
        z = sampler.draw(seed=77, sample_index=i).coefficients
        f = m.system.synthesize_on_grid(z, res)
        l2 = np.sqrt(np.mean(f**2))
        ratios.append(l2 / np.linalg.norm(z))
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() <= 3.0
