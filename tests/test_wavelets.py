import numpy as np
import pytest
from scipy import sparse

from wavegrf import kriging
from wavegrf.filters import SUPPORTED_PAIRS
from wavegrf.wavelets import (LevelIndexSet, WaveletSystem, _level_operator,
                              diag_scaling, get_system)

TRANSFORMS = ("fwt", "ifwt", "fwt_dual", "ifwt_dual")


def _roll_analysis_step(c, mask):
    """Reference level step, one ``np.roll`` per tap:
    ``out[k] = 2^-1/2 sum_i m_i c[(2k+i) mod n]``."""
    out = np.zeros((c.shape[0] // 2,) + c.shape[1:])
    for i, w in zip(range(mask.start, mask.stop + 1), mask.coeffs):
        p0 = i % 2
        out += w * np.roll(c[p0::2], -((i - p0) // 2), axis=0)
    return out / np.sqrt(2.0)


def _roll_synthesis_step(c, d, lo, hi):
    """Reference periodic upsample-convolve, one ``np.roll`` per tap."""
    out = np.zeros((2 * c.shape[0],) + c.shape[1:])
    for block, mask in ((c, lo), (d, hi)):
        for i, w in zip(range(mask.start, mask.stop + 1), mask.coeffs):
            p0 = i % 2
            out[p0::2] += w * np.roll(block, (i - p0) // 2, axis=0)
    return out / np.sqrt(2.0)


def _roll_transform(sys_, name, x):
    """The four transforms as per-tap level loops (the reference)."""
    b = sys_.bank
    idx = sys_.index_set_for_dim(x.shape[0])
    if name in ("fwt", "fwt_dual"):
        lo, hi = (b.lo_dual, b.hi_dual) if name == "fwt" else (b.lo, b.hi)
        c, details = x, []
        for _ in range(idx.J, sys_.j0, -1):
            details.append(_roll_analysis_step(c, hi))
            c = _roll_analysis_step(c, lo)
        return np.concatenate([c] + details[::-1], axis=0)
    lo, hi = (b.lo, b.hi) if name == "ifwt" else (b.lo_dual, b.hi_dual)
    c = x[idx.level_slice(sys_.j0)]
    for j in range(sys_.j0 + 1, idx.J + 1):
        c = _roll_synthesis_step(c, x[idx.level_slice(j)], lo, hi)
    return c


def test_index_set_sizes():
    idx = LevelIndexSet(2, 5)
    assert idx.p == 64
    assert idx.level_sizes == {2: 8, 3: 8, 4: 16, 5: 32}
    assert idx.level_slice(2) == slice(0, 8)
    assert idx.level_slice(5) == slice(32, 64)
    # translate k of level j sits at flat position level_slice(j).start + k
    assert idx.level_slice(4).start + 3 == 19
    assert idx.level_of_position()[idx.level_slice(5).start + 1] == 5
    assert idx.level_of_position()[idx.level_slice(4).start + 15] == 4
    assert idx.level_slice(4).start + 16 == idx.level_slice(5).start


def test_index_set_truncation_is_prefix():
    idx = LevelIndexSet(2, 6)
    sub = LevelIndexSet(2, 4)
    assert sub.p == 32
    lev = idx.level_of_position()
    assert np.array_equal(lev[:sub.p], sub.level_of_position())


@pytest.mark.parametrize("p", [0, -8, -1, 1, 2, 48, 100])
def test_index_set_for_dim_refuses_non_dyadic_p(p):
    """p = 0 and negative p get the same refusal as any other p that is not
    2**(J+1) (no OverflowError from a logarithm)."""
    with pytest.raises(ValueError, match=r"is not 2\*\*\(J\+1\)"):
        get_system(2, 6).index_set_for_dim(p)


def test_diag_scaling_values():
    idx = LevelIndexSet(2, 3)
    d = diag_scaling(idx, 1.0)
    assert np.all(d[idx.level_slice(3)] == 8.0)
    assert np.all(d[idx.level_slice(2)] == 4.0)
    assert np.all(diag_scaling(idx, 0.0) == 1.0)
    assert np.allclose(diag_scaling(idx, 1.5) * diag_scaling(idx, -1.5), 1.0)


@pytest.mark.parametrize("dt", [4, 6, 8, 10])
def test_roundtrip_all_levels(dt):
    sys_ = get_system(2, dt)
    rng = np.random.default_rng(5)
    for J in range(sys_.j0, 12, 3):
        x = rng.standard_normal(2 ** (J + 1))
        assert np.max(np.abs(sys_.ifwt(sys_.fwt(x)) - x)) <= 1e-12 * np.max(np.abs(x))
        assert np.max(np.abs(sys_.ifwt_dual(sys_.fwt_dual(x)) - x)) <= 1e-12 * np.max(np.abs(x))


def test_roundtrip_many_random_vectors():
    sys_ = get_system(2, 6)
    rng = np.random.default_rng(11)
    X = rng.standard_normal((256, 100))
    err = np.abs(sys_.ifwt(sys_.fwt(X)) - X).max()
    assert err <= 1e-12 * np.abs(X).max()


def _coarsest_system(d, dt):
    """The system with the smallest admissible j0; for dt >= 8 its first
    level steps wrap several taps onto one column."""
    for j0 in range(1, 8):
        try:
            return WaveletSystem(d, dt, j0)
        except ValueError:
            pass


@pytest.mark.parametrize("d,dt", SUPPORTED_PAIRS)
@pytest.mark.parametrize("size", ["smallest", "one-level", 512])
@pytest.mark.parametrize("ncols", [None, 3])
def test_transforms_match_roll_reference(d, dt, size, ncols):
    """Sparse level-operator chains agree with the per-tap reference, on
    1-D and 2-D input, down to the coarsest (fully wrapped) lengths."""
    sys_ = _coarsest_system(d, dt)
    p = {"smallest": 2 ** (sys_.j0 + 1), "one-level": 2 ** (sys_.j0 + 2)}.get(size, size)
    shape = (p,) if ncols is None else (p, ncols)
    x = np.random.default_rng(p + dt).standard_normal(shape)
    for name in TRANSFORMS:
        ref = _roll_transform(sys_, name, x)
        got = getattr(sys_, name)(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("dt", [4, 10])
def test_block_transform_equals_columnwise(dt):
    sys_ = get_system(2, dt)
    X = np.random.default_rng(8).standard_normal((256, 5))
    for name in TRANSFORMS:
        f = getattr(sys_, name)
        cols = np.stack([f(X[:, i]) for i in range(X.shape[1])], axis=1)
        np.testing.assert_allclose(f(X), cols, rtol=0, atol=1e-15 * np.abs(cols).max())
        # a non-contiguous view transforms like its copy and is left untouched
        Xt = X.T.copy().T
        np.testing.assert_array_equal(f(Xt), f(X))
        np.testing.assert_array_equal(Xt, X)
    # sparse input, with an all-zero column, comes back as CSR with the dense bits
    D = X[:, :4] * (np.random.default_rng(9).random((256, 4)) < 0.05)
    D[:, 2] = 0.0
    S = sparse.csr_matrix(D)
    for name in TRANSFORMS:
        f = getattr(sys_, name)
        got = f(S)
        assert sparse.issparse(got) and got.format == "csr", name
        np.testing.assert_array_equal(got.toarray(), f(S.toarray()))


def test_level_operator_cache_is_bounded():
    assert _level_operator.cache_info().maxsize is not None


def test_adjoint_relations():
    sys_ = get_system(2, 8)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(128)
    y = rng.standard_normal(128)
    assert sys_.fwt(x) @ y == pytest.approx(x @ sys_.ifwt_dual(y), abs=1e-10)
    assert sys_.fwt_dual(x) @ y == pytest.approx(x @ sys_.ifwt(y), abs=1e-10)


def test_constants_have_no_details():
    sys_ = get_system(2, 6)
    idx = sys_.index_set_for_dim(256)
    w = sys_.fwt(np.ones(256))
    assert np.max(np.abs(w[idx.level_slice(idx.j0).stop:])) <= 1e-13
    wd = sys_.fwt_dual(np.ones(256))
    assert np.max(np.abs(wd[idx.level_slice(idx.j0).stop:])) <= 1e-13


def test_ramp_details_vanish_away_from_wrap():
    """A periodized linear ramp is annihilated wherever the analysis filter
    window avoids the wrap-around jump (two discrete moments suffice)."""
    sys_ = get_system(2, 6)
    n = 256
    idx = sys_.index_set_for_dim(n)
    w = sys_.fwt(np.arange(n, dtype=float))
    J = idx.J
    d = w[idx.level_slice(J)]
    nz = np.nonzero(np.abs(d) > 1e-10)[0]
    # nonzeros cluster at the wrap-around; the interior is exactly annihilated
    half = len(d) // 2
    interior = (nz - 0) % len(d)
    assert len(nz) < 8
    assert np.all((interior < 8) | (interior > len(d) - 8))
    mid = d[len(d) // 4: 3 * len(d) // 4]
    assert np.max(np.abs(mid)) <= 1e-12


def test_transform_length_validation():
    sys_ = get_system(2, 6)
    with pytest.raises(ValueError):
        sys_.fwt(np.ones(48))
    with pytest.raises(ValueError):
        sys_.fwt(np.ones(2))


def test_support_geometry():
    sys_ = get_system(2, 6)
    # wavelet support width is c 2^-j with a level-independent constant
    geom = {j: sys_.level_geometry(j) for j in (3, 4, 5, 6)}
    widths = {j: g["width"] for j, g in geom.items()}
    for j in (3, 4, 5):
        assert widths[j] == pytest.approx(2 * widths[j + 1])
        assert sys_.support_width(j) == widths[j]
    assert widths[3] == pytest.approx(7 / 8)       # (dt + 1) 2^-j
    g = geom[4]
    assert len(g["start"]) == 2**4 and g["h"] == 2.0**-4
    np.testing.assert_allclose(g["center"], ((np.arange(16) + 0.5) * g["h"]) % 1.0,
                               rtol=0, atol=1e-15)
    # the knots of translate 5, at step h/2 from its start, fill the closed
    # support interval (modulo wrap): 2 (dt + 1) + 1 of them
    nk = int(round(g["width"] / g["knot_step"])) + 1
    assert nk == 2 * (sys_.dt + 1) + 1
    knots = (g["start"][5] + np.arange(nk) * g["knot_step"]) % 1.0
    rel = (knots - g["start"][5]) % 1.0
    assert np.all(rel <= g["width"] + 1e-12)
    # knot spacing is half a cell at that level
    dk = np.sort(rel)
    assert np.allclose(np.diff(dk), 2.0 ** (-5), atol=1e-12)
    with pytest.raises(ValueError):
        sys_.level_geometry(sys_.j0)


def test_coarse_block_support_is_hat():
    sys_ = get_system(2, 6)
    assert sys_.support_width(sys_.j0) == pytest.approx(2.0 ** (-sys_.j0))


@pytest.mark.parametrize("dt", [4, 6, 8, 10])
def test_primal_cascade_is_the_hat(dt):
    """The refinement cascade of the primal mask gives the closed-form hat
    1 - |x| on [-1, 1] bit for bit: every value is a dyadic rational."""
    sys_ = get_system(2, dt)
    for sweeps in range(1, 12):
        phi, step = sys_.scaling_values(dual=False, sweeps=sweeps)
        x = np.arange(-1.0, 1.0 + step / 2, step)
        assert step == 2.0**-sweeps
        assert np.array_equal(phi, np.maximum(0.0, 1.0 - np.abs(x)))


def test_dual_scaling_partition_of_unity():
    sys_ = get_system(2, 6)
    phi, step = sys_.scaling_values(dual=True, sweeps=6)
    per = int(round(1.0 / step))
    for i in range(0, per, 13):
        s = 0.0
        for k in range(-7, 8):
            j = i - k * per + 6 * per
            if 0 <= j < len(phi):
                s += phi[j]
        assert s == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dt", [4, 6])
def test_numerical_biorthogonality_on_sample_indices(dt):
    """Quadrature check of <psi_lam, psi~_mu> = delta on a small sample."""
    sys_ = get_system(2, dt)
    J = 6
    n = 2 ** (J + 1)
    res = J + 1 + 5
    grid = 2**res
    pairs = [((4, 1), (4, 1)), ((4, 1), (4, 2)), ((4, 1), (5, 2)),
             ((5, 7), (5, 7)), ((sys_.j0, 0), (sys_.j0, 0)),
             ((sys_.j0, 0), (4, 3))]
    idx = sys_.index_set(J)
    for lam, mu in pairs:
        e1 = np.zeros(n)
        e1[idx.level_slice(lam[0]).start + lam[1]] = 1.0
        e2 = np.zeros(n)
        e2[idx.level_slice(mu[0]).start + mu[1]] = 1.0
        f1 = sys_.synthesize_on_grid(e1, res, dual=False)
        f2 = sys_.synthesize_on_grid(e2, res, dual=True)
        ip = np.sum(f1 * f2) / grid
        want = 1.0 if lam == mu else 0.0
        assert ip == pytest.approx(want, abs=5e-4)


def test_vanishing_moments_by_quadrature():
    """Spline wavelets annihilate x^m for m < dt; duals for m < d.

    Uses cascade evaluation plus composite quadrature on the refinement grid.
    """
    for dt in (4, 6):
        sys_ = get_system(2, dt)
        psi, h = sys_.wavelet_values(dual=False, sweeps=10)
        x = np.arange(len(psi)) * h + (sys_.bank.hi.start + sys_.bank.lo.start) / 2.0
        for m in range(dt):
            assert abs(np.sum(x**m * psi) * h) <= 1e-10
        assert abs(np.sum(x**dt * psi) * h) > 1e-8
        psid, hd = sys_.wavelet_values(dual=True, sweeps=10)
        xd = np.arange(len(psid)) * hd + (sys_.bank.hi_dual.start
                                          + sys_.bank.lo_dual.start) / 2.0
        for m in range(2):
            assert abs(np.sum(xd**m * psid) * hd) <= 1e-6
        assert abs(np.sum(xd**2 * psid) * hd) > 1e-6


def test_coarse_impulse_synthesizes_dual_scaling_profile():
    sys_ = get_system(2, 6)
    J = 5
    idx = sys_.index_set(J)
    res = J + 1 + 4
    e = np.zeros(idx.p)
    e[0] = 1.0                               # coarsest block, k = 0
    field = sys_.synthesize_on_grid(e, res, dual=True)
    # direct evaluation of the periodized dual scaling function at level j0+1
    phi, step = sys_.scaling_values(dual=True, sweeps=res - (sys_.j0 + 1))
    L0 = sys_.j0 + 1
    t = np.arange(2**res) / 2**res
    direct = np.zeros_like(t)
    for shift in (-1, 0, 1):
        u = (t + shift) * 2**L0
        jdx = np.round((u - sys_.bank.lo_dual.start) / step).astype(int)
        ok = (jdx >= 0) & (jdx < len(phi))
        direct[ok] += 2.0 ** (L0 / 2.0) * phi[jdx[ok]]
    assert np.max(np.abs(field - direct)) <= 1e-10 * np.max(np.abs(direct))


def _scatter_synthesis(sys_, coeffs, resolution, dual):
    """Reference grid synthesis, one scatter per tabulated value: grid point
    ``m = per*(k + start) + i`` receives ``vals[i] * 2^(L/2) * c[k]``."""
    L = sys_.index_set_for_dim(len(coeffs)).J + 1
    c = sys_.ifwt_dual(coeffs) if dual else sys_.ifwt(coeffs)
    sweeps = resolution - L
    phi, _ = sys_.scaling_values(dual=dual, sweeps=max(sweeps, 1))
    vals = phi[::1 if sweeps >= 1 else 2]
    start = sys_.bank.lo_dual.start if dual else -1
    n, per = 2**resolution, 2**sweeps
    out = np.zeros(n)
    scale = 2.0 ** (L / 2.0)
    ks = np.arange(2**L)
    for i, v in enumerate(vals):
        if v == 0.0:
            continue
        out[(ks * per + start * per + i) % n] += v * scale * c[ks]
    return out


@pytest.mark.parametrize("dt", [4, 6, 8, 10])
@pytest.mark.parametrize("p", [64, 512, 2048])
def test_point_synthesis_equals_scatter_reference(dt, p):
    """The per-point gather gives the scatter loop's values bit for bit, on
    the whole grid and at arbitrary (unsorted, repeated, wrapped) positions."""
    sys_ = get_system(2, dt)
    L = int(np.log2(p))
    c = np.random.default_rng(p + dt).standard_normal(p)
    for res in (L, L + 1, L + 4):
        for dual in (True, False):
            ref = _scatter_synthesis(sys_, c, res, dual)
            assert np.array_equal(sys_.synthesize_on_grid(c, res, dual), ref)
            n = 2**res
            pos = np.array([0, n - 1, 5, 3, 5, -1, -n, n, 2 * n + 7])
            assert np.array_equal(sys_.synthesize_at(c, pos, res, dual), ref[pos % n])


@pytest.mark.parametrize("p", [64, 512, 2048])
def test_predict_at_equals_scatter_reference(model, p):
    """Kriging prediction reads the snapped targets of the reference grid
    synthesis: targets at 0, just below 1 (snapping to 0), negative,
    unsorted and repeated."""
    curve = model("matern12", 2, 6, p).curve
    L = int(np.log2(p))
    mu = np.random.default_rng(p).standard_normal(p)
    t = np.array([0.0, np.nextafter(1.0, 0.0), -0.3, -1e-9, 0.7, 0.2, 0.7, 0.45])
    for dt in (4, 6, 8, 10):
        sys_ = get_system(2, dt)
        for res in (L, L + 1, None):
            r = L + 4 if res is None else res
            pos = np.round((t % 1.0) * 2**r).astype(int) % 2**r
            want = (_scatter_synthesis(sys_, mu, r, True)[pos]
                    / curve.weight_t(pos / float(2**r)))
            assert np.array_equal(kriging.predict_at(sys_, curve, mu, t, res), want)


def test_synthesize_resolution_validation():
    sys_ = get_system(2, 6)
    with pytest.raises(ValueError):
        sys_.synthesize_on_grid(np.ones(64), 4)
    with pytest.raises(ValueError):
        sys_.synthesize_at(np.ones(64), np.arange(3), 5)


def test_j0_too_small_rejected():
    with pytest.raises(ValueError):
        WaveletSystem(2, 10, j0=1)
