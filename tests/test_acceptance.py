"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a single PASS line with the measured quantities (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  The wavelet-core
criterion gates all others: every test pulls the ``core`` fixture, which
runs those checks once per session before anything else is attempted.

Matrix normalization note: basis functions are L2-normalized in the unit
parameter interval; quoted reference errors for covariance estimation are
translated to the 2-pi-periodic parametrization (a factor 2 pi on the
matrix) where a comparison of absolute errors is needed.
"""

import time

import numpy as np
import pytest

from wavegrf import compression, curves, mlmc
from wavegrf.filters import SUPPORTED_PAIRS, build_filter_bank
from wavegrf.kriging import (build_observation_matrix, equispaced_observations,
                             gram_matrix, posterior_mean, posterior_mean_dense)
from wavegrf.linalg import SpectralBounds, condition_number, dense_bounds, dense_eigvals
from wavegrf.pipeline import cached_model
from wavegrf.sampling import GrfSampler, build_contour
from wavegrf.wavelets import get_system

TABLE1_CONFIGS = [("matern12", 4), ("matern12", 6), ("matern12", 8)]
TABLE2_CONFIGS = [("matern32", 6), ("matern32", 8), ("matern32", 10)]
TABLE_P = (32, 64, 128, 256, 512, 1024)


def _ok(name, detail):
    print(f"PASS {name}: {detail}")


# --------------------------------------------------------------------------
# Criterion 10 gates the rest: filter identities, round trips, moments.
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def core():
    # filter biorthogonality identities to 1e-14
    for d, dt in SUPPORTED_PAIRS:
        fb = build_filter_bank(d, dt)
        for m in range(-dt, dt + 1):
            s = sum(a * fb.lo_dual.coeffs[i + 2 * m - fb.lo_dual.start]
                    for i, a in zip(range(fb.lo.start, fb.lo.stop + 1), fb.lo.coeffs)
                    if fb.lo_dual.start <= i + 2 * m <= fb.lo_dual.stop)
            assert abs(s - (2.0 if m == 0 else 0.0)) <= 1e-14
    # transform round trips to 1e-12 for 100 random vectors, all J <= 12
    rng = np.random.default_rng(0)
    worst = 0.0
    for d, dt in SUPPORTED_PAIRS:
        sys_ = get_system(d, dt)
        for J in range(sys_.j0, 13, 2):
            X = rng.standard_normal((2 ** (J + 1), 100 if J <= 9 else 10))
            err = np.abs(sys_.ifwt(sys_.fwt(X)) - X).max() / np.abs(X).max()
            err2 = np.abs(sys_.ifwt_dual(sys_.fwt_dual(X)) - X).max() / np.abs(X).max()
            worst = max(worst, err, err2)
    assert worst <= 1e-12
    # vanishing moments by cascade evaluation + composite quadrature:
    # the spline wavelets carry the dt moments, the rough duals the d = 2
    moment_worst = 0.0
    for d, dt in SUPPORTED_PAIRS:
        sys_ = get_system(d, dt)
        psi, h = sys_.wavelet_values(dual=False, sweeps=10)
        x = np.arange(len(psi)) * h + (sys_.bank.hi.start + sys_.bank.lo.start) / 2
        for mom in range(dt):
            moment_worst = max(moment_worst, abs(np.sum(x**mom * psi) * h))
        psid, hd = sys_.wavelet_values(dual=True, sweeps=10)
        xd = np.arange(len(psid)) * hd + (sys_.bank.hi_dual.start
                                          + sys_.bank.lo_dual.start) / 2
        moment_worst = max(moment_worst, abs(np.sum(psid) * hd))
    assert moment_worst <= 1e-10
    return {"roundtrip": worst, "moments": moment_worst}


def test_criterion_10_wavelet_core(core):
    _ok("criterion 10 (wavelet core)",
        f"roundtrip {core['roundtrip']:.1e} <= 1e-12, "
        f"moments {core['moments']:.1e} <= 1e-10, filter identities <= 1e-14")


def test_criterion_01_preconditioning_bounded(core):
    t0 = time.monotonic()
    ss_conds, pc_conds = [], []
    for p in TABLE_P:
        m = cached_model("matern12", 2, 6, p)
        ss_conds.append(condition_number(m.single_scale))
        pc_conds.append(condition_number(m.preconditioned_dense))
    for c in pc_conds:
        assert 1.0e2 <= c <= 4.0e2, pc_conds
    for a, b in zip(ss_conds, ss_conds[1:]):
        assert b / a == pytest.approx(4.0, rel=0.15), ss_conds
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _ok("criterion 1 (preconditioning)",
        f"cond(D C D) in [{min(pc_conds):.3g}, {max(pc_conds):.3g}] for p=32..1024, "
        f"single-scale growth {[f'{b/a:.2f}' for a, b in zip(ss_conds, ss_conds[1:])]}, "
        f"{elapsed:.0f}s")


def test_criterion_02_compression_rate(core):
    t0 = time.monotonic()
    curve = curves.normalize_to_unit_diameter(curves.paper_boundary())
    sys_ = get_system(2, 6)
    params = compression.CompressionParams(d=2, dt=6, r=-2.0)
    nnz = {}
    for p in (256, 512, 1024, 2048, 4096):
        pat = compression.build_pattern(sys_, curve, params, int(np.log2(p)) - 1)
        nnz[p] = pat.nnz
    fracs = {p: nnz[p] / p**2 for p in nnz}
    for p, target in ((256, 0.42), (1024, 0.16), (4096, 0.050)):
        assert abs(fracs[p] - target) <= 0.30 * target, fracs
    # O(p) law binds in the asymptotic range (the reference data itself
    # grows by 2.47x/level across 256 -> 1024)
    for pa, pb in ((1024, 2048), (2048, 4096)):
        assert nnz[pb] / nnz[pa] <= 2.4
    growth = [nnz[pb] / nnz[pa] for pa, pb in
              ((256, 512), (512, 1024), (1024, 2048), (2048, 4096))]
    assert all(a >= b for a, b in zip(growth, growth[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok("criterion 2 (compression rate)",
        f"nnz% {dict((p, round(100 * f, 1)) for p, f in fracs.items())} "
        f"(targets 42/16/5.0 +-30%), growth/level {[f'{g:.2f}' for g in growth]}, "
        f"{elapsed:.0f}s")


def test_criterion_03_tapered_spd(core):
    worst = np.inf
    for kname, dt in TABLE1_CONFIGS + TABLE2_CONFIGS:
        for p in TABLE_P:
            m = cached_model(kname, 2, dt, p)
            lo = dense_eigvals(m.tapered)[0]
            assert lo > 0, (kname, dt, p, lo)
            worst = min(worst, lo)
    _ok("criterion 3 (tapered SPD)",
        f"min eigenvalue over all 6 configs x p<=1024: {worst:.3e} > 0")


def test_criterion_04_diagonal_decay(core):
    jumps = {}
    orders = {}
    for kname, dt, r in (("matern12", 6, -2.0), ("matern32", 8, -4.0),
                         ("matern52", 10, -6.0)):
        m = cached_model(kname, 2, dt, 512)
        diag = np.diag(m.wavelet_dense)
        means = [np.mean(diag[m.idx.level_slice(j)]) for j in m.idx.levels]
        ratios = [a / b for a, b in zip(means[1:-1], means[2:])]
        target = 2.0 ** (-r)
        for rr in ratios:
            assert rr == pytest.approx(target, rel=0.20), (kname, ratios)
        lv = list(m.idx.levels)[1:]
        slope = np.polyfit(lv, np.log2(means[1:]), 1)[0]
        assert slope == pytest.approx(r, abs=0.3)
        jumps[kname] = ratios
        orders[kname] = slope
    _ok("criterion 4 (diagonal decay)",
        f"jumps {dict((k, [round(x, 1) for x in v]) for k, v in jumps.items())}, "
        f"recovered orders {dict((k, round(v, 2)) for k, v in orders.items())}")


def test_criterion_05_sqrt_convergence(core):
    m = cached_model("matern12", 2, 6, 1024)
    ev = dense_eigvals(m.preconditioned)
    sq = np.sqrt(ev)
    scale = sq.max()

    def err_at(K, lo, hi):
        q = build_contour(SpectralBounds(lo, hi), K)
        return float(np.max(np.abs(q.scalar_values(ev) - sq)) / scale)

    Ks = [4, 8, 12, 16, 20]
    errs = [err_at(K, ev[0], ev[-1]) for K in Ks]
    slope = np.polyfit(Ks, np.log2(errs), 1)[0]
    assert slope < -0.5                                     # linear in log2, negative
    e40 = err_at(40, ev[0], ev[-1])
    assert e40 <= 1e-12
    # conditioning misjudged by a factor of two, both directions: a twofold
    # wider interval barely changes the rate; a twofold narrower one still
    # reaches tolerance comfortably before the budget
    e_narrow40 = err_at(40, 2 * ev[0], ev[-1])
    e_wide60 = err_at(60, ev[0] / 2, ev[-1])
    s_wide = np.polyfit(Ks, np.log2([err_at(K, ev[0] / 2, ev[-1]) for K in Ks]), 1)[0]
    assert e_narrow40 <= 1e-12
    assert e_wide60 <= 1e-12
    assert s_wide <= 0.85 * slope + 0.0
    _ok("criterion 5 (sqrt convergence)",
        f"slope {slope:.2f} bits/node, err(K=40) {e40:.1e}, "
        f"narrowed {e_narrow40:.1e} @K=40, widened {e_wide60:.1e} @K=60")


def test_criterion_06_sampler_covariance(core):
    t0 = time.monotonic()
    m = cached_model("matern12", 2, 6, 64)
    q = build_contour(dense_bounds(m.preconditioned), 40)
    sampler = GrfSampler(m.tapered, m.idx, m.order.ra, q)
    M = 100_000
    Z = sampler.draw_matrix(seed=5, count=M)
    emp = (Z.T @ Z) / M
    Sigma = sampler.covariance()
    err = np.linalg.norm(emp - Sigma, 2)
    nrm = np.linalg.norm(Sigma, 2)
    reff = np.trace(Sigma) / nrm
    se = nrm * (np.sqrt(reff / M) + reff / M)
    assert err <= 3.0 * se
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _ok("criterion 6 (sampler covariance)",
        f"op-norm error {err:.2e} <= 3 SE = {3 * se:.2e} on 1e5 draws, {elapsed:.0f}s")


def test_criterion_07_mlmc_table(core):
    errs = {}
    for p in (8, 16, 32, 64, 128, 256, 512):
        m = cached_model("matern12", 2, 6, p)
        sched = mlmc.schedule(m.idx.J, m.idx.j0, M_finest=100)
        truth = m.wavelet_dense
        Ceps = m.tapered.to_dense()
        runs = []
        for r in range(10):
            src = mlmc.GaussianCoefficientSource(Ceps, m.idx, seed=4000 + r)
            est = mlmc.estimate(m.pattern, sched, src, seed=4000 + r)
            runs.append(mlmc.error_report(est, truth, m.idx)["op_norm_error"])
        errs[p] = float(np.mean(runs))
    contraction = (errs[8] / errs[512]) ** (1.0 / 6.0)
    assert 1.1 <= contraction <= 1.9
    # reference value at p = 512 is 1.1e-2 in the 2-pi-periodic
    # parametrization; our matrices carry the factor 2 pi
    matched = errs[512] / (2.0 * np.pi)
    assert matched <= 2.0 * 1.1e-2
    assert matched >= 0.5 * 1.1e-2
    _ok("criterion 7 (MLMC table)",
        f"mean contraction {contraction:.2f}/level (ref ~1.41), "
        f"err(p=512) {matched:.2e} vs 1.1e-2 within x2")


def test_criterion_08_mlmc_unbiased(core):
    m = cached_model("matern12", 2, 6, 32)
    sched = mlmc.schedule(m.idx.J, m.idx.j0, M_finest=100)
    Ceps = m.tapered.to_dense()
    R = 200
    acc = np.zeros((R, 32, 32))
    for r in range(R):
        src = mlmc.GaussianCoefficientSource(Ceps, m.idx, seed=5000 + r)
        acc[r] = mlmc.estimate(m.pattern, sched, src, seed=5000 + r).matrix.to_dense()
    mean = acc.mean(axis=0)
    se = acc.std(axis=0, ddof=1) / np.sqrt(R)
    truth = np.where(m.pattern.mask, Ceps, 0.0)
    mask = m.pattern.mask
    dev = np.abs(mean - truth)[mask]
    bound = 4.0 * se[mask] + 1e-12
    assert np.all(dev <= bound)
    _ok("criterion 8 (MLMC unbiased)",
        f"max |mean - truth| / SE = {np.max(dev / bound) * 4:.2f} <= 4 over "
        f"{int(mask.sum())} entries, 200 replicates")


def test_criterion_09_kriging(core):
    sigma2 = 1e-2
    K = 32
    # Gram CG (dense Gram, K <= linalg.DENSE_MAX_P) vs dense oracle at p = 512
    m = cached_model("matern12", 2, 6, 512)
    obs = equispaced_observations(K, 4.0 / 512, sigma2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    y = np.random.default_rng(6).standard_normal(K)
    mu, _ = posterior_mean(m.tapered, om, m.system, y, sigma2, cg_tol=1e-12)
    oracle = posterior_mean_dense(m.tapered.to_dense(), om.G, y, sigma2)
    rel = np.linalg.norm(mu - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-8
    ev = dense_eigvals(gram_matrix(m.tapered, om, sigma2))
    assert ev[0] >= sigma2 - 1e-12
    # CG iteration counts stay flat across resolutions
    iters = []
    for p in (128, 256, 512, 1024, 2048):
        mp = cached_model("matern12", 2, 6, p)
        op = build_observation_matrix(mp.system, obs, mp.idx.J, mp.curve)
        _, res = posterior_mean(mp.tapered, op, mp.system, y, sigma2, cg_tol=1e-10)
        iters.append(res.iterations)
    assert max(iters) - min(iters) <= 2
    _ok("criterion 9 (kriging)",
        f"CG-vs-dense rel err {rel:.1e} <= 1e-8, gram min eig "
        f"{ev[0]:.3e} >= sigma^2, CG iterations {iters} across p=128..2048")
