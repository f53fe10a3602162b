import gc
import weakref

import numpy as np
import pytest
from scipy import sparse

from wavegrf import kriging, linalg, sampling
from wavegrf.curves import normalize_to_unit_diameter, paper_boundary
from wavegrf.kriging import (FactoredGram, ObservationSet,
                             build_observation_matrix,
                             equispaced_observations, gram_matrix,
                             posterior_mean, posterior_mean_dense, predict_at)
from wavegrf.linalg import cg_solve, condition_number, dense_bounds, dense_eigvals
from wavegrf.wavelets import get_system


def test_observation_validation():
    with pytest.raises(ValueError, match="positive"):
        ObservationSet(centers=np.array([0.5]), widths=np.array([0.1]), sigma2=0.0)
    with pytest.raises(ValueError, match="overlap"):
        ObservationSet(centers=np.array([0.1, 0.15]),
                       widths=np.array([0.2, 0.2]), sigma2=1.0)
    with pytest.raises(ValueError, match="overlap"):
        # wrap-around overlap
        ObservationSet(centers=np.array([0.99, 0.02]),
                       widths=np.array([0.08, 0.08]), sigma2=1.0)
    with pytest.raises(ValueError, match="at least one"):
        ObservationSet(centers=np.array([]), widths=np.array([]), sigma2=1.0)
    # non-finite numbers are refused by name, not by a numpy error downstream
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ObservationSet(centers=np.array([0.5]), widths=np.array([0.1]), sigma2=bad)
        with pytest.raises(ValueError, match="finite center"):
            ObservationSet(centers=np.array([0.5, bad]), widths=np.array([0.1, 0.1]),
                           sigma2=1.0)
    with pytest.raises(ValueError, match="positive width"):
        ObservationSet(centers=np.array([0.5]), widths=np.array([np.nan]), sigma2=1.0)
    with pytest.raises(ValueError, match="overlap"):
        ObservationSet(centers=np.array([0.5]), widths=np.array([np.inf]), sigma2=1.0)
    obs = equispaced_observations(8, 0.05, 1e-2)
    assert obs.K == 8


def _loop_overlaps(c, w):
    """The per-support loop the vectorized overlap check replaced: the
    reference for it."""
    if len(c) < 2:
        return False
    order = np.argsort((c - w / 2.0) % 1.0)
    starts = ((c - w / 2.0) % 1.0)[order]
    widths = w[order]
    for i in range(len(c)):
        nxt = (i + 1) % len(c)
        room = (starts[nxt] - starts[i]) % 1.0
        if nxt == 0:
            room = 1.0 - ((starts[i] - starts[0]) % 1.0)
        if widths[i] > room + 1e-12:
            return True
    return False


def test_overlap_check_matches_loop_reference():
    rng = np.random.default_rng(13)
    seen = set()
    for trial in range(3000):
        K = int(rng.integers(1, 12))
        c = rng.random(K)
        w = rng.random(K) * rng.choice([0.5, 1.0, 2.0]) / K
        if trial % 3 == 0:                   # exactly adjacent supports
            c = np.sort(c)
            w = np.append(np.diff(c), 1.0 - (c[-1] - c[0]))
            c = c + w / 2.0
        if np.sum(w) > 1.0 + 1e-12:
            continue
        want = _loop_overlaps(c % 1.0, w)
        seen.add(want)
        try:
            ObservationSet(centers=c, widths=w, sigma2=1.0)
            got = False
        except ValueError as e:
            assert "overlap" in str(e)
            got = True
        assert got == want, (c, w)
    assert seen == {True, False}


def test_observation_matrix_structure(model):
    m = model("matern12", 2, 6, 512)
    obs = equispaced_observations(32, 4.0 / 512, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    # single-scale rows are short bands: O(1) entries per functional
    assert om.G_single.nnz <= 32 * (4 + 2 * m.system.dt + 3)
    assert om.G.shape == (32, 512)
    # full-support constant functional pairs only with the coarsest block
    # (vanishing moments annihilate it on every detail row)
    whole = ObservationSet(centers=np.array([0.5]), widths=np.array([1.0]),
                           sigma2=1.0)
    om1 = build_observation_matrix(m.system, whole, m.idx.J, m.curve)
    row = om1.G.toarray()[0]
    coarse = m.idx.level_slice(m.idx.j0)
    assert np.abs(row[coarse]).max() > 0.1
    assert np.abs(row[coarse.stop:]).max() <= 1e-10 * np.abs(row[coarse]).max()


def _loop_single_scale_rows(system, obs, J, curve, oversample=6):
    """Per-observation, per-translate loop for ``G_single``: the reference
    for the vectorized construction."""
    L = J + 1
    N = 2**L
    phi, _ = system.scaling_values(dual=True, sweeps=oversample)
    per = 2**oversample
    tau = 2.0 ** (-L) / per
    lo_idx, n_tab = system.bank.lo_dual.start * per, len(phi)
    rows, cols, vals = [], [], []
    for i, (c, w) in enumerate(zip(obs.centers, obs.widths)):
        n0 = int(round((c - w / 2.0) / tau))
        n1 = int(round((c + w / 2.0) / tau))
        nodes = np.arange(n0, n1 + 1)
        wq = np.full(len(nodes), tau)
        wq[0] = wq[-1] = tau / 2.0
        mass = float(np.sum(wq * curve.weight_t(nodes * tau)))
        for k in range((n0 - lo_idx - n_tab + per - 1) // per,
                       (n1 - lo_idx) // per + 1):
            jdx = nodes - per * k - lo_idx
            ok = (jdx >= 0) & (jdx < n_tab)
            if not np.any(ok):
                continue
            val = 2.0 ** (L / 2.0) * float(np.sum(wq[ok] * phi[jdx[ok]])) / mass
            if abs(val) > 1e-14:
                rows.append(i)
                cols.append(k % N)
                vals.append(val)
    return sparse.coo_matrix((vals, (rows, cols)), shape=(obs.K, N)).tocsr()


@pytest.mark.parametrize("fam,p", [((2, 6), 512), ((2, 8), 256), ((2, 10), 64)])
def test_observation_matrix_matches_loop_reference(model, fam, p):
    m = model({6: "matern12", 8: "matern32", 10: "matern52"}[fam[1]], *fam, p)
    K = min(256, p // 2)
    sets = [equispaced_observations(K, min(4.0 / p, 0.5 / K), 1e-2),
            equispaced_observations(8, 0.05, 1e-2),
            ObservationSet(centers=np.array([0.5]), widths=np.array([1.0]), sigma2=1.0),
            # a box across t = 0 and one a few cells wide
            ObservationSet(centers=np.array([0.999, 0.3]),
                           widths=np.array([0.03, 5.0 / p]), sigma2=1.0)]
    # scattered boxes where a translate's table ends one node before a box:
    # no entry for that pair (an empty segment once took the next one's sum)
    sets += [_scattered_observations(n, np.random.default_rng(seed))
             for n, seed in ((200, 240), (100, 7)) if 0.5 / n >= 1.0 / p]
    for obs in sets:
        got = build_observation_matrix(m.system, obs, m.idx.J, m.curve).G_single
        want = _loop_single_scale_rows(m.system, obs, m.idx.J, m.curve)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_width_resolution_guard(model):
    m = model("matern12", 2, 6, 128)
    obs = equispaced_observations(4, 2.0 ** -10, 1e-2)
    with pytest.raises(ValueError, match="width"):
        build_observation_matrix(m.system, obs, m.idx.J, m.curve)


def test_factored_apply_equals_dense(model):
    m = model("matern12", 2, 6, 256)
    obs = equispaced_observations(16, 4.0 / 256, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    gram = FactoredGram(m.tapered, om, obs.sigma2)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(16)
    G = om.G.toarray()
    dense = G @ m.tapered.to_dense() @ G.T @ v + obs.sigma2 * v
    np.testing.assert_allclose(gram(v), dense, rtol=1e-12, atol=1e-14)


def _transform_chain_gram(C, om, system, sigma2, v):
    """``(G C G^T + sigma2 I) v`` through ``G_single`` and the fast transforms,
    never forming the wavelet-coordinate ``G``: the reference for the CSR
    Gram apply."""
    Cw = C @ system.fwt(om.G_single.T @ v)
    return om.G_single @ system.ifwt_dual(Cw) + sigma2 * v


@pytest.mark.parametrize("p", [128, 512, 2048])
def test_factored_gram_matches_transform_chain(model, p):
    m = model("matern12", 2, 6, p)
    K = min(256, p // 2)
    obs = equispaced_observations(K, min(4.0 / p, 0.5 / K), 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    gram = FactoredGram(m.tapered, om, obs.sigma2)
    rng = np.random.default_rng(p)
    for v in (rng.standard_normal(K), rng.standard_normal((K, 4))):
        want = _transform_chain_gram(m.tapered, om, m.system, obs.sigma2, v)
        assert np.abs(gram(v) - want).max() <= 1e-13 * np.abs(want).max()


def test_sparse_observation_matrix_is_the_transformed_single_scale_rows(model):
    """``G`` holds exactly the floats of the batched transform, exact zeros
    dropped and nothing else."""
    m = model("matern12", 2, 6, 512)
    obs = equispaced_observations(256, 0.5 / 256, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    assert sparse.isspmatrix_csr(om.G)
    dense = m.system.fwt(om.G_single.T.toarray()).T
    assert np.array_equal(om.G.toarray(), dense)
    assert om.G.nnz == np.count_nonzero(dense)


def test_observation_matrix_nnz_grows_by_a_constant_per_level():
    """A box functional meets O(1) wavelets per level (the dual vanishing
    moments annihilate the constant inside the box), so nnz(G) / K grows by a
    bounded count per level: O(K log p) in all.  For (2, 6) and boxes four
    fine cells wide it is exactly 8; boxes of fixed width add a few more."""
    system = get_system(2, 6)
    curve = normalize_to_unit_diameter(paper_boundary())

    def growth_per_level(width):
        per_functional = [build_observation_matrix(
            system, equispaced_observations(32, width(p), 1e-2),
            system.index_set_for_dim(p).J, curve).G.nnz / 32
            for p in (128, 256, 512, 1024, 2048, 4096)]
        return np.diff(per_functional)

    assert np.array_equal(growth_per_level(lambda p: 4.0 / p), [8] * 5)
    assert growth_per_level(lambda p: 1.0 / 32).max() <= 12


def test_factored_gram_block_equals_columns(model):
    m = model("matern12", 2, 6, 256)
    obs = equispaced_observations(16, 4.0 / 256, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    gram = FactoredGram(m.tapered, om, obs.sigma2)
    V = np.random.default_rng(7).standard_normal((16, 4))
    cols = np.stack([gram(V[:, i]) for i in range(4)], axis=1)
    np.testing.assert_allclose(gram(V), cols, rtol=1e-13, atol=1e-15)


def test_posterior_mean_zero_linear_scalar(model):
    m = model("matern12", 2, 6, 128)
    obs = equispaced_observations(8, 4.0 / 128, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    mu0, _ = posterior_mean(m.tapered, om, m.system, np.zeros(8), obs.sigma2)
    assert np.all(mu0 == 0.0)
    rng = np.random.default_rng(2)
    y1 = rng.standard_normal(8)
    y2 = rng.standard_normal(8)
    ma, _ = posterior_mean(m.tapered, om, m.system, y1, obs.sigma2, cg_tol=1e-13)
    mb, _ = posterior_mean(m.tapered, om, m.system, y2, obs.sigma2, cg_tol=1e-13)
    mab, _ = posterior_mean(m.tapered, om, m.system, y1 + y2, obs.sigma2,
                            cg_tol=1e-13)
    np.testing.assert_allclose(mab, ma + mb, atol=1e-8)
    # scalar closed form: mu = c g (c g^2 + s^2)^(-1) y
    c, g, s2, y = 2.5, 0.7, 0.3, 1.9
    mu = posterior_mean_dense(np.array([[c]]), np.array([[g]]), np.array([y]), s2)
    assert mu[0] == pytest.approx(c * g * y / (c * g * g + s2), rel=1e-14)


def test_posterior_matches_dense_oracle(model):
    m = model("matern12", 2, 6, 512)
    obs = equispaced_observations(32, 4.0 / 512, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    y = np.random.default_rng(3).standard_normal(32)
    mu, res = posterior_mean(m.tapered, om, m.system, y, obs.sigma2, cg_tol=1e-12)
    oracle = posterior_mean_dense(m.tapered.to_dense(), om.G, y, obs.sigma2)
    assert np.linalg.norm(mu - oracle) <= 1e-8 * np.linalg.norm(oracle)
    assert res.converged
    assert res.x is None                 # the record keeps no K-vector


def test_factored_gram_matches_dense_gram_and_oracle(model, monkeypatch):
    """Above the size rule CG runs on the factored Gram: the same posterior
    mean as the dense Gram's and the dense oracle's (p = 512, K = 256).  At
    the default cg_tol = 1e-10 the two CG solutions differ by the solve's own
    error (1.4e-10 relative unpreconditioned, 3.7e-13 with the wavelet
    preconditioner), so the tolerance here is 1e-12."""
    m = model("matern12", 2, 6, 512)
    obs = equispaced_observations(256, 0.5 / 256, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    y = np.random.default_rng(10).standard_normal(256)
    oracle = posterior_mean_dense(m.tapered.to_dense(), om.G, y, obs.sigma2)
    mu_dense, res_dense = posterior_mean(m.tapered, om, m.system, y, obs.sigma2,
                                         cg_tol=1e-12)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 255)
    monkeypatch.setattr(om, "_gram", (None,) * 4)    # else the same key keeps it dense
    mu, res = posterior_mean(m.tapered, om, m.system, y, obs.sigma2, cg_tol=1e-12)
    assert isinstance(om._gram[2], FactoredGram)
    assert res.converged and res_dense.converged
    assert np.linalg.norm(mu_dense - oracle) <= 1e-8 * np.linalg.norm(oracle)
    assert np.linalg.norm(mu - oracle) <= 1e-8 * np.linalg.norm(oracle)
    assert np.linalg.norm(mu - mu_dense) <= 1e-10 * np.linalg.norm(mu_dense)


def test_dense_gram_formed_once_per_content(model, gram_builds):
    """The dense Gram is kept on its observation matrix for (C_eps, sigma2),
    C_eps compared by identity, and read-only; a new sigma2 or a new C_eps of
    equal content forms it anew, and neither C_eps nor G can change in place."""
    m = model("matern12", 2, 6, 128)
    obs = equispaced_observations(16, 4.0 / 128, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    C = linalg.SparseSymMatrix(m.tapered.csr.copy(), check=False)
    y = np.random.default_rng(11).standard_normal(16)
    posterior_mean(C, om, m.system, y, 1e-2)
    posterior_mean(C, om, m.system, 2.0 * y, 1e-2)
    gram = gram_matrix(C, om, 1e-2)
    assert gram_builds == [(16, 16)]
    assert not gram.flags.writeable
    with pytest.raises(ValueError):
        gram[0, 0] = 0.0
    posterior_mean(C, om, m.system, y, 2e-2)
    assert len(gram_builds) == 2
    same = linalg.SparseSymMatrix(C.csr.copy(), check=False)
    again = gram_matrix(same, om, 2e-2)
    assert gram_matrix(same, om, 2e-2) is again
    assert len(gram_builds) == 3
    assert np.array_equal(again, FactoredGram(C, om, 2e-2)(np.eye(16)))
    with pytest.raises(ValueError, match="read-only"):
        C.csr.data[0] *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        om.G.data[0] = 0.0
    for M in (same.csr, om.G, om.G_single):
        assert not any(a.flags.writeable for a in (M.data, M.indices, M.indptr))


def test_gram_kept_per_observation_matrix(model, gram_builds):
    """Each observation matrix keeps its own Gram: two of them on one C_eps,
    solved alternately, form one dense Gram each."""
    m = model("matern12", 2, 6, 128)
    oms = [build_observation_matrix(m.system, equispaced_observations(K, 4.0 / 128, 1e-2),
                                    m.idx.J, m.curve) for K in (16, 8)]
    for _ in range(2):
        for om in oms:
            posterior_mean(m.tapered, om, m.system, np.ones(om.K), 1e-2)
    assert gram_builds == [(16, 16), (8, 8)]


def test_kept_gram_freed_with_its_observation_matrix(model):
    """A kept Gram lives no longer than the observation matrix it is of."""
    m = model("matern12", 2, 6, 128)
    om = build_observation_matrix(m.system, equispaced_observations(16, 4.0 / 128, 1e-2),
                                  m.idx.J, m.curve)
    gram = weakref.ref(gram_matrix(m.tapered, om, 1e-2))
    assert gram() is not None
    del om
    gc.collect()
    assert gram() is None


def test_factored_gram_and_preconditioner_kept_per_key(model, monkeypatch):
    """Above the size rule the factored Gram and its preconditioner are kept
    under the same (C_eps, sigma2) key as the dense Gram: a second solve
    builds no preconditioner and gives the same mu bit for bit."""
    m = model("matern12", 2, 6, 128)
    obs = equispaced_observations(32, 4.0 / 128, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 31)
    init, builds = kriging.WaveletPreconditioner.__init__, []

    def counted(self, *args):
        builds.append(len(args[1]))               # (system, rank, gram): K
        init(self, *args)

    monkeypatch.setattr(kriging.WaveletPreconditioner, "__init__", counted)
    y = np.random.default_rng(12).standard_normal(32)
    mu1, _ = posterior_mean(m.tapered, om, m.system, y, obs.sigma2)
    mu2, _ = posterior_mean(m.tapered, om, m.system, y, obs.sigma2)
    assert builds == [32]
    assert isinstance(om._gram[2], FactoredGram)
    assert np.array_equal(mu1, mu2)
    posterior_mean(m.tapered, om, m.system, y, 2e-2)
    assert len(builds) == 2


def test_gram_spectrum_bounds(model):
    m = model("matern12", 2, 6, 256)
    obs = equispaced_observations(16, 4.0 / 256, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    ev = dense_eigvals(gram_matrix(m.tapered, om, obs.sigma2))
    assert ev[0] >= obs.sigma2 - 1e-12
    # very large noise: condition tends to one
    big = condition_number(gram_matrix(m.tapered, om, 1e8))
    assert big == pytest.approx(1.0, abs=1e-6)


def test_gram_condition_plateaus_in_p(model):
    """cond stays bounded by C max ||g||^2 / sigma^2 + 1 with a stable C
    under p-refinement at fixed K."""
    sigma2 = 1e-2
    conds, bounds_ = [], []
    for p in (128, 256, 512):
        m = model("matern12", 2, 6, p)
        obs = equispaced_observations(16, 1.0 / 64, sigma2)
        om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
        conds.append(condition_number(gram_matrix(m.tapered, om, sigma2)))
        # ||g||^2 = 1 / mass, the mass a 256-point mean of the weight
        t = obs.centers[:, None] + obs.widths[:, None] * (np.arange(256) / 256 - 0.5)
        mass = np.mean(m.curve.weight_t(t % 1.0), axis=1) * obs.widths
        bounds_.append(np.max(1.0 / mass) / sigma2 + 1.0)
    conds = np.array(conds)
    assert conds.max() / conds.min() <= 1.5
    assert np.all(conds <= 5.0 * np.array(bounds_))


def test_predictions(model):
    m = model("matern12", 2, 6, 512)
    obs = equispaced_observations(32, 4.0 / 512, 1e-6)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    # zero coefficients predict zero
    assert np.all(predict_at(m.system, m.curve, np.zeros(512),
                             np.array([0.1, 0.6])) == 0.0)
    # small-noise consistency: prediction at the box center reproduces the
    # noiseless local-average datum within 2 percent of the data scale
    q = sampling.build_contour(dense_bounds(m.preconditioned), 40)
    z = sampling.GrfSampler(m.tapered, m.idx, m.order.ra, q).draw(seed=9)
    y = om.G @ z.coefficients
    mu, _ = posterior_mean(m.tapered, om, m.system, y, 1e-6, cg_tol=1e-9)
    pred = predict_at(m.system, m.curve, mu, obs.centers)
    assert np.max(np.abs(pred - y)) <= 0.02 * max(1.0, np.abs(y).max())


def test_cg_iterations_stable_in_p(model):
    iters = []
    for p in (128, 256, 512):
        m = model("matern12", 2, 6, p)
        obs = equispaced_observations(16, 1.0 / 64, 1e-2)
        om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
        y = np.random.default_rng(5).standard_normal(16)
        _, res = posterior_mean(m.tapered, om, m.system, y, 1e-2, cg_tol=1e-10)
        iters.append(res.iterations)
    assert max(iters) - min(iters) <= 2


@pytest.mark.parametrize("K", [256, 1024])
def test_preconditioned_iterations_flat_in_K_and_noise(model, K):
    """The wavelet preconditioner keeps Gram CG at 40 iterations or fewer at
    K = 256 and 1024 (plain CG: 122 and 240 at sigma^2 = 1e-2, 202 and 765 at
    1e-6), equispaced at p = 2K, each solve within 1e-8 of the dense oracle."""
    p = 2 * K
    m = model("matern12", 2, 6, p)
    C = m.tapered.to_dense()
    y = np.random.default_rng(K).standard_normal(K)
    for sigma2 in (1e-2, 1e-6):
        obs = equispaced_observations(K, min(4.0 / p, 0.5 / K), sigma2)
        om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
        mu, res = posterior_mean(m.tapered, om, m.system, y, sigma2)
        oracle = posterior_mean_dense(C, om.G, y, sigma2)
        assert res.converged and res.iterations <= 40, (sigma2, res.iterations)
        assert np.linalg.norm(mu - oracle) <= 1e-8 * np.linalg.norm(oracle)


def _scattered_observations(K, rng):
    """K disjoint boxes at random gaps round the circle, in shuffled order."""
    width = 0.5 / max(K, 2)
    gaps = rng.random(K)
    starts = np.cumsum(gaps / gaps.sum() * (1.0 - K * width)) + np.arange(K) * width
    centers = (starts + width / 2.0 + rng.random()) % 1.0
    return ObservationSet(centers=centers[rng.permutation(K)], widths=np.full(K, width),
                          sigma2=1e-2)


@pytest.mark.parametrize("K", [1, 3, 200])
def test_wavelet_preconditioner_any_K_scattered(model, K):
    """Any K, unsorted scattered centers: M^-1 is symmetric positive definite,
    the preconditioned solve converges to the dense oracle, and at K = 200 it
    takes fewer iterations than plain CG on the same Gram."""
    m = model("matern12", 2, 6, 512)
    rng = np.random.default_rng(40 + K)
    obs = _scattered_observations(K, rng)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    assert np.array_equal(np.sort(obs.centers)[om.rank], obs.centers)
    if K > 1:
        assert not np.all(np.diff(obs.centers) > 0)
    gram = gram_matrix(m.tapered, om, obs.sigma2)
    Minv = kriging.WaveletPreconditioner(m.system, om.rank, gram)(np.eye(K))
    assert np.abs(Minv - Minv.T).max() <= 1e-12 * np.abs(Minv).max()
    assert np.linalg.eigvalsh((Minv + Minv.T) / 2.0)[0] > 0.0
    y = rng.standard_normal(K)
    mu, res = posterior_mean(m.tapered, om, m.system, y, obs.sigma2, cg_tol=1e-12)
    oracle = posterior_mean_dense(m.tapered.to_dense(), om.G, y, obs.sigma2)
    assert res.converged
    assert np.linalg.norm(mu - oracle) <= 1e-8 * np.linalg.norm(oracle)
    if K == 200:
        assert res.iterations < cg_solve(gram, y, tol=1e-12).iterations


@pytest.mark.parametrize("dense_max_p", [pytest.param(64, id="dense-gram"),
                                         pytest.param(63, id="factored")])
def test_unattainable_tolerance_reported_unconverged(model, monkeypatch, dense_max_p):
    """CG decides on the true residual, on the dense Gram and on the factored
    one: at cg_tol = 1e-300 the recursive residual would underflow to 0, but
    the solve reports no convergence."""
    m = model("matern12", 2, 6, 64)
    obs = equispaced_observations(8, 4.0 / 64, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", dense_max_p)
    y = np.random.default_rng(8).standard_normal(8)
    _, res = posterior_mean(m.tapered, om, m.system, y, obs.sigma2, cg_tol=1e-300)
    assert isinstance(om._gram[2], FactoredGram) == (dense_max_p < 64)
    assert not res.converged
    assert res.residual > 0.0


def test_unattainable_tolerance_stops_when_a_restart_stalls(model):
    """At cg_tol = 1e-12 and sigma^2 = 1e-6 the (1024, 512) Gram solve cannot
    reach the tolerance; it stops once a restart no longer lowers the true
    residual (it spent all 5120 iterations before) and reports it."""
    m = model("matern12", 2, 6, 1024)
    obs = equispaced_observations(512, 0.5 / 512, 1e-6)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    y = np.random.default_rng(512).standard_normal(512)
    _, res = posterior_mean(m.tapered, om, m.system, y, obs.sigma2, cg_tol=1e-12)
    assert not res.converged
    assert res.iterations <= 100
    assert 1e-12 < res.residual < 1e-9


def _recursive_residual_cg(A, b, tol):
    """Iteration count of CG stopped on the recursive residual alone."""
    x, r = np.zeros_like(b), b.copy()
    p, rs, it = r.copy(), r @ r, 0
    while np.sqrt(rs) > tol * np.linalg.norm(b):
        Ap = A(p)
        alpha = rs / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs, rs_old = r @ r, rs
        p = r + (rs / rs_old) * p
        it += 1
    return it


def test_true_residual_check_costs_at_most_one_iteration(model):
    """On the 256-observation Gram at p = 512 the true-residual stop adds
    at most one iteration and meets the tolerance on the true residual."""
    m = model("matern12", 2, 6, 512)
    obs = equispaced_observations(256, 0.5 / 256, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    gram = FactoredGram(m.tapered, om, obs.sigma2)
    rng = np.random.default_rng(9)
    for _ in range(5):
        y = rng.standard_normal(256)
        res = cg_solve(gram, y, tol=1e-10)
        assert res.converged
        assert res.iterations <= _recursive_residual_cg(gram, y, 1e-10) + 1
        assert np.linalg.norm(y - gram(res.x)) <= 1e-10 * np.linalg.norm(y)


def test_gram_matrix_capped_at_dense_max_p(model, monkeypatch):
    """The dense Gram follows the model's p, not the observation count K."""
    m = model("matern12", 2, 6, 64)
    obs = equispaced_observations(8, 1.0 / 64, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 64)
    assert gram_matrix(m.tapered, om, obs.sigma2).shape == (8, 8)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 63)
    with pytest.raises(ValueError, match="p = 63, got p = 64"):
        gram_matrix(m.tapered, om, obs.sigma2)


def test_factored_gram_above_dense_max_p_for_few_observations(model, monkeypatch,
                                                                gram_builds):
    """Above the size rule on p the Gram is factored even when K is below
    the rule: no K x K array is formed, and the posterior mean is the dense
    oracle's."""
    m = model("matern12", 2, 6, 64)
    obs = equispaced_observations(16, 2.0 / 64, 1e-2)
    om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 32)
    y = np.random.default_rng(13).standard_normal(16)
    mu, res = posterior_mean(m.tapered, om, m.system, y, obs.sigma2, cg_tol=1e-12)
    assert isinstance(om._gram[2], FactoredGram)
    assert gram_builds == []
    oracle = posterior_mean_dense(m.tapered.to_dense(), om.G, y, obs.sigma2)
    assert res.converged
    assert np.linalg.norm(mu - oracle) <= 1e-8 * np.linalg.norm(oracle)
