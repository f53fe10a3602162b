import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from wavegrf import compression, curves, kernels, linalg
from wavegrf.compression import (ARC_SAMPLES, CompressionParams, TaperPattern,
                                 _classify_vs_threshold, _knot_gap, aposteriori_threshold,
                                 apply_pattern, build_pattern, taper_params)
from wavegrf.curves import ChordBounds
from wavegrf.pipeline import _DEFAULT_FAMILY
from wavegrf.wavelets import get_system


def std_params(dt=6, r=-2.0, a=2.0, ap=2.0):
    return CompressionParams(d=2, dt=dt, r=r, a=a, a_prime=ap)


def test_dprime_rule_and_validation():
    p = std_params()
    assert p.resolved_dprime == pytest.approx(2.5)
    # borderline dt = d - r admits d' = d
    pb = std_params(dt=4)
    assert pb.resolved_dprime == pytest.approx(2.0)
    with pytest.raises(ValueError):
        CompressionParams(d=2, dt=6, r=-2.0, dprime=5.0)
    with pytest.raises(ValueError):
        CompressionParams(d=2, dt=6, r=-2.0, a=0.5)


def test_taper_params_hand_values():
    """Exact evaluation of the two cutoff formulas (a = a' = 2, d = 2,
    dt = 6, r = -2, d' = 2.5)."""
    p = std_params()
    tau, _ = taper_params(p, 5, 5, 5)
    # max(2^-5, 2^((35 - 85)/10)) = 2^-5, times a = 2
    assert tau == pytest.approx(2.0**-4)
    tau22, _ = taper_params(p, 2, 2, 5)
    # at the coarsest pair the second argument dominates: 2^((35 - 34)/10)
    assert tau22 == pytest.approx(2.0 * 2.0**0.1)
    assert tau22 > 1.0                    # coarse pairs are never dropped
    _, taup = taper_params(p, 5, 2, 5)
    # a' max(2^-5, 2^((35 - 17.5 - 30)/4)) = 2 * 2^-3.125
    assert taup == pytest.approx(2.0 * 2.0 ** ((35 - 17.5 - 30) / 4.0))
    with pytest.raises(ValueError):
        taper_params(p, 6, 2, 5)


@pytest.fixture(scope="module")
def boundary():
    return curves.normalize_to_unit_diameter(curves.paper_boundary())


def test_pattern_invariants(boundary):
    sys_ = get_system(2, 6)
    pat = build_pattern(sys_, boundary, std_params(), J=7)
    mask = pat.csr.toarray()
    assert np.array_equal(mask, mask.T)
    # all pairs touching the coarsest block are kept
    sl = pat.idx.level_slice(pat.idx.j0)
    assert np.all(mask[sl, :])
    assert np.all(mask[:, sl])
    assert np.all(np.diag(mask))
    assert pat.nnz == np.count_nonzero(mask)


def test_single_block_pattern_all_true(boundary):
    sys_ = get_system(2, 6)
    pat = build_pattern(sys_, boundary, std_params(), J=sys_.j0)
    assert np.all(pat.csr.toarray())


def test_table_nnz_fractions(boundary, model):
    """A-priori rates for the reference configurations (30 percent band)."""
    sys6 = get_system(2, 6)
    for p, target in ((256, 0.42), (1024, 0.16)):
        pat = build_pattern(sys6, boundary, std_params(), int(np.log2(p)) - 1)
        assert pat.nnz_fraction == pytest.approx(target, rel=0.30)
    sys8 = get_system(2, 8)
    pat = build_pattern(sys8, boundary, std_params(dt=8, r=-4.0),
                        int(np.log2(4096)) - 1)
    assert pat.nnz_fraction == pytest.approx(0.068, rel=0.30)


def test_linear_growth_law(boundary):
    sys_ = get_system(2, 6)
    nnz = []
    for p in (512, 1024, 2048, 4096):
        pat = build_pattern(sys_, boundary, std_params(), int(np.log2(p)) - 1)
        nnz.append(pat.nnz)
    ratios = [b / a for a, b in zip(nnz, nnz[1:])]
    assert all(r <= 2.4 for r in ratios)
    # the growth factor keeps approaching the linear law
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_apply_pattern_lossless_and_exact(model):
    m = model("matern12", 2, 6, 128)
    C = m.wavelet_dense
    full = TaperPattern(m.idx, np.ones((128, 128), dtype=bool))
    S = apply_pattern(C, full)
    assert np.array_equal(S.to_dense(), C)
    S2 = apply_pattern(C, m.pattern)
    kept = m.pattern.csr.toarray()
    # kept entries preserved bit-exactly
    D = S2.to_dense()
    assert np.array_equal(D[kept], C[kept])
    assert np.all(D[~kept] == 0.0)
    assert S2.nnz == np.count_nonzero(C[kept])
    with pytest.raises(ValueError):
        apply_pattern(C[:64, :64], m.pattern)


def test_consistency_norm_decreases_with_taper_constants(model):
    m = model("matern12", 2, 6, 256)
    C = m.wavelet_dense
    prev = np.inf
    for a in (1.5, 2.0, 3.0):
        pat = build_pattern(m.system, m.curve,
                            std_params(a=a, ap=a), m.idx.J)
        Ceps = apply_pattern(C, pat).to_dense()
        nrm = np.linalg.norm(linalg.precondition(C - Ceps, m.idx, m.order.ra), 2)
        assert nrm <= prev + 1e-14
        prev = nrm


def test_tapered_spd_small(model):
    for kname, dt in (("matern12", 6), ("matern32", 8)):
        m = model(kname, 2, dt, 128)
        assert np.linalg.eigvalsh(m.tapered.to_dense())[0] > 0


def test_precision_order_pattern():
    """Pattern generation with the precision order r -> +2 ra is sparser in
    the far field than the covariance pattern of the same family."""
    boundary = curves.normalize_to_unit_diameter(curves.paper_boundary())
    sys_ = get_system(2, 6)
    cov = build_pattern(sys_, boundary, std_params(r=-2.0), J=7)
    prec = build_pattern(sys_, boundary, CompressionParams(d=2, dt=6, r=2.0), J=7)
    assert np.array_equal(prec.csr.toarray(), prec.csr.toarray().T)
    assert prec.nnz <= cov.nnz


def test_aposteriori_threshold_limits(model):
    m = model("matern12", 2, 6, 128)
    S = m.tapered
    same = aposteriori_threshold(S, m.idx, m.order.ra, 0.0)
    assert same.nnz == S.nnz
    only_diag = aposteriori_threshold(S, m.idx, m.order.ra, np.inf)
    assert only_diag.nnz == m.idx.p
    np.testing.assert_array_equal(only_diag.csr.diagonal(), S.csr.diagonal())
    mid = aposteriori_threshold(S, m.idx, m.order.ra, 1e-4)
    assert m.idx.p <= mid.nnz <= S.nnz
    # symmetric drops
    d = (mid.csr - mid.csr.T).tocoo()
    assert d.nnz == 0 or np.max(np.abs(d.data)) <= 1e-14
    with pytest.raises(ValueError):
        aposteriori_threshold(S, m.idx, m.order.ra, -1.0)


def test_aposteriori_sweep_over_correlation_length(model):
    """The threshold count responds smoothly to the correlation length.

    At the resolutions this suite can afford, shrinking the correlation
    length trades far-field decay against extra fine-scale energy, and the
    kept count moves only mildly (a few percent); the sweep itself is what
    the corrlen runner emits for inspection.
    """
    from wavegrf.pipeline import CovarianceModel
    kept = []
    for ell in (1.0, 0.1):
        m = CovarianceModel(kernel="matern12", wavelet=(2, 6), p=128, ell=ell)
        thr = aposteriori_threshold(m.tapered, m.idx, m.order.ra, 1e-5)
        kept.append(thr.nnz)
        assert m.idx.p <= thr.nnz <= m.tapered.nnz
    assert abs(kept[1] - kept[0]) <= 0.25 * kept[0]


def test_sparsity_report(model):
    """The sparsity the pattern command reports: the pattern's own nnz and
    nnz_fraction, which its level-pair blocks and the tapered matrix share."""
    m = model("matern12", 2, 6, 128)
    assert m.pattern.nnz == int(m.pattern.csr.toarray().sum())
    assert m.pattern.nnz_fraction == pytest.approx(m.pattern.nnz / 128.0**2)
    levels = m.idx.levels
    # the table holds the blocks j <= j'; an off-diagonal one also counts its mirror
    assert sum(len(m.pattern.block(j, jp)[0]) * (1 if jp == j else 2)
               for a, j in enumerate(levels) for jp in levels[a:]) == m.pattern.nnz
    # identity pattern has p entries
    eye = TaperPattern(m.idx, np.eye(128, dtype=bool))
    assert eye.nnz == 128
    assert m.tapered.nnz == m.pattern.nnz


def _sampled_knot_chord(curve, j, jp, ii, jj, geom, rel):
    """Min chordal distance between coarse knots and sampled fine arcs."""
    gj, gp = geom[j], geom[jp]
    step = gj["knot_step"]
    nk = int(round(gj["width"] / step)) + 1
    knots_t = (gj["start"][ii][:, None] + np.arange(nk)[None, :] * step) % 1.0
    kp = curve.xy_t(knots_t)                       # (m, nk, 2)
    t = (gp["start"][jj][:, None] + rel[None, :] * gp["width"]) % 1.0
    ap = curve.xy_t(t)                             # (m, S, 2)
    d = kp[:, :, None, :] - ap[:, None, :, :]
    return np.sqrt(np.sum(d * d, axis=-1)).min(axis=(1, 2))


def _dense_reference_pattern(system, curve, params, J):
    """Dense (p, p) taper mask from full per-block gap matrices: the
    reference that the windowed O(nnz) ``build_pattern`` must reproduce."""
    idx = system.index_set(J)
    J_formula = J + 1
    j0 = idx.j0
    bounds = ChordBounds(curve)
    mask = np.ones((idx.p, idx.p), dtype=bool)
    rel = np.linspace(0.0, 1.0, ARC_SAMPLES)

    def arc_points(j, ks, starts_width):
        start, width = starts_width
        t = (start[ks][:, None] + rel[None, :] * width) % 1.0
        return curve.xy_t(t)                       # (m, S, 2)

    geom = {}
    for j in range(j0 + 1, J + 1):
        n = idx.level_sizes[j]
        lo, hi = -system.dt / 2.0, system.dt / 2.0 + 1.0     # wavelet support, in cells
        h = 2.0 ** (-j)
        start = ((np.arange(n) + lo) * h) % 1.0
        width = (hi - lo) * h
        center = (start + width / 2.0) % 1.0
        knot_step = h / 2.0
        geom[j] = dict(start=start, width=width, center=center,
                       lo=lo, hi=hi, h=h, knot_step=knot_step)

    def circ(x):
        x = np.abs(np.mod(x, 1.0))
        return np.minimum(x, 1.0 - x)

    for j in range(j0 + 1, J + 1):
        gj = geom[j]
        for jp in range(j, J + 1):
            gp = geom[jp]
            tau, taup = taper_params(params, j, jp, J_formula)
            if min(gj["width"], gp["width"]) >= 1.0 or (gj["width"] + gp["width"]) / 2.0 >= 0.5:
                continue                            # supports wrap: keep block
            dc = circ(gj["center"][:, None] - gp["center"][None, :])
            gap = np.maximum(0.0, dc - (gj["width"] + gp["width"]) / 2.0)

            def chord_support(which, _j=j, _jp=jp, _gap=gap):
                ii, jj = which
                a = arc_points(_j, ii, (geom[_j]["start"], geom[_j]["width"]))
                b = arc_points(_jp, jj, (geom[_jp]["start"], geom[_jp]["width"]))
                d = a[:, :, None, :] - b[:, None, :, :]
                return np.sqrt(np.sum(d * d, axis=-1)).min(axis=(1, 2))

            drop = _classify_vs_threshold(gap, tau, bounds, chord_support)

            if jp > j:
                near = ~_classify_vs_threshold(gap, 2.0 ** (-j), bounds, chord_support)
                cand = near & ~drop
                if np.any(cand):
                    ii, jj = np.nonzero(cand)
                    kgap = _knot_gap(gj, gp, ii, jj)

                    def chord_knots(which, _ii=ii, _jj=jj):
                        sel = which[0]
                        return _sampled_knot_chord(curve, j, jp,
                                                   _ii[sel], _jj[sel], geom, rel)

                    far_knots = _classify_vs_threshold(kgap, taup, bounds, chord_knots)
                    drop[ii[far_knots], jj[far_knots]] = True

            bj = idx.level_slice(j)
            bp = idx.level_slice(jp)
            keep = ~drop
            mask[bj, bp] = keep
            mask[bp, bj] = keep.T
    return mask


def _family_params(kname):
    d, dt = _DEFAULT_FAMILY[kname]
    r = kernels.operator_order(kernels.kernel_from_name(kname)).r
    return get_system(d, dt), CompressionParams(d=d, dt=dt, r=r)


@pytest.mark.parametrize("p", [64, 512])
@pytest.mark.parametrize("kname", sorted(_DEFAULT_FAMILY))
def test_pattern_matches_dense_reference(boundary, kname, p):
    sys_, params = _family_params(kname)
    J = int(np.log2(p)) - 1
    pat = build_pattern(sys_, boundary, params, J)
    assert np.array_equal(pat.csr.toarray(), _dense_reference_pattern(sys_, boundary, params, J))


@pytest.mark.parametrize("params", [CompressionParams(d=2, dt=6, r=2.0),
                                    std_params(a=1.5, ap=1.5),
                                    std_params(a=3.0, ap=3.0)])
def test_pattern_matches_dense_reference_other_params(boundary, params):
    sys_ = get_system(2, 6)
    pat = build_pattern(sys_, boundary, params, J=7)
    assert np.array_equal(pat.csr.toarray(), _dense_reference_pattern(sys_, boundary, params, 7))


def test_pattern_matches_dense_reference_p4096(boundary):
    sys_, params = _family_params("matern12")
    pat = build_pattern(sys_, boundary, params, J=11)
    assert pat.nnz == 693612
    assert np.array_equal(pat.csr.toarray(),
                          _dense_reference_pattern(sys_, boundary, params, 11))


@pytest.mark.parametrize("p, nnz, digest", [
    (8192, 1535404, "dec6faff6eb3958f727ca5689da32a9a413ad7dbf1af1a899d75ecc3f55bd3bc"),
    (16384, 3336248, "e0fd6b001c449481b631da9f7013bc5866f1f0227cd431b91e536c22795a3823")])
def test_large_pattern_pinned(boundary, p, nnz, digest):
    """Above the dense reference's reach the pattern CSR is pinned bit for bit."""
    sys_, params = _family_params("matern12")
    csr = build_pattern(sys_, boundary, params, int(np.log2(p)) - 1).csr
    assert csr.nnz == nnz
    assert hashlib.sha256(csr.indptr.tobytes() + csr.indices.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("p", [512, 4096])
@pytest.mark.parametrize("kname", ["matern12", "matern52"])        # families (2, 6), (2, 10)
def test_pattern_curve_points_per_level(boundary, monkeypatch, kname, p):
    """The curve is evaluated once per support arc and knot, not per pair."""
    sys_, params = _family_params(kname)
    points = []
    xy_t = curves.CurveSpec.xy_t

    def counted(self, t):
        points.append(np.size(t))
        return xy_t(self, t)

    monkeypatch.setattr(curves.CurveSpec, "xy_t", counted)
    build_pattern(sys_, boundary, params, int(np.log2(p)) - 1)
    assert 0 < sum(points) <= p * (ARC_SAMPLES + 2 * sys_.dt + 3)


def test_pattern_build_memory_scales_with_nnz(boundary):
    """Quadrupling p multiplies nnz by about 5; the build's traced peak must
    grow like nnz, not like p^2 (a factor 16; a dense boolean (p, p) mask on
    top of the sparse build already gives about 7.6)."""
    sys_, params = _family_params("matern12")
    peaks = []
    for J in (10, 12):                         # p = 2048, 8192
        tracemalloc.start()
        build_pattern(sys_, boundary, params, J)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 6.0


def test_mask_is_the_pattern_csr_at_every_p():
    idx = get_system(2, 6).index_set(12)       # p = 8192
    pat = TaperPattern(idx, sparse.eye(idx.p, format="csr"))
    assert pat.nnz == idx.p
    assert pat.mask is pat.csr
    r = np.array([0, 5, 8191])
    assert np.all(pat.mask[r, r])
    assert not np.any(pat.mask[r, r + np.array([1, 1, -1])])


@pytest.mark.parametrize("p", [64, 512])
def test_block_table_holds_the_pairs_j_le_jp_and_their_mirrors(model, p):
    pat = model("matern12", 2, 6, p).pattern
    levels = pat.idx.levels
    assert set(pat._blocks) == {(j, jp) for a, j in enumerate(levels) for jp in levels[a:]}
    row, col = pat.csr.nonzero()
    for (j, jp), (r, c, pos, mirror) in pat._blocks.items():
        sj, sp = pat.idx.level_slice(j), pat.idx.level_slice(jp)
        assert np.array_equal(row[pos], r + sj.start) and np.array_equal(col[pos], c + sp.start)
        assert np.array_equal(row[mirror], col[pos]) and np.array_equal(col[mirror], row[pos])


def test_block_table_refuses_an_asymmetric_pattern():
    idx = get_system(2, 6).index_set(3)        # p = 16
    csr = sparse.eye(idx.p, format="csr") + sparse.csr_matrix(([1.0], ([0], [1])), shape=(16, 16))
    with pytest.raises(ValueError, match="not symmetric"):
        TaperPattern(idx, csr).block(idx.j0, idx.j0)


def _shares_index_arrays(a, b):
    # a csr built from (data, indices, indptr) keeps indptr and holds a view of indices
    return all(np.shares_memory(x, y) and x.shape == y.shape
               for x, y in ((a.indices, b.indices), (a.indptr, b.indptr)))


def test_pattern_shaped_matrices_share_the_pattern_index_arrays(model):
    """C_eps, R_eps, the sampler's R and an MLMC estimate are values on the
    pattern's one index set, equal bit for bit to a COO gather and to the
    product diags(d) @ C_eps @ diags(d)."""
    from wavegrf import mlmc, sampling
    m = model("matern12", 2, 6, 128)
    pat, C = m.pattern.csr, m.wavelet_dense
    r, c = pat.nonzero()
    gathered = sparse.coo_matrix((C[r, c], (r, c)), shape=C.shape).tocsr()
    d = linalg.diag_scaling(m.idx, m.order.ra)
    scaled = (sparse.diags(d) @ gathered @ sparse.diags(d)).tocsr()
    contour = sampling.build_contour(m.spectral_bounds(), 8)
    sampler = sampling.GrfSampler(m.tapered, m.idx, m.order.ra, contour)
    sched = mlmc.schedule(m.idx.J, m.idx.j0, M_finest=4)
    est = mlmc.estimate(m.pattern, sched, mlmc.GaussianCoefficientSource(
        m.tapered.to_dense(), m.idx, seed=1), seed=1).matrix
    for S in (m.tapered, m.preconditioned, sampler.R, est):
        assert _shares_index_arrays(S.csr, pat)
    assert np.array_equal(m.tapered.csr.data, gathered.data)
    for R in (m.preconditioned, sampler.R):
        assert np.array_equal(R.csr.indices, scaled.indices)
        assert np.array_equal(R.csr.data, scaled.data)
