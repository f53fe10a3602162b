import json

import numpy as np
import pytest
from scipy import sparse

from wavegrf import io, mlmc
from wavegrf.cli import main
from wavegrf.linalg import SparseSymMatrix
from wavegrf.mlmc import (CsvSampleSource, GaussianCoefficientSource,
                          error_report, estimate, schedule, write_sample_csv)
from wavegrf.rng import stream


def test_schedule_factor_two_growth():
    """n = 1, alpha = 1/2 gives exactly factor 2 per level from the finest;
    anchored at 100 this is the reference table schedule."""
    s = schedule(J=11, j0=2, n=1, alpha=0.5, alpha0=2.0, M_finest=100)
    assert s.counts[11] == 100
    assert s.counts[10] == 200
    assert s.counts[2] == 100 * 2**9 == 51200
    assert s.regime == "2a=n"
    assert s.block_count(3, 11) == 100
    assert s.block_count(4, 5) == s.counts[5]


def test_schedule_single_level_and_regimes():
    s = schedule(J=2, j0=2, M_finest=100)
    assert s.counts == {2: 100}
    assert schedule(J=5, j0=2, alpha=1.0, alpha0=2.0).regime == "2a>n"
    assert schedule(J=5, j0=2, alpha=0.25, alpha0=2.0).regime == "2a<n"
    with pytest.raises(ValueError):
        schedule(J=5, j0=2, alpha=3.0, alpha0=2.0)
    with pytest.raises(ValueError):
        schedule(J=5, j0=2, M_finest=0)


def test_work_counter():
    s = schedule(J=5, j0=2, M_finest=100)
    expect = sum(m * 2**j for j, m in s.counts.items())
    assert s.work() == expect
    # borderline regime: work grows like J 2^J between levels
    w = [schedule(J=J, j0=2, M_finest=100).work() for J in (6, 7, 8)]
    for J, (a, b) in zip((6, 7), zip(w, w[1:])):
        predicted = (J + 1 - 1) * 2 ** (J + 1) / ((J - 1) * 2**J)
        assert b / a == pytest.approx(predicted, rel=0.25)


class ConstantSource:
    """Degenerate source: every draw is the same fixed vector."""

    def __init__(self, v, idx):
        self.v = np.asarray(v)
        self.idx = idx

    def draw(self, j_res, count, stream_id, cols=slice(None)):
        p = self.idx.truncate(j_res).p
        return np.tile(self.v[:p][cols], (count, 1))


def dense_reference_estimate(pattern, sched, source):
    """The estimator built in a dense (p, p) accumulator, masked blockwise and
    converted to sparse at the end: the reference for the pattern-only one.
    It draws every column of each sample, so agreement also shows that the
    estimator's column-restricted draws change no kept entry."""
    idx = pattern.idx
    est = np.zeros((idx.p, idx.p))
    levels = list(idx.levels)
    stream_id = 1
    for a, j in enumerate(levels):
        sj = idx.level_slice(j)
        for jp in levels[a:]:
            sp = idx.level_slice(jp)
            m = sched.block_count(j, jp)
            Z = source.draw(max(j, jp), m, stream_id)
            stream_id += 1
            blk = (Z[:, sj].T @ Z[:, sp]) / m
            if jp == j:
                blk = 0.5 * (blk + blk.T)
            else:
                Z2 = source.draw(max(j, jp), m, stream_id)
                stream_id += 1
                blk = 0.5 * (blk + (Z2[:, sp].T @ Z2[:, sj]).T / m)
            blk = np.where(pattern.mask[sj, sp], blk, 0.0)
            est[sj, sp] = blk
            if jp != j:
                est[sp, sj] = blk.T
    return SparseSymMatrix(sparse.csr_matrix(est))


@pytest.mark.parametrize("p", [64, 512])
@pytest.mark.parametrize("kind", ["gaussian", "constant"])
def test_estimate_bit_identical_to_dense_accumulator(model, p, kind):
    m = model("matern12", 2, 6, p)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=100)
    if kind == "gaussian":
        def make():
            return GaussianCoefficientSource(m.tapered.to_dense(), m.idx, seed=17)
    else:
        v = np.random.default_rng(p).standard_normal(p)

        def make():
            return ConstantSource(v, m.idx)
    got = estimate(m.pattern, sched, make(), seed=17).matrix.csr
    want = dense_reference_estimate(m.pattern, sched, make()).csr
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_cli_dumped_estimate_matches_dense_accumulator(tmp_path, model):
    cfg = {"p_list": [16, 32], "runs": 1, "dump_estimate": True}
    out = tmp_path / "out"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["mlmc", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(out), "--seed", "3"]) == 0
    m = model("matern12", 2, 6, 32)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=100)
    src = GaussianCoefficientSource(m.tapered.to_dense(), m.idx, seed=3)
    ref = tmp_path / "ref.mtx"
    io.write_matrix_market(ref, dense_reference_estimate(m.pattern, sched, src).csr)

    def payload(path):
        return [l for l in path.read_bytes().splitlines() if not l.startswith(b"%")]
    assert payload(out / "mlmc_estimate_p32.mtx") == payload(ref)


def test_zero_variance_source_gives_tapered_outer_product(model):
    m = model("matern12", 2, 6, 64)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(64)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=3)
    est = estimate(m.pattern, sched, ConstantSource(v, m.idx), seed=0)
    want = np.where(m.pattern.mask, np.outer(v, v), 0.0)
    np.testing.assert_allclose(est.matrix.to_dense(), want, atol=1e-12)


def test_estimate_deterministic_and_logged(model):
    m = model("matern12", 2, 6, 64)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=20)
    Ceps = m.tapered.to_dense()
    e1 = estimate(m.pattern, sched, GaussianCoefficientSource(Ceps, m.idx, 5), seed=5)
    e2 = estimate(m.pattern, sched, GaussianCoefficientSource(Ceps, m.idx, 5), seed=5)
    assert np.array_equal(e1.matrix.to_dense(), e2.matrix.to_dense())
    # each block logs exactly M~_max(j, j') samples
    for (j, jp), mcount in e1.block_counts.items():
        assert mcount == sched.counts[max(j, jp)]
    assert e1.work == sched.work()
    # support contained in the pattern
    D = e1.matrix.to_dense()
    assert np.all(D[~m.pattern.mask] == 0.0)


def test_large_sample_estimate_approaches_truth(model):
    """With a huge flat sample budget the estimate matches the tapered
    covariance entrywise within 4 standard errors (truth from the dense
    oracle covariance of the source)."""
    m = model("matern12", 2, 6, 16)
    M = 200_000
    sched = mlmc.SampleSchedule(j0=m.idx.j0, J=m.idx.J,
                                counts={2: M, 3: M}, n=1, alpha=0.5, alpha0=2.0)
    C = m.tapered.to_dense()
    src = GaussianCoefficientSource(C, m.idx, seed=31)
    est = estimate(m.pattern, sched, src, seed=31).matrix.to_dense()
    # per-entry standard error of a Gaussian covariance estimate
    d = np.diag(C)
    se = np.sqrt((np.outer(d, d) + C**2) / M)
    mask = m.pattern.mask
    assert np.all(np.abs(est - np.where(mask, C, 0.0))[mask] <= 4.0 * se[mask])


def test_error_report_zero_and_norms(model):
    m = model("matern12", 2, 6, 64)
    C = m.wavelet_dense
    sched = schedule(m.idx.J, m.idx.j0, M_finest=50)
    src = ConstantSource(np.zeros(64), m.idx)
    est = estimate(m.pattern, sched, src, seed=0)
    rep = error_report(est, np.zeros_like(C), m.idx)
    assert rep["op_norm_error"] == 0.0
    rep2 = error_report(est, C, m.idx)
    assert rep2["op_norm_error"] == pytest.approx(np.linalg.norm(C, 2))
    with pytest.raises(ValueError):
        error_report(est, C[:32, :32], m.idx)


def test_error_report_matches_svd_reference(model):
    m = model("matern12", 2, 6, 64)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=20)
    src = GaussianCoefficientSource(m.tapered.to_dense(), m.idx, seed=8)
    est = estimate(m.pattern, sched, src, seed=8)
    rep = error_report(est, m.wavelet_dense, m.idx)
    op = np.linalg.norm(m.wavelet_dense - est.matrix.to_dense(), 2)
    assert rep["op_norm_error"] == pytest.approx(op, rel=1e-12)
    assert set(rep) == {"op_norm_error"}


def test_error_report_rejects_nonsymmetric_truth(model):
    m = model("matern12", 2, 6, 64)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=20)
    est = estimate(m.pattern, sched, ConstantSource(np.ones(64), m.idx), seed=0)
    truth = m.wavelet_dense.copy()
    truth[0, 5] += 1.0
    with pytest.raises(ValueError):
        error_report(est, truth, m.idx)


def test_column_restricted_draw_is_bit_identical_to_full_draw(model):
    m = model("matern12", 2, 6, 512)
    C = m.tapered.to_dense()
    J = m.idx.J
    cols = np.r_[m.idx.level_slice(J - 2), m.idx.level_slice(J)]
    for seed in range(8):
        src = GaussianCoefficientSource(C, m.idx, seed)
        src.draw(J - 1, 50, 2)                  # the reused normals buffer grows
        full = src.draw(J, 20, 3)
        xi = stream(seed, 3).standard_normal((20, m.idx.p))
        assert np.array_equal(full, xi @ src._root(J).T)
        assert np.array_equal(src.draw(J, 20, 3, cols), full[:, cols])
        assert np.array_equal(src.draw(J, 20, 3, m.idx.level_slice(J)),
                              full[:, m.idx.level_slice(J)])


def _eigh_sqrt(C):
    """Reference symmetric square root from one ``eigh``."""
    lam, V = np.linalg.eigh(C)
    return (V * np.sqrt(np.maximum(lam, 0.0))) @ V.T


def test_root_cache_shared_bounded_and_content_keyed(model, monkeypatch):
    monkeypatch.setattr(mlmc, "_ROOTS", {})
    m = model("matern12", 2, 6, 64)
    C = m.tapered.to_dense()
    J = m.idx.J
    r1 = GaussianCoefficientSource(C, m.idx, seed=1)._root(J)
    assert np.array_equal(r1, _eigh_sqrt(C))
    assert not r1.flags.writeable
    # a second source on the same content reuses the root
    r2 = GaussianCoefficientSource(C.copy(), m.idx, seed=2)._root(J)
    assert r2 is r1
    # an in-place change of C gives fresh roots to the next source
    C[3, 3] += 1.0
    r3 = GaussianCoefficientSource(C, m.idx, seed=1)._root(J)
    assert r3 is not r1
    assert np.array_equal(r3, _eigh_sqrt(C))
    # bounded: many covariances never grow the cache past its limit
    for k in range(mlmc._ROOTS_MAX + 4):
        src = GaussianCoefficientSource(C + k * np.eye(64), m.idx, seed=0)
        for j in m.idx.levels:
            src.draw(j, 1, 0)
        assert len(mlmc._ROOTS) <= mlmc._ROOTS_MAX
    # a non-PSD covariance still fails, and is not cached
    n = len(mlmc._ROOTS)
    with pytest.raises(np.linalg.LinAlgError):
        GaussianCoefficientSource(-np.eye(64), m.idx, seed=0).draw(J, 1, 0)
    assert len(mlmc._ROOTS) == n


def test_source_refuses_indefinite_covariance(model, monkeypatch):
    monkeypatch.setattr(mlmc, "_ROOTS", {})
    m = model("matern12", 2, 6, 64)
    C = m.tapered.to_dense()
    C[0, 0] = -1.0                      # a negative diagonal entry: indefinite
    src = GaussianCoefficientSource(C, m.idx, seed=0)
    with pytest.raises(np.linalg.LinAlgError):
        src.draw(m.idx.J, 1, 0)
    assert mlmc._ROOTS == {}
    # a non-symmetric covariance is refused before any eigensolve
    C = m.tapered.to_dense()
    C[0, 5] += 1.0
    with pytest.raises(ValueError):
        GaussianCoefficientSource(C, m.idx, seed=0).draw(m.idx.J, 1, 0)


def test_source_refuses_root_above_cap(model, monkeypatch):
    monkeypatch.setattr(mlmc, "_ROOTS", {})
    monkeypatch.setattr(mlmc, "ROOT_MAX_P", 32)
    m = model("matern12", 2, 6, 64)
    src = GaussianCoefficientSource(m.tapered.to_dense(), m.idx, seed=0)
    assert src.draw(m.idx.J - 1, 2, 0).shape == (2, 32)     # p_j = 32 is at the cap
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="capped"):
        src.draw(m.idx.J, 1, 0)
    assert calls == []


def test_doubling_samples_helps_sqrt2(model):
    """Doubling every per-level count reduces the mean error by about
    sqrt(2) (mean of 10 runs, 20 percent band)."""
    m = model("matern12", 2, 6, 64)
    C = m.wavelet_dense
    Ceps = m.tapered.to_dense()
    means = []
    for M in (100, 200):
        errs = []
        for r in range(10):
            sched = schedule(m.idx.J, m.idx.j0, M_finest=M)
            src = GaussianCoefficientSource(Ceps, m.idx, seed=900 + r)
            est = estimate(m.pattern, sched, src, seed=900 + r)
            errs.append(error_report(est, C, m.idx)["op_norm_error"])
        means.append(np.mean(errs))
    assert means[0] / means[1] == pytest.approx(np.sqrt(2.0), rel=0.2)


def test_csv_source_roundtrip_and_exhaustion(tmp_path, model):
    m = model("matern12", 2, 6, 16)
    rng = np.random.default_rng(3)
    files = {}
    for j in m.idx.levels:
        p_j = m.idx.truncate(j).p
        data = rng.standard_normal((8, p_j))
        path = tmp_path / f"samples_level{j}.csv"
        write_sample_csv(path, j, data)
        files[j] = path
    src = CsvSampleSource(files)
    out = src.draw(3, 5, 0)
    assert out.shape == (5, 16)
    cols = np.r_[0:4, 8:16]
    out2 = src.draw(3, 3, 1, cols)
    assert np.array_equal(out2, data[5:8, cols])
    with pytest.raises(RuntimeError, match="exhausted"):
        src.draw(3, 1, 2)
    with pytest.raises(KeyError):
        src.draw(9, 1, 0)
