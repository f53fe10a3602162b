import inspect
import json
import sys
import threading

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
    assert s.block_count(3, 11) == 100
    assert s.block_count(4, 5) == s.counts[5]


def test_schedule_single_level_and_regimes():
    s = schedule(J=2, j0=2, M_finest=100)
    assert s.counts == {2: 100}
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
        p = 2 ** (j_res + 1)
        return np.tile(self.v[:p][cols], (count, 1))


def dense_reference_estimate(pattern, sched, source):
    """The estimator built in a dense (p, p) accumulator, masked blockwise and
    converted to sparse at the end: the reference for the pattern-only one.
    It draws every column of each sample, so agreement also shows that the
    estimator's column-restricted draws change no kept entry."""
    idx = pattern.idx
    est = np.zeros((idx.p, idx.p))
    mask = pattern.csr.toarray()
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
            blk = np.where(mask[sj, sp], blk, 0.0)
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
    want = np.where(m.pattern.csr.toarray(), np.outer(v, v), 0.0)
    np.testing.assert_allclose(est.matrix.to_dense(), want, atol=1e-12)


def test_estimate_deterministic_and_logged(model):
    m = model("matern12", 2, 6, 64)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=20)
    Ceps = m.tapered.to_dense()
    e1 = estimate(m.pattern, sched, GaussianCoefficientSource(Ceps, m.idx, 5), seed=5)
    e2 = estimate(m.pattern, sched, GaussianCoefficientSource(Ceps, m.idx, 5), seed=5)
    assert np.array_equal(e1.matrix.to_dense(), e2.matrix.to_dense())
    # support contained in the pattern
    D = e1.matrix.to_dense()
    assert np.all(D[~m.pattern.csr.toarray()] == 0.0)


def test_large_sample_estimate_approaches_truth(model):
    """With a huge flat sample budget the estimate matches the tapered
    covariance entrywise within 4 standard errors (truth from the dense
    oracle covariance of the source)."""
    m = model("matern12", 2, 6, 16)
    M = 200_000
    sched = mlmc.SampleSchedule(j0=m.idx.j0, J=m.idx.J,
                                counts={2: M, 3: M}, n=1)
    C = m.tapered.to_dense()
    src = GaussianCoefficientSource(C, m.idx, seed=31)
    est = estimate(m.pattern, sched, src, seed=31).matrix.to_dense()
    # per-entry standard error of a Gaussian covariance estimate
    d = np.diag(C)
    se = np.sqrt((np.outer(d, d) + C**2) / M)
    mask = m.pattern.csr.toarray()
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
        src.draw(J - 1, 50, 2)                  # a draw at another level first
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


def test_draw_refuses_a_level_outside_the_index_set(model):
    """Only levels j0..J have a root: no draw from a block of another size."""
    m = model("matern12", 2, 6, 64)
    src = GaussianCoefficientSource(m.tapered.to_dense(), m.idx, seed=1)
    assert src.draw(m.idx.j0, 1, 0).shape == (1, 2 ** (m.idx.j0 + 1))
    for j in (m.idx.j0 - 1, m.idx.J + 1):
        with pytest.raises(ValueError, match=f"level {j} outside"):
            src.draw(j, 1, 0)


def test_root_cache_shared_bounded_and_array_keyed(model, monkeypatch):
    """Sources built one after another on one array share one table of
    roots, one ``eigh`` per level in all; the source keeps that array and
    makes it read-only.  A source on another array, even of equal content,
    replaces the kept table, so it holds the roots of one covariance."""
    monkeypatch.setattr(mlmc, "_ROOTS", (None, {}))
    m = model("matern12", 2, 6, 64)
    C = m.tapered.to_dense()
    J = m.idx.J
    want = _eigh_sqrt(C)
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    first = GaussianCoefficientSource(C, m.idx, seed=1)
    assert first.C is C and not C.flags.writeable      # no copy of a float64 C
    r1 = first._root(J)
    assert np.array_equal(r1, want)
    assert not r1.flags.writeable
    for j in m.idx.levels:
        first.draw(j, 1, 0)
    assert sorted(calls) == sorted((2 ** (j + 1),) * 2 for j in m.idx.levels)
    # a second source on the same array shares the roots and runs no eigh
    for seed in (2, 3):
        src = GaussianCoefficientSource(C, m.idx, seed=seed)
        assert src._root(J) is r1
        for j in m.idx.levels:
            src.draw(j, 1, 0)
    assert len(calls) == len(m.idx.levels)
    # the kept array is read-only: no in-place change can mislabel a root
    with pytest.raises(ValueError, match="read-only"):
        C[3, 3] += 1.0
    # a distinct array of equal content forms its own table, replacing the kept one
    r3 = GaussianCoefficientSource(C.copy(), m.idx, seed=1)._root(J)
    assert r3 is not r1
    assert np.array_equal(r3, want)
    assert list(mlmc._ROOTS[1].values()) == [r3]
    # the first source keeps the table it was built with
    assert first._root(J) is r1
    # a non-PSD covariance still fails, and its root is not kept
    with pytest.raises(np.linalg.LinAlgError):
        GaussianCoefficientSource(-np.eye(64), m.idx, seed=0).draw(J, 1, 0)
    assert mlmc._ROOTS[1] == {}


def test_source_keeps_its_own_table_when_another_source_rebinds(model, monkeypatch):
    """A source built on another covariance between this source's rebind of
    ``_ROOTS`` and its store of the table cannot hand it that covariance's
    roots: a trace hook runs the other rebind just before the store."""
    monkeypatch.setattr(mlmc, "_ROOTS", (None, {}))
    m = model("matern12", 2, 6, 64)
    J = m.idx.J
    C, other = m.tapered.to_dense(), m.tapered.to_dense() + np.eye(64)
    other_table = {64: _eigh_sqrt(other)}
    code = GaussianCoefficientSource.__init__.__code__
    lines, first = inspect.getsourcelines(code)
    store = first + next(i for i, l in enumerate(lines) if "self._roots =" in l)
    own = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == store and not own:
            own.append(mlmc._ROOTS[1])
            mlmc._ROOTS = (other, other_table)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code is code else None

    trace = sys.gettrace()
    sys.settrace(on_call)
    try:
        src = GaussianCoefficientSource(C, m.idx, seed=0)
    finally:
        sys.settrace(trace)
    assert len(own) == 1 and mlmc._ROOTS[1] is other_table
    assert src._roots is own[0]
    assert np.array_equal(src._root(J), _eigh_sqrt(C))
    assert other_table.keys() == {64}


def test_source_refuses_indefinite_covariance(model, monkeypatch):
    monkeypatch.setattr(mlmc, "_ROOTS", (None, {}))
    m = model("matern12", 2, 6, 64)
    C = m.tapered.to_dense()
    C[0, 0] = -1.0                      # a negative diagonal entry: indefinite
    src = GaussianCoefficientSource(C, m.idx, seed=0)
    with pytest.raises(np.linalg.LinAlgError):
        src.draw(m.idx.J, 1, 0)
    assert mlmc._ROOTS[1] == {}
    # a non-symmetric covariance is refused before any eigensolve
    C = m.tapered.to_dense()
    C[0, 5] += 1.0
    with pytest.raises(ValueError):
        GaussianCoefficientSource(C, m.idx, seed=0).draw(m.idx.J, 1, 0)


def test_source_refuses_root_above_cap(model, monkeypatch):
    monkeypatch.setattr(mlmc, "_ROOTS", (None, {}))
    monkeypatch.setattr(mlmc, "ROOT_MAX_P", 32)
    m = model("matern12", 2, 6, 64)
    src = GaussianCoefficientSource(m.tapered.to_dense(), m.idx, seed=0)
    assert src.draw(m.idx.J - 1, 2, 0).shape == (2, 32)     # p_j = 32 is at the cap
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="capped"):
        src.draw(m.idx.J, 1, 0)
    assert calls == []
    assert 64 not in mlmc._ROOTS[1]


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
        p_j = 2 ** (j + 1)
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


def _cpus(monkeypatch, n):
    """Pretend that ``n`` CPUs are available to this process."""
    monkeypatch.setattr(mlmc.os, "sched_getaffinity", lambda pid: set(range(n)))


class RecordingSource:
    """Gaussian draws, recording (level, stream id, thread) of each call."""

    def __init__(self, src):
        self.src, self.calls = src, []

    def draw(self, j_res, count, stream_id, cols=slice(None)):
        self.calls.append((j_res, stream_id, threading.get_ident()))
        return self.src.draw(j_res, count, stream_id, cols)


@pytest.mark.parametrize("p", [64, 512])
def test_worker_count_does_not_change_the_estimate(model, monkeypatch, p):
    """1, 2 or 5 workers give the same CSR as the dense accumulator; each
    level draws from one thread, in increasing stream order."""
    m = model("matern12", 2, 6, p)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=100)
    C = m.tapered.to_dense()
    want = dense_reference_estimate(m.pattern, sched,
                                    GaussianCoefficientSource(C, m.idx, seed=4)).csr
    for n in (1, 2, 5):
        _cpus(monkeypatch, n)
        src = RecordingSource(GaussianCoefficientSource(C, m.idx, seed=4))
        got = estimate(m.pattern, sched, src, seed=4).matrix.csr
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)
        by_level = {}
        for j, sid, thread in src.calls:
            by_level.setdefault(j, []).append((sid, thread))
        assert sorted(by_level) == list(m.idx.levels)
        for calls in by_level.values():
            assert [s for s, _ in calls] == sorted(s for s, _ in calls)
            assert len({t for _, t in calls}) == 1
        assert len({t for _, _, t in src.calls}) <= min(n, len(m.idx.levels))


def test_root_cache_is_thread_safe(model, monkeypatch):
    """More threads than CPUs build sources on several covariances and ask
    for their roots at once: no error, the kept table holds at most one root
    per level, every root is right."""
    monkeypatch.setattr(mlmc, "_ROOTS", (None, {}))
    m = model("matern12", 2, 6, 64)
    C = m.tapered.to_dense()
    covs = [C + k * np.eye(64) for k in range(6)]
    levels = (m.idx.j0, m.idx.j0 + 1)
    want = {}
    for k, cov in enumerate(covs):
        src = GaussianCoefficientSource(cov, m.idx, seed=0)
        want |= {(k, j): src._root(j) for j in levels}
    monkeypatch.setattr(mlmc, "_ROOTS", (None, {}))
    got, errors = [], []
    start = threading.Barrier(8)

    def run(t):
        try:
            start.wait()
            for i in range(30):
                k = (t + i // 3) % len(covs)        # runs of equal content, threads out of step
                src = GaussianCoefficientSource(covs[k], m.idx, seed=0)
                got.extend(((k, j), src._root(j)) for j in (levels if i % 2 else levels[::-1]))
        except BaseException as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 8 * 30 * len(levels)
    assert set(mlmc._ROOTS[1]) <= {2 ** (j + 1) for j in levels}
    assert all(np.array_equal(g, want[key]) for key, g in got)


def _sample_files(tmp_path, m, sched, short_level=None):
    """Per-level CSV files with exactly the rows ``estimate`` draws (one row
    less at ``short_level``)."""
    rng = np.random.default_rng(5)
    files = {}
    for a, j in enumerate(m.idx.levels):
        rows = sched.counts[j] * (1 + 2 * a) - (j == short_level)
        files[j] = tmp_path / f"samples_level{j}.csv"
        write_sample_csv(files[j], j, rng.standard_normal((rows, 2 ** (j + 1))))
    return files


def test_csv_source_through_parallel_estimate(tmp_path, model, monkeypatch):
    _cpus(monkeypatch, 3)
    m = model("matern12", 2, 6, 32)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=20)
    files = _sample_files(tmp_path, m, sched)
    got = estimate(m.pattern, sched, CsvSampleSource(files), seed=0).matrix.csr
    want = dense_reference_estimate(m.pattern, sched, CsvSampleSource(files)).csr
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def test_failing_level_task_raises_and_leaves_no_thread(tmp_path, model, monkeypatch):
    _cpus(monkeypatch, 3)
    m = model("matern12", 2, 6, 32)
    sched = schedule(m.idx.J, m.idx.j0, M_finest=20)
    before = threading.active_count()
    for j in m.idx.levels:
        files = _sample_files(tmp_path, m, sched, short_level=j)
        with pytest.raises(RuntimeError, match=f"exhausted at level {j}:"):
            estimate(m.pattern, sched, CsvSampleSource(files), seed=0)
        assert threading.active_count() == before
    estimate(m.pattern, sched, CsvSampleSource(_sample_files(tmp_path, m, sched)), seed=0)
    assert threading.active_count() == before
