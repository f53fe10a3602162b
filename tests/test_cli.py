import json
import re

import numpy as np
import pytest
from scipy import io as spio
from scipy import sparse

from wavegrf import cli
from wavegrf.cli import main
from wavegrf.curves import circle, normalize_to_unit_diameter, to_config
from wavegrf.pipeline import default_wavelet_for
from wavegrf.wavelets import get_system


def run(tmp_path, cmd, cfg=None, seed=0, name="out"):
    args = [cmd, "--out", str(tmp_path / name), "--seed", str(seed)]
    if cfg is not None:
        cfile = tmp_path / f"{name}_cfg.json"
        cfile.write_text(json.dumps(cfg))
        args += ["--config", str(cfile)]
    rc = main(args)
    return rc, tmp_path / name


def test_pattern_command(tmp_path):
    rc, out = run(tmp_path, "pattern", {"p": 64})
    assert rc == 0
    assert (out / "pattern.mtx").exists()
    fp = (out / "pattern_fingerprint.csv").read_text()
    assert fp.startswith("#")
    meta = json.loads((out / "pattern_meta.json").read_text())
    assert meta["nnz"] > 64


def test_filters_dump(tmp_path):
    rc, out = run(tmp_path, "filters-dump")
    assert rc == 0
    body = (out / "filters_2_6.csv").read_text().splitlines()
    header = next(l for l in body if not l.startswith("#"))
    assert header == "mask,index,numerator,denominator,value"
    # audit one exact value: center of the dual lowpass is 700/512 = 175/128
    rows = [l.split(",") for l in body if l.startswith("lo_dual,0,")]
    assert rows[0][2] == "175" and rows[0][3] == "128"


def test_sample_reproducible_bytes(tmp_path):
    cfg = {"p": 64, "count": 2, "K": 20}
    rc1, out1 = run(tmp_path, "sample", cfg, seed=3, name="a")
    rc2, out2 = run(tmp_path, "sample", cfg, seed=3, name="b")
    assert rc1 == rc2 == 0
    assert (out1 / "sample_coeffs.csv").read_bytes() == \
        (out2 / "sample_coeffs.csv").read_bytes()
    assert (out1 / "sample_fields.csv").read_bytes() == \
        (out2 / "sample_fields.csv").read_bytes()
    rc3, out3 = run(tmp_path, "sample", cfg, seed=4, name="c")
    assert (out1 / "sample_coeffs.csv").read_bytes() != \
        (out3 / "sample_coeffs.csv").read_bytes()


def _refuse(*args):
    raise AssertionError("dense eigensolve above linalg.DENSE_MAX_P")


def test_sample_and_krige_take_krylov_side_above_dense_max_p(tmp_path, monkeypatch):
    """Above ``linalg.DENSE_MAX_P`` the CLI takes Lanczos bounds and the CG
    sampler (no dense bounds, no dense sampler operator); the outputs match
    the dense side's."""
    from wavegrf import io, linalg, sampling
    runs = {"sample": ({"p": 64, "count": 3, "K": 40}, ["sample_coeffs.csv"]),
            "krige": ({"p": 64, "K_obs": 32, "K": 40},
                      ["krige_observations.csv", "krige_predictions.csv"])}
    for cmd, (cfg, _) in runs.items():
        assert run(tmp_path, cmd, cfg, seed=11, name=f"{cmd}_dense")[0] == 0
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 32)
    monkeypatch.setattr(linalg, "dense_bounds", _refuse)
    monkeypatch.setattr(sampling, "sym_function", _refuse)
    for cmd, (cfg, files) in runs.items():
        assert run(tmp_path, cmd, cfg, seed=11, name=f"{cmd}_krylov")[0] == 0
        for f in files:
            want = io.read_csv(tmp_path / f"{cmd}_dense" / f)
            got = io.read_csv(tmp_path / f"{cmd}_krylov" / f)
            for col in want:
                assert np.linalg.norm(got[col] - want[col]) <= \
                    1e-10 * np.linalg.norm(want[col]), (f, col)


def test_krige_above_dense_max_p_observations_drops_gram_cond(tmp_path, monkeypatch):
    """A model above ``linalg.DENSE_MAX_P``, with K_obs above the rule (64) or
    below it (16): the model's p, not K_obs, refuses the dense Gram, so
    ``gram_cond`` is absent, and the predictions are still written and match
    the dense side's."""
    from wavegrf import io, linalg
    for K_obs in (64, 16):
        cfg = {"p": 128, "K_obs": K_obs, "K": 40}
        dense, krylov = tmp_path / f"dense{K_obs}", tmp_path / f"krylov{K_obs}"
        assert run(tmp_path, "krige", cfg, seed=11, name=dense.name)[0] == 0
        with monkeypatch.context() as patched:
            patched.setattr(linalg, "DENSE_MAX_P", 32)
            assert run(tmp_path, "krige", cfg, seed=11, name=krylov.name)[0] == 0
        assert "# gram_cond: None\n" in (krylov / "krige_predictions.csv").read_text()
        want = io.read_csv(dense / "krige_predictions.csv")["value"]
        got = io.read_csv(krylov / "krige_predictions.csv")["value"]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_tables_dense_single_scale_cond_above_dense_max_p(tmp_path, monkeypatch):
    """The single-scale matrix is dense already: its condition number takes the
    dense eigensolver at any p (Lanczos cannot settle its smallest eigenvalue)."""
    from wavegrf import io, linalg
    cfg = {"kernel": "matern12", "families": [[2, 6]], "p_list": [512]}
    assert run(tmp_path, "tables", cfg, name="dense")[0] == 0
    monkeypatch.setattr(linalg, "DENSE_MAX_P", 256)
    assert run(tmp_path, "tables", cfg, name="patched")[0] == 0
    want, got = (io.read_csv(tmp_path / name / "tables_matern12.csv")["single_scale_cond"]
                 for name in ("dense", "patched"))
    assert np.array_equal(got, want)


def test_tables_assembles_once_per_p(tmp_path, monkeypatch):
    """The wavelet families of one p share one single-scale matrix."""
    from wavegrf import assembly
    assemble, sizes = assembly.assemble_single_scale, []

    def counted(curve, kernel, J):
        sizes.append(2 ** (J + 1))
        return assemble(curve, kernel, J)

    monkeypatch.setattr(assembly, "assemble_single_scale", counted)
    cfg = {"kernel": "matern12", "p_list": [32, 64, 128]}     # three families
    assert run(tmp_path, "tables", cfg)[0] == 0
    assert sizes == [32, 64, 128]


@pytest.mark.parametrize("count", [0, -2])
def test_sample_rejects_nonpositive_count(tmp_path, capsys, count):
    rc, out = run(tmp_path, "sample", {"p": 64, "count": count}, seed=2)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "count" in err["message"]
    assert not (out / "sample_coeffs.csv").exists()


def test_exact_bounds_key_is_refused(tmp_path, capsys):
    """The dimension picks dense or Lanczos bounds; an old ``exact_bounds``
    setting is a config error, never silently ignored."""
    rc, out = run(tmp_path, "sample", {"p": 64, "exact_bounds": False}, seed=3)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "exact_bounds" in err["message"]
    assert not (out / "sample_coeffs.csv").exists()


def test_tables_command_small(tmp_path):
    cfg = {"kernel": "matern12", "families": [[2, 6]], "p_list": [32, 64]}
    rc, out = run(tmp_path, "tables", cfg)
    assert rc == 0
    lines = [l for l in (out / "tables_matern12.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "p,level,single_scale_cond,nnz_pct_26,cond_26"
    vals = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    # single-scale conditioning grows by about 2^|r| = 4 per level
    assert vals[1, 2] / vals[0, 2] == pytest.approx(4.0, rel=0.25)
    # preconditioned wavelet conditioning stays put
    assert vals[1, 4] == pytest.approx(vals[0, 4], rel=0.25)


def test_tables_refuses_indefinite_tapered_matrix(tmp_path, capsys, monkeypatch):
    """R = D C_eps D has the inertia of C_eps (Sylvester), so the condition
    number of R refuses an indefinite C_eps: exit 3, no table."""
    from wavegrf import compression
    from wavegrf.linalg import SparseSymMatrix
    apply_pattern = compression.apply_pattern
    monkeypatch.setattr(compression, "apply_pattern", lambda A, pattern: SparseSymMatrix(
        -apply_pattern(A, pattern).csr, check=False))
    rc, out = run(tmp_path, "tables", {"kernel": "matern12", "families": [[2, 6]],
                                       "p_list": [32]})
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical" and "not positive definite" in err["message"]
    assert not (out / "tables_matern12.csv").exists()


def test_decay_command(tmp_path):
    cfg = {"kernels": ["matern12"], "p": 64}
    rc, out = run(tmp_path, "decay", cfg)
    assert rc == 0
    meta = [l for l in (out / "decay_matern12_levels.csv").read_text().splitlines()
            if l.startswith("# estimated_order")]
    est = float(meta[0].split(":")[1])
    assert est == pytest.approx(-2.0, abs=0.3)


def test_corrlen_command(tmp_path):
    cfg = {"kernel": "matern12", "p": 32, "ells": [1.0, 0.5], "delta": 1e-5}
    rc, out = run(tmp_path, "corrlen", cfg)
    assert rc == 0
    lines = [l for l in (out / "corrlen_matern12.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0] == "ell,apriori_nnz_pct,aposteriori_nnz_pct"
    assert len(lines) == 3


def test_sqrt_bench_command(tmp_path):
    cfg = {"p": 64, "K_list": [5, 10, 20, 40]}
    rc, out = run(tmp_path, "sqrt-bench", cfg)
    assert rc == 0
    lines = [l for l in (out / "sqrt_bench.csv").read_text().splitlines()
             if not l.startswith("#")]
    vals = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    # K = 1 row is not here; errors decrease and bottom out near machine eps
    assert vals[-1, 1] <= 1e-12
    assert vals[0, 1] > vals[-1, 1]


def test_mlmc_command(tmp_path):
    cfg = {"p_list": [8, 16], "runs": 3}
    rc, out = run(tmp_path, "mlmc", cfg, seed=2)
    assert rc == 0
    lines = [l for l in (out / "mlmc_errors.csv").read_text().splitlines()
             if not l.startswith("#")]
    assert lines[0].startswith("p,level,M_coarse,op_error")


@pytest.mark.parametrize("cfg", [{"runs": 0, "dump_estimate": True},
                                 {"runs": 0}])
def test_mlmc_rejects_zero_runs(tmp_path, capsys, cfg):
    rc, out = run(tmp_path, "mlmc", {"p_list": [8]} | cfg, seed=2)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (out / "mlmc_errors.csv").exists()


def test_mlmc_refuses_p_above_root_cap_before_any_model(tmp_path, capsys, monkeypatch):
    """A p_list entry above the dense-root cap exits 2 naming ``p_list``,
    before the first (dense) model is built."""
    def no_model(*a, **k):
        raise AssertionError("a model was built")
    monkeypatch.setattr(cli, "_model", no_model)
    rc, out = run(tmp_path, "mlmc", {"p_list": [8, 8192], "runs": 1}, seed=2)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "p_list" in err["message"]
    assert not (out / "mlmc_errors.csv").exists()


def test_mlmc_rejects_empty_p_list(tmp_path, capsys):
    rc, out = run(tmp_path, "mlmc", {"p_list": [], "runs": 1}, seed=2)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (out / "mlmc_errors.csv").exists()


@pytest.mark.parametrize("cmd,cfg", [
    ("tables", {"p_list": 5}), ("mlmc", {"p_list": 5}),
    ("tables", {"p_list": [0, 16]}), ("mlmc", {"p_list": [0, 16]}),
    ("tables", {"families": 5}), ("decay", {"kernels": 5}),
    ("corrlen", {"ells": 5}), ("sqrt-bench", {"K_list": 5}),
])
def test_bad_list_config_exits_2(tmp_path, capsys, cmd, cfg):
    """A list setting that is no list, or a p_list naming p = 0, is a config
    error: no TypeError, and no silent fallback to the config's p."""
    rc, out = run(tmp_path, cmd, {"p": 16, "runs": 1} | cfg, seed=2)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("cmd,cfg", [
    ("sample", {"p": None}), ("krige", {"p": None}),
    ("sample", {"ell": None}), ("tables", {"ell": None}), ("krige", {"ell": None}),
    ("sample", {"count": None}), ("sample", {"compression": 5}),
    ("sample", {"wavelet": 5}), ("krige", {"wavelet": 5}),
    ("tables", {"families": [5]}),
    ("tables", {"p_list": [None]}), ("mlmc", {"p_list": [None]}),
    ("krige", {"targets": [None], "p": 64}),
    ("krige", {"observations": 5, "p": 64}), ("krige", {"observations": ["obs.csv"], "p": 64}),
    ("krige", {"observations": False, "p": 64}),
    ("pattern", {"p": 16.9}), ("sample", {"count": True}), ("krige", {"sigma2": True}),
    ("krige", {"targets": [float("nan")], "p": 64}),
    ("krige", {"targets": [float("inf")], "p": 64}),
    ("sample", {"ell": float("nan")}), ("pattern", {"ell": float("nan")}),
    ("krige", {"sigma2": float("nan"), "p": 64}), ("krige", {"sigma2": float("inf"), "p": 64}),
    ("corrlen", {"ells": [float("nan")]}), ("pattern", {"p": float("inf")}),
    ("pattern", {"p": "16"}), ("pattern", {"ell": "0.5"}), ("mlmc", {"p_list": ["16"]}),
    ("pattern", {"wavelet": [2, "6"]}), ("sample", {"wavelet": [2, True]}),
    ("pattern", {"wavelet": [2, 6, 1]}), ("tables", {"families": [[2, "6"]]}),
    ("tables", {"families": [[2, True]]}), ("tables", {"families": [[2, 6, 1]]}),
    ("pattern", {"curve": {"kind": "circle", "radius": True}}),
])
def test_wrong_json_type_exits_2(tmp_path, capsys, cmd, cfg):
    """A config value of the wrong JSON type is a config error naming its key:
    no TypeError, no fallback to the config's p for a null in p_list, no
    prediction at a null target, no boolean or string read as a number, no
    fractional number truncated to an integer, no NaN or Infinity read as
    a number and no wavelet pair of other than two integers."""
    rc, out = run(tmp_path, cmd, {"p": 16, "p_list": [16], "runs": 1} | cfg, seed=2)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and repr(next(iter(cfg))) in err["message"]
    assert not any(out.glob("*.csv"))


@pytest.mark.parametrize("cmd,cfg", [
    ("pattern", {"dump_matrix": "false"}), ("krige", {"dump_factors": 1}),
    ("mlmc", {"dump_estimate": "yes"}), ("pattern", {"dump_matrix": None}),
    ("pattern", {"out": 5}), ("sample", {"out": ["o"]}),
])
def test_dump_flags_and_out_take_only_their_json_type(tmp_path, capsys, monkeypatch, cmd, cfg):
    """The dump flags take only JSON booleans and ``out`` only a string: any
    other value is a config error naming its key, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"p": 16, "p_list": [16], "runs": 1, "out": "o"} | cfg))
    assert main([cmd, "--config", "cfg.json", "--seed", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and repr(next(iter(cfg))) in err["message"]
    assert [f.name for f in tmp_path.iterdir()] == ["cfg.json"]


def test_integral_float_wavelet_pair_reads_as_ints(tmp_path):
    """``[2, 6.0]`` reads as the pair (2, 6), as ``16.0`` reads as p = 16: the
    pattern outputs, the model's wavelet among them, equal those of ``[2, 6]``
    apart from the config hash."""
    def body(name, f):
        return [l for l in (tmp_path / name / f).read_text().splitlines()
                if "config_hash" not in l]
    for name, pair in (("floats", [2, 6.0]), ("ints", [2, 6])):
        assert run(tmp_path, "pattern", {"p": 16, "wavelet": pair}, name=name)[0] == 0
    for f in ("pattern.mtx", "pattern_fingerprint.csv"):
        assert body("floats", f) == body("ints", f) != []
    rc, _ = run(tmp_path, "tables", {"families": [[2, 6.0]], "p_list": [16]}, name="tables")
    assert rc == 0


@pytest.mark.parametrize("res", [3, 40])
def test_sample_resolution_out_of_range_exits_2(tmp_path, capsys, res):
    """A field resolution below J + 1 (here J = 3) or above 24 is refused
    before any draw, not left to an allocation of 2^res rows."""
    rc, out = run(tmp_path, "sample", {"p": 16, "resolution": res}, seed=2)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "resolution" in err["message"]
    assert not any(out.glob("*.csv"))


def test_dump_matrix_false_writes_no_matrix(tmp_path):
    rc, out = run(tmp_path, "pattern", {"p": 16, "dump_matrix": False})
    assert rc == 0 and (out / "pattern.mtx").exists()
    assert not (out / "covariance_eps.mtx").exists()


@pytest.mark.parametrize("text", [None, "width,value\n0.5,0.1\n", "center,value\n0.5,0.1\n",
                                  "center,width\n0.5,0.1\n", "# no header\n",
                                  "center,width,value\n0.5,0.05,nan\n",
                                  "center,width,value\n0.5,0.05,inf\n",
                                  "center,width,value\nnan,0.05,0.1\n",
                                  "center,width,value\n0.5,nan,0.1\n"])
def test_krige_bad_observations_file_exits_2(tmp_path, capsys, text):
    """A missing observations file, one without a header or without a
    center, width or value column, or one with a non-finite number, is a
    config error."""
    path = tmp_path / "obs.csv"
    if text is not None:
        path.write_text(text)
    rc, out = run(tmp_path, "krige", {"p": 64, "observations": str(path)}, seed=2)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (out / "krige_predictions.csv").exists()


@pytest.mark.parametrize("K_obs", [0, -3])
def test_krige_rejects_nonpositive_observation_count(tmp_path, capsys, K_obs):
    rc, out = run(tmp_path, "krige", {"p": 64, "K_obs": K_obs}, seed=2)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (out / "krige_predictions.csv").exists()


def test_krige_rejects_a_cg_tolerance_of_one_or_more(tmp_path, capsys):
    """At ``cg_tol`` >= 1 the zero start already meets the stopping rule:
    no all-zero prediction after 0 iterations, flagged converged."""
    rc, out = run(tmp_path, "krige", {"p": 64, "K_obs": 8, "cg_tol": 2.0}, seed=2)
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (out / "krige_predictions.csv").exists()


def test_krige_command_and_observation_file(tmp_path):
    cfg = {"p": 64, "K_obs": 8, "sigma2": 1e-2, "K": 20,
           "targets": [0.0, 0.25, 0.5], "dump_factors": True}
    rc, out = run(tmp_path, "krige", cfg, seed=5)
    assert rc == 0
    assert (out / "krige_predictions.csv").exists()
    assert (out / "krige_G_single.mtx").exists()
    assert (out / "krige_C_eps.mtx").exists()
    # the synthesis matrix, entry order included, as the dense transform of I gives it
    T = get_system(*default_wavelet_for("matern12")).ifwt_dual(np.eye(64))
    ref = sparse.csr_matrix(np.where(np.abs(T) > 1e-14, T, 0.0)).tocoo()
    got = spio.mmread(out / "krige_T_dual.mtx")
    for a in ("row", "col", "data"):
        np.testing.assert_array_equal(getattr(got, a), getattr(ref, a))
    # feed the written observations back in through the CSV interface
    cfg2 = dict(cfg)
    cfg2["observations"] = str(out / "krige_observations.csv")
    del cfg2["dump_factors"]
    rc2, out2 = run(tmp_path, "krige", cfg2, seed=5, name="again")
    assert rc2 == 0


def test_krige_forms_the_gram_once(tmp_path, gram_builds):
    """The Gram CG and ``gram_cond`` share one dense Gram."""
    rc, out = run(tmp_path, "krige", {"p": 64, "K_obs": 8, "K": 20}, seed=5)
    assert rc == 0
    assert gram_builds == [(8, 8)]
    assert "# gram_cond: None\n" not in (out / "krige_predictions.csv").read_text()


def test_krige_unconverged_gram_cg_exits_3(tmp_path, capsys, monkeypatch):
    """A Gram CG stopped at its iteration cap is a numerical failure: exit
    code 3 and no predictions file.  (A tiny ``cg_tol`` does not force this:
    the recursive CG residual underflows to zero and counts as converged.)"""
    import wavegrf.kriging as kr
    from wavegrf.linalg import cg_solve

    def capped(A, b, tol, max_iter=None, precond=None):
        return cg_solve(A, b, tol=tol, max_iter=2, precond=precond)

    monkeypatch.setattr(kr, "cg_solve", capped)
    rc, out = run(tmp_path, "krige", {"p": 64, "K_obs": 8, "K": 20}, seed=5)
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical" and "unconverged" in err["message"]
    # the final true residual, above the default cg_tol = 1e-10 of an unconverged solve
    residual = re.search(r"after 2 iterations at relative residual (\S+)$", err["message"])
    assert residual and float(residual[1]) > 1e-10
    assert not (out / "krige_predictions.csv").exists()


def test_threads_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["filters-dump", "--out", str(tmp_path / "t"), "--threads", "2"])
    assert exc.value.code == 2


def test_config_error_exit_code(tmp_path, capsys):
    rc, _ = run(tmp_path, "tables", {"kernel": "matern99"})
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    rc2, _ = run(tmp_path, "pattern", {"p": 48})
    assert rc2 == 2
    # the model itself refuses an unknown kernel or wavelet pair
    for bad in ({"kernel": "matern99"}, {"wavelet": [2, 5]}):
        assert run(tmp_path, "pattern", {"p": 16} | bad)[0] == 2
    # an object key takes no list, not even one of pairs that dict() would read
    for bad in ([], [["a", 3]]):
        assert run(tmp_path, "pattern", {"p": 16, "compression": bad})[0] == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "config" and "'compression'" in err["message"]


def test_curve_mapping_in_config(tmp_path):
    rc, out = run(tmp_path, "pattern", {"p": 16, "curve": {"kind": "circle", "radius": 2.0}})
    assert rc == 0
    meta = json.loads((out / "pattern_meta.json").read_text())
    assert meta["config"]["curve"] == {"kind": "circle", "radius": 2.0}
    header = (out / "pattern_fingerprint.csv").read_text().splitlines()
    model = json.loads(next(l for l in header if l.startswith("# model: "))[9:])
    assert model["curve"] == to_config(normalize_to_unit_diameter(circle(2.0)))
    assert model["curve"]["scale"] == pytest.approx(0.25, rel=1e-15)


@pytest.mark.parametrize("curve", [
    {"kind": "ellipse", "radius": 2.0},
    {"kind": "fourier", "scale": 1.0},
    {"kind": "fourier", "cos_coeffs": [50.0, 1.0], "sin_coeffs": [1.0, 2.0]},
    {"kind": "circle", "radius": "two"},
    {"kind": "fourier", "cos_coeffs": [50.0, None], "sin_coeffs": [1.0]},
])
def test_malformed_curve_mapping_exits_2(tmp_path, capsys, curve):
    rc, out = run(tmp_path, "pattern", {"p": 16, "curve": curve})
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (out / "pattern.mtx").exists()


def test_numerical_error_exit_code(tmp_path, capsys, monkeypatch):
    import wavegrf.cli as cli

    def boom(cfg):
        """Synthetic numerical failure."""
        raise np.linalg.LinAlgError("synthetic breakdown")

    monkeypatch.setitem(cli.COMMANDS, "pattern", boom)
    rc, _ = run(tmp_path, "pattern", {"p": 64})
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "numerical"
