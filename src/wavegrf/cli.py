"""Reproducible experiment runner.

Subcommands: tables, decay, corrlen, sqrt-bench, sample, mlmc, krige,
pattern, filters-dump.  Options come from a JSON config file plus ``--seed``
and ``--out`` overrides.  Every output file records the config hash and
package version; reruns are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure; errors
emit a machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np
from scipy import sparse

from . import __version__, curves, io, kriging, linalg, mlmc, rng, sampling
from .compression import aposteriori_threshold
from .filters import SUPPORTED_PAIRS, build_filter_bank
from .kernels import KERNEL_NAMES
from .linalg import SpectralBounds, condition_number, dense_eigvals
from .pipeline import CovarianceModel
from .sampling import build_contour


class ConfigError(ValueError):
    pass


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}") from e
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        if "exact_bounds" in cfg:
            raise ConfigError("config key 'exact_bounds' is gone: p picks dense or Lanczos")
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("seed", 0)
    out = _get(cfg, "out", "out", str)
    cfg["out"] = args.out or out
    return cfg


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _as(key, value, kind):
    try:
        if kind is tuple:                                          # a wavelet pair: two ints
            d, dt = value if isinstance(value, (list, tuple)) else None
            return _as(key, d, int), _as(key, dt, int)
        if kind in (bool, str, dict) and not isinstance(value, kind):  # bool(), str(), dict() convert
            raise TypeError
        if kind in (int, float) and isinstance(value, (bool, str)):  # int(True), int("16")
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError                                       # int() truncates
        out = kind(value)
        if kind is float and not abs(out) < np.inf:                # json reads NaN, Infinity
            raise ValueError
        return out
    except (TypeError, ValueError) as e:
        name = "pair of integers" if kind is tuple else kind.__name__
        raise ConfigError(f"config key {key!r}: {value!r} is not a {name}") from e


def _get(cfg, key, default, kind):
    """``cfg[key]`` as ``kind``: ``default`` if absent, null only if that is None."""
    value = cfg.get(key, default)
    return None if value is None and default is None else _as(key, value, kind)


def _model(cfg, kernel=None, wavelet=None, p=None) -> CovarianceModel:
    """The model of ``cfg``; ``CovarianceModel`` checks the kernel and the
    wavelet pair and picks the kernel's default pair."""
    kernel = _get(cfg, "kernel", "matern12", str) if kernel is None else kernel
    wavelet = _get(cfg, "wavelet", None, tuple) if wavelet is None else wavelet
    p = _get(cfg, "p", 256, int) if p is None else p
    if p & (p - 1) or p < 8:
        raise ConfigError(f"p must be a power of two >= 8, got {p}")
    comp = _get(cfg, "compression", {}, dict)
    try:
        curve = curves.from_config(cfg.get("curve", "paper-boundary"))
    except ValueError as e:
        raise ConfigError(f"config key 'curve': {e}") from e
    try:
        return CovarianceModel(kernel=kernel, wavelet=wavelet, p=p, curve=curve,
                               ell=_get(cfg, "ell", 1.0, float),
                               a=_get(comp, "a", 2.0, float),
                               a_prime=_get(comp, "a_prime", 2.0, float),
                               dprime=_get(comp, "dprime", None, float))
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _list(cfg, key, default, kind) -> list:
    value = cfg.get(key, default)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key} must be a non-empty list, got {value!r}")
    return [_as(key, v, kind) for v in value]


# -- subcommands -----------------------------------------------------------

_TABLE_FAMILIES = {"matern12": [(2, 4), (2, 6), (2, 8)],
                   "matern32": [(2, 6), (2, 8), (2, 10)],
                   "matern52": [(2, 10)]}


def cmd_tables(cfg) -> None:
    """Condition numbers and compression rates over dimension."""
    kernel = _get(cfg, "kernel", "matern12", str)
    if kernel not in KERNEL_NAMES:
        raise ConfigError(f"unknown kernel {kernel!r}")
    families = _list(cfg, "families", _TABLE_FAMILIES[kernel], tuple)
    p_list = _list(cfg, "p_list", [32, 64, 128, 256, 512, 1024], int)
    rows = {"p": [], "level": [], "single_scale_cond": []}
    for d, dt in families:
        rows[f"nnz_pct_{d}{dt}"] = []
        rows[f"cond_{d}{dt}"] = []
    meta = io.standard_meta(cfg)
    for p in p_list:
        for i, fam in enumerate(families):
            m = _model(cfg, wavelet=fam, p=p)
            if i:               # the single-scale matrix is shared by the families
                m.single_scale = first.single_scale
            else:
                first = m
                rows["p"].append(p)
                rows["level"].append(int(np.log2(p)))
                rows["single_scale_cond"].append(condition_number(m.single_scale))
            rows[f"nnz_pct_{fam[0]}{fam[1]}"].append(100.0 * m.pattern.nnz_fraction)
            rows[f"cond_{fam[0]}{fam[1]}"].append(condition_number(m.preconditioned))
        meta.setdefault("model", m.meta)
    io.write_csv(_outdir(cfg) / f"tables_{kernel}.csv", rows, meta)


def cmd_decay(cfg) -> None:
    """Diagonal entries and per-level means of the wavelet-coordinate matrix."""
    out = _outdir(cfg)
    kernels_ = _list(cfg, "kernels", ["matern12", "matern32", "matern52"], str)
    p = _get(cfg, "p", 512, int)
    for kname in kernels_:
        m = _model(cfg, kernel=kname, p=p)
        diag = m.tapered.csr.diagonal()
        lev = m.idx.level_of_position()
        means = [float(np.mean(diag[m.idx.level_slice(j)])) for j in m.idx.levels]
        wl = list(m.idx.levels)[1:]
        slope = (float(np.polyfit(wl, np.log2(np.array(means[1:])), 1)[0])
                 if len(wl) >= 2 else float("nan"))
        meta = io.standard_meta(cfg) | {"model": m.meta, "estimated_order": slope}
        io.write_csv(out / f"decay_{kname}_diag.csv",
                     {"position": np.arange(m.idx.p), "level": lev, "diag": diag}, meta)
        io.write_csv(out / f"decay_{kname}_levels.csv",
                     {"level": list(m.idx.levels), "mean_diag": means,
                      "jump": [float("nan")] + [means[i] / means[i + 1]
                                                for i in range(len(means) - 1)]}, meta)


def cmd_corrlen(cfg) -> None:
    """A-priori vs a-posteriori compression across correlation lengths."""
    kernel = _get(cfg, "kernel", "matern12", str)
    ells = _list(cfg, "ells", [0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.0], float)
    delta = _get(cfg, "delta", 1e-6, float)
    p = _get(cfg, "p", 256, int)
    rows = {"ell": [], "apriori_nnz_pct": [], "aposteriori_nnz_pct": []}
    meta = io.standard_meta(cfg)
    for ell in ells:
        c2 = dict(cfg)
        c2["ell"] = ell
        m = _model(c2, kernel=kernel, p=p)
        thr = aposteriori_threshold(m.tapered, m.idx, m.order.ra, delta)
        rows["ell"].append(ell)
        rows["apriori_nnz_pct"].append(100.0 * m.pattern.nnz_fraction)
        rows["aposteriori_nnz_pct"].append(100.0 * thr.nnz / m.idx.p**2)
        meta.setdefault("model", m.meta)
    meta["delta"] = delta
    io.write_csv(_outdir(cfg) / f"corrlen_{kernel}.csv", rows, meta)


def cmd_sqrt_bench(cfg) -> None:
    """Square-root error versus node count, with mis-estimated conditioning."""
    p = _get(cfg, "p", 1024, int)
    m = _model(cfg, p=p)
    Ks = _list(cfg, "K_list", [1, 5, 10, 15, 20, 25, 30, 40, 50, 60], int)
    ev = dense_eigvals(m.preconditioned)
    sq = np.sqrt(ev)
    scale = float(np.max(sq))
    variants = {"exact": (ev[0], ev[-1]),
                "over": (ev[0] / 2.0, ev[-1]),       # condition overestimated 2x
                "under": (ev[0] * 2.0, ev[-1])}      # condition underestimated 2x
    rows = {"K": list(Ks)}
    for name, (lo, hi) in variants.items():
        errs = []
        for K in Ks:
            q = build_contour(SpectralBounds(lo, hi), K)
            errs.append(float(np.max(np.abs(q.scalar_values(ev) - sq)) / scale))
        rows[f"rel_err_{name}"] = errs
    io.write_csv(_outdir(cfg) / "sqrt_bench.csv", rows,
                 io.standard_meta(cfg) | {"model": m.meta,
                                          "cond": float(ev[-1] / ev[0])})


def cmd_sample(cfg) -> None:
    """Draw field samples; write coefficients, synthesized field, metadata."""
    m = _model(cfg)
    count = _get(cfg, "count", 4, int)
    if count < 1:
        raise ConfigError(f"count must be at least 1, got {count}")
    K = _get(cfg, "K", 40, int)
    seed = _get(cfg, "seed", 0, int)
    res = _get(cfg, "resolution", m.idx.J + 3, int)
    if not m.idx.J + 1 <= res <= 24:                   # a fields CSV of at most 2^24 rows
        raise ConfigError(f"resolution must lie in [{m.idx.J + 1}, 24], got {res}")
    contour = build_contour(m.spectral_bounds(), K)
    sampler = sampling.GrfSampler(m.tapered, m.idx, m.order.ra, contour)
    Z = sampler.draw_matrix(seed, count)
    out = _outdir(cfg)
    meta = io.standard_meta(cfg) | {"model": m.meta, "K": K, "seed": seed}
    io.write_csv(out / "sample_coeffs.csv",
                 {f"sample{i}": Z[i] for i in range(count)}, meta)
    fields = {f"sample{i}": m.system.synthesize_on_grid(Z[i], res)
              for i in range(count)}
    grid = np.arange(2**res) / 2**res
    io.write_csv(out / "sample_fields.csv", {"t": grid} | fields, meta)
    io.write_meta(out / "sample_meta.json", cfg, {"model": m.meta})


def cmd_mlmc(cfg) -> None:
    """Covariance estimation error table over resolution (mean of R runs)."""
    runs = _get(cfg, "runs", 10, int)
    if runs < 1:
        raise ConfigError(f"runs must be at least 1, got {runs}")
    p_list = _list(cfg, "p_list", [8, 16, 32, 64, 128, 256, 512], int)
    if max(p_list) > mlmc.ROOT_MAX_P:       # refused before any dense model is built
        raise ConfigError(f"p_list: dense level roots stop at p = {mlmc.ROOT_MAX_P}")
    M_finest = _get(cfg, "M_finest", 100, int)
    seed = _get(cfg, "seed", 0, int)
    dump = _get(cfg, "dump_estimate", False, bool)
    rows = {"p": [], "level": [], "M_coarse": [], "op_error": [],
            "rel_error": [], "contraction": [], "work": []}
    meta = io.standard_meta(cfg)
    prev = None
    for p in p_list:
        m = _model(cfg, p=p)
        sched = mlmc.schedule(m.idx.J, m.idx.j0, M_finest=M_finest)
        truth = m.wavelet_dense
        Ceps = m.tapered.to_dense()
        errs = []
        for r in range(runs):
            src = mlmc.GaussianCoefficientSource(Ceps, m.idx, seed=seed + 7919 * r)
            est = mlmc.estimate(m.pattern, sched, src, seed=seed + 7919 * r)
            errs.append(mlmc.error_report(est, truth, m.idx)["op_norm_error"])
        err = float(np.mean(errs))
        rows["p"].append(p)
        rows["level"].append(int(np.log2(p)))
        rows["M_coarse"].append(sched.counts[m.idx.j0])
        rows["op_error"].append(err)
        rows["rel_error"].append(err / float(dense_eigvals(truth)[-1]))    # truth is PSD
        rows["contraction"].append(float("nan") if prev is None else prev / err)
        rows["work"].append(sched.work())
        prev = err
        meta.setdefault("model", m.meta)
        if dump and p == p_list[-1]:
            io.write_matrix_market(_outdir(cfg) / f"mlmc_estimate_p{p}.mtx",
                                   est.matrix.csr, io.standard_meta(cfg))
    meta["runs"] = runs
    io.write_csv(_outdir(cfg) / "mlmc_errors.csv", rows, meta)


def cmd_krige(cfg) -> None:
    """Posterior-mean prediction from box-average observations."""
    m = _model(cfg)
    K = _get(cfg, "K_obs", 32, int)
    if K < 1:
        raise ConfigError(f"K_obs must be at least 1, got {K}")
    sigma2 = _get(cfg, "sigma2", 1e-2, float)
    width = _get(cfg, "width", min(4.0 / m.idx.p, 0.5 / K), float)
    seed = _get(cfg, "seed", 0, int)
    dump = _get(cfg, "dump_factors", False, bool)
    out = _outdir(cfg)
    obs_file = _get(cfg, "observations", None, str)
    if obs_file:
        try:
            raw = io.read_csv(obs_file)
            centers, widths, y = raw["center"], raw["width"], raw["value"]
        except (OSError, KeyError, IndexError) as e:       # no file, column or header
            raise ConfigError(f"bad observations file {obs_file}: {e!r}") from e
        if not np.all(np.isfinite(y)):
            raise ConfigError(f"bad observations file {obs_file}: non-finite value")
        obs = kriging.ObservationSet(centers=centers, widths=widths, sigma2=sigma2)
    else:
        obs = kriging.equispaced_observations(K, width, sigma2)
    om = kriging.build_observation_matrix(m.system, obs, m.idx.J, m.curve)
    if not obs_file:
        contour = build_contour(m.spectral_bounds(), _get(cfg, "K", 40, int))
        z = sampling.GrfSampler(m.tapered, m.idx, m.order.ra, contour).draw(seed)
        noise = rng.standard_normal(seed, 10**6, obs.K) * np.sqrt(sigma2)
        y = om.G @ z.coefficients + noise
    mu, res = kriging.posterior_mean(m.tapered, om, m.system, y, sigma2,
                                     cg_tol=_get(cfg, "cg_tol", 1e-10, float))
    if not res.converged:
        raise RuntimeError(f"Gram CG stopped unconverged after {res.iterations} iterations"
                           f" at relative residual {res.residual:.2e}")
    targets = np.asarray(_list(cfg, "targets", list(np.arange(256) / 256.0), float))
    pred = kriging.predict_at(m.system, m.curve, mu, targets)
    # the Gram condition number needs the dense K x K Gram: absent above the size rule
    meta = io.standard_meta(cfg) | {
        "model": m.meta, "cg_iterations": res.iterations,
        "gram_cond": (condition_number(kriging.gram_matrix(m.tapered, om, sigma2))
                      if m.idx.p <= linalg.DENSE_MAX_P else None)}
    io.write_csv(out / "krige_predictions.csv", {"t": targets, "value": pred}, meta)
    io.write_csv(out / "krige_observations.csv",
                 {"center": obs.centers, "width": obs.widths, "value": y}, meta)
    if dump:
        io.write_matrix_market(out / "krige_G_single.mtx", om.G_single,
                               io.standard_meta(cfg))
        io.write_matrix_market(out / "krige_C_eps.mtx", m.tapered.csr,
                               io.standard_meta(cfg))
        T = m.system.ifwt_dual(sparse.identity(m.idx.p, format="csr"))
        T.data[np.abs(T.data) <= 1e-14] = 0.0
        T.eliminate_zeros()
        T.sort_indices()                 # mmwrite writes entries in stored order
        io.write_matrix_market(out / "krige_T_dual.mtx", T, io.standard_meta(cfg))
    io.write_meta(out / "krige_meta.json", cfg, {"cg_iterations": res.iterations})


def cmd_pattern(cfg) -> None:
    """Taper pattern dumps (matrix market + fingerprint CSV).

    With ``"dump_matrix": true`` the tapered covariance matrix itself is
    assembled and written as matrix market plus a raw entry CSV.
    """
    dump = _get(cfg, "dump_matrix", False, bool)
    m = _model(cfg)
    out = _outdir(cfg)
    meta = io.standard_meta(cfg) | {"model": m.meta, "nnz": m.pattern.nnz,
                                    "nnz_fraction": m.pattern.nnz_fraction}
    io.write_matrix_market(out / "pattern.mtx", m.pattern.csr.astype(float),
                           io.standard_meta(cfg))
    io.write_pattern_fingerprint(out / "pattern_fingerprint.csv", m.pattern, meta)
    if dump:
        S = m.tapered
        io.write_matrix_market(out / "covariance_eps.mtx", S.csr,
                               io.standard_meta(cfg))
        coo = S.csr.tocoo()
        io.write_csv(out / "covariance_eps.csv",
                     {"row": coo.row, "col": coo.col, "value": coo.data}, meta)
    io.write_meta(out / "pattern_meta.json", cfg, {"nnz": m.pattern.nnz})


def cmd_filters_dump(cfg) -> None:
    """Filter masks as exact rationals, one CSV per supported family."""
    out = _outdir(cfg)
    for d, dt in SUPPORTED_PAIRS:
        fb = build_filter_bank(d, dt)
        rows = {"mask": [], "index": [], "numerator": [], "denominator": [],
                "value": []}
        for name, k, frac in fb.rational_table():
            rows["mask"].append(name)
            rows["index"].append(k)
            rows["numerator"].append(frac.numerator)
            rows["denominator"].append(frac.denominator)
            rows["value"].append(float(frac))
        io.write_csv(out / f"filters_{d}_{dt}.csv", rows, io.standard_meta(cfg))


COMMANDS = {
    "tables": cmd_tables,
    "decay": cmd_decay,
    "corrlen": cmd_corrlen,
    "sqrt-bench": cmd_sqrt_bench,
    "sample": cmd_sample,
    "mlmc": cmd_mlmc,
    "krige": cmd_krige,
    "pattern": cmd_pattern,
    "filters-dump": cmd_filters_dump,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wavegrf",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        sp = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", help="output directory")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        COMMANDS[args.command](cfg)
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as e:
        json.dump({"error": "numerical", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except (ConfigError, ValueError) as e:
        json.dump({"error": "config", "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
