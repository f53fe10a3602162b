"""The benchmark workloads: set-up, unit operation and correctness check.

Every workload drives the public ``wavegrf`` API only.  The model is
matern12 with wavelet family (2, 6) on the paper boundary, ell = 1.  Each
call into a layer sits inside ``tracer.span(<module>.<stage>)``; with
tracing off those spans record nothing.  ``CovarianceModel`` is only the entry
point: its cached properties are touched one stage at a time so each stage
gets its own span.

A workload object lives in one worker process.  ``setup`` builds
everything the first unit operation needs, ``op(i)`` runs unit operation
``i`` and returns a record, and ``check(i, record)`` (called after the timed
loop, untimed) returns ``None`` or the reason the operation is wrong.
"""

from __future__ import annotations

import numpy as np

from wavegrf import curves, kriging, mlmc, sampling
from wavegrf.pipeline import CovarianceModel

KERNEL = "matern12"
FAMILY = (2, 6)
ELL = 1.0

#: mean operator-norm error of one MLMC replicate (M_finest = 100) over 1200
#: (p = 64) and 300 (p = 512) seeded replicates.  One replicate must land
#: within a factor MLMC_BAND of it (the extremes seen were 0.105..0.93 and
#: 0.053..0.31); the mean of a worker's first ``n_full`` replicates within a
#: factor MLMC_MEAN_BAND (seen: 0.19..0.57 and 0.074..0.19)
MLMC_ERROR_REF = {64: 0.321, 512: 0.124}
MLMC_BAND = 4.0
MLMC_MEAN_BAND = 2.0


def input_seed(seed: int, worker: int, index: int) -> int:
    """The 63-bit seed of unit operation ``index`` of ``worker`` in run ``seed``."""
    state = np.random.SeedSequence([seed, worker, index]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def rel_err(a, b) -> float:
    return float(np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b))


def build_model(tr, p: int, stages) -> CovarianceModel:
    """Normalize the curve, create the model, then touch each cached stage."""
    with tr.span("curves.normalize"):
        curve = curves.normalize_to_unit_diameter(curves.from_config("paper-boundary"))
    with tr.span("pipeline.model"):
        m = CovarianceModel(KERNEL, wavelet=FAMILY, p=p, curve=curve, ell=ELL,
                            normalize_curve=False)
    for span, attr in stages:
        with tr.span(span):
            getattr(m, attr)
    tr.count("compression.nnz", m.pattern.nnz)
    return m


ASSEMBLED = (("assembly.single_scale", "single_scale"),
             ("wavelets.to_wavelet", "wavelet_dense"),
             ("compression.build_pattern", "pattern"),
             ("compression.apply_pattern", "tapered"))
PRECONDITIONED = ASSEMBLED + (("linalg.precondition", "preconditioned"),)


class Workload:
    #: unit operations counted in ``total_s`` (every worker runs at least this many)
    n_full = 1

    def __init__(self, p: int, seed: int, worker: int, tracer):
        self.p = p
        self.seed = seed
        self.worker = worker
        self.tr = tracer

    def op_seed(self, i: int) -> int:
        return input_seed(self.seed, self.worker, i)


class Krige(Workload):
    """Dense bounds, K = 40, dense ``GrfSampler`` truth, box observations."""

    n_full = 4
    sigma2 = 1e-2
    cg_tol = 1e-10

    def setup(self):
        tr = self.tr
        m = self.m = build_model(tr, self.p, PRECONDITIONED)
        with tr.span("linalg.bounds"):
            bounds = m.spectral_bounds(exact=True)
        with tr.span("sampling.sampler_init"):
            contour = sampling.build_contour(bounds, 40)
            self.sampler = sampling.GrfSampler(m.tapered, m.idx, m.order.ra, contour)
        n_obs = min(256, self.p // 2)
        obs = kriging.equispaced_observations(n_obs, min(4.0 / self.p, 0.5 / n_obs),
                                              self.sigma2)
        with tr.span("kriging.obsmat"):
            self.om = kriging.build_observation_matrix(m.system, obs, m.idx.J, m.curve)
        self.targets = np.arange(256) / 256.0
        self.dense_C = None

    def op(self, i):
        tr, m, om = self.tr, self.m, self.om
        s = self.op_seed(i)
        with tr.span("sampling.draw"):
            z = self.sampler.draw(s).coefficients
        noise = np.random.default_rng(s).standard_normal(om.K) * np.sqrt(self.sigma2)
        y = om.G @ z + noise
        with tr.span("kriging.posterior_mean"):
            mu, res = kriging.posterior_mean(m.tapered, om, m.system, y, self.sigma2,
                                             cg_tol=self.cg_tol)
        with tr.span("kriging.predict"):
            pred = kriging.predict_at(m.system, m.curve, mu, self.targets)
        tr.count("kriging.cg_iterations", res.iterations)
        tr.count("kriging.cg_unconverged", int(not res.converged))
        return y, mu, res, pred

    def check(self, i, record):
        y, mu, res, pred = record
        if not res.converged:
            return f"Gram CG stopped unconverged after {res.iterations} iterations"
        if self.dense_C is None:
            self.dense_C = self.m.tapered.to_dense()
        expect = kriging.posterior_mean_dense(self.dense_C, self.om.G, y, self.sigma2)
        err = rel_err(mu, expect)
        if not err <= 1e-8:
            return f"posterior mean differs from the dense oracle by {err:.2e}"
        if not np.all(np.isfinite(pred)):
            return "non-finite prediction"
        return None


class Mlmc(Workload):
    """One op = one seeded replicate: source, estimate, error report."""

    n_full = 4

    def setup(self):
        m = self.m = build_model(self.tr, self.p, ASSEMBLED)
        self.sched = mlmc.schedule(m.idx.J, m.idx.j0, M_finest=100)
        self.C = m.tapered.to_dense()
        self.errors = {}

    def op(self, i):
        tr, m = self.tr, self.m
        s = self.op_seed(i)
        src = mlmc.GaussianCoefficientSource(self.C, m.idx, seed=s)
        with tr.span("mlmc.source_root"):
            for j in m.idx.levels:
                src.draw(j, 1, 0)
        with tr.span("mlmc.estimate"):
            est = mlmc.estimate(m.pattern, self.sched, src, seed=s)
        with tr.span("mlmc.error_report"):
            rep = mlmc.error_report(est, m.wavelet_dense, m.idx)
        tr.count("mlmc.work", self.sched.work())
        return est, rep

    def check(self, i, record):
        est, rep = record
        A = est.matrix.csr
        if (A != A.T).nnz:
            return "estimate is not symmetric"
        r, c = A.nonzero()
        if not np.all(self.m.pattern.mask[r, c]):
            return "estimate has entries off the taper pattern"
        ref = MLMC_ERROR_REF[self.p]
        err = self.errors[i] = rep["op_norm_error"]
        if not ref / MLMC_BAND <= err <= ref * MLMC_BAND:
            return f"error {err:.4f} outside [{ref / MLMC_BAND:.4f}, {ref * MLMC_BAND:.4f}]"
        first = [self.errors.get(k) for k in range(self.n_full)]
        if i == self.n_full - 1 and None not in first:
            mean = sum(first) / self.n_full
            lo, hi = ref / MLMC_MEAN_BAND, ref * MLMC_MEAN_BAND
            if not lo <= mean <= hi:
                return f"mean error of ops 0..{i} {mean:.4f} outside [{lo:.4f}, {hi:.4f}]"
        return None


WORKLOADS = {"krige": Krige, "mlmc": Mlmc}
