"""Posterior-mean spatial prediction from noisy local-average observations.

Observations are box averages on the curve (unit mass against the surface
measure, pairwise disjoint supports).  With coefficient vector ``z`` of the
field in the dual expansion, the data model is ``y = G z + eta`` where
``G[i, lam]`` pairs the i-th functional with the lam-th dual basis function;
in parameter coordinates this is a plain unweighted integral, computed in
the single-scale dual basis and pushed to wavelet coordinates by the fast
transform.  The posterior mean

    mu = C G^T (G C G^T + sigma^2 I)^(-1) y

is evaluated by CG on the Gram system with sparse factors only: ``G`` is CSR
with O(K log p) nonzeros (wavelets are local), so one iteration is three CSR
products (``G^T``, ``C_eps``, ``G``) and the Gram matrix is never assembled.
``G`` is built by one batched transform of the banded single-scale rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .curves import CurveSpec
from .linalg import CgResult, cg_solve, dense_eigvals
from .wavelets import WaveletSystem


@dataclass(frozen=True)
class ObservationSet:
    """K disjoint box-average functionals with i.i.d. Gaussian noise."""

    centers: np.ndarray            # parameter positions in [0, 1)
    widths: np.ndarray             # parameter widths
    sigma2: float
    values: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float) % 1.0
        w = np.asarray(self.widths, dtype=float)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", w)
        if self.sigma2 <= 0:
            raise ValueError("noise variance must be positive "
                             "(noise-free kriging is out of scope)")
        if len(c) != len(w) or np.any(w <= 0):
            raise ValueError("need one positive width per center")
        if np.sum(w) > 1.0 + 1e-12:
            raise ValueError("observation supports overlap")
        if len(c) > 1:
            order = np.argsort((c - w / 2.0) % 1.0)
            starts = ((c - w / 2.0) % 1.0)[order]
            widths = w[order]
            for i in range(len(c)):
                nxt = (i + 1) % len(c)
                room = (starts[nxt] - starts[i]) % 1.0
                if nxt == 0:
                    room = 1.0 - ((starts[i] - starts[0]) % 1.0)
                if widths[i] > room + 1e-12:
                    raise ValueError("observation supports overlap")

    @property
    def K(self) -> int:
        return len(self.centers)

    def norms(self, curve: CurveSpec, samples: int = 256) -> np.ndarray:
        """L2 norms of the functionals against the surface measure, 1/sqrt(mass)."""
        out = np.empty(self.K)
        for i, (c, w) in enumerate(zip(self.centers, self.widths)):
            t = (c - w / 2.0 + np.linspace(0, 1, samples, endpoint=False) * w) % 1.0
            mass = float(np.mean(curve.weight_t(t)) * w)
            out[i] = 1.0 / np.sqrt(mass)
        return out


def equispaced_observations(K: int, width: float, sigma2: float,
                            values=None) -> ObservationSet:
    centers = (np.arange(K) + 0.5) / K
    return ObservationSet(centers=centers, widths=np.full(K, width),
                          sigma2=sigma2, values=values)


@dataclass
class ObservationMatrix:
    G_single: sparse.csr_matrix     # K x N against the dual single-scale basis
    G: sparse.csr_matrix            # K x p against the dual wavelets, O(K log p) nnz
    level: int

    @property
    def K(self) -> int:
        return self.G.shape[0]


def build_observation_matrix(system: WaveletSystem, obs: ObservationSet,
                             J: int, curve: CurveSpec | None = None,
                             oversample: int = 6) -> ObservationMatrix:
    """Pairings of the observation functionals with the dual basis.

    Single-scale entries are composite trapezoid quadratures of the
    cascade-evaluated dual scaling function over each box (box endpoints are
    snapped to the quadrature grid); wavelet rows follow by the fast
    transform.  Unit-mass normalization is against the surface measure when
    a curve is supplied, else against parameter length.  Boxes must span at
    least one fine-level cell so the quadrature resolves them.
    """
    idx = system.index_set(J)
    L = J + 1
    N = 2**L
    if np.any(obs.widths < 2.0 ** (-L)):
        raise ValueError("observation width below one fine-level cell; "
                         "refine J or widen the functionals")
    phi, _ = system.scaling_values(dual=True, sweeps=oversample)
    per = 2**oversample
    tau = 2.0 ** (-L) / per                      # quadrature step
    # phi_{L,k}(t_n) = 2^{L/2} phi(n/per - k), tabulated index n - per*k - lo
    lo, n_tab = system.bank.lo_dual.start * per, len(phi)
    n0 = np.rint((obs.centers - obs.widths / 2.0) / tau).astype(int)
    n1 = np.rint((obs.centers + obs.widths / 2.0) / tau).astype(int)
    box, nodes, box_at = _ranges(n0, n1 + 1)     # trapezoid nodes of each box

    def weights(b, n):
        return np.where((n == n0[b]) | (n == n1[b]), tau / 2.0, tau)

    mass = ((n1 - n0) * tau if curve is None else
            np.add.reduceat(weights(box, nodes) * curve.weight_t(nodes * tau), box_at))
    # translates k whose tabulated support meets the box, then their shared nodes
    pbox, k, _ = _ranges((n0 - lo - n_tab + per - 1) // per, (n1 - lo) // per + 1)
    tpair, n, pair_at = _ranges(np.maximum(n0[pbox], per * k + lo),
                                np.minimum(n1[pbox], per * k + lo + n_tab - 1) + 1)
    sums = np.add.reduceat(weights(pbox[tpair], n) * phi[n - per * k[tpair] - lo], pair_at)
    vals = 2.0 ** (L / 2.0) * sums / mass[pbox]
    keep = np.abs(vals) > 1e-14
    rows, cols, vals = pbox[keep], k[keep] % N, vals[keep]
    G_single = sparse.coo_matrix((vals, (rows, cols)), shape=(obs.K, N)).tocsr()
    G = sparse.csr_matrix(system.fwt(G_single.T.toarray()).T)   # drops exact zeros only
    return ObservationMatrix(G_single=G_single, G=G, level=L)


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """Owner ``i``, value and run starts of the concatenated ``arange(lo[i], hi[i])``."""
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(lo)), counts)
    return owner, np.arange(counts.sum()) - starts[owner] + lo[owner], starts


class FactoredGram:
    """Applies ``v -> (G C G^T + sigma2 I) v`` by three CSR products without
    forming the Gram matrix; ``v`` is a K-vector or a (K, m) block."""

    def __init__(self, Ceps, obsmat: ObservationMatrix, sigma2: float):
        self.C = Ceps
        self.G = obsmat.G
        self.GT = obsmat.G.T.tocsr()
        self.sigma2 = sigma2
        self.applies = 0

    def __call__(self, v: np.ndarray) -> np.ndarray:
        self.applies += 1
        return self.G @ (self.C @ (self.GT @ v)) + self.sigma2 * v


def posterior_mean(Ceps, obsmat: ObservationMatrix, system: WaveletSystem,
                   y: np.ndarray, sigma2: float,
                   cg_tol: float = 1e-10) -> tuple[np.ndarray, CgResult]:
    """Kriging coefficients ``mu`` in dual coordinates and the CG record;
    ``system`` is unused here and in ``gram_matrix``."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    y = np.asarray(y, dtype=float)
    gram = FactoredGram(Ceps, obsmat, sigma2)
    res = cg_solve(gram, y, tol=cg_tol, max_iter=max(10 * obsmat.K, 200))
    mu = Ceps @ (gram.GT @ res.x)
    return mu, res


def posterior_mean_dense(C: np.ndarray, G, y: np.ndarray,
                         sigma2: float) -> np.ndarray:
    """Direct dense evaluation of the posterior mean (validation oracle)."""
    C = np.asarray(C, dtype=float)
    G = G.toarray() if sparse.issparse(G) else np.asarray(G, dtype=float)
    M = G @ C @ G.T + sigma2 * np.eye(G.shape[0])
    return C @ G.T @ np.linalg.solve(M, np.asarray(y, dtype=float))


def gram_matrix(Ceps, obsmat: ObservationMatrix, system: WaveletSystem,
                sigma2: float) -> np.ndarray:
    K = obsmat.K
    if K > 2048:
        raise ValueError("dense Gram assembly capped at K = 2048")
    return FactoredGram(Ceps, obsmat, sigma2)(np.eye(K))


def gram_condition(Ceps, obsmat: ObservationMatrix, sigma2: float) -> float:
    ev = dense_eigvals(gram_matrix(Ceps, obsmat, None, sigma2))
    return float(ev[-1] / ev[0])


def predict_at(system: WaveletSystem, curve: CurveSpec, mu: np.ndarray,
               targets: np.ndarray, resolution: int | None = None) -> np.ndarray:
    """Field prediction at parameter points (snapped to a dyadic grid).

    The parameter-domain expansion, evaluated at the snapped targets only,
    is divided by the arc-length weight, matching the pairing in which the
    coefficients were estimated.  Cost O(p + len(targets) * support).
    """
    res = system.index_set_for_dim(len(mu)).J + 5 if resolution is None else resolution
    pos = np.round(np.asarray(targets, dtype=float) % 1.0 * 2**res).astype(int) % 2**res
    return system.synthesize_at(mu, pos, res) / curve.weight_t(pos / float(2**res))
