"""Posterior-mean spatial prediction from noisy local-average observations.

Observations are box averages on the curve (unit mass against the surface
measure, pairwise disjoint supports).  With coefficient vector ``z`` of the
field in the dual expansion, the data model is ``y = G z + eta`` where
``G[i, lam]`` pairs the i-th functional with the lam-th dual basis function;
in parameter coordinates this is a plain unweighted integral, computed in
the single-scale dual basis and pushed to wavelet coordinates by the fast
transform.  The posterior mean

    mu = C G^T (G C G^T + sigma^2 I)^(-1) y

is evaluated by preconditioned CG on the Gram system.  ``G`` is CSR with
O(K log p) nonzeros (wavelets are local), one sparse transform of the banded
single-scale rows: no p x K array.  The Gram, kept with its preconditioner
for the last (C_eps, G, sigma^2) compared by identity, is the dense K x K
array up to ``linalg.DENSE_MAX_P`` observations; above it each iteration is
three CSR products and no K^2 array is formed.

On both sides the preconditioner is the paper's diagonal scaling, applied on
the observation side: the K observations, sorted by center, are the first K
single-scale slots of a length-K_pad wavelet system, and
``M^-1 = S D^-1 S^T`` with ``S`` those K rows of the dual synthesis and ``D``
one Rayleigh quotient of the Gram per level.  The Gram is then a covariance
section in wavelet coordinates, so the iterations stop growing with K and
1/sigma^2.  ``S`` is CSR with O(K log K) nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import linalg
from .curves import CurveSpec
from .linalg import CgResult, cg_solve
from .wavelets import WaveletSystem

#: dyadic refinements of a fine cell in the observation quadrature
OVERSAMPLE = 6
#: Gram probe columns per wavelet level of the preconditioner's diagonal
PROBES = 4
#: (C_eps, G, sigma2, Gram, its preconditioner or None) of the last Gram, rebound
#: whole by ``_kept`` (racing threads at worst form it twice); holding the
#: matrices keeps their ids in use
_GRAM: tuple = (None, None, None, None, None)


@dataclass(frozen=True)
class ObservationSet:
    """K disjoint box-average functionals with i.i.d. Gaussian noise."""

    centers: np.ndarray            # parameter positions in [0, 1)
    widths: np.ndarray             # parameter widths
    sigma2: float

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        w = np.asarray(self.widths, dtype=float)
        if not 0 < self.sigma2 < np.inf:
            raise ValueError("noise variance must be positive and finite "
                             "(noise-free kriging is out of scope)")
        if not len(c) or len(c) != len(w) or not np.all(np.isfinite(c) & (w > 0)):
            raise ValueError("need at least one finite center and one positive width per center")
        c = c % 1.0
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "widths", w)
        if np.sum(w) > 1.0 + 1e-12:
            raise ValueError("observation supports overlap")
        # room from each sorted start to the next, the last one wrapping round
        order = np.argsort((c - w / 2.0) % 1.0)
        starts = ((c - w / 2.0) % 1.0)[order]
        room = np.append(np.diff(starts), 1.0 - (starts[-1] - starts[0]))
        if np.any(w[order] > room + 1e-12):
            raise ValueError("observation supports overlap")

    @property
    def K(self) -> int:
        return len(self.centers)


def equispaced_observations(K: int, width: float, sigma2: float) -> ObservationSet:
    centers = (np.arange(K) + 0.5) / K
    return ObservationSet(centers=centers, widths=np.full(K, width), sigma2=sigma2)


@dataclass
class ObservationMatrix:
    G_single: sparse.csr_matrix     # K x N against the dual single-scale basis
    G: sparse.csr_matrix            # K x p against the dual wavelets, O(K log p) nnz
    rank: np.ndarray                # rank of each observation's center: its slot

    def __post_init__(self):            # read-only: the kept Gram keys on G itself
        linalg.read_only(self.G_single)
        linalg.read_only(self.G)

    @property
    def K(self) -> int:
        return self.G.shape[0]


def build_observation_matrix(system: WaveletSystem, obs: ObservationSet,
                             J: int, curve: CurveSpec) -> ObservationMatrix:
    """Pairings of the observation functionals with the dual basis.

    Single-scale entries are composite trapezoid quadratures of the
    cascade-evaluated dual scaling function over each box (box endpoints are
    snapped to the quadrature grid), one per (box, translate) pair whose
    supports meet: a segment sum of the table over the nodes they share, less
    half the end values at a box end.  Wavelet rows follow by the fast
    transform.  Unit-mass normalization is against the surface measure of
    ``curve``.  Boxes must span at least one fine-level cell so the
    quadrature resolves them.
    """
    idx = system.index_set(J)
    L = J + 1
    N = 2**L
    if np.any(obs.widths < 2.0 ** (-L)):
        raise ValueError("observation width below one fine-level cell; "
                         "refine J or widen the functionals")
    phi, _ = system.scaling_values(dual=True, sweeps=OVERSAMPLE)
    per = 2**OVERSAMPLE
    tau = 2.0 ** (-L) / per                      # quadrature step
    # phi_{L,k}(t_n) = 2^{L/2} phi(n/per - k), tabulated index n - per*k - lo
    lo, n_tab = system.bank.lo_dual.start * per, len(phi)
    n0 = np.rint((obs.centers - obs.widths / 2.0) / tau).astype(int)
    n1 = np.rint((obs.centers + obs.widths / 2.0) / tau).astype(int)
    box, nodes, box_at = _ranges(n0, n1 + 1)     # trapezoid nodes of each box
    mass = np.add.reduceat(np.where((nodes == n0[box]) | (nodes == n1[box]), tau / 2.0, tau)
                           * curve.weight_t(nodes * tau), box_at)
    # translates k whose table meets the box; a..b the box ends as table indices
    pbox, k, _ = _ranges((n0 - lo - n_tab + per) // per, (n1 - lo) // per + 1)
    a, b = n0[pbox] - per * k - lo, n1[pbox] - per * k - lo
    a_in, b_in = np.maximum(a, 0), np.minimum(b, n_tab - 1)
    sums = np.add.reduceat(np.append(phi, 0.0), np.stack([a_in, b_in + 1], 1).ravel())[::2]
    sums -= np.where(a == a_in, phi[a_in] / 2.0, 0.0) + np.where(b == b_in, phi[b_in] / 2.0, 0.0)
    vals = 2.0 ** (L / 2.0) * (tau * sums) / mass[pbox]
    keep = np.abs(vals) > 1e-14
    rows, cols, vals = pbox[keep], k[keep] % N, vals[keep]
    G_single = sparse.coo_matrix((vals, (rows, cols)), shape=(obs.K, N)).tocsr()
    G = system.fwt(G_single.T).T.tocsr()
    rank = np.empty(obs.K, dtype=int)
    rank[np.argsort(obs.centers, kind="stable")] = np.arange(obs.K)
    return ObservationMatrix(G_single=G_single, G=G, rank=rank)


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

    def __call__(self, v: np.ndarray) -> np.ndarray:
        return self.G @ (self.C @ (self.GT @ v)) + self.sigma2 * v


def posterior_mean(Ceps, obsmat: ObservationMatrix, system: WaveletSystem,
                   y: np.ndarray, sigma2: float,
                   cg_tol: float = 1e-10) -> tuple[np.ndarray, CgResult]:
    """Kriging coefficients ``mu`` in dual coordinates and the CG record, whose
    ``x`` (the Gram solve, folded into ``mu``) is dropped, so a kept record
    holds no K-vector.  CG runs on the kept Gram, preconditioned by the kept
    ``WaveletPreconditioner`` over ``system``'s length-K_pad transforms."""
    if not 0 < sigma2 < np.inf:
        raise ValueError("sigma2 must be positive and finite")
    gram, precond = _kept(Ceps, obsmat, sigma2, system)
    res = cg_solve(gram, y, tol=cg_tol, max_iter=max(10 * obsmat.K, 200), precond=precond)
    mu = Ceps @ (obsmat.G.T @ res.x)
    res.x = None
    return mu, res


def _kept(Ceps, obsmat: ObservationMatrix, sigma2: float, system: WaveletSystem | None):
    """Gram and (given ``system``) preconditioner of (``Ceps``, ``G``, ``sigma2``),
    kept in ``_GRAM``, which only this writes.  The Gram is the dense read-only
    array up to ``linalg.DENSE_MAX_P`` observations, else the ``FactoredGram``."""
    global _GRAM
    C_kept, G_kept, sigma2_kept, gram, precond = _GRAM
    if not (C_kept is Ceps and G_kept is obsmat.G and sigma2_kept == sigma2):
        gram, precond = FactoredGram(Ceps, obsmat, sigma2), None
        if obsmat.K <= linalg.DENSE_MAX_P:
            gram = gram(np.eye(obsmat.K))
            gram.flags.writeable = False
    if precond is None and system is not None:
        precond = WaveletPreconditioner(system, obsmat.rank, gram)
    _GRAM = (Ceps, obsmat.G, sigma2, gram, precond)
    return gram, precond


class WaveletPreconditioner:
    """``r -> S D^-1 S^T r``, an SPD approximate inverse of a K x K Gram.

    Observation ``i`` sits at single-scale slot ``rank[i]`` of a length-K_pad
    system, K_pad the larger of the next power of two >= K and ``2^(j0+1)``.
    ``S`` (K x K_pad, CSR) holds those rows of the dual synthesis
    ``ifwt_dual``, so ``S^T`` is ``fwt`` of the embedded vector, and it has
    full row rank K.  ``D`` is constant on each level: the mean of ``s^T A s``
    over up to ``PROBES`` evenly spaced nonzero columns ``s`` of that level of
    ``S``, applied through ``gram`` (a K x K array, or an operator that takes
    (K, m) blocks).  ``r`` is a K-vector or a (K, m) block.
    """

    def __init__(self, system: WaveletSystem, rank: np.ndarray, gram):
        K = len(rank)
        idx = system.index_set_for_dim(max(1 << (K - 1).bit_length(), 2 ** (system.j0 + 1)))
        S = system.ifwt_dual(sparse.identity(idx.p, format="csr"))[rank]
        S.eliminate_zeros()
        live = np.flatnonzero(S.getnnz(axis=0))
        apply_gram = linalg._as_apply(gram)
        d = np.empty(idx.p)
        for j in idx.levels:                # slots 0..K-1 meet every level
            sl = idx.level_slice(j)
            cols = live[(live >= sl.start) & (live < sl.stop)]
            s = S[:, cols[::-(-len(cols) // PROBES)]].toarray()
            d[sl] = np.mean(np.sum(s * apply_gram(s), axis=0))
        self.ST = S.T.tocsr()
        self.S_over_d = (S @ sparse.diags(1.0 / d)).tocsr()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self.S_over_d @ (self.ST @ r)


def posterior_mean_dense(C: np.ndarray, G, y: np.ndarray,
                         sigma2: float) -> np.ndarray:
    """Direct dense evaluation of the posterior mean (validation oracle)."""
    C = np.asarray(C, dtype=float)
    G = G.toarray() if sparse.issparse(G) else np.asarray(G, dtype=float)
    CG = C @ G.T
    return CG @ np.linalg.solve(G @ CG + sigma2 * np.eye(G.shape[0]), np.asarray(y, dtype=float))


def gram_matrix(Ceps, obsmat: ObservationMatrix, sigma2: float) -> np.ndarray:
    """The dense ``G C G^T + sigma2 I``, read-only, kept by ``_kept`` for the read-only
    ``SparseSymMatrix`` ``Ceps`` and ``G`` (compared by identity) and ``sigma2``."""
    if obsmat.K > linalg.DENSE_MAX_P:
        raise ValueError(f"dense Gram assembly capped at K = {linalg.DENSE_MAX_P}")
    return _kept(Ceps, obsmat, sigma2, None)[0]


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
