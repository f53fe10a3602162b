"""Sparse posterior-mean prediction from noisy local averages.

Thirty-two box-average observations around the curve feed a conjugate
gradient solve on the Gram system, formed from sparse factors only: the
tapered covariance and the wavelet-coordinate observation matrix, whose
O(log p) nonzeros per functional come from the locality of the wavelets.
The 32 x 32 Gram is formed once by three CSR products and kept for further
data vectors.  The result matches the dense-oracle posterior mean and nearly
interpolates the data when the noise is small.
"""

import numpy as np

from wavegrf import (GrfSampler, build_contour, build_observation_matrix,
                     dense_bounds, equispaced_observations, posterior_mean,
                     posterior_mean_dense, predict_at)
from wavegrf.pipeline import CovarianceModel

m = CovarianceModel(kernel="matern12", wavelet=(2, 6), p=256)
sigma2 = 1e-4
obs = equispaced_observations(32, 4.0 / 256, sigma2)
om = build_observation_matrix(m.system, obs, m.idx.J, m.curve)
print("observation matrix: single-scale nnz", om.G_single.nnz,
      f"({om.G_single.nnz / 32:.0f} per functional), wavelet nnz", om.G.nnz,
      f"({om.G.nnz / 32:.0f} per functional)")

q = build_contour(dense_bounds(m.preconditioned), 40)
truth = GrfSampler(m.tapered, m.idx, m.order.ra, q).draw(seed=11)
rng = np.random.default_rng(12)
y = om.G @ truth.coefficients + np.sqrt(sigma2) * rng.standard_normal(32)

mu, res = posterior_mean(m.tapered, om, m.system, y, sigma2, cg_tol=1e-11)
oracle = posterior_mean_dense(m.tapered.to_dense(), om.G, y, sigma2)
print(f"CG iterations: {res.iterations}   CG-vs-dense-oracle rel err: "
      f"{np.linalg.norm(mu - oracle) / np.linalg.norm(oracle):.2e}")

pred = predict_at(m.system, m.curve, mu, obs.centers)
print("max |prediction - datum| / scale:",
      float(np.max(np.abs(pred - y)) / np.abs(y).max()))
print("first five (datum, prediction) pairs:")
for yi, pi in list(zip(y, pred))[:5]:
    print(f"  {yi:+.4f}  {pi:+.4f}")
