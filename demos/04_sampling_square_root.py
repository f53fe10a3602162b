"""Field simulation through the rational matrix square root.

The square root of the preconditioned tapered covariance is approximated by
K shifted inverses with elliptic-function nodes; the error decays
exponentially in K at a rate set only by the (p-independent) condition
number, and misjudging that condition number twofold is benign.
"""

import numpy as np

from wavegrf import GrfSampler, build_contour, dense_bounds
from wavegrf.linalg import SpectralBounds
from wavegrf.pipeline import CovarianceModel

m = CovarianceModel(kernel="matern12", wavelet=(2, 6), p=256)
ev = np.linalg.eigvalsh(m.preconditioned.to_dense())
sq = np.sqrt(ev)
print(f"preconditioned spectrum: [{ev[0]:.3f}, {ev[-1]:.3f}]  "
      f"(condition {ev[-1] / ev[0]:.1f})")

print("\nsquare-root error vs node count:")
for K in (4, 8, 12, 16, 20, 40):
    q = build_contour(SpectralBounds(ev[0], ev[-1]), K)
    err = np.max(np.abs(q.scalar_values(ev) - sq)) / sq.max()
    print(f"  K={K:2d}: {err:.2e}")

q = build_contour(dense_bounds(m.preconditioned), 30)
sampler = GrfSampler(m.tapered, m.idx, m.order.ra, q)
z = sampler.draw(seed=7)
field = m.system.synthesize_on_grid(z.coefficients, m.idx.J + 4)
print("\none draw: coefficient vector of length", len(z.coefficients))
print("synthesized field on a dyadic grid:", field.shape,
      f"range [{field.min():.3f}, {field.max():.3f}]")
print("per-level coefficient norms (decay ~ 2^-(ra - 1/2) per level):")
for j in m.idx.levels:
    print(f"  level {j}: {np.linalg.norm(z.coefficients[m.idx.level_slice(j)]):.3e}")
