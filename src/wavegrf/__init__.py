"""Sparse multiscale representation of Gaussian random fields on closed curves.

Covariance operators of Matern-type fields are assembled in periodic
biorthogonal spline wavelet coordinates, where they admit an a-priori
sparsity pattern with O(p) entries, level-diagonal preconditioning with
p-independent condition numbers, exponentially convergent sampling through
a rational matrix square root, multilevel Monte Carlo covariance
estimation, and posterior-mean prediction in near-linear complexity.
"""

__version__ = "0.1.0"

from .curves import (CurveSpec, circle, paper_boundary, distance, diameter,
                     normalize_to_unit_diameter)
from .kernels import (KernelSpec, OperatorOrder, CircleSpectrum, eval_kernel,
                      kernel_from_name, operator_order)
from .wavelets import LevelIndexSet, WaveletSystem, get_system, diag_scaling
from .assembly import assemble_single_scale, to_wavelet_coordinates
from .compression import (CompressionParams, TaperPattern, taper_params,
                          build_pattern, apply_pattern, aposteriori_threshold)
from .linalg import (SparseSymMatrix, SpectralBounds, CgResult, precondition,
                     cg_solve, lanczos_extremes, dense_bounds,
                     condition_number, sym_function)
from .elliptic import elliptic_complete, jacobi_sn_cn_dn
from .sampling import (ContourQuadrature, GrfSample, GrfSampler, build_contour,
                       apply_sqrt)
from .mlmc import (SampleSchedule, schedule, GaussianCoefficientSource,
                   CsvSampleSource, MlmcEstimate, estimate, error_report)
from .kriging import (ObservationSet, ObservationMatrix,
                      equispaced_observations, build_observation_matrix,
                      posterior_mean, posterior_mean_dense, gram_matrix,
                      predict_at)
from .pipeline import CovarianceModel, default_wavelet_for
