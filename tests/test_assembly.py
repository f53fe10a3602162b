import numpy as np
import pytest

from wavegrf import assembly, curves, kernels, wavelets
from wavegrf.assembly import assemble_single_scale, to_wavelet_coordinates


@pytest.fixture(scope="module")
def unit_circle():
    return curves.normalize_to_unit_diameter(curves.circle(1.0))


def test_constant_kernel_is_rank_one(unit_circle):
    """With kernel = 1 the matrix separates: A = v v^T, v_k = int phi_k w."""
    A = assemble_single_scale(unit_circle, lambda z: np.ones_like(z), 4, j0=2)
    ev = np.linalg.eigvalsh(A)
    assert abs(ev[-2]) <= 1e-12 * ev[-1]
    N = 32
    tt = np.linspace(0, 1, 40001)
    v = np.empty(N)
    for k in range(N):
        hat = np.maximum(0, 1 - np.abs((tt * N - k + N / 2) % N - N / 2)) * 2 ** 2.5
        v[k] = np.trapezoid(hat * unit_circle.weight_t(tt), tt)
    assert np.abs(A - np.outer(v, v)).max() <= 1e-8 * np.abs(A).max()


def test_symmetry_exact(unit_circle):
    A = assemble_single_scale(unit_circle, kernels.KernelSpec(0.5, 1.0), 4)
    assert np.array_equal(A, A.T)


def test_refined_quadrature_oracle_on_circle(unit_circle):
    """Standard settings agree with a much finer quadrature to 1e-8."""
    kern = kernels.KernelSpec(0.5, 1.0)
    A = assemble_single_scale(unit_circle, kern, 4, q=8)
    A_fine = assemble_single_scale(unit_circle, kern, 4, q=16)
    assert np.abs(A - A_fine).max() <= 1e-8 * np.abs(A_fine).max()


@pytest.mark.parametrize("nu,tol", [(0.5, 1e-7), (1.5, 1e-9), (2.5, 1e-9)])
# tolerances are the contract ceilings; the panel rule is converged far below
def test_quadrature_convergence_in_order(unit_circle, nu, tol):
    """Doubling the Gauss order changes entries below the stated level."""
    kern = kernels.KernelSpec(nu, 1.0)
    A8 = assemble_single_scale(unit_circle, kern, 4, q=8)
    A16 = assemble_single_scale(unit_circle, kern, 4, q=16)
    assert np.abs(A8 - A16).max() <= tol


def test_single_scale_spd(model):
    for kname in ("matern12", "matern32"):
        m = model(kname, 2, 6 if kname == "matern12" else 8, 128)
        ev = np.linalg.eigvalsh(m.single_scale)
        assert ev[0] > 0


def test_wavelet_transform_congruence_roundtrip(model):
    m = model("matern12", 2, 6, 128)
    A = m.single_scale
    C = to_wavelet_coordinates(m.system, A)
    # inverse congruence: ifwt_dual on both sides
    back = m.system.ifwt_dual(m.system.ifwt_dual(C).T)
    assert np.abs(back - A).max() <= 1e-12 * np.abs(A).max()
    # congruence preserves definiteness
    assert np.linalg.eigvalsh(C)[0] > 0


def test_wavelet_diagonal_level_decay(model):
    """Level means of the diagonal drop by about 2^|r| = 4 for nu = 1/2."""
    m = model("matern12", 2, 6, 256)
    diag = np.diag(m.wavelet_dense)
    means = [np.mean(diag[m.idx.level_slice(j)]) for j in m.idx.levels]
    for a, b in zip(means[1:-1], means[2:]):
        assert a / b == pytest.approx(4.0, rel=0.2)


def test_far_field_entry_smallness_and_level_scaling():
    """Disjoint-support entries obey the vanishing-moment estimate.

    For these analytic kernels the far-field entries sit many orders below
    the bound's algebraic distance profile (no distance-slope regime is
    observable in floating point), so the verifiable content is (a) absolute
    smallness at the 2^-(j+j')(dt+n/2) scale and (b) that scale's decay by
    roughly 2^-(2dt+1) per level.
    """
    curve = curves.normalize_to_unit_diameter(curves.paper_boundary())
    sys_ = wavelets.get_system(2, 4)
    kern = kernels.KernelSpec(0.5, 1.0)
    dt = 4
    maxima = {}
    for J in (4, 5, 6):
        idx = sys_.index_set(J)
        n = idx.level_sizes[J]
        h = 2.0 ** (-J)
        sl = idx.level_slice(J)
        ks = [kp for kp in range(n) if min(kp % n, (-kp) % n) * h - 5 * h > 0.05]
        S = to_wavelet_coordinates(sys_, assemble_single_scale(curve, kern, J, q=10))
        vals = np.array([abs(S[sl.start, sl.start + kp]) for kp in ks])
        maxima[J] = vals.max()
        # absolute smallness at the moment scale (constant accounts for the
        # (2 dt)!-type growth of high kernel derivatives)
        assert vals.max() <= 3e4 * 2.0 ** (-2 * J * (dt + 0.5))
    for J in (4, 5):
        assert maxima[J + 1] / maxima[J] <= 4.0 * 2.0 ** (-(2 * dt + 1))


#: r(phi) = 1 + 0.9 cos(2 phi): the neck is 0.1 / 1.9 of the length, and the
#: two sides of the neck are half the curve apart in parameter
PEANUT = curves.CurveSpec(kind="fourier", cos_coeffs=(1, 0, 90, 0, 0, 0),
                          sin_coeffs=(0, 0, 0, 0, 0))


def test_fused_radius_series_gives_the_separate_floats():
    """``xy_weight_t`` evaluates each sin(k phi), cos(k phi) once for both g
    and g'; its points and weights are exactly ``xy_t`` and ``weight_t``, and
    g' is exactly the term-by-term derivative series."""
    t = np.linspace(0.0, 1.0, 1001)
    phi = 2.0 * np.pi * t
    for curve in (curves.paper_boundary(), curves.circle(1.0), PEANUT):
        curve = curves.normalize_to_unit_diameter(curve)
        xy, w = curve.xy_weight_t(t)
        assert np.array_equal(xy, curve.xy_t(t)) and np.array_equal(w, curve.weight_t(t))
        g, dg = curve.radius_and_deriv(phi)
        ref = np.zeros_like(phi)
        for k, (a, b) in enumerate(zip(curve.cos_coeffs[1:], curve.sin_coeffs), start=1):
            ref = ref + 0.01 * k * (b * np.cos(k * phi) - a * np.sin(k * phi))
        assert np.array_equal(g, curve.radius_at(phi)) and np.array_equal(dg, ref)


def _einsum_reference(curve, kernel, J, q=8):
    """Full-grid assembly: every cell pair at order q, eight row cells at a
    time; squared distances from two outer differences, the hat weights
    contracted by two matmuls."""
    inter = assembly.CellInteractions(curve, kernel, J + 1, q=q)
    pts, uwb = inter.panel(q)
    N = inter.N
    x, y = pts[..., 0].ravel(), pts[..., 1].ravel()
    A = np.zeros((N, N))
    cols = np.arange(N)
    for rows in np.array_split(cols, max(1, N // 8)):
        m, pr = len(rows), slice(rows[0] * q, (rows[-1] + 1) * q)
        r = np.subtract.outer(x[pr], x) ** 2
        r += np.subtract.outer(y[pr], y) ** 2
        K = inter.kern(np.sqrt(r, out=r)).reshape(m, q, N, q)
        K[np.arange(m), :, rows, :] = 0.0                          # self pairs
        T = uwb[rows].transpose(0, 2, 1) @ K.reshape(m, q, N * q)   # (m, 2, N q)
        blk = (T.reshape(2 * m, N, q).transpose(1, 0, 2) @ uwb).reshape(N, m, 2, 2)
        for i in (0, 1):
            for j in (0, 1):
                A[np.ix_((rows + i) % N, (cols + j) % N)] += blk[:, :, i, j].T
    blk = inter.self_blocks
    for i in (0, 1):
        for j in (0, 1):
            np.add.at(A, ((cols + i) % N, (cols + j) % N), blk[:, i, j])
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("nu,ell,p", [(nu, ell, p) for nu in (0.5, 1.5, 2.5)
                                      for ell in (0.05, 1.0)
                                      for p in (16, 64, 256, 512, 1024)])
def test_single_scale_matches_einsum_reference(nu, ell, p):
    """The upper-triangle Phi^T K Phi assembly, with its lower far-field
    order, equals the full-grid order-8 einsum assembly to 1e-13 of the
    largest entry, on the paper boundary, the unit circle and a peanut with
    a narrow neck, and is exactly symmetric.  p = 16 keeps order 8 for
    ell = 0.05; from p = 64 on the 16-cell row chunks split the cells, the
    last one wrapping onto hat 0."""
    kern = kernels.KernelSpec(nu, ell)
    J = int(np.log2(p)) - 1
    for curve in (curves.paper_boundary(), curves.circle(1.0), PEANUT):
        curve = curves.normalize_to_unit_diameter(curve)
        A = assemble_single_scale(curve, kern, J)
        ref = _einsum_reference(curve, kern, J)
        assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(A, A.T)


class CountingKernel:
    """Matern kernel that counts the distances it is evaluated at."""

    def __init__(self, nu, ell):
        self.spec = kernels.KernelSpec(nu, ell)
        self.evaluations = 0

    def __call__(self, z):
        self.evaluations += np.size(z)
        return self.spec(z)


def test_kernel_evaluations_cut_threefold():
    """At p = 512 every kernel evaluation of an assembly (probe and self
    blocks included) is counted against the order-8 count of the pair loop
    it replaced: sum over chunks of chunk * (N - s) * q^2 cell-pair points,
    with chunk = 2^22 / (N q^2) cells."""
    curve = curves.normalize_to_unit_diameter(curves.paper_boundary())
    kern = CountingKernel(0.5, 1.0)
    A = assemble_single_scale(curve, kern, 8)
    N, q = 512, 8
    chunk = (1 << 22) // (N * q * q)
    before = sum(chunk * (N - s) * q * q for s in range(0, N, chunk))
    assert 3 * kern.evaluations <= before
    assert np.array_equal(A, assemble_single_scale(curve, kern.spec, 8))


def test_far_order_follows_cell_size_against_ell():
    """A smoother kernel at a shorter correlation length needs a higher
    plain-panel order than matern12 at ell = 1; neither needs order 8."""
    curve = curves.normalize_to_unit_diameter(curves.paper_boundary())
    def order(nu, ell):
        return assembly.CellInteractions(curve, kernels.KernelSpec(nu, ell), 9).far_order()
    assert order(0.5, 1.0) < order(2.5, 0.05) < 8


def test_far_order_probe_pairs_across_a_neck():
    """The folded probe pair of a cell at the neck is the cell on the other
    side (half the curve on); on a circle it is the opposite cell."""
    kern = kernels.KernelSpec(0.5, 1.0)
    for curve in (PEANUT, curves.circle(1.0)):
        inter = assembly.CellInteractions(curves.normalize_to_unit_diameter(curve), kern, 8)
        neck = np.array([63, 64, 191, 192])             # cells at t = 1/4 and 3/4
        assert np.all(np.abs((inter.folded_partners()[neck] - neck) % 256 - 128) <= 1)


def test_assembly_rejects_bad_level(unit_circle):
    with pytest.raises(ValueError):
        assemble_single_scale(unit_circle, kernels.KernelSpec(0.5, 1.0), 1, j0=2)


def test_transform_requires_square():
    sys_ = wavelets.get_system(2, 6)
    with pytest.raises(ValueError):
        to_wavelet_coordinates(sys_, np.ones((8, 16)))
