import numpy as np
import pytest

from wavegrf.linalg import (SparseSymMatrix, _require_symmetric, cg_solve,
                            condition_number, dense_bounds, dense_eigvals,
                            lanczos_extremes, precondition, sym_function)
from wavegrf.wavelets import LevelIndexSet
from scipy import sparse


def test_sparse_sym_matrix_checks():
    M = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    S = SparseSymMatrix(M)
    assert S.nnz == 4
    np.testing.assert_allclose(S @ np.array([1.0, 1.0]), [3.0, 4.0])
    with pytest.raises(ValueError):
        SparseSymMatrix(sparse.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]])))
    with pytest.raises(ValueError):
        SparseSymMatrix(sparse.csr_matrix(np.ones((2, 3))))


def test_precondition_identity_and_cancellation():
    idx = LevelIndexSet(2, 4)
    A = np.diag(np.power(4.0, -idx.level_of_position().astype(float)))
    same = precondition(A, idx, 0.0)
    np.testing.assert_array_equal(same, A)
    ones = precondition(A, idx, 1.0)
    np.testing.assert_allclose(np.diag(ones), 1.0)
    with pytest.raises(ValueError):
        precondition(A[:3], idx, 1.0)


def test_precondition_sparse_matches_dense():
    idx = LevelIndexSet(2, 3)
    rng = np.random.default_rng(0)
    A = rng.standard_normal((idx.p, idx.p))
    A = A + A.T
    S = SparseSymMatrix(sparse.csr_matrix(A))
    out = precondition(S, idx, 0.75)
    np.testing.assert_allclose(out.to_dense(), precondition(A, idx, 0.75))


def test_cg_identity_one_iteration():
    res = cg_solve(np.eye(5), np.arange(1.0, 6.0), tol=1e-12)
    assert res.iterations == 1
    np.testing.assert_allclose(res.x, np.arange(1.0, 6.0))
    assert res.converged


def test_cg_diagonal_closed_form():
    A = np.diag(np.arange(1.0, 11.0))
    res = cg_solve(A, np.ones(10), tol=1e-12)
    np.testing.assert_allclose(res.x, 1.0 / np.arange(1.0, 11.0), atol=1e-10)


def test_cg_iteration_bound():
    """Iterations to drive the A-norm error to 1e-8 stay below the
    Chebyshev estimate ceil(ln(2e8)/ln((sqrt(k)+1)/(sqrt(k)-1))) + 2.
    CG from zero is deterministic, so ``max_iter=k`` returns its k-th iterate."""
    rng = np.random.default_rng(1)
    for kappa in (10.0, 100.0, 1000.0):
        n = 400
        lam = np.linspace(1.0, kappa, n)
        A = np.diag(lam)
        x_true = rng.standard_normal(n)
        b = lam * x_true
        xa_true = np.sqrt(x_true @ (lam * x_true))

        def a_norm_error(k):
            e = cg_solve(A, b, tol=1e-14, max_iter=k).x - x_true
            return np.sqrt(e @ (lam * e))

        target = 1e-8 * xa_true
        iters_needed = next(k for k in range(1, n + 1) if a_norm_error(k) <= target)
        rho = (np.sqrt(kappa) + 1) / (np.sqrt(kappa) - 1)
        bound = int(np.ceil(np.log(2e8) / np.log(rho))) + 2
        assert iters_needed <= bound


def test_cg_a_norm_monotone():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = Q @ np.diag(np.linspace(0.5, 15.0, 40)) @ Q.T
    b = rng.standard_normal(40)
    x_star = np.linalg.solve(A, b)
    errs = []
    for k in range(1, cg_solve(A, b, tol=1e-13).iterations + 1):
        x = cg_solve(A, b, tol=1e-13, max_iter=k).x          # the k-th iterate
        errs.append((x - x_star) @ A @ (x - x_star))
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("tol", [0.0, 1.0, 2.0])
def test_cg_refuses_tolerance_outside_0_1(tol):
    """At tol >= 1 the start x = 0 meets ``|r| <= tol |b|`` already."""
    with pytest.raises(ValueError, match="tol"):
        cg_solve(np.eye(3), np.ones(3), tol=tol)


def test_cg_breakdown_on_indefinite():
    A = np.diag([1.0, -1.0])
    with pytest.raises(np.linalg.LinAlgError, match="not SPD"):
        cg_solve(A, np.array([1.0, 1.0]), tol=1e-10)


def test_cg_rejects_nonfinite():
    def bad(v):
        return np.full_like(v, np.nan)
    with pytest.raises(FloatingPointError):
        cg_solve(bad, np.ones(3), tol=1e-10)
    with pytest.raises(FloatingPointError):         # from the preconditioner too
        cg_solve(np.eye(3), np.ones(3), tol=1e-10, precond=bad)


def _plain_cg_reference(A, b, tol, max_iter):
    """The unpreconditioned loop as it was before ``precond`` existed: the
    reference that ``precond=None`` must follow bit for bit."""
    x, r = np.zeros_like(b), b.copy()
    p, rs, bn = r.copy(), float(r @ r), np.sqrt(float(b @ b))
    check, it = max(tol, np.finfo(float).eps) * bn, 0
    while True:
        if np.sqrt(rs) <= check or it >= max_iter:
            r = b - A @ x
            rs = float(r @ r)
            if np.sqrt(rs) <= tol * bn or it >= max_iter:
                break
            p = r.copy()
        Ap = A @ p
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    return x, it, float(np.sqrt(rs) / bn)


@pytest.mark.parametrize("tol,max_iter", [(1e-10, 400), (1e-300, 150), (1e-8, 7)])
def test_cg_without_preconditioner_keeps_plain_iterates(tol, max_iter):
    """``precond=None`` is plain CG, bit for bit, through the restarts on the
    true residual (tol 1e-300) and at the iteration cap."""
    rng = np.random.default_rng(21)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    A = Q @ np.diag(np.geomspace(1e-3, 1.0, 60)) @ Q.T
    A = (A + A.T) / 2.0
    b = rng.standard_normal(60)
    x, it, residual = _plain_cg_reference(A, b, tol, max_iter)
    res = cg_solve(A, b, tol=tol, max_iter=max_iter)
    assert np.array_equal(res.x, x)
    assert (res.iterations, res.residual) == (it, residual)


def test_pcg_reports_the_true_residual():
    """With a preconditioner, ``converged`` and ``residual`` still measure
    ``b - A x``, converged or stopped at the cap, and a good preconditioner
    cuts the iterations."""
    rng = np.random.default_rng(22)
    Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    scale = np.geomspace(1.0, 1e3, 80)
    A = scale[:, None] * (Q @ np.diag(np.linspace(1.0, 3.0, 80)) @ Q.T) * scale[None, :]
    A = (A + A.T) / 2.0
    b = rng.standard_normal(80)

    def jacobi(r):
        return r / np.diag(A)

    def true_residual(x):
        return np.linalg.norm(b - A @ x) / np.linalg.norm(b)

    res = cg_solve(A, b, tol=1e-10, precond=jacobi)
    assert res.converged and res.residual <= 1e-10
    assert res.residual == pytest.approx(true_residual(res.x), rel=1e-12)
    assert res.iterations < cg_solve(A, b, tol=1e-10).iterations
    capped = cg_solve(A, b, tol=1e-10, max_iter=3, precond=jacobi)
    assert not capped.converged
    assert capped.residual == pytest.approx(true_residual(capped.x), rel=1e-12)
    assert capped.residual > 1e-10


@pytest.mark.parametrize("precond", [lambda r: -r, lambda r: 0.0 * r,
                                     lambda r: r * np.array([1.0, -4.0])])
def test_pcg_refuses_an_indefinite_preconditioner(precond):
    """``r^T M^-1 r <= 0`` for a nonzero residual raises."""
    A = np.diag([1.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError, match="preconditioner is not SPD"):
        cg_solve(A, np.array([1.0, 1.0]), tol=1e-10, precond=precond)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_cg_rejects_inf_where_search_direction_is_zero():
    """An inf in ``A p`` opposite a zero of ``p`` still reaches ``p^T A p``."""
    def bad(v):
        out = v.copy()
        out[1] = np.inf
        return out
    with pytest.raises(FloatingPointError):
        cg_solve(bad, np.array([1.0, 0.0, 1.0]), tol=1e-10)


def test_lanczos_small_exact():
    b = lanczos_extremes(np.diag([1.0, 2.0, 3.0]))
    assert b.lambda_min == pytest.approx(1.0, abs=1e-10)
    assert b.lambda_max == pytest.approx(3.0, abs=1e-10)
    bi = lanczos_extremes(np.eye(6))
    assert bi.lambda_min == pytest.approx(1.0) and bi.lambda_max == pytest.approx(1.0)


def test_lanczos_matches_dense_on_wavelet_matrix(model):
    m = model("matern12", 2, 6, 256)
    R = precondition(m.wavelet_dense, m.idx, m.order.ra)
    lz = lanczos_extremes(R, tol=1e-10)
    dn = dense_bounds(R)
    assert abs(lz.lambda_max - dn.lambda_max) <= 1e-6 * dn.lambda_max
    assert abs(lz.lambda_min - dn.lambda_min) <= 1e-6 * dn.lambda_min
    # deterministic given the seed
    lz2 = lanczos_extremes(R, tol=1e-10)
    assert lz.lambda_min == lz2.lambda_min and lz.lambda_max == lz2.lambda_max


def test_condition_number_paths():
    A = np.diag(np.linspace(1.0, 50.0, 64))
    assert condition_number(A) == pytest.approx(50.0, rel=1e-10)
    with pytest.raises(np.linalg.LinAlgError):
        condition_number(np.diag([1.0, 0.0]))


def test_sym_function():
    np.testing.assert_allclose(sym_function(np.eye(4), np.sqrt), np.eye(4))
    np.testing.assert_allclose(sym_function(np.diag([4.0]), np.sqrt), [[2.0]])
    rng = np.random.default_rng(3)
    B = rng.standard_normal((30, 30))
    A = B @ B.T + np.eye(30)
    S = sym_function(A, np.sqrt)
    assert np.linalg.norm(S @ S - A, 2) <= 1e-10 * np.linalg.norm(A, 2)
    # the identity map gives A back; a trusted SparseSymMatrix is taken as is
    np.testing.assert_allclose(sym_function(A, lambda lam: lam), A,
                               rtol=0, atol=1e-10 * np.abs(A).max())
    As = SparseSymMatrix(sparse.csr_matrix(A))
    assert np.array_equal(sym_function(As, np.sqrt), S)
    with pytest.raises(ValueError):
        sym_function(np.array([[1.0, 2.0], [0.0, 1.0]]), np.sqrt)
    with pytest.raises(ValueError):
        dense_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.filterwarnings("ignore:One of rtol or atol is not valid")
def test_symmetry_check_verdicts_match_the_tolerance_test():
    """The exact-equality fast path of ``_require_symmetric`` accepts and
    refuses what the tolerance test alone does, NaN and inf included."""
    def tolerant(M):
        return np.allclose(M, M.T, atol=1e-12 * max(1.0, np.abs(M).max()))
    base = np.array([[2.0, 1.0], [1.0, 3.0]])
    cases = [base, base + [[0.0, 1e-14], [0.0, 0.0]], base + [[0.0, 1.0], [0.0, 0.0]]]
    for a, b in ((np.inf, np.inf), (np.inf, -np.inf), (np.nan, np.nan), (np.inf, 1.0)):
        M = base.copy()
        M[0, 1], M[1, 0] = a, b
        cases += [M, np.diag([a, 1.0])]
    for M in cases:
        if tolerant(M):
            assert _require_symmetric(M) is M
        else:
            with pytest.raises(ValueError):
                _require_symmetric(M)


def test_dense_bounds_of_preconditioned_match_eigvalsh(model):
    """The trusted sparse matrix skips the symmetry scan and gives the very
    extremes of ``eigvalsh`` on its dense copy."""
    m = model("matern12", 2, 6, 256)
    ev = np.linalg.eigvalsh(m.preconditioned.to_dense())
    b = dense_bounds(m.preconditioned)
    assert b.lambda_min == ev[0] and b.lambda_max == ev[-1]
    assert np.array_equal(dense_eigvals(m.preconditioned), ev)


def test_nested_section_condition_monotone(model):
    """Leading principal sections of the preconditioned matrix cannot be
    worse conditioned than the full matrix (spectra interlace)."""
    m = model("matern12", 2, 6, 256)
    R = precondition(m.wavelet_dense, m.idx, m.order.ra)
    full = condition_number(R)
    for p_sub in (32, 64, 128):
        sub = condition_number(R[:p_sub, :p_sub])
        assert sub <= full * (1 + 1e-12)


def test_tapered_spectrum_within_widened_interval(model):
    """Weyl: the tapered preconditioned spectrum sits inside the exact one
    widened by the preconditioned consistency-error norm."""
    m = model("matern12", 2, 6, 256)
    R = precondition(m.wavelet_dense, m.idx, m.order.ra)
    Re = m.preconditioned.to_dense()
    widen = np.linalg.norm(R - Re, 2)
    ev = dense_eigvals(R)
    eve = dense_eigvals(Re)
    assert eve[0] >= ev[0] - widen - 1e-12
    assert eve[-1] <= ev[-1] + widen + 1e-12


def test_dense_symmetric_eigensolves_live_in_linalg():
    """``np.linalg.eigh``/``eigvalsh`` are called from ``linalg`` only; every
    other module goes through ``dense_eigvals``, ``dense_bounds`` or
    ``sym_function``."""
    import ast
    from pathlib import Path

    import wavegrf
    found = []
    for path in sorted(Path(wavegrf.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
