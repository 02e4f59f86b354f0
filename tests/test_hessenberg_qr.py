import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

import rskrylov as rk
from rskrylov import BandedQr, HessenbergQr, SingularTriangularError
from rskrylov.hessenberg_qr import HessenbergQrWithQ, solve_upper


def hessenberg_from_arnoldi(A, seed, steps):
    state = rk.arnoldi_init(A, seed)
    cols = []
    for _ in range(steps):
        out = rk.arnoldi_step(state, A)
        cols.append(state.column(state.k - 1))
        if out == "breakdown":
            break
    return cols


def test_first_column_3_4():
    qr = HessenbergQr(1.0)
    tail = qr.append_column([3.0, 4.0])
    assert qr.rcols[0][0] == pytest.approx(5.0)
    row, c, s = qr.rotations[0]
    assert row == 0
    assert (c, s) == (pytest.approx(0.6), pytest.approx(0.8))
    assert tail == pytest.approx(0.8)
    assert qr.t[0] == pytest.approx(0.6)


def test_first_column_already_triangular():
    qr = HessenbergQr(1.0)
    tail = qr.append_column([2.5, 0.0])
    assert qr.rcols[0][0] == pytest.approx(2.5)
    assert tail == 0.0


def test_tail_zero_for_consistent_nonsingular_system():
    # Hessenberg columns from A = diag(1, 2) with seed (1,1)/sqrt(2).
    A = np.diag([1.0, 2.0])
    seed = np.array([1.0, 1.0]) / np.sqrt(2.0)
    cols = hessenberg_from_arnoldi(A, seed, 2)
    qr = HessenbergQr(1.0)
    for col in cols:
        tail = qr.append_column(col)
    assert tail <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_factorization_reconstructs_hessenberg(seed):
    rng = np.random.default_rng(seed)
    n = 15
    A = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    cols = hessenberg_from_arnoldi(A, v, 8)
    qr = HessenbergQr(float(np.linalg.norm(v)))
    for col in cols:
        qr.append_column(col)
    k = qr.k
    H = np.zeros((k + 1, k))
    for j, col in enumerate(cols):
        H[: len(col), j] = col
    Q = qr.q_matrix()
    R = np.vstack([qr.r_matrix(), np.zeros((1, k))])
    assert np.linalg.norm(H - Q @ R) <= 1e-12 * np.linalg.norm(H)
    assert np.linalg.norm(Q.T @ Q - np.eye(k + 1)) <= 1e-12
    # rotation i acts on rows (i, i + 1) and is unit-modulus
    for i, (row, c, s) in enumerate(qr.rotations):
        assert row == i
        assert c * c + s * s == pytest.approx(1.0)
    # diagonal of R is nonnegative
    assert np.all(np.diag(qr.r_matrix()) >= 0)


@pytest.mark.parametrize("seed", range(5))
def test_tail_matches_dense_least_squares(seed):
    rng = np.random.default_rng(seed + 100)
    n = 12
    A = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    beta = float(np.linalg.norm(v))
    cols = hessenberg_from_arnoldi(A, v, 7)
    qr = HessenbergQr(beta)
    for j, col in enumerate(cols):
        tail = qr.append_column(col)
        k = j + 1
        H = np.zeros((k + 1, k))
        for jj, cc in enumerate(cols[:k]):
            H[: len(cc), jj] = cc
        rhs = np.zeros(k + 1)
        rhs[0] = beta
        z, *_ = np.linalg.lstsq(H, rhs, rcond=None)
        resid = np.linalg.norm(rhs - H @ z)
        assert abs(tail - resid) <= 1e-10 * max(1.0, resid)
        assert_allclose(qr.solve(), z, atol=1e-10)


def test_solve_back_substitution():
    qr = HessenbergQr(3.0)
    qr.rcols = [np.array([1.0]), np.array([1.0, 2.0])]
    qr.t = [3.0, 4.0, 0.0]
    qr.rotations = [(0, 1.0, 0.0), (1, 1.0, 0.0)]
    assert_allclose(qr.solve(), [1.0, 2.0])


def test_solve_1x1():
    qr = HessenbergQr(6.0)
    qr.append_column([2.0, 0.0])
    assert_allclose(qr.solve(), [3.0])


def test_solve_singular_guard():
    qr = HessenbergQr(1.0)
    qr.rcols = [np.array([1.0]), np.array([0.5, 1e-16])]
    qr.t = [1.0, 1.0, 0.0]
    qr.rotations = [(0, 1.0, 0.0), (1, 1.0, 0.0)]
    with pytest.raises(SingularTriangularError):
        qr.solve()


def test_guard_reads_the_leading_block():
    qr = HessenbergQr(1.0)
    qr.rcols = [np.array([2.0]), np.array([0.5, 1.0]), np.array([0.1, 0.2, 1e-16])]
    qr.t = [2.0, 1.0, 1.0, 0.0]
    # Only the last pivot is tiny: the leading 2 x 2 block is well
    # conditioned, the full factor is not.
    assert_allclose(qr.solve(2), [0.75, 1.0])
    with pytest.raises(SingularTriangularError):
        qr.solve()
    # A new factor starts new extremes: its tiny leading pivot counts.
    qr.rcols = [np.array([1e-16]), np.array([0.5, 1.0])]
    with pytest.raises(SingularTriangularError):
        qr.solve()
    qr.rcols = [np.array([2.0]), np.array([0.5, 1.0])]
    assert_allclose(qr.solve(), [0.75, 1.0])


def test_solve_zero_pivot_raises_singular_error():
    for cols in ([np.array([0.0])], [np.array([1.0]), np.array([0.5, 0.0])]):
        qr = HessenbergQr(1.0)
        qr.rcols = cols
        qr.t = [1.0] * (len(cols) + 1)
        with pytest.raises(SingularTriangularError):
            qr.solve()
        with pytest.raises(SingularTriangularError):
            qr.apply_rinv(np.ones(len(cols)))


def _growing_factors(seed, k=30):
    """``(factor, columns)`` pairs: a HessenbergQr with Arnoldi columns and
    a BandedQr with random two-subdiagonal columns."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((40, 40))
    cols = hessenberg_from_arnoldi(A, rng.standard_normal(40), k)
    M = np.triu(rng.standard_normal((k + 2, k)), -2) + 4.0 * np.eye(k + 2, k)
    return [
        (HessenbergQr(1.0), cols),
        (BandedQr((1.0, 0.5)), [M[: j + 3, j] for j in range(k)]),
    ]


def _assert_close_rel(z, ref):
    assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("seed", range(3))
def test_solve_after_every_append_matches_back_substitution(seed):
    rng = np.random.default_rng(seed + 500)
    for qr, cols in _growing_factors(seed):
        for k, col in enumerate(cols, start=1):
            qr.append_column(col)
            R = qr.r_matrix()
            _assert_close_rel(qr.solve(k), solve_triangular(R, qr.t[:k]))
            if isinstance(qr, HessenbergQr):
                rhs = rng.standard_normal(k)
                _assert_close_rel(qr.apply_rinv(rhs, k), solve_triangular(R, rhs))
        # a leading block of the inverse solves a leading block of R
        size = qr.k // 2
        _assert_close_rel(
            qr.solve(size), solve_triangular(qr.r_matrix(size), qr.t[:size])
        )


@pytest.mark.parametrize("seed", range(3))
def test_single_final_solve_is_back_substitution(seed):
    for qr, cols in _growing_factors(seed):
        for col in cols:
            qr.append_column(col)
        R, t = qr.r_matrix(), np.asarray(qr.t[: qr.k])
        z = qr.solve()
        _assert_close_rel(z, solve_triangular(R, t))
        # the bits of back substitution, not of a product with R^{-1}
        assert np.array_equal(z, solve_upper(R, t))


def test_back_substitution_of_a_leading_block():
    # The change of basis of rsmar1 and the fallback solve hand solve_upper
    # the leading block of a reserved array, a strided view into a larger
    # array; past 32 rows it works in more than one block.
    rng = np.random.default_rng(7)
    reserved = np.zeros((65, 65))
    strided = 0
    for k in range(1, 65):
        col = rng.standard_normal(k)
        col[-1] = 2.0 + abs(col[-1])
        reserved[:k, k - 1] = col
        R = reserved[:k, :k]
        rhs = rng.standard_normal(k)
        kept = rhs.copy()
        z = solve_upper(R, rhs)
        _assert_close_rel(z, solve_triangular(R, rhs))
        assert np.array_equal(rhs, kept)
        strided += not R.flags.c_contiguous
    assert strided > 50


def test_assigning_rcols_discards_inverse():
    qr = HessenbergQr(1.0)
    qr.append_column([2.0, 1.0])
    qr.solve()
    qr.append_column([1.0, 3.0, 1.0])
    qr.solve()
    qr.rcols = [np.array([1.0]), np.array([1.0, 2.0])]
    qr.t = [3.0, 4.0, 0.0]
    assert_allclose(qr.solve(), [1.0, 2.0])
    assert_allclose(qr.apply_rinv([2.0, 2.0]), [1.0, 1.0])


def test_banded_first_column_identity_case():
    qr = BandedQr((2.0, 3.0))
    resid = qr.append_column([1.0, 0.0, 0.0])
    assert qr.r_matrix()[0, 0] == pytest.approx(1.0)
    t1, t2 = abs(qr.t[-2]), abs(qr.t[-1])
    assert (t1, t2) == (pytest.approx(3.0), pytest.approx(0.0))
    assert resid == np.hypot(t1, t2)


def test_banded_first_column_permutation_case():
    qr = BandedQr((1.0, 0.0))
    qr.append_column([0.0, 0.0, 1.0])
    assert qr.r_matrix()[0, 0] == pytest.approx(1.0)


def test_rsmar2_annihilates_aresidual_at_step_one():
    # brute force: minimizing |A b - A^2 t b| over t gives t = 1, rho = 0
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([1.0, 1.0])
    rep = rk.rsmar2_solve(A, b, tol=1e-12)
    assert rep.iterations == 1
    assert rep.estimate_history[1] <= 1e-12
    assert rep.aresidual_history[1] <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_banded_factorization_reconstruction(seed):
    rng = np.random.default_rng(seed + 300)
    k = 6
    # two-subdiagonal matrix with the profile of the second-level factor
    M = np.triu(rng.standard_normal((k + 2, k)), -2)
    qr = BandedQr((rng.standard_normal(), rng.standard_normal()))
    for j in range(k):
        qr.append_column(M[: j + 3, j])
    Q = qr.q_matrix()
    R = np.vstack([qr.r_matrix(), np.zeros((2, k))])
    assert np.linalg.norm(M - Q @ R) <= 1e-12 * np.linalg.norm(M)
    assert np.linalg.norm(Q.T @ Q - np.eye(k + 2)) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_banded_tail_pair_is_least_squares_residual(seed):
    rng = np.random.default_rng(seed + 400)
    k = 5
    M = np.triu(rng.standard_normal((k + 2, k)), -2)
    g = np.zeros(k + 2)
    g[0], g[1] = rng.standard_normal(2)
    qr = BandedQr((g[0], g[1]))
    for j in range(k):
        tail = qr.append_column(M[: j + 3, j])
    t1, t2 = qr.t[-2:]
    assert tail == np.hypot(t1, t2)
    z, *_ = np.linalg.lstsq(M, g, rcond=None)
    resid = np.linalg.norm(g - M @ z)
    assert np.hypot(t1, t2) == pytest.approx(resid, abs=1e-10)
    assert_allclose(qr.solve(), z, atol=1e-10)


def test_column_length_validation():
    qr = HessenbergQr(1.0)
    with pytest.raises(ValueError):
        qr.append_column([1.0, 2.0, 3.0])
    bqr = BandedQr((1.0, 0.0))
    with pytest.raises(ValueError):
        bqr.append_column([1.0, 2.0])
    # a solve size outside 0..k names k instead of indexing past the factor
    with pytest.raises(ValueError, match="k = 0"):
        HessenbergQr(1.0).solve(3)
    qr.append_column([2.0, 1.0])
    for size in (-1, 2):
        with pytest.raises(ValueError, match="k = 1"):
            qr.solve(size)
        with pytest.raises(ValueError, match="k = 1"):
            qr.apply_rinv([1.0, 1.0], size)
    assert_allclose(qr.solve(0), [])
    assert_allclose(qr.apply_rinv([2.0], 1), [2.0 / np.hypot(2.0, 1.0)])
    # right-hand sides of the wrong length name both lengths
    qr.append_column([1.0, 3.0, 1.0])
    with pytest.raises(ValueError, match="length 5, expected at most 3"):
        qr.solve_rhs([1.0, 2.0, 3.0, 4.0, 5.0])
    for size in (None, 2):
        with pytest.raises(ValueError, match="length 1, expected at least 2"):
            qr.apply_rinv([1.0], size)


def test_q_columns_tracked_with_the_factor():
    rng = np.random.default_rng(11)
    qr = HessenbergQrWithQ(1.0)
    for k in range(1, 9):
        qr.append_column(rng.standard_normal(k + 1))
        Q = qr.q_matrix()
        assert np.array_equal(qr.q_new_col, Q[:, k - 1])
        assert np.array_equal(qr.q_last, Q[:, -1])
