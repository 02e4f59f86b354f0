import numpy as np
import pytest
from numpy.testing import assert_allclose

import rskrylov as rk


def test_pinv_diagonal_projector():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert_allclose(rk.pseudoinverse_solve(A, [1.0, 1.0]), [1.0, 0.0], atol=1e-14)


def test_pinv_rank_one():
    # A = u v^T with u = v = (1, 1): pinv is v u^T / (|u|^2 |v|^2) = A / 4.
    A = np.ones((2, 2))
    assert_allclose(rk.pseudoinverse_solve(A, [1.0, 0.0]), [0.25, 0.25], atol=1e-14)


def test_pinv_identity():
    b = np.array([2.0, -1.0, 3.0])
    assert_allclose(rk.pseudoinverse_solve(np.eye(3), b), b)


def test_pinv_cap():
    with pytest.raises(ValueError):
        rk.pseudoinverse_solve(np.eye(3), np.ones(3), max_n=2)


def test_index_nonsingular():
    assert rk.index_of(np.eye(4)) == 0


def test_index_nilpotent():
    assert rk.index_of(np.array([[0.0, 1.0], [0.0, 0.0]])) == 2


@pytest.mark.parametrize("seed", range(4))
def test_index_range_symmetric_is_one(seed):
    A, _ = rk.make_random_range_symmetric(rk.RandomSpec(n=20, rank=14, seed=seed))
    assert rk.index_of(A) == 1


def test_range_symmetry_verdicts():
    rng = np.random.default_rng(0)
    S = rng.standard_normal((8, 8))
    assert rk.is_range_symmetric(S + S.T)
    assert not rk.is_range_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    A = rk.make_bvp_matrix(rk.BvpSpec(m=10, d=10.0)).toarray()
    assert rk.is_range_symmetric(A)


def test_krylov_max_dim_basics():
    assert rk.krylov_max_dim(np.eye(5), np.ones(5)) == 1
    assert rk.krylov_max_dim(np.diag([1.0, 2.0]), np.ones(2)) == 2
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert rk.krylov_max_dim(A, np.ones(2)) == 2
    # seeding with A v drops the inconsistent direction: m = ell - 1
    assert rk.krylov_max_dim(A, A @ np.ones(2)) == 1
    assert rk.krylov_max_dim(A, np.zeros(2)) == 0


def test_cond_number():
    assert rk.cond_number(np.eye(3)) == 1.0
    assert rk.cond_number(np.diag([4.0, 2.0])) == 2.0
    assert rk.cond_number(np.diag([1.0, 1e-20])) == 1.0
    with pytest.raises(ValueError):
        rk.cond_number(np.zeros((2, 2)))


def test_cond_number_rectangular():
    H = np.array([[3.0, 1.0], [4.0, 1.0], [0.0, 1.0]])
    s = np.linalg.svd(H, compute_uv=False)
    assert_allclose(rk.cond_number(H), s[0] / s[-1])


@pytest.mark.parametrize("seed", range(3))
def test_moore_penrose_identities(seed):
    A, _ = rk.make_random_range_symmetric(
        rk.RandomSpec(n=15, rank=10, cond=50.0, seed=seed)
    )
    # reconstruct the pseudoinverse column by column
    P = np.column_stack(
        [rk.pseudoinverse_solve(A, e) for e in np.eye(15)]
    )
    assert np.linalg.norm(A @ P @ A - A) <= 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(A @ P - (A @ P).T) <= 1e-10
    assert np.linalg.norm(P @ A - (P @ A).T) <= 1e-10


@pytest.mark.parametrize("seed", range(3))
def test_pseudo_equals_drazin_solution(seed):
    # For range-symmetric A the pseudoinverse solution solves A^2 x = A b.
    A, _ = rk.make_random_range_symmetric(
        rk.RandomSpec(n=18, rank=12, cond=30.0, seed=seed)
    )
    b = np.random.default_rng(seed).standard_normal(18)
    x = rk.pseudoinverse_solve(A, b)
    assert np.linalg.norm(A @ (A @ x) - A @ b) <= 1e-10 * np.linalg.norm(A @ b)


def test_pseudo_solution_min_norm():
    A, Ap = rk.make_random_range_symmetric(rk.RandomSpec(n=12, rank=8, seed=5))
    b = np.random.default_rng(5).standard_normal(12)
    x = rk.pseudoinverse_solve(A, b)
    # orthogonal to the null space: A^T A x = A^T b and x in range(A^T)
    null_proj = x - Ap @ (A @ x)
    assert np.linalg.norm(null_proj) <= 1e-10 * max(1.0, np.linalg.norm(x))


def test_analyze_bundle():
    A = np.diag([2.0, 1.0, 0.0])
    res = rk.analyze(A, b=np.array([2.0, 1.0, 1.0]))
    assert res.range_symmetric
    assert res.index == 1
    assert res.kappa == 2.0
    assert_allclose(res.pseudo_solution, [1.0, 1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracles_reject_non_finite_entries(bad):
    A = np.diag([2.0, 1.0, 0.0])
    A[0, 2] = bad
    b = np.ones(3)
    calls = [
        lambda: rk.pseudoinverse_solve(A, b),
        lambda: rk.index_of(A),
        lambda: rk.is_range_symmetric(A),
        lambda: rk.krylov_max_dim(A, b),
        lambda: rk.analyze(A, b),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^A has non-finite entries$"):
            call()
