import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import rskrylov as rk


def test_bvp_matrix_m100():
    spec = rk.BvpSpec(m=100, d=10.0)
    A = rk.make_bvp_matrix(spec)
    assert A.shape == (10000, 10000)
    # alpha+ = 1 + d h / 2 = 1.05 sits on the superdiagonal of each block
    assert A[0, 1] == pytest.approx(1.05)
    assert A[1, 0] == pytest.approx(0.95)
    assert A[0, 0] == -4.0


@pytest.mark.parametrize("m,d", [(3, 10.0), (7, 10.0), (12, 3.0)])
def test_bvp_matrix_ones_nullspace(m, d):
    A = rk.make_bvp_matrix(rk.BvpSpec(m=m, d=d))
    assert np.linalg.norm(A @ np.ones(m * m)) <= 1e-12
    # ones also spans the left null space (the matrix is normal)
    assert np.linalg.norm(A.T @ np.ones(m * m)) <= 1e-12


def test_bvp_matrix_symmetric_when_d_zero():
    A = rk.make_bvp_matrix(rk.BvpSpec(m=8, d=0.0))
    assert np.abs(A - A.T).max() == 0.0


def test_bvp_matrix_requires_m3():
    with pytest.raises(ValueError):
        rk.make_bvp_matrix(rk.BvpSpec(m=2))


def test_bvp_rhs_consistent_sums_to_zero():
    spec = rk.BvpSpec(m=10, d=10.0)
    b = rk.make_bvp_rhs(spec, "consistent_random", seed=3)
    assert abs(b.sum()) <= 1e-10 * np.linalg.norm(b)


def test_bvp_rhs_xy_m2():
    b = rk.make_bvp_rhs(rk.BvpSpec(m=2), "inconsistent_xy")
    assert_allclose(b, [1.0, 1.5, 1.5, 2.0])


def test_bvp_rhs_xy_inconsistent():
    spec = rk.BvpSpec(m=10, d=10.0)
    b = rk.make_bvp_rhs(spec, "inconsistent_xy")
    assert b.sum() > 0  # nonzero component along the left null space


def test_bvp_rhs_unknown_kind():
    with pytest.raises(ValueError):
        rk.make_bvp_rhs(rk.BvpSpec(m=4), "nope")


@pytest.mark.parametrize("seed", range(3))
def test_random_range_symmetric_properties(seed):
    spec = rk.RandomSpec(n=20, rank=15, cond=100.0, seed=seed)
    A, Ap = rk.make_random_range_symmetric(spec)
    assert rk.is_range_symmetric(A)
    assert rk.index_of(A) == 1
    # Moore-Penrose equations for the returned closed-form pseudoinverse
    assert np.linalg.norm(A @ Ap @ A - A) <= 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(Ap @ A @ Ap - Ap) <= 1e-10 * np.linalg.norm(Ap)
    assert np.linalg.norm(A @ Ap - (A @ Ap).T) <= 1e-10
    assert np.linalg.norm(Ap @ A - (Ap @ A).T) <= 1e-10


def test_random_range_symmetric_full_rank():
    A, Ap = rk.make_random_range_symmetric(rk.RandomSpec(n=10, rank=10, seed=1))
    assert np.linalg.norm(A @ Ap - np.eye(10)) <= 1e-10


def test_random_generators_deterministic():
    spec = rk.RandomSpec(n=15, rank=10, cond=50.0, seed=42)
    A1, P1 = rk.make_random_range_symmetric(spec)
    A2, P2 = rk.make_random_range_symmetric(spec)
    assert np.array_equal(A1, A2) and np.array_equal(P1, P2)
    S1 = rk.make_random_symmetric_singular(spec)
    S2 = rk.make_random_symmetric_singular(spec)
    assert np.array_equal(S1, S2)
    K1 = rk.make_random_skew_singular(11, seed=7)
    K2 = rk.make_random_skew_singular(11, seed=7)
    assert np.array_equal(K1, K2)


def test_random_symmetric_singular():
    A = rk.make_random_symmetric_singular(rk.RandomSpec(n=16, rank=12, seed=0))
    assert np.abs(A - A.T).max() == 0.0
    s = np.linalg.svd(A, compute_uv=False)
    assert np.sum(s > 1e-10 * s[0]) == 12


def test_random_skew_singular():
    A = rk.make_random_skew_singular(11, seed=0)
    assert np.abs(A + A.T).max() == 0.0
    assert abs(np.linalg.det(A)) <= 1e-12
    assert rk.is_range_symmetric(A)
    with pytest.raises(ValueError):
        rk.make_random_skew_singular(10, seed=0)


@pytest.mark.parametrize("n", [0, -1, -4])
def test_random_skew_rejects_an_empty_order(n):
    with pytest.raises(ValueError, match=r"^skew-symmetric generator requires n >= 1$"):
        rk.make_random_skew_singular(n)


def test_random_spec_validation():
    with pytest.raises(ValueError):
        rk.RandomSpec(n=5, rank=0)
    with pytest.raises(ValueError):
        rk.RandomSpec(n=5, rank=6)
    with pytest.raises(ValueError):
        rk.RandomSpec(n=5, rank=3, cond=0.5)


@pytest.mark.parametrize("cond", [np.nan, np.inf, -np.inf])
def test_random_spec_rejects_a_non_finite_condition_target(cond):
    with pytest.raises(ValueError, match=r"^condition target must be finite and at least 1$"):
        rk.RandomSpec(n=5, rank=3, cond=cond)


@pytest.mark.parametrize("d", [np.nan, np.inf, -np.inf])
def test_bvp_spec_rejects_a_non_finite_convection_constant(d):
    with pytest.raises(ValueError, match=r"^convection constant d must be finite$"):
        rk.BvpSpec(m=5, d=d)


def test_scale_max_abs():
    A, rho = rk.scale_max_abs(np.diag([2.0, 4.0]))
    assert rho == 4.0
    assert_allclose(A, np.diag([0.5, 1.0]))
    B, rho2 = rk.scale_max_abs(A)
    assert rho2 == 1.0
    assert_allclose(B, A)
    with pytest.raises(ValueError):
        rk.scale_max_abs(np.zeros((3, 3)))
    # a sparse matrix that stores no entries, or stores only zeros
    stored_zeros = sp.csr_matrix((np.zeros(2), ([0, 1], [0, 1])), shape=(3, 3))
    assert stored_zeros.nnz == 2
    for Z in (sp.csr_matrix((3, 3)), stored_zeros):
        with pytest.raises(ValueError, match="cannot scale the zero matrix"):
            rk.scale_max_abs(Z)


def test_scale_max_abs_bvp():
    A = rk.make_bvp_matrix(rk.BvpSpec(m=10, d=10.0))
    S, rho = rk.scale_max_abs(A)
    assert rho == 4.0
    assert S[0, 0] == -1.0
