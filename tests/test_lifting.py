import numpy as np
import pytest
from numpy.testing import assert_allclose

import rskrylov as rk
from conftest import make_suite_instance
from rskrylov import lift


def test_lift_matches_dense_pseudoinverse():
    # terminal iterate of the minimum-residual methods on
    # A = [[1,0],[0,0]], b = (1,1) is (1,1) with residual (0,1)
    out = lift(np.array([1.0, 1.0]), np.zeros(2), np.array([0.0, 1.0]))
    assert_allclose(out, [1.0, 0.0])
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert_allclose(out, rk.pseudoinverse_solve(A, np.array([1.0, 1.0])))


def test_lift_orthogonal_residual_is_noop():
    out = lift(np.array([1.0, 1.0]), np.zeros(2), np.array([1.0, -1.0]))
    assert_allclose(out, [1.0, 1.0])


def test_lift_colinear_full_correction():
    out = lift(np.array([2.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert_allclose(out, [1.0, 0.0])


def test_lift_zero_residual_rejected():
    with pytest.raises(ValueError):
        lift(np.ones(2), np.zeros(2), np.zeros(2))


def test_lift_shape_mismatch():
    with pytest.raises(ValueError):
        lift(np.ones(2), np.zeros(3), np.ones(2))


@pytest.mark.parametrize("seed", range(6))
def test_lift_idempotent_and_orthogonal(seed):
    rng = np.random.default_rng(seed)
    x, x0, r = rng.standard_normal((3, 9))
    once = lift(x, x0, r)
    twice = lift(once, x0, r)
    assert_allclose(twice, once, rtol=0, atol=1e-13 * np.linalg.norm(once))
    # output minus anchor is orthogonal to the residual
    assert abs(r @ (once - x0)) <= 1e-12 * np.linalg.norm(r) * np.linalg.norm(x - x0)


@pytest.mark.parametrize("seed", range(5))
def test_lift_recovers_projection_with_nonzero_anchor(seed):
    # lifted terminal GMRES iterate equals pinv(A) b + (I - pinv(A) A) x0
    A, Ap = rk.make_random_range_symmetric(
        rk.RandomSpec(n=20, rank=14, cond=50.0, seed=seed)
    )
    rng = np.random.default_rng(seed + 10)
    x0 = rng.standard_normal(20)
    b_cons = A @ rng.standard_normal(20)
    nullv = rng.standard_normal(20)
    nullv -= Ap @ (A @ nullv)
    b = b_cons + 0.5 * np.linalg.norm(b_cons) * nullv / np.linalg.norm(nullv)
    rep = rk.gmres_solve(A, b, x0=x0, tol=1e-10, maxit=100)
    assert rep.lifted_solution is not None
    expected = Ap @ b + x0 - Ap @ (A @ x0)
    err = np.linalg.norm(rep.lifted_solution - expected) / np.linalg.norm(expected)
    assert err <= 1e-7


@pytest.mark.parametrize("seed", range(5))
def test_skew_symmetric_terminal_iterate_needs_no_lift(seed):
    A = rk.make_random_skew_singular(13, seed=seed)
    b = np.random.default_rng(seed + 99).standard_normal(13)
    rep = rk.gmres_solve(A, b, tol=1e-9, maxit=60)
    x = rep.solution
    if rep.lifted_solution is not None:
        correction = np.linalg.norm(rep.lifted_solution - x)
        assert correction <= 1e-10 * np.linalg.norm(x)
    xstar = rk.pseudoinverse_solve(A, b)
    assert np.linalg.norm(x - xstar) <= 1e-7 * np.linalg.norm(xstar)


def test_consistent_stop_short_of_residual_floor_is_not_lifted():
    # minares stops on the A-residual rule with |r| just above the residual
    # floor; that residual still lies in range(A), and lifting along it
    # would move a correct answer away from A^+ b
    inst = make_suite_instance(29)
    rep = rk.minares1_solve(inst["A"], inst["b_cons"], tol=1e-12, maxit=80)
    xstar = inst["pinv"] @ inst["b_cons"]
    if rep.lifted_solution is not None:
        err = np.linalg.norm(rep.lifted_solution - xstar) / np.linalg.norm(xstar)
        assert err <= 1e-7


@pytest.mark.parametrize("method", ["gmres", "rsmar1", "rsmar2"])
def test_grid_consistent_answer_is_pseudoinverse_solution(method):
    # the grid solves that stop on the A-residual rule keep their answer
    spec = rk.BvpSpec(m=17, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, "consistent_random", 0, A)
    rep = rk.SOLVERS[method](A, b, tol=1e-12, maxit=400)
    x = rep.lifted_solution if rep.lifted_solution is not None else rep.solution
    xstar = rk.pseudoinverse_solve(A.toarray(), b)
    assert np.linalg.norm(x - xstar) <= 1e-7 * np.linalg.norm(xstar)
