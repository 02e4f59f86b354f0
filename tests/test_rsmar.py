import numpy as np
import pytest
from numpy.testing import assert_allclose

import rskrylov as rk
from conftest import make_criterion07_instance


def make_system(seed, n=20, rank=15, cond=100.0, consistent=True):
    A, Ap = rk.make_random_range_symmetric(
        rk.RandomSpec(n=n, rank=rank, cond=cond, seed=seed)
    )
    rng = np.random.default_rng(seed + 2000)
    b = A @ rng.standard_normal(n)
    if not consistent:
        nullv = rng.standard_normal(n)
        nullv -= Ap @ (A @ nullv)
        nullv /= np.linalg.norm(nullv)
        b = b + 0.5 * np.linalg.norm(b) * nullv
    return A, Ap, b


@pytest.mark.parametrize("method", ["rsmar1", "rsmar2"])
def test_identity(method):
    rep = rk.SOLVERS[method](np.eye(2), np.array([1.0, 2.0]))
    assert_allclose(rep.solution, [1.0, 2.0], atol=1e-14)
    assert rep.iterations == 1
    assert rep.estimate_history[-1] <= 1e-14


@pytest.mark.parametrize("method", ["rsmar1", "rsmar2"])
def test_singular_2x2(method):
    # brute force over span{b}: minimizing |A b - A^2 t b| gives t = 1,
    # annihilating the A-residual; the lift then recovers (1, 0)
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.SOLVERS[method](A, np.array([1.0, 1.0]))
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert_allclose(rep.lifted_solution, [1.0, 0.0], atol=1e-14)
    assert rep.aresidual_history[-1] <= 1e-14


def test_implementations_agree_diag():
    A = np.diag([1.0, 2.0, 0.0])
    b = np.ones(3)
    r1 = rk.rsmar1_solve(A, b, tol=1e-12)
    r2 = rk.rsmar2_solve(A, b, tol=1e-12)
    assert np.max(np.abs(r1.solution - r2.solution)) <= 1e-10


@pytest.mark.parametrize("method", ["rsmar1", "rsmar2"])
@pytest.mark.parametrize("seed", range(4))
def test_consistent_recovers_pseudoinverse(method, seed):
    A, Ap, b = make_system(seed)
    rep = rk.SOLVERS[method](A, b, tol=1e-11, maxit=80)
    xstar = Ap @ b
    assert np.linalg.norm(rep.solution - xstar) <= 1e-8 * np.linalg.norm(xstar)


@pytest.mark.parametrize("seed", range(4))
def test_final_iterate_equals_gmres(seed):
    # both stop at the same terminal least squares solution
    A, Ap, b = make_system(seed, n=30, rank=22, consistent=False)
    rg = rk.gmres_solve(A, b, tol=1e-9, maxit=120)
    r2 = rk.rsmar2_solve(A, b, tol=1e-10, maxit=120)
    gap = np.linalg.norm(rg.solution - r2.solution) / np.linalg.norm(r2.solution)
    assert gap <= 1e-7


@pytest.mark.parametrize("method", ["rsmar1", "rsmar2"])
@pytest.mark.parametrize("seed", range(4))
def test_inconsistent_final_solves_squared_system(method, seed):
    # the terminal iterate satisfies A^2 x = A b
    A, Ap, b = make_system(seed, consistent=False)
    rep = rk.SOLVERS[method](A, b, tol=1e-10, maxit=80)
    lhs = A @ (A @ rep.solution)
    rhs = A @ b
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)
    # and its lift is the pseudoinverse solution
    xstar = Ap @ b
    assert (
        np.linalg.norm(rep.lifted_solution - xstar) <= 1e-7 * np.linalg.norm(xstar)
    )


@pytest.mark.parametrize("method", ["rsmar1", "rsmar2"])
@pytest.mark.parametrize("seed", range(3))
def test_aresidual_monotone(method, seed):
    for consistent in (True, False):
        A, Ap, b = make_system(seed, consistent=consistent)
        rep = rk.SOLVERS[method](A, b, tol=1e-10, maxit=80)
        h = rep.aresidual_history
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))


@pytest.mark.parametrize("method", ["rsmar1", "rsmar2"])
@pytest.mark.parametrize("seed", range(3))
def test_estimate_matches_explicit_aresidual(method, seed):
    A, Ap, b = make_system(seed, consistent=False)
    rep = rk.SOLVERS[method](A, b, tol=1e-10, maxit=80)
    beta_hat = rep.aresidual_history[0]
    dev = np.max(np.abs(rep.estimate_history - rep.aresidual_history))
    assert dev <= 1e-8 * beta_hat


@pytest.mark.parametrize("seed", range(3))
def test_symmetric_input_matches_minares(seed):
    rng = np.random.default_rng(seed + 4000)
    n = int(rng.integers(20, 41))
    rank = int(rng.integers(6, 11))
    A = rk.make_random_symmetric_singular(
        rk.RandomSpec(n=n, rank=rank, cond=10.0, seed=seed)
    )
    rng2 = np.random.default_rng(seed + 5000)
    b = A @ rng2.standard_normal(n)
    nullv = rng2.standard_normal(n)
    nullv -= np.linalg.pinv(A, rcond=1e-9) @ (A @ nullv)
    b = b + 0.5 * np.linalg.norm(b) * nullv / max(np.linalg.norm(nullv), 1e-300)
    m = rk.krylov_max_dim(A, b) - 1
    r2 = rk.rsmar2_solve(A, b, tol=1e-30, maxit=m)
    ma = rk.minares1_solve(A, b, tol=1e-30, maxit=m)
    gap = np.linalg.norm(r2.solution - ma.solution) / np.linalg.norm(ma.solution)
    assert gap <= 1e-7


def test_estimate_mode():
    A, Ap, b = make_system(1)
    rep = rk.rsmar2_solve(
        A, b, opts=rk.SolveOptions(tol=1e-10, maxit=80, record_explicit=False)
    )
    assert np.all(np.isnan(rep.residual_history[1:-1]))
    assert_allclose(rep.aresidual_history[:-1], rep.estimate_history[:-1])
    assert rep.aresidual_history[-1] <= 1e-10 * rep.aresidual_history[0]
    xstar = Ap @ b
    assert np.linalg.norm(rep.solution - xstar) <= 1e-6 * np.linalg.norm(xstar)


def test_rsmar1_instability_is_surfaced_not_patched():
    # the hat-space implementation is allowed to lose accuracy on hard
    # consistent problems; the report must still expose its histories
    spec = rk.BvpSpec(m=10, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, "consistent_random", seed=1, matrix=A)
    rep = rk.rsmar1_solve(A, b, tol=1e-10, maxit=100)
    assert len(rep.residual_history) == rep.iterations + 1
    assert np.all(np.isfinite(rep.aresidual_history))


def test_rsmar1_change_of_basis_is_back_substituted():
    # rsmar1 solves its change of basis [bhat1 e1, Hhat] by back
    # substitution.  Through a column-by-column inverse of that triangle
    # this run took 370 iterations and ended singular_final_system.
    spec = rk.BvpSpec(m=50, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, "consistent_random", 0, A)
    rep = rk.rsmar1_solve(A, b, tol=1e-12, maxit=400)
    assert rep.termination == rk.CONVERGED
    assert rep.iterations <= 240


def test_zero_rhs():
    for method in ("rsmar1", "rsmar2"):
        rep = rk.SOLVERS[method](np.eye(3), np.zeros(3))
        assert_allclose(rep.solution, np.zeros(3))
        assert rep.iterations == 0


@pytest.mark.parametrize("seed", [1, 9])
def test_rsmar2_singular_closure_tag(seed):
    # seeds 901 and 909: the square system at closure is singular, so the
    # best iterate seen is final and reported as such, like the other
    # long-recurrence methods
    A, Ap, b = make_criterion07_instance(seed)
    rep = rk.rsmar2_solve(A, b, tol=1e-13, maxit=4 * A.shape[0])
    assert rep.termination == rk.SINGULAR_FINAL_SYSTEM
    xstar = Ap @ b
    assert np.linalg.norm(rep.lifted_solution - xstar) <= 1e-8 * np.linalg.norm(xstar)


def test_estimate_mode_singular_closure_returns_last_iterate():
    # Without explicit monitoring rsmar2 closes here on a singular square
    # system; it returned the cycle's start x_in = 0 (relative error 1.0)
    # instead of the last iterate its factors can rebuild.
    rng = np.random.default_rng(145)
    n = int(rng.integers(8, 40))
    rank = round(rng.uniform(0.3, 0.9) * n)
    cond = 10 ** rng.uniform(3, 8)
    A, Ap = rk.make_random_range_symmetric(rk.RandomSpec(n, rank, cond, seed=145))
    b = rng.standard_normal(n)
    rep = rk.rsmar2_solve(A, b, tol=1e-15, maxit=4 * n, record_explicit=False)
    assert rep.termination == rk.SINGULAR_FINAL_SYSTEM
    assert len(rep.residual_history) == rep.iterations + 1
    xstar = Ap @ b
    answer = rep.lifted_solution if rep.lifted_solution is not None else rep.solution
    assert np.linalg.norm(answer - xstar) <= 1e-8 * np.linalg.norm(xstar)
