import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rskrylov as rk
from rskrylov._common import Histories, prepare
from rskrylov.minres_family import _Minares


def make_symmetric(seed, n=30, rank=20, cond=30.0, consistent=True):
    A = rk.make_random_symmetric_singular(
        rk.RandomSpec(n=n, rank=rank, cond=cond, seed=seed)
    )
    Ap = np.linalg.pinv(A, rcond=1e-9)
    rng = np.random.default_rng(seed + 3000)
    b = A @ rng.standard_normal(n)
    if not consistent:
        nullv = rng.standard_normal(n)
        nullv -= Ap @ (A @ nullv)
        nullv /= np.linalg.norm(nullv)
        b = b + 0.5 * np.linalg.norm(b) * nullv
    return A, Ap, b


def test_minres_identity():
    rep = rk.minres_solve(np.eye(2), np.array([5.0, 6.0]))
    assert_allclose(rep.solution, [5.0, 6.0], atol=1e-14)
    assert rep.iterations == 1


def test_minres_singular_2x2():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.minres_solve(A, np.array([1.0, 1.0]))
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert_allclose(rep.lifted_solution, [1.0, 0.0], atol=1e-14)


def test_minres_estimate_mode_singular_closure_lifts():
    # the rotated factor turns singular at step 2; the returned iterate 1
    # is the one the lift maps to A^+ b, not the start x0 = 0
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.minres_solve(A, np.array([1.0, 1.0]), record_explicit=False)
    assert rep.termination == rk.SINGULAR_FINAL_SYSTEM
    assert rep.iterations == 1
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert_allclose(rep.lifted_solution, [1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("method", ["minres", "minares"])
def test_restart_is_ignored(method):
    # no basis is kept, so there is nothing to restart
    A, Ap, b = make_symmetric(1)
    plain = rk.SOLVERS[method](A, b, tol=1e-10)
    restarted = rk.SOLVERS[method](A, b, tol=1e-10, restart=6)
    assert plain.termination == rk.CONVERGED
    for field in dataclasses.fields(plain):
        name = field.name
        assert_array_equal(getattr(restarted, name), getattr(plain, name), name)


@pytest.mark.parametrize("seed", range(4))
def test_minres_consistent_pseudoinverse(seed):
    A, Ap, b = make_symmetric(seed)
    rep = rk.minres_solve(A, b, tol=1e-11, maxit=200)
    xstar = Ap @ b
    assert np.linalg.norm(rep.solution - xstar) <= 1e-7 * np.linalg.norm(xstar)


def test_minares_identity():
    rep = rk.minares1_solve(np.eye(2), np.array([1.0, 2.0]))
    assert_allclose(rep.solution, [1.0, 2.0], atol=1e-14)
    assert rep.estimate_history[-1] <= 1e-14


def test_minares_singular_2x2():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.minares1_solve(A, np.array([1.0, 1.0]))
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert_allclose(rep.lifted_solution, [1.0, 0.0], atol=1e-14)
    assert rep.estimate_history[-1] <= 1e-14


def test_minares_diag_example():
    # pinv solution of diag(2,-1,0) against (1,1,1) is (0.5, -1, 0)
    A = np.diag([2.0, -1.0, 0.0])
    b = np.ones(3)
    ma = rk.minares1_solve(A, b, tol=1e-12)
    r2 = rk.rsmar2_solve(A, b, tol=1e-12)
    assert np.max(np.abs(ma.solution - r2.solution)) <= 1e-9
    assert_allclose(ma.lifted_solution, [0.5, -1.0, 0.0], atol=1e-9)
    assert_allclose(r2.lifted_solution, [0.5, -1.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_minares_consistent_pseudoinverse(seed):
    A, Ap, b = make_symmetric(seed)
    rep = rk.minares1_solve(A, b, tol=1e-11, maxit=200)
    xstar = Ap @ b
    assert np.linalg.norm(rep.solution - xstar) <= 1e-7 * np.linalg.norm(xstar)


@pytest.mark.parametrize("seed", range(4))
def test_minares_lifted_inconsistent(seed):
    A, Ap, b = make_symmetric(seed, n=24, rank=14, cond=20.0, consistent=False)
    rep = rk.minares1_solve(A, b, tol=1e-10, maxit=200)
    xstar = Ap @ b
    assert rep.lifted_solution is not None
    assert np.linalg.norm(rep.lifted_solution - xstar) <= 1e-7 * np.linalg.norm(xstar)


@pytest.mark.parametrize("seed", range(4))
def test_final_iterate_equality_with_minres(seed):
    # at the theoretical termination index both methods produce the same
    # least squares iterate
    rng = np.random.default_rng(seed + 71)
    n = int(rng.integers(20, 51))
    rank = int(rng.integers(6, 13))
    A, Ap, _ = make_symmetric(seed, n=n, rank=rank, cond=10.0)
    A = rk.make_random_symmetric_singular(
        rk.RandomSpec(n=n, rank=rank, cond=10.0, seed=seed + 71)
    )
    Ap = np.linalg.pinv(A, rcond=1e-9)
    rng2 = np.random.default_rng(seed + 72)
    b = A @ rng2.standard_normal(n)
    nullv = rng2.standard_normal(n)
    nullv -= Ap @ (A @ nullv)
    b = b + 0.5 * np.linalg.norm(b) * nullv / np.linalg.norm(nullv)
    m = rk.krylov_max_dim(A, b) - 1
    xr = rk.minres_solve(A, b, tol=1e-30, maxit=m).solution
    xa = rk.minares1_solve(A, b, tol=1e-30, maxit=m).solution
    assert np.linalg.norm(xr - xa) <= 1e-7 * np.linalg.norm(xa)


@pytest.mark.parametrize("seed", range(3))
def test_minares_rho_monotone_and_faithful(seed):
    A, Ap, b = make_symmetric(seed, consistent=False)
    rep = rk.minares1_solve(A, b, tol=1e-10, maxit=120)
    h = rep.estimate_history
    assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))
    dev = np.max(np.abs(rep.estimate_history - rep.aresidual_history))
    assert dev <= 1e-8 * rep.aresidual_history[0]


def test_minares_w_recursion_consistency():
    # the running direction vectors reproduce [r0, Vhat_{k-1}] Rtilde^{-1}
    # computed densely from the hat-space Arnoldi data
    seed = 2
    A, Ap, b = make_symmetric(seed, n=16, rank=10, cond=10.0)
    Aop, b, x0, r0, opts = prepare(A, b, None, None, tol=1e-30)
    hist = Histories()
    hist.append(np.linalg.norm(r0), np.nan, np.nan, 0)
    sub = _Minares(Aop, b, x0, r0, opts, {"res": 0.0, "ares": None}, hist)
    sub.seed()
    ws = []
    for k in range(1, 7):
        ws.append(sub.w.copy())  # the work vector step k uses
        sub.step(k)
        assert not sub.closed
    k = len(ws)
    r0 = b.copy()
    beta_hat = np.linalg.norm(A @ r0)
    state = rk.arnoldi_init(A, np.asarray(A @ r0))
    for _ in range(k):
        rk.arnoldi_step(state, A)
    Rt = np.zeros((k, k))
    Rt[0, 0] = beta_hat
    for j in range(1, k):
        col = state.column(j - 1)
        Rt[: j + 1, j] = col
    basis = np.column_stack([r0] + [state.vector(j) for j in range(k - 1)])
    W_dense = basis @ np.linalg.inv(Rt)
    W_run = np.column_stack(ws)
    assert np.linalg.norm(W_dense - W_run) <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_minres_residual_estimate_fidelity(seed):
    # the rotation-product estimate tracks the explicit residual norm
    # while the run is well conditioned (consistent system)
    A, Ap, b = make_symmetric(seed, cond=20.0)
    rep = rk.minres_solve(A, b, tol=1e-9, maxit=200)
    dev = np.max(np.abs(rep.estimate_history - rep.residual_history))
    assert dev <= 1e-8 * rep.residual_history[0]


@pytest.mark.parametrize("method", ["minres", "minares"])
def test_nonzero_initial_guess_projection(method):
    A, Ap, b = make_symmetric(4, n=24, rank=16, cond=15.0)
    rng = np.random.default_rng(123)
    x0 = rng.standard_normal(24)
    rep = rk.SOLVERS[method](A, b, x0=x0, tol=1e-10, maxit=150)
    expected = Ap @ b + x0 - Ap @ (A @ x0)
    err = np.linalg.norm(rep.solution - expected) / np.linalg.norm(expected)
    assert err <= 1e-7


def test_minres_zero_rhs():
    rep = rk.minres_solve(np.eye(3), np.zeros(3))
    assert_allclose(rep.solution, np.zeros(3))
    assert rep.iterations == 0


def test_minares_null_rhs_stops_immediately():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.minares1_solve(A, np.array([0.0, 1.0]))
    assert_allclose(rep.solution, np.zeros(2))
    assert rep.stop_rule == "aresidual"


def test_minares_fixed_storage():
    # the short recurrence must not retain a growing basis; peak extra
    # storage is a fixed number of work vectors
    import tracemalloc

    A, Ap, b = make_symmetric(0, n=400, rank=120, cond=10.0)
    tracemalloc.start()
    rk.minares1_solve(
        A, b, opts=rk.SolveOptions(tol=1e-10, maxit=120, record_explicit=False)
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # a dozen-ish length-n work vectors; a retained basis would need
    # maxit * n * 8 = 384 kB
    assert peak < 200_000
