import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import rskrylov as rk
from conftest import make_criterion07_instance


def make_inconsistent(seed, n=20, rank=15, cond=100.0, symmetric=False):
    spec = rk.RandomSpec(n=n, rank=rank, cond=cond, seed=seed)
    if symmetric:
        A = rk.make_random_symmetric_singular(spec)
        Ap = np.linalg.pinv(A, rcond=1e-9)
    else:
        A, Ap = rk.make_random_range_symmetric(spec)
    rng = np.random.default_rng(seed + 1000)
    b_cons = A @ rng.standard_normal(n)
    nullv = rng.standard_normal(n)
    nullv -= Ap @ (A @ nullv)
    nullv /= np.linalg.norm(nullv)
    b_inc = b_cons + 0.5 * np.linalg.norm(b_cons) * nullv
    return A, Ap, b_cons, b_inc


def test_gmres_identity():
    rep = rk.gmres_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert_allclose(rep.solution, [1.0, 2.0, 3.0], atol=1e-14)
    assert rep.iterations == 1


def test_gmres_singular_2x2():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.gmres_solve(A, np.array([1.0, 1.0]))
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert_allclose(rep.lifted_solution, [1.0, 0.0], atol=1e-14)
    # residual is (0, 1): A r = 0
    assert rep.aresidual_history[-1] <= 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_gmres_consistent_recovers_pseudoinverse(seed):
    A, Ap, b_cons, _ = make_inconsistent(seed)
    rep = rk.gmres_solve(A, b_cons, tol=1e-12, maxit=80)
    xstar = Ap @ b_cons
    assert np.linalg.norm(rep.solution - xstar) <= 1e-8 * np.linalg.norm(xstar)


@pytest.mark.parametrize("seed", range(5))
def test_gmres_lifted_inconsistent(seed):
    A, Ap, _, b_inc = make_inconsistent(seed)
    rep = rk.gmres_solve(A, b_inc, tol=1e-9, maxit=80)
    xstar = Ap @ b_inc
    assert rep.lifted_solution is not None
    assert np.linalg.norm(rep.lifted_solution - xstar) <= 1e-7 * np.linalg.norm(xstar)


def test_rrgmres_identity():
    rep = rk.rrgmres_solve(np.eye(2), np.array([1.0, 2.0]))
    assert_allclose(rep.solution, [1.0, 2.0], atol=1e-14)
    assert rep.iterations == 1


def test_rrgmres_singular_2x2_direct():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.rrgmres_solve(A, np.array([1.0, 1.0]))
    assert_allclose(rep.solution, [1.0, 0.0], atol=1e-14)
    assert rep.lifted_solution is None


@pytest.mark.parametrize("seed", range(5))
def test_rrgmres_pseudoinverse_both_cases(seed):
    A, Ap, b_cons, b_inc = make_inconsistent(seed)
    for b in (b_cons, b_inc):
        rep = rk.rrgmres_solve(A, b, tol=1e-10, maxit=80)
        xstar = Ap @ b
        assert np.linalg.norm(rep.solution - xstar) <= 1e-8 * np.linalg.norm(xstar)


def test_dgmres_singular_2x2():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.dgmres_solve(A, np.array([1.0, 1.0]))
    assert_allclose(rep.solution, [1.0, 0.0], atol=1e-14)


def test_dgmres_identity():
    rep = rk.dgmres_solve(np.eye(2), np.array([5.0, -2.0]))
    assert_allclose(rep.solution, [5.0, -2.0], atol=1e-14)
    assert rep.iterations == 1


def test_dgmres_bvp_matches_oracle():
    spec = rk.BvpSpec(m=30, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, "inconsistent_xy")
    rep = rk.dgmres_solve(A, b, tol=1e-10, maxit=400)
    assert rep.aresidual_history[-1] <= 1e-8 * rep.aresidual_history[0]
    xstar = rk.pseudoinverse_solve(A.toarray(), b)
    assert np.linalg.norm(rep.solution - xstar) <= 1e-6 * np.linalg.norm(xstar)


@pytest.mark.parametrize("method", ["gmres", "rrgmres"])
@pytest.mark.parametrize("seed", range(3))
def test_residual_monotonicity(method, seed):
    A, Ap, b_cons, b_inc = make_inconsistent(seed)
    for b in (b_cons, b_inc):
        rep = rk.SOLVERS[method](A, b, tol=1e-10, maxit=80)
        h = rep.residual_history
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))


@pytest.mark.parametrize("seed", range(3))
def test_dgmres_aresidual_monotonicity(seed):
    A, Ap, b_cons, b_inc = make_inconsistent(seed)
    for b in (b_cons, b_inc):
        rep = rk.dgmres_solve(A, b, tol=1e-10, maxit=80)
        h = rep.aresidual_history
        assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))


@pytest.mark.parametrize("seed", range(4))
def test_family_agreement_inconsistent(seed):
    # lifted GMRES, RRGMRES, and DGMRES all land on the pseudoinverse
    # solution, hence agree pairwise
    A, Ap, _, b_inc = make_inconsistent(seed)
    xs = []
    rep = rk.gmres_solve(A, b_inc, tol=1e-9, maxit=80)
    xs.append(rep.lifted_solution)
    xs.append(rk.rrgmres_solve(A, b_inc, tol=1e-10, maxit=80).solution)
    xs.append(rk.dgmres_solve(A, b_inc, tol=1e-10, maxit=80).solution)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            gap = np.linalg.norm(xs[i] - xs[j]) / np.linalg.norm(xs[j])
            assert gap <= 1e-7


def test_gmres_inconsistent_ill_conditioning_onset():
    # once the iterate nears the least squares solution, the projected
    # problem degenerates while the A-residual keeps shrinking
    A, Ap, _, b_inc = make_inconsistent(3, n=40, rank=30, cond=1e4)
    rep = rk.gmres_solve(A, b_inc, tol=1e-13, maxit=160)
    assert rep.termination == rk.SINGULAR_FINAL_SYSTEM
    st = rk.arnoldi_init(A, b_inc)
    steps = 0
    while steps <= rep.iterations:
        if rk.arnoldi_step(st, A) == "breakdown":
            break
        steps += 1
    kH = rk.cond_number(st.hessenberg(), rank_tol=0.0)
    assert kH > 1e6
    # the returned iterate is a least squares solution: its A-residual is
    # negligible even though the run was pushed past the usable tolerance
    assert rep.aresidual_history[-1] <= 1e-8 * rep.aresidual_history[0]
    kA = rk.cond_number(A)
    # the hat-space factor stays as well conditioned as the matrix
    st = rk.arnoldi_init(A, np.asarray(A @ b_inc))
    m = rk.krylov_max_dim(A, A @ b_inc)
    for _ in range(m):
        if rk.arnoldi_step(st, A) == "breakdown":
            break
    assert rk.cond_number(st.hessenberg()) <= (1 + 1e-8) * kA


def test_zero_rhs_returns_x0():
    A = np.eye(3)
    rep = rk.gmres_solve(A, np.zeros(3))
    assert_allclose(rep.solution, np.zeros(3))
    assert rep.termination == rk.CONVERGED
    assert rep.iterations == 0


def test_a_r0_zero_returns_x0_for_hat_methods():
    # b in null(A): A r0 = 0, so x0 = 0 already minimizes over range(A)
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([0.0, 1.0])
    for method in ("rrgmres", "dgmres", "rsmar1", "rsmar2", "minares"):
        rep = rk.SOLVERS[method](A, b)
        assert_allclose(rep.solution, np.zeros(2))
        assert rep.termination == rk.CONVERGED
        assert rep.stop_rule == "aresidual"
        assert rep.matvec_history.tolist() == [1]  # the seed matvec
        assert rep.matvec_count == 1


def test_vanishing_seed_after_a_restart_spends_no_matvec_after_the_last_row():
    # rsmar2's first cycle (one step) ends maxit at x = (1, 1), whose
    # residual (0, 1) is in null(A); the second cycle's A r0 vanishes
    A = np.diag([1.0, 0.0])
    rep = rk.rsmar2_solve(
        A, np.ones(2), restart=1, maxit=5, tol=1e-40, record_explicit=False
    )
    assert rep.termination == rk.CONVERGED
    assert rep.stop_rule == "aresidual"
    assert rep.iterations == 1
    assert rep.matvec_count == rep.matvec_history[-1]
    assert_allclose(rep.lifted_solution, [1.0, 0.0], atol=1e-14)


@pytest.mark.parametrize("method", ["gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2"])
def test_vanishing_seed_after_a_restart_writes_its_aresidual_in_the_last_row(method):
    # rsmar2's second cycle starts at an x whose residual (0, 1) is in
    # null(A): the seed exit's |A r| = 0 replaces the nan that the
    # estimate-mode maxit tail of the first cycle left in the row.
    A = np.diag([1.0, 0.0])
    rep = rk.SOLVERS[method](A, np.ones(2), restart=1, tol=1e-40, record_explicit=False)
    r = np.ones(2) - A @ rep.solution
    assert rep.aresidual_history[-1] == np.linalg.norm(A @ r) == 0.0
    assert rep.matvec_count == rep.matvec_history[-1]


def test_maxit_termination():
    A, Ap, b_cons, _ = make_inconsistent(0)
    rep = rk.gmres_solve(A, b_cons, tol=1e-12, maxit=3)
    assert rep.termination == rk.MAXIT
    assert rep.iterations == 3


def make_definite_singular(seed, n=24, rank=18):
    # restarted runs need a definite field of values to make progress;
    # random indefinite spectra legitimately stagnate them
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    U = Q * np.sign(np.diag(R))
    C = np.eye(rank) + 0.3 * rng.standard_normal((rank, rank)) / np.sqrt(rank)
    A = U[:, :rank] @ C @ U[:, :rank].T
    b = A @ rng.standard_normal(n)
    return A, b


# Explicit-mode cases keep the bare method name as their id.
RESTART_CASES = [
    pytest.param(method, explicit, id=method if explicit else f"{method}-estimate")
    for explicit in (True, False)
    for method in ("gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2")
]


@pytest.mark.parametrize("method, explicit", RESTART_CASES)
def test_restart_converges(method, explicit):
    A, b = make_definite_singular(1)
    opts = rk.SolveOptions(tol=1e-8, maxit=300, restart=6, record_explicit=explicit)
    rep = rk.SOLVERS[method](A, b, opts=opts)
    assert rep.termination in (rk.CONVERGED, rk.HAPPY_BREAKDOWN)
    if explicit:
        assert rep.residual_history[-1] <= 1e-7 * rep.residual_history[0]
    # estimate-mode residual rows are nan for the A-residual minimizers
    assert np.linalg.norm(b - A @ rep.solution) <= 1e-7 * np.linalg.norm(b)
    assert rep.iterations > 6  # actually used more than one cycle
    assert len(rep.residual_history) == rep.iterations + 1
    xstar = rk.pseudoinverse_solve(A, b)
    assert np.linalg.norm(rep.solution - xstar) <= 1e-5 * np.linalg.norm(xstar)


def test_estimate_mode_histories():
    A, Ap, b_cons, _ = make_inconsistent(2)
    rep = rk.gmres_solve(
        A, b_cons, opts=rk.SolveOptions(tol=1e-10, maxit=80, record_explicit=False)
    )
    # in estimate mode the residual history is the recurrence estimate and
    # the A-residual is unavailable mid-run (the closure row, if any, is
    # recomputed explicitly)
    assert np.all(np.isnan(rep.aresidual_history[1:-1]))
    assert_allclose(rep.residual_history[:-1], rep.estimate_history[:-1])
    xstar = Ap @ b_cons
    assert np.linalg.norm(rep.solution - xstar) <= 1e-6 * np.linalg.norm(xstar)


def test_estimate_tracks_explicit_residual():
    A, Ap, b_cons, _ = make_inconsistent(4)
    rep = rk.gmres_solve(A, b_cons, tol=1e-10, maxit=80)
    dev = np.max(np.abs(rep.estimate_history - rep.residual_history))
    assert dev <= 1e-8 * rep.residual_history[0]


def test_rrgmres_estimate_tracks_explicit_residual_on_grid():
    # |r0|^2 - |V^T r0|^2 cancels to zero on this consistent system once
    # the residual falls below about 1e-8 |r0|; the out-of-basis part of
    # r0, kept as a vector, does not.
    spec = rk.BvpSpec(m=20, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, "consistent_random", 0, A)
    rep = rk.rrgmres_solve(A, b, tol=1e-12, maxit=400)
    ratio = rep.estimate_history / rep.residual_history
    assert np.all(np.abs(ratio - 1.0) <= 0.01)


def test_matvec_count_exact_estimate_mode():
    # estimate mode: one matvec per Arnoldi step, one seed matvec for the
    # hat-space methods, two closure recomputations when the run ends at
    # the subspace closure
    A, Ap, b_cons, _ = make_inconsistent(0)
    rep = rk.gmres_solve(
        A, b_cons, opts=rk.SolveOptions(tol=1e-6, maxit=60, record_explicit=False)
    )
    closure = 2 if rep.termination == rk.HAPPY_BREAKDOWN else 0
    assert rep.matvec_count == rep.iterations + closure
    rep = rk.rrgmres_solve(
        A, b_cons, opts=rk.SolveOptions(tol=1e-6, maxit=60, record_explicit=False)
    )
    closure = 2 if rep.termination == rk.HAPPY_BREAKDOWN else 0
    assert rep.matvec_count == rep.iterations + 1 + closure


def test_matvec_count_exact_explicit_mode():
    # explicit mode on a consistent system that terminates at subspace
    # closure: one Arnoldi matvec per step plus two recomputations per
    # iteration (the hat method spends one extra seed matvec, but its
    # closure iterate needs no Arnoldi step)
    A, Ap, b_cons, _ = make_inconsistent(0)
    rep = rk.gmres_solve(A, b_cons, opts=rk.SolveOptions(tol=1e-6, maxit=60))
    assert rep.termination == rk.HAPPY_BREAKDOWN
    assert rep.matvec_count == 3 * rep.iterations
    rep = rk.dgmres_solve(A, b_cons, opts=rk.SolveOptions(tol=1e-6, maxit=60))
    assert rep.termination == rk.HAPPY_BREAKDOWN
    assert rep.matvec_count == 3 * rep.iterations + 1


@pytest.mark.parametrize(
    "method", ["gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2"]
)
def test_nonzero_initial_guess_projection(method):
    # on a consistent system every method lands on the projection of the
    # initial guess onto the solution set
    A, Ap, b_cons, _ = make_inconsistent(6)
    rng = np.random.default_rng(99)
    x0 = rng.standard_normal(A.shape[0])
    rep = rk.SOLVERS[method](A, b_cons, x0=x0, tol=1e-11, maxit=100)
    expected = Ap @ b_cons + x0 - Ap @ (A @ x0)
    err = np.linalg.norm(rep.solution - expected) / np.linalg.norm(expected)
    assert err <= 1e-7


def test_concurrent_solves_share_matrix():
    A, Ap, b_cons, b_inc = make_inconsistent(5)
    results = {}

    def work(name, b):
        results[name] = rk.gmres_solve(A, b, tol=1e-9, maxit=80)

    threads = [
        threading.Thread(target=work, args=("cons", b_cons)),
        threading.Thread(target=work, args=("inc", b_inc)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    xstar = Ap @ b_cons
    assert (
        np.linalg.norm(results["cons"].solution - xstar)
        <= 1e-6 * np.linalg.norm(xstar)
    )
    assert results["inc"].lifted_solution is not None


@pytest.mark.parametrize("method", ["gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2"])
@pytest.mark.parametrize("seed", range(10))
def test_success_tag_implies_aresidual_floor(method, seed):
    # criterion-07 systems: near closure the square subproblem is
    # numerically singular, and a success tag must still come with an
    # explicit A-residual at the floor
    A, Ap, b = make_criterion07_instance(seed)
    rep = rk.SOLVERS[method](A, b, tol=1e-13, maxit=4 * A.shape[0])
    if rep.termination in (rk.CONVERGED, rk.HAPPY_BREAKDOWN):
        ares = np.linalg.norm(A @ (b - A @ rep.solution))
        assert ares <= 1e-6 * np.linalg.norm(A @ b), rep.termination


@pytest.mark.parametrize("method", ["gmres", "rrgmres"])
@pytest.mark.parametrize(
    "seed, n, rank, log_cond, tol, inconsistent",
    [
        # |A r| rises two- to tenfold on the way down, after the residual
        # is already numerically in null(A)
        (889295, 16, 12, 5.714, 1e-8, True),
        # |A r| rises more than tenfold early on, while the residual is
        # still in range(A)
        (822627, 11, 4, 3.922, 1e-10, False),
        (822627, 11, 4, 3.922, 1e-10, True),
    ],
)
def test_estimate_mode_floor_rule_ignores_transient_rise(
    method, seed, n, rank, log_cond, tol, inconsistent
):
    # neither rise is the attainable floor: estimate mode must run on to
    # the stop and the answer of explicit mode
    A, _, b_cons, b_inc = make_inconsistent(seed, n=n, rank=rank, cond=10**log_cond)
    b = b_inc if inconsistent else b_cons
    explicit = rk.SOLVERS[method](A, b, tol=tol, maxit=4 * n)
    rep = rk.SOLVERS[method](A, b, tol=tol, maxit=4 * n, record_explicit=False)
    assert (rep.termination, rep.iterations) == (
        explicit.termination,
        explicit.iterations,
    )
    x_exp, x_est = (
        r.lifted_solution if r.lifted_solution is not None else r.solution
        for r in (explicit, rep)
    )
    assert np.linalg.norm(x_est - x_exp) <= 1e-6 * np.linalg.norm(x_exp)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    n=st.integers(10, 60),
    rank_share=st.floats(0.25, 0.95),
    log_cond=st.floats(1.0, 6.0),
    seed=st.integers(0, 10**6),
    tol=st.sampled_from([1e-8, 1e-10, 1e-13]),
)
def test_success_tag_implies_aresidual_floor_on_random_systems(
    n, rank_share, log_cond, seed, tol
):
    # no long-recurrence method may report success with an explicit
    # A-residual above the floor, on consistent or inconsistent systems,
    # and neither may gmres or rrgmres without explicit monitoring, nor
    # minres or minares on symmetric systems
    rank = min(n - 1, max(1, round(rank_share * n)))
    runs = [("gmres", True), ("rrgmres", True), ("dgmres", True)]
    runs += [("rsmar1", True), ("rsmar2", True), ("gmres", False), ("rrgmres", False)]
    for symmetric, methods in ((False, runs), (True, [("minres", True), ("minares", True)])):
        A, _, b_cons, b_inc = make_inconsistent(
            seed, n=n, rank=rank, cond=10**log_cond, symmetric=symmetric
        )
        for b in (b_cons, b_inc):
            ares0 = np.linalg.norm(A @ b)
            for method, explicit in methods:
                rep = rk.SOLVERS[method](
                    A, b, tol=tol, maxit=4 * n, record_explicit=explicit
                )
                if rep.termination in (rk.CONVERGED, rk.HAPPY_BREAKDOWN):
                    ares = np.linalg.norm(A @ (b - A @ rep.solution))
                    assert ares <= 1e-6 * ares0, (method, explicit, rep.termination)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    n=st.integers(10, 60),
    rank_share=st.floats(0.25, 0.95),
    log_cond=st.floats(1.0, 6.0),
    seed=st.integers(0, 10**6),
    tol=st.sampled_from([1e-8, 1e-10, 1e-13]),
)
def test_estimate_mode_success_tag_holds_for_the_norm_its_rule_names(
    n, rank_share, log_cond, seed, tol
):
    # Without explicit monitoring every method stops on estimates; a
    # success tag must still hold for the explicit norm that names it:
    # "aresidual" and "residual" ten times their floors at most, a happy
    # breakdown the A-residual floor of the test above.
    rank = min(n - 1, max(1, round(rank_share * n)))
    for symmetric, methods in ((False, LONG_METHODS), (True, ("minres", "minares"))):
        A, _, b_cons, b_inc = make_inconsistent(
            seed, n=n, rank=rank, cond=10**log_cond, symmetric=symmetric
        )
        for b in (b_cons, b_inc):
            res0, ares0 = np.linalg.norm(b), np.linalg.norm(A @ b)
            for method in methods:
                rep = rk.SOLVERS[method](
                    A, b, tol=tol, maxit=4 * n, record_explicit=False
                )
                r = b - A @ rep.solution
                res, ares = np.linalg.norm(r), np.linalg.norm(A @ r)
                tag = (method, rep.termination, rep.stop_rule)
                if rep.stop_rule == "aresidual":
                    assert ares <= 10 * tol * ares0, tag
                elif rep.stop_rule == "residual":
                    assert res <= 10 * tol * res0, tag
                elif rep.termination == rk.HAPPY_BREAKDOWN:
                    assert ares <= 1e-6 * ares0, tag


@pytest.mark.parametrize("method", ["gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2"])
def test_restarted_run_stagnates_honestly_on_inconsistent_system(method):
    # Ten-step cycles on this inconsistent system stall at |A r|/|A r0|
    # of 0.11-0.36.  The run must say so (maxit) and must not lift an
    # iterate that is not a least squares solution.
    A, _, _, b = make_inconsistent(1, n=40, rank=30)
    rep = rk.SOLVERS[method](
        A, b, opts=rk.SolveOptions(tol=1e-8, maxit=400, restart=10)
    )
    assert rep.termination == rk.MAXIT
    assert rep.lifted_solution is None
    ares = np.linalg.norm(A @ (b - A @ rep.solution))
    assert ares > 1e-2 * np.linalg.norm(A @ b)


def test_gmres_degenerate_closure_returns_best_iterate():
    # seed 909: the closure solve lowers |r| by rounding noise while |A r|
    # jumps to 0.12 |A r0|; the best iterate seen is returned and lifted
    A, Ap, b = make_criterion07_instance(9)
    rep = rk.gmres_solve(A, b, tol=1e-13, maxit=4 * A.shape[0])
    assert rep.termination == rk.SINGULAR_FINAL_SYSTEM
    xstar = Ap @ b
    assert rep.lifted_solution is not None
    assert np.linalg.norm(rep.lifted_solution - xstar) <= 1e-6 * np.linalg.norm(xstar)


@pytest.mark.parametrize("explicit", [True, False])
@pytest.mark.parametrize("restart", [None, 4])
@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
def test_rhs_in_the_null_space_returns_zero(method, restart, explicit):
    # b numerically in null(A): A b is rounding noise, so the 1x1 square
    # system at a closure at step 1 is numerically singular, and its solve
    # is huge (|x| up to 6e14 for gmres) while its |A r| is above x_in's.
    # No iterate is checked before it, so the closure guard compares its
    # |A r| with x_in's; x_in = 0 is the least squares solution A^+ b.
    for seed in range(40):
        A, _ = rk.make_random_range_symmetric(rk.RandomSpec(n=12, rank=9, seed=seed))
        b = 3.0 * np.linalg.svd(A)[0][:, -1]
        rep = rk.SOLVERS[method](A, b, restart=restart, record_explicit=explicit)
        assert np.linalg.norm(rep.solution) <= 1e-6, seed


@pytest.mark.parametrize("method", ["gmres", "rrgmres"])
def test_estimate_mode_convergence_confirmed_by_explicit_residual(method):
    # On this inconsistent grid system the residual estimate of both
    # methods falls below the floor near subspace closure while the
    # iterate is far from any least squares solution.  Estimate mode must
    # end at a least squares solution, and each stop rule must hold for
    # the explicit norm it names.
    spec = rk.BvpSpec(m=20, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, "inconsistent_xy")
    tol = 1e-8
    rep = rk.SOLVERS[method](A, b, tol=tol, maxit=400, record_explicit=False)
    r = b - A @ rep.solution
    assert rep.termination != rk.HAPPY_BREAKDOWN
    if rep.stop_rule == "residual":
        assert np.linalg.norm(r) <= 10 * tol * np.linalg.norm(b)
    if rep.stop_rule == "aresidual":
        assert np.linalg.norm(A @ r) <= 10 * tol * np.linalg.norm(A @ b)
    x = rep.lifted_solution if rep.lifted_solution is not None else rep.solution
    xstar = rk.pseudoinverse_solve(A.toarray(), b)
    assert np.linalg.norm(x - xstar) <= 1e-6 * np.linalg.norm(xstar)


@pytest.mark.parametrize("method", ["gmres", "rrgmres"])
@pytest.mark.parametrize(
    "rhs, tol", [("consistent_random", 1e-12), ("inconsistent_xy", 1e-8)]
)
def test_estimate_mode_stops_where_explicit_mode_does_on_grid(method, rhs, tol):
    # The A-residual estimate stops estimate mode within two iterations of
    # the iterate explicit mode returns (its smallest explicit |A r|), at
    # the pseudoinverse solution.  Before, estimate mode ran both methods
    # on the inconsistent system towards closure and returned iterates
    # with errors near 1e14.
    spec = rk.BvpSpec(m=20, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, rhs, 0, A)
    explicit = rk.SOLVERS[method](A, b, tol=tol, maxit=400)
    rep = rk.SOLVERS[method](A, b, tol=tol, maxit=400, record_explicit=False)
    assert abs(rep.iterations - np.argmin(explicit.aresidual_history)) <= 2
    x = rep.lifted_solution if rep.lifted_solution is not None else rep.solution
    xstar = rk.pseudoinverse_solve(A.toarray(), b)
    assert np.linalg.norm(x - xstar) <= 1e-6 * np.linalg.norm(xstar)


@pytest.mark.parametrize("method", ["gmres", "rrgmres"])
@pytest.mark.parametrize("seed", range(10))
def test_estimate_mode_returns_best_iterate_on_criterion07(method, seed):
    # Estimate mode used to return x0 (|A r|/|A r0| = 1) at the degenerate
    # closure of these systems; it now returns the best iterate, checked
    # explicitly, and a success tag still implies the A-residual floor.
    A, Ap, b = make_criterion07_instance(seed)
    rep = rk.SOLVERS[method](
        A, b, tol=1e-13, maxit=4 * A.shape[0], record_explicit=False
    )
    ares = np.linalg.norm(A @ (b - A @ rep.solution)) / np.linalg.norm(A @ b)
    assert ares <= 1e-9
    assert rep.aresidual_history[-1] == pytest.approx(
        ares * rep.aresidual_history[0], rel=1e-3
    )
    if rep.termination in (rk.CONVERGED, rk.HAPPY_BREAKDOWN):
        assert ares <= 1e-6


def grid_m50(rhs):
    """A grid system of the ``grid-explicit`` benchmark, with its options:
    explicit checks from step 65 on are summed by the delayed Arnoldi pass
    of the next step."""
    spec = rk.BvpSpec(m=50, d=10.0)
    A = rk.make_bvp_matrix(spec)
    if rhs == "consistent":
        b, tol = rk.make_bvp_rhs(spec, "consistent_random", 0, A), 1e-12
    else:
        b, tol = rk.make_bvp_rhs(spec, "inconsistent_xy"), 1e-8
    return A, b, dict(tol=tol, maxit=400)


def ending_system(name):
    """The systems of the history-ending test, with their options."""
    if name.startswith("c07"):
        A, _, b = make_criterion07_instance(int(name[-1]))
        return A, b, dict(tol=1e-13, maxit=4 * A.shape[0])
    if name.endswith("consistent"):
        return grid_m50(name.split("-")[-1])
    m, d, tol = {
        "grid-m20-d10": (20, 10.0, 1e-9),
        "grid-m10-d0": (10, 0.0, 1e-9),
        "grid-m50-d0": (50, 0.0, 1e-8),
    }[name]
    spec = rk.BvpSpec(m=m, d=d)
    A = rk.make_bvp_matrix(spec)
    return A, rk.make_bvp_rhs(spec, "inconsistent_xy"), dict(tol=tol)


@pytest.mark.parametrize("explicit", [True, False])
@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
@pytest.mark.parametrize(
    "system",
    [
        "grid-m20-d10",
        "grid-m10-d0",
        "c07-s1",
        "c07-s3",
        "c07-s9",
        "grid-m50-consistent",
        "grid-m50-inconsistent",
        "grid-m50-d0",
    ],
)
def test_history_ends_at_the_returned_iterate(system, method, explicit):
    # On the grids explicit gmres and minres return an iterate checked
    # before the last one; on c07 rsmar2 and estimate-mode gmres and
    # rrgmres end at a singular closure with an earlier iterate; on the
    # m=50 grid the explicit check of the long methods is deferred to the
    # next Arnoldi step; on the m=50 d=0 grid estimate-mode minres ends
    # singular_final_system with the iterate it held two steps back.  The
    # last row holds the explicit norms of the answer, and the closure step
    # is the last iteration; no matvec is spent after the last row.
    A, b, options = ending_system(system)
    rep = rk.SOLVERS[method](A, b, record_explicit=explicit, **options)
    r = b - A @ rep.solution
    rn, arn = np.linalg.norm(r), np.linalg.norm(A @ r)
    assert rep.residual_history[-1] == pytest.approx(rn, rel=1e-12, abs=0.0)
    # estimate mode checks only |r| after a maxit or residual stop
    if explicit or (rep.termination != rk.MAXIT and rep.stop_rule != "residual"):
        assert rep.aresidual_history[-1] == pytest.approx(arn, rel=1e-12, abs=0.0)
    if rep.detected_ell is not None:
        assert rep.iterations == rep.detected_ell
    assert rep.matvec_count == rep.matvec_history[-1]


LONG_METHODS = ("gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2")
MODES = [pytest.param(True, id="explicit"), pytest.param(False, id="estimate")]

# The ten grid-explicit benchmark solves: iterations, termination, stop
# rule and whether the answer is lifted.
GRID_M50_EXPLICIT = {
    "consistent": {
        "gmres": (237, "converged", "aresidual", False),
        "rrgmres": (261, "converged", "aresidual", False),
        "dgmres": (253, "converged", "aresidual", False),
        "rsmar1": (230, "converged", "aresidual", False),
        "rsmar2": (229, "converged", "aresidual", False),
    },
    "inconsistent": {
        "gmres": (101, "singular_final_system", None, True),
        "rrgmres": (107, "converged", "aresidual", False),
        "dgmres": (107, "converged", "aresidual", False),
        "rsmar1": (102, "converged", "aresidual", True),
        "rsmar2": (102, "converged", "aresidual", True),
    },
}


@pytest.mark.parametrize("method", LONG_METHODS)
@pytest.mark.parametrize("rhs", ["consistent", "inconsistent"])
def test_grid_m50_explicit_runs_are_pinned(rhs, method):
    # Every check from step 65 on is summed by the next step's delayed
    # Arnoldi pass; the rules and the decisions are those of a check made
    # at once.
    A, b, options = grid_m50(rhs)
    rep = rk.SOLVERS[method](A, b, **options)
    lifted = rep.lifted_solution is not None
    got = (rep.iterations, rep.termination, rep.stop_rule, lifted)
    assert got == GRID_M50_EXPLICIT[rhs][method]
    assert rep.detected_ell is None
    assert rep.matvec_count == rep.matvec_history[-1]


def grid_system(m=10):
    spec = rk.BvpSpec(m=m, d=10.0)
    A = rk.make_bvp_matrix(spec)
    return A, rk.make_bvp_rhs(spec, "consistent_random", 0, A)


def assert_same_report(got, want):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and other.tobytes() == value.tobytes(), name
        else:
            assert other == value, name


@pytest.mark.parametrize("explicit", MODES)
@pytest.mark.parametrize("method", LONG_METHODS)
def test_cycle_never_regrows_its_basis(monkeypatch, method, explicit):
    def grow(owner):
        raise AssertionError(f"{type(owner).__name__} regrown at step {owner.k}")

    monkeypatch.setattr(rk.ArnoldiState, "_grow", grow)
    monkeypatch.setattr(rk.HessenbergQr, "_grow", grow)
    A, b = grid_system()  # n = 100: closure within an unrestarted run
    runs = [dict(maxit=70), dict(maxit=70, restart=40), dict()]
    iterations = [
        rk.SOLVERS[method](A, b, tol=1e-14, record_explicit=explicit, **kw).iterations
        for kw in runs
    ]
    assert max(iterations) > 40  # past the 32 rows an unreserved run starts with
    # cycles longer than n reserve n rows
    A, _, b_cons, _ = make_inconsistent(3, n=40, rank=30)
    rk.SOLVERS[method](A, b_cons, tol=1e-14, maxit=200, record_explicit=explicit)


@pytest.mark.parametrize("explicit", MODES)
@pytest.mark.parametrize("method", LONG_METHODS)
def test_refused_reservation_gives_the_same_report(monkeypatch, method, explicit):
    A, b = grid_system()
    opts = rk.SolveOptions(tol=1e-14, maxit=45, record_explicit=explicit)
    want = rk.SOLVERS[method](A, b, opts=opts)
    # The reservation of a 45-step cycle: 47 basis vectors and their
    # [beta e1, H], then R and W of each factor for 45 columns.  Refusing
    # either of the first two gives the 32-row pair; refusing R, or W once
    # R was granted, starts both factors at order 8.
    cases = [("empty", (47, 100), 0), ("zeros", (48, 48), 0)]
    cases += [("zeros", (45, 45), 0), ("zeros", (45, 45), 1)]
    for name, shape, granted in cases:
        allocate = getattr(np, name)
        asked_for = []

        def refusing(asked, *args, **kwargs):
            if asked == shape:
                asked_for.append(asked)
                if len(asked_for) > granted:
                    raise MemoryError
            return allocate(asked, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, name, refusing)
            got = rk.SOLVERS[method](A, b, opts=opts)
        # a refusal happened, and the fallback arrays had to grow
        assert len(asked_for) > granted and got.iterations > 32
        assert_same_report(got, want)


# Row 0 of matvec_history counts the matvecs taken before the first step:
# the seed A r0 of the methods seeded by it, and the Arnoldi step that
# rsmar2 and dgmres take ahead.
FIRST_ROW = {
    "gmres": 0,
    "minres": 0,
    "rrgmres": 1,
    "rsmar1": 1,
    "rsmar2": 1,
    "minares": 1,
    "dgmres": 2,
}


@pytest.mark.parametrize("explicit", MODES)
@pytest.mark.parametrize("method", FIRST_ROW)
def test_first_history_row_counts_seed_matvecs(method, explicit):
    A = rk.make_random_symmetric_singular(rk.RandomSpec(n=20, rank=15, seed=4))
    b = A @ np.random.default_rng(4).standard_normal(20)
    for x0, extra in ((None, 0), (np.ones(20), 1)):  # r0 = b - A x0 costs one
        rep = rk.SOLVERS[method](A, b, x0=x0, tol=1e-10, record_explicit=explicit)
        assert rep.iterations > 0
        assert rep.matvec_history[0] == FIRST_ROW[method] + extra
