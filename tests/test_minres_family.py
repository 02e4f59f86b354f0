import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rskrylov as rk
from rskrylov._common import Histories, prepare
from rskrylov.minres_family import _Minares, _Minres


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
    # the rotated factor turns singular at step 2, whose A-residual
    # estimate of iterate 1 is 0: one explicit check confirms it, and
    # iterate 1 (not the start x0 = 0) is returned and lifted to A^+ b,
    # as estimate-mode gmres does
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = rk.minres_solve(A, np.array([1.0, 1.0]), record_explicit=False)
    assert (rep.termination, rep.stop_rule) == (rk.CONVERGED, "aresidual")
    assert rep.iterations == 1
    assert rep.matvec_count == 4  # two steps and the confirming check
    assert_allclose(rep.solution, [1.0, 1.0], atol=1e-14)
    assert_allclose(rep.lifted_solution, [1.0, 0.0], atol=1e-14)


def inconsistent_grid(m):
    spec = rk.BvpSpec(m=m, d=0.0)
    A = rk.make_bvp_matrix(spec)
    return A, rk.make_bvp_rhs(spec, "inconsistent_xy")


@pytest.mark.parametrize("m", [8, 10])
def test_minres_estimate_mode_stops_at_the_least_squares_floor_on_grid(m):
    # Watching only its residual estimate, which cannot reach tol |r0| on
    # an inconsistent system, estimate mode took a singular closure for a
    # happy breakdown at m=8 (error 1.4e13) and ran to maxit at m=10
    # (error 2.1e16).  The A-residual estimate stops it, confirmed.
    A, b = inconsistent_grid(m)
    rep = rk.minres_solve(A, b, tol=1e-8, record_explicit=False)
    assert (rep.termination, rep.stop_rule) == (rk.CONVERGED, "aresidual")
    xstar = rk.pseudoinverse_solve(A.toarray(), b)
    assert np.linalg.norm(rep.lifted_solution - xstar) <= 1e-7 * np.linalg.norm(xstar)


def test_minres_estimate_mode_falls_back_to_the_held_best_iterate():
    # Past the attainable floor the A-residual estimate rises tenfold
    # (the floor rule): the best-estimate iterate 32, which the recurrence
    # no longer holds as x or x_prev, is returned and lifted.  Both modes
    # run the same recurrence, and explicit mode returns the same iterate
    # (4e-9 from A^+ b after the lift).
    A, b = inconsistent_grid(50)
    rep = rk.minres_solve(A, b, tol=1e-8, record_explicit=False)
    assert rep.termination == rk.SINGULAR_FINAL_SYSTEM
    assert rep.iterations == 32 and rep.detected_ell is None
    explicit = rk.minres_solve(A, b, tol=1e-8)
    assert explicit.iterations == 32
    assert_array_equal(rep.solution, explicit.solution)
    assert_array_equal(rep.lifted_solution, explicit.lifted_solution)


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
    rep = rk.minares1_solve(A, b, tol=1e-10, maxit=120, record_explicit=True)
    h = rep.estimate_history
    assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))
    dev = np.max(np.abs(rep.estimate_history - rep.aresidual_history))
    assert dev <= 1e-8 * rep.aresidual_history[0]


@pytest.mark.parametrize("consistent", [True, False])
def test_minres_aresidual_estimate_matches_explicit(consistent):
    # MINRES-QLP's recurrence for |A r| of iterate k - 1, read after step
    # k without a matvec, is the explicit value while rounding is small
    A, Ap, b = make_symmetric(3, consistent=consistent)
    Aop, b, x0, r0, opts = prepare(A, b, None, None)
    hist = Histories()
    hist.append(np.linalg.norm(r0), np.nan, np.nan, 0)
    sub = _Minres(Aop, b, x0, r0, opts, hist)
    sub.seed()
    for k in range(1, 13):
        x = sub.x
        sub.step(k)
        assert not sub.closed
        explicit = np.linalg.norm(A @ (b - A @ x))
        assert sub.ares_estimate(k) == pytest.approx(explicit, rel=1e-8)


def test_minares_w_recursion_consistency():
    # the running direction vectors reproduce [r0, Vhat_{k-1}] Rtilde^{-1}
    # computed densely from the hat-space Arnoldi data
    seed = 2
    A, Ap, b = make_symmetric(seed, n=16, rank=10, cond=10.0)
    Aop, b, x0, r0, opts = prepare(A, b, None, None, tol=1e-30)
    hist = Histories()
    hist.append(np.linalg.norm(r0), np.nan, np.nan, 0)
    sub = _Minares(Aop, b, x0, r0, opts, hist)
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


def reference_minres(A, r0, steps):
    """The iterates of the minres recurrence, written with a temporary
    per operation: what ``_Minres.step`` computes in place, bit for bit."""
    n = len(r0)
    beta1 = np.linalg.norm(r0)
    v_prev, v, beta_k = np.zeros(n), r0 / beta1, 0.0
    c1, s1, c2, s2 = 1.0, 0.0, 1.0, 0.0
    phi_bar, w1, w2, x = beta1, np.zeros(n), np.zeros(n), np.zeros(n)
    for _ in range(steps):
        w = A @ v
        alpha = float(v @ w)
        w -= alpha * v + beta_k * v_prev
        beta_next = np.sqrt(w.dot(w))
        eps, mid = s2 * beta_k, c2 * beta_k
        delta = c1 * mid + s1 * alpha
        gamma_t = -s1 * mid + c1 * alpha
        gamma = float(np.hypot(gamma_t, beta_next))
        c, s = gamma_t / gamma, beta_next / gamma
        phi, phi_bar = c * phi_bar, -s * phi_bar
        w_dir = (v - delta * w1 - eps * w2) / gamma
        x = x + phi * w_dir
        yield x
        v_prev, v, beta_k = v, w / beta_next, beta_next
        c2, s2, c1, s1 = c1, s1, c, s
        w2, w1 = w1, w_dir


def reference_minares(A, r0, steps):
    """The iterates of the minares recurrence, written with a temporary
    per operation, as :func:`reference_minres`."""
    n = len(r0)
    ar0 = A @ r0
    beta_hat = np.sqrt(ar0.dot(ar0))
    vhat_prev, vhat = np.zeros(n), ar0 / beta_hat
    w_prev, w = np.zeros(n), r0 / beta_hat
    p1, p2, x = np.zeros(n), np.zeros(n), np.zeros(n)
    t_tilde, c, s, lam_tilde, eta, beta_k = beta_hat, -1.0, 0.0, 0.0, 0.0, beta_hat
    for _ in range(steps):
        v_next = A @ vhat - beta_k * vhat_prev
        alpha = float(vhat @ v_next)
        v_next -= alpha * vhat
        beta_next = np.sqrt(v_next.dot(v_next))
        c1, s1 = c, s
        lam = c1 * lam_tilde + s1 * alpha
        delta_tilde = s1 * lam_tilde - c1 * alpha
        delta = float(np.hypot(delta_tilde, beta_next))
        c, s = delta_tilde / delta, beta_next / delta
        t_hat, t_tilde = c * t_tilde, s * t_tilde
        p = (w - eta * p2 - lam * p1) / delta
        x = x + t_hat * p
        yield x
        w_next = (vhat - beta_k * w_prev - alpha * w) / beta_next
        vhat_prev, vhat = vhat, v_next / beta_next
        w_prev, w = w, w_next
        p2, p1 = p1, p
        beta_k = beta_next
        lam_tilde, eta = -c1 * beta_next, s1 * beta_next


@pytest.mark.parametrize(
    "kind, reference",
    [(_Minres, reference_minres), (_Minares, reference_minares)],
    ids=["minres", "minares"],
)
def test_in_place_steps_match_the_reference_bytes(kind, reference):
    # The steps update their vectors in place, in the order of the
    # temporaries they replace: every iterate is the same to the bit.
    A, Ap, b = make_symmetric(5, n=200, rank=150, cond=50.0, consistent=False)
    Aop, b, x0, r0, opts = prepare(A, b, None, None)
    hist = Histories()
    hist.append(np.linalg.norm(r0), np.nan, np.nan, 0)
    sub = kind(Aop, b, x0, r0, opts, hist)
    sub.seed()
    steps = 50
    for k, x in enumerate(reference(A, r0, steps), start=1):
        sub.step(k)
        assert not sub.closed
        assert sub.x.tobytes() == x.tobytes(), k
    assert k == steps


@pytest.mark.parametrize(
    "method, explicit, bound",
    [
        ("minres", False, 13.2),
        ("minres", True, 15.2),
        ("minares", False, 14.1),
        ("minares", True, 15.2),
    ],
    ids=["minres-estimate", "minres-explicit", "minares-estimate", "minares-explicit"],
)
def test_short_recurrence_live_vectors(method, explicit, bound):
    # Peak traced memory in length-n vectors, one above what the in-place
    # steps reach: 12.1 and 14.1 for minres, 13.1 and 14.1 for minares
    # (estimates, explicit).  With a temporary per operation minares
    # reached 16.1 and 17.1.
    import tracemalloc

    A, b = inconsistent_grid(100)
    solve = rk.SOLVERS[method]
    solve(A, b, tol=1e-8, maxit=3, record_explicit=explicit)  # lazy set-up
    tracemalloc.start()
    rep = solve(A, b, tol=1e-8, record_explicit=explicit)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert rep.iterations == 71
    assert peak <= bound * 8 * A.shape[0]


@pytest.mark.parametrize("explicit", [True, False])
def test_minares_singular_rotated_factor_ends_singular(explicit):
    # The second eigenvalue is at the rounding level of the first and b is
    # large along its eigenvector, so A r0 = (1, 1, 0) has equal parts on
    # both: at step 2 the Lanczos space closes with a rotated factor that
    # is numerically singular.  That closure is not accepted: the run ends
    # singular_final_system at the closure step with the best iterate.
    A = np.diag([1.0, 1e-16, 0.0])
    b = np.array([1.0, 1e16, 1.0])
    rep = rk.minares1_solve(A, b, record_explicit=explicit)
    assert (rep.termination, rep.stop_rule) == (rk.SINGULAR_FINAL_SYSTEM, None)
    # the seed A r0, two steps and the check of the returned iterate
    assert (rep.iterations, rep.matvec_count) == (2, 5)
    r = b - A @ rep.solution
    assert_allclose(rep.aresidual_history[-1], np.linalg.norm(A @ r), rtol=1e-12)
    assert rep.aresidual_history[-1] <= rep.aresidual_history[0]
