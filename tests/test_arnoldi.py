import copy

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import rskrylov as rk
from rskrylov import ZeroSeedError, arnoldi, arnoldi_init, arnoldi_step
from rskrylov.operators import CountingOperator


def run_arnoldi(A, seed, steps=None, **kw):
    state = arnoldi_init(A, seed, **kw)
    n = len(seed)
    count = 0
    while steps is None or count < steps:
        out = arnoldi_step(state, A)
        count += 1
        if out == "breakdown" or count >= n:
            break
    return state


def test_init_normalizes_seed():
    state = arnoldi_init(np.eye(3), np.array([3.0, 4.0, 0.0]))
    assert state.seed_norm == 5.0
    assert_allclose(state.vector(0), [0.6, 0.8, 0.0])
    assert state.k == 0


def test_init_zero_seed():
    with pytest.raises(ZeroSeedError):
        arnoldi_init(np.eye(3), np.zeros(3))


def test_init_bvp_nullspace_seed():
    A = rk.make_bvp_matrix(rk.BvpSpec(m=10, d=10.0))
    with pytest.raises(ZeroSeedError):
        arnoldi_init(A, np.asarray(A @ np.ones(100)))


def test_identity_breaks_down_immediately():
    state = arnoldi_init(np.eye(2), np.array([1.0, 0.0]))
    assert arnoldi_step(state, np.eye(2)) == "breakdown"
    assert state.breakdown_step == 1
    assert state.column(0)[0] == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        arnoldi_step(state, np.eye(2))


def test_hand_computed_step():
    # Gram-Schmidt by hand: seed (1,1)/sqrt(2), A = diag(1,2).
    A = np.diag([1.0, 2.0])
    state = arnoldi_init(A, np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert arnoldi_step(state, A) == "advanced"
    col = state.column(0)
    assert col[0] == pytest.approx(1.5)
    assert col[1] == pytest.approx(0.5)
    assert_allclose(state.vector(1), np.array([-1.0, 1.0]) / np.sqrt(2.0))


def test_rotation_matrix_sequence():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    state = arnoldi_init(A, np.array([1.0, 0.0]))
    assert arnoldi_step(state, A) == "advanced"
    assert_allclose(state.column(0), [0.0, 1.0], atol=1e-15)
    assert arnoldi_step(state, A) == "breakdown"
    assert_allclose(state.column(1)[:2], [-1.0, 0.0], atol=1e-15)
    assert state.breakdown_step == 2
    assert rk.krylov_max_dim(A, np.array([1.0, 0.0])) == 2


@pytest.mark.parametrize(
    "builder,seed_rng",
    [
        (lambda rng: np.diag(rng.choice([1.0, 2.0, 3.0], size=12)), 0),
        (
            lambda rng: rk.make_random_symmetric_singular(
                rk.RandomSpec(n=14, rank=6, cond=5.0, seed=3)
            ),
            1,
        ),
        (lambda rng: rng.standard_normal((9, 9)), 2),
    ],
)
def test_breakdown_matches_oracle_dimension(builder, seed_rng):
    rng = np.random.default_rng(seed_rng)
    A = builder(rng)
    v = rng.standard_normal(A.shape[0])
    state = run_arnoldi(A, v)
    detected = state.breakdown_step if state.broke_down else state.k
    assert detected == rk.krylov_max_dim(A, v)


@pytest.mark.parametrize("seed", range(4))
def test_arnoldi_relation_and_orthonormality(seed):
    rng = np.random.default_rng(seed)
    n = 20
    A = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    state = run_arnoldi(A, v, steps=12)
    k = state.k
    V = state.basis(state.basis_count)
    H = state.hessenberg()
    assert np.linalg.norm(V.T @ V - np.eye(V.shape[1])) <= 1e-10
    assert np.linalg.norm(A @ V[:, :k] - V @ H[: V.shape[1]]) <= 1e-10 * np.linalg.norm(A)
    assert np.all(H[np.arange(1, k + 1), np.arange(k)][:-1] > 0)


@pytest.mark.parametrize("seed", range(4))
def test_hat_hessenberg_nonsingular_at_breakdown(seed):
    # With the seed A r0 on a range-symmetric matrix, the square Hessenberg
    # at closure is nonsingular.
    A, _ = rk.make_random_range_symmetric(
        rk.RandomSpec(n=16, rank=10, cond=30.0, seed=seed)
    )
    rng = np.random.default_rng(seed + 50)
    r0 = rng.standard_normal(16)
    state = run_arnoldi(A, A @ r0)
    assert state.broke_down
    m = state.breakdown_step
    Hm = state.hessenberg(cols=m, rows=m)
    s = np.linalg.svd(Hm, compute_uv=False)
    assert s[-1] > 1e-10 * s[0]


@pytest.mark.parametrize("seed", range(4))
def test_residual_seed_square_hessenberg_singular_when_inconsistent(seed):
    A, Ap = rk.make_random_range_symmetric(
        rk.RandomSpec(n=16, rank=10, cond=30.0, seed=seed)
    )
    rng = np.random.default_rng(seed + 60)
    b = rng.standard_normal(16)
    b = b + 0.0  # generic b has a null-space component
    state = run_arnoldi(A, b)
    assert state.broke_down
    ell = state.breakdown_step
    Hl = state.hessenberg(cols=ell, rows=ell)
    s = np.linalg.svd(Hl, compute_uv=False)
    assert s[-1] <= 1e-8 * s[0]
    assert np.sum(s > 1e-8 * s[0]) == ell - 1


@pytest.mark.parametrize("seed", range(4))
def test_kappa_bound_consistent(seed):
    A, _ = rk.make_random_range_symmetric(
        rk.RandomSpec(n=20, rank=15, cond=100.0, seed=seed)
    )
    rng = np.random.default_rng(seed + 70)
    b = A @ rng.standard_normal(20)
    kA = rk.cond_number(A)
    state = arnoldi_init(A, b)
    while True:
        out = arnoldi_step(state, A)
        assert rk.cond_number(state.hessenberg()) <= (1 + 1e-8) * kA
        if out == "breakdown":
            break


def test_full_rank_breakdown_matches_oracle_at_n40():
    # a generic dense 40 x 40 matrix has maximal Krylov dimension 40; the
    # process must not break down early and the oracle must agree
    rng = np.random.default_rng(9)
    A = rng.standard_normal((40, 40))
    v = rng.standard_normal(40)
    state = run_arnoldi(A, v)
    detected = state.breakdown_step if state.broke_down else state.k
    assert detected == 40 == rk.krylov_max_dim(A, v)


def test_reorthogonalize_improves_basis():
    rng = np.random.default_rng(1)
    n = 40
    A, _ = rk.make_random_range_symmetric(rk.RandomSpec(n=n, rank=30, cond=1e4, seed=1))
    v = rng.standard_normal(n)
    plain = run_arnoldi(A, v, steps=25)
    reorth = run_arnoldi(A, v, steps=25)

    def ortho_defect(state):
        V = state.basis(state.basis_count)
        return np.linalg.norm(V.T @ V - np.eye(V.shape[1]))

    assert ortho_defect(reorth) <= ortho_defect(plain) + 1e-15
    assert ortho_defect(reorth) <= 1e-12


def test_step_reaching_dimension_n_is_breakdown():
    # n orthonormal vectors span the space: the step that would add vector
    # n + 1 closes the subspace whatever its rounded trailing entry
    rng = np.random.default_rng(5)
    A = rng.standard_normal((5, 5))
    v = rng.standard_normal(5)
    state = arnoldi_init(A, v, breakdown_tol=1e-300)
    outcomes = [arnoldi_step(state, A) for _ in range(5)]
    assert outcomes == ["advanced"] * 4 + ["breakdown"]
    assert state.breakdown_step == 5
    assert state.basis_count == 5
    rep = rk.gmres_solve(A, v, breakdown_tol=1e-300, tol=1e-30)
    assert rep.detected_ell == 5
    assert np.linalg.norm(A @ rep.solution - v) <= 1e-10 * np.linalg.norm(v)


def test_basis_stays_orthonormal_on_grid():
    A = rk.make_bvp_matrix(rk.BvpSpec(m=20, d=10.0))
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    state = run_arnoldi(A, v, steps=150)
    assert state.k == 150 and not state.broke_down
    V = state.basis()
    assert np.linalg.norm(np.eye(V.shape[1]) - V.T @ V) <= 1e-12


def test_reserved_basis_is_written_in_place():
    # A run within its capacity keeps the array it started with; one that
    # outgrows it, or has none, grows by copying.  Every float agrees.
    A = rk.make_bvp_matrix(rk.BvpSpec(m=10, d=10.0))
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    runs = {}
    for capacity, moved in ((41, False), (500, False), (5, True), (None, True)):
        state = arnoldi_init(A, v, capacity=capacity)
        address = state.vector(0).ctypes.data
        for _ in range(40):
            assert arnoldi_step(state, A) == "advanced"
        assert (state.vector(0).ctypes.data != address) == moved
        runs[capacity] = state
    for state in runs.values():
        assert state.basis().tobytes() == runs[None].basis().tobytes()
        assert state.hessenberg().tobytes() == runs[None].hessenberg().tobytes()
    with pytest.raises(ValueError, match="capacity"):
        arnoldi_init(A, v, capacity=0)


def test_small_basis_matches_reference_cgs2_bytes():
    # Below BASIS_BYTES every step is CGS2: basis, Hessenberg columns and
    # the whole H equal this plain transcription of it bit for bit.
    A = rk.make_bvp_matrix(rk.BvpSpec(m=50, d=10.0))
    v = np.random.default_rng(2).standard_normal(A.shape[0])
    steps = 60
    assert 8 * (steps + 1) * len(v) < arnoldi.BASIS_BYTES
    V = np.empty((steps + 1, len(v)))
    V[0] = v / np.linalg.norm(v)
    columns = []
    for k in range(steps):
        Vk = V[: k + 1]
        w = A @ V[k]
        h = Vk @ w
        w -= h @ Vk
        corr = Vk @ w
        w -= corr @ Vk
        h += corr
        hnext = np.sqrt(w.dot(w))
        columns.append(np.append(h, hnext))
        V[k + 1] = w / hnext
    state = arnoldi_init(A, v, capacity=steps + 1)
    for _ in range(steps):
        assert arnoldi_step(state, A) == "advanced"
    assert state.basis().T.tobytes() == V.tobytes()
    H = np.zeros((steps + 1, steps))
    for k, col in enumerate(columns):
        assert state.column(k).tobytes() == col.tobytes()
        H[: k + 2, k] = col
    assert state.hessenberg().tobytes() == H.tobytes()
    # rsmar1's change of basis: [seed norm e1, H] cut to its leading square
    e1 = np.eye(steps, 1) * np.linalg.norm(v)
    assert state.triangle(steps).tobytes() == np.hstack((e1, H[:steps, :-1])).tobytes()


def test_delayed_basis_on_grid():
    # n = 2500: steps from k = 65 on are delayed, in blocks of 32 rows.
    A = rk.make_bvp_matrix(rk.BvpSpec(m=50, d=10.0))
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    state = run_arnoldi(A, v, steps=300)
    assert state.k == 300 and not state.broke_down
    V = state.basis()
    H = state.hessenberg()
    assert np.linalg.norm(np.eye(V.shape[1]) - V.T @ V) <= 1e-12
    assert np.linalg.norm(A @ V[:, :300] - V @ H) <= 2e-15 * np.linalg.norm(H)


@pytest.mark.parametrize("seed", range(4))
def test_delayed_relation_holds_through_cancellation(monkeypatch, seed):
    # On cond 1e4 the first pass cancels much of A v: the look-ahead must
    # carry H c into the next coefficients, or the relation loses digits.
    monkeypatch.setattr(arnoldi, "_block_rows", lambda k, n: 7)
    A, _ = rk.make_random_range_symmetric(rk.RandomSpec(n=60, rank=45, cond=1e4, seed=seed))
    state = run_arnoldi(A, np.random.default_rng(seed).standard_normal(60))
    assert state.broke_down and state.breakdown_step == 46
    V = state.basis()
    H = state.hessenberg(rows=46)
    assert np.linalg.norm(np.eye(46) - V.T @ V) <= 1e-13
    assert np.linalg.norm(A @ V - V @ H) <= 1e-14 * np.linalg.norm(H)


@pytest.mark.parametrize("steps, matvecs", [(60, 60), (300, 301)])
def test_delayed_cycle_applies_the_operator_once_more(steps, matvecs):
    # The first delayed step applies A to v_k and to the look-ahead vector;
    # a run that stays below the threshold applies it once per step.
    A = CountingOperator(rk.make_bvp_matrix(rk.BvpSpec(m=50, d=10.0)))
    v = np.random.default_rng(1).standard_normal(A.n)
    state = arnoldi_init(A, v, capacity=steps + 1)
    for _ in range(steps):
        assert arnoldi_step(state, A) == "advanced"
    assert A.count == matvecs


def test_ride_along_sums_the_iterate_and_leaves_the_step_as_it_was():
    # n = 2500: CGS2 steps up to k = 64, then delayed steps, the first with
    # two passes.  A ride of k or k + 1 coefficients comes back as V_j z;
    # the step's column, new vector and look-ahead are those of the same
    # step without it, bit for bit.
    A = rk.make_bvp_matrix(rk.BvpSpec(m=50, d=10.0))
    v = np.random.default_rng(2).standard_normal(A.shape[0])
    state = run_arnoldi(A, v, steps=60, capacity=80)
    rng = np.random.default_rng(3)
    for k in range(60, 75):
        z = rng.standard_normal(k + k % 2)
        x = np.zeros(A.shape[0])
        twin = copy.deepcopy(state)
        assert arnoldi_step(twin, A, ride=(z, x)) == arnoldi_step(state, A) == "advanced"
        want = state.basis(len(z)) @ z
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        assert twin.column(k).tobytes() == state.column(k).tobytes()
        assert twin.vector(k + 1).tobytes() == state.vector(k + 1).tobytes()
        ahead = [[a.tobytes() for a in s._ahead] for s in (twin, state) if s._ahead]
        assert len(ahead) == 2 * (k >= 65) and ahead[:1] == ahead[1:]


def _diagonal_with_zero():
    """A sparse diagonal matrix of order 10,000 with the twenty eigenvalues
    -4, ..., 15, each 500 times, in random order.

    Its basis reaches ``BASIS_BYTES`` at the seventeenth vector, so the
    Krylov space closes on the delayed path.  At twenty distinct
    eigenvalues the closing subdiagonal is about 1e-10 times the others on
    either path, so the runs take a breakdown tolerance of 1e-9.
    """
    d = np.random.default_rng(4).permutation(np.repeat(np.arange(-4.0, 16.0), 500))
    return sp.diags(d).tocsr(), d


def test_closure_after_switch_matches_distinct_eigenvalues():
    # The Krylov dimension of a seed on a diagonal matrix is the number of
    # distinct eigenvalues the seed touches: 20 for a generic seed, 19 once
    # its null-space part is removed.  The closing step finds its first
    # pass at the threshold and skips the look-ahead product, so the run
    # applies A once per step, as CGS2 does.
    M, d = _diagonal_with_zero()
    assert arnoldi._block_rows(16, len(d)) and not arnoldi._block_rows(15, len(d))
    v = np.random.default_rng(5).standard_normal(len(d))
    for seed, dim in ((v, 20), (np.where(d == 0.0, 0.0, v), 19)):
        A = CountingOperator(M)
        state = run_arnoldi(A, seed, capacity=25, breakdown_tol=1e-9)
        assert state.broke_down and state.breakdown_step == dim
        assert A.count == dim


def test_gmres_closure_after_switch_on_diagonal():
    A, d = _diagonal_with_zero()
    pinv = np.divide(1.0, d, out=np.zeros_like(d), where=d != 0.0)
    b = d * np.random.default_rng(6).standard_normal(len(d))
    rep = rk.gmres_solve(A, b, tol=1e-30, maxit=30, breakdown_tol=1e-9)
    assert (rep.termination, rep.detected_ell) == ("happy_breakdown", 19)
    assert np.linalg.norm(rep.solution - pinv * b) <= 1e-10 * np.linalg.norm(pinv * b)
    b = b + np.where(d == 0.0, 0.5, 0.0)
    rep = rk.gmres_solve(A, b, tol=1e-30, maxit=30, breakdown_tol=1e-9)
    assert rep.termination == "singular_final_system"
    xstar = pinv * b
    assert np.linalg.norm(rep.lifted_solution - xstar) <= 1e-8 * np.linalg.norm(xstar)


def test_large_vectors_stay_cgs2():
    # Past n = BASIS_BYTES / 128 a block of half the budget holds fewer
    # than 8 rows, and CGS2 was as fast or faster at every step measured.
    n = arnoldi.BASIS_BYTES // 128
    assert arnoldi._block_rows(16, n) == 8
    assert not any(arnoldi._block_rows(k, n + 1) for k in (0, 100, 10**6))


@pytest.mark.parametrize(
    "test",
    [
        test_identity_breaks_down_immediately,
        test_hand_computed_step,
        test_step_reaching_dimension_n_is_breakdown,
        test_reserved_basis_is_written_in_place,
    ],
)
def test_delayed_from_the_first_step(monkeypatch, test):
    # Blocks of 3 rows: the pass crosses block edges, with a short last
    # block, from the first steps on.
    monkeypatch.setattr(arnoldi, "_block_rows", lambda k, n: 3)
    test()


def test_delays_next_follows_the_block_rule(monkeypatch):
    # n = 2500: the basis reaches BASIS_BYTES at step 65, and from then on
    # every step is delayed until the space closes.
    A = rk.make_bvp_matrix(rk.BvpSpec(m=50, d=10.0))
    state = run_arnoldi(A, np.random.default_rng(0).standard_normal(A.shape[0]), steps=64)
    assert not state.delays_next
    arnoldi_step(state, A)
    assert state.k == 65 and state.delays_next
    monkeypatch.setattr(arnoldi, "_block_rows", lambda k, n: 0)
    assert not state.delays_next
    monkeypatch.setattr(arnoldi, "_block_rows", lambda k, n: 3)
    state = arnoldi_init(np.eye(3), np.ones(3))
    assert state.delays_next
    arnoldi_step(state, np.eye(3))
    assert state.broke_down and not state.delays_next


def test_seed_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError) as err:
        arnoldi_init(np.eye(3), np.ones(4))
    assert str(err.value) == "seed has shape (4,), expected (3,)"
