import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

import rskrylov as rk
from rskrylov.operators import as_vector
from conftest import assert_same_report


@pytest.mark.parametrize("seed", range(3))
def test_sparse_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n = 25
    dense = np.where(rng.uniform(size=(n, n)) < 0.2, rng.standard_normal((n, n)), 0.0)
    rows, cols = np.nonzero(dense)
    sparse = rk.sparse_from_triplets(n, rows, cols, dense[rows, cols])
    v = rng.standard_normal(n)
    assert_allclose(sparse @ v, dense @ v, rtol=1e-14, atol=1e-300)


def test_sparse_duplicates_summed():
    A = rk.sparse_from_triplets(2, [0, 0], [1, 1], [2.0, 3.0])
    assert A[0, 1] == 5.0
    assert A.nnz == 1


def test_linear_operator_wrapping():
    op = rk.LinearOperator(2, lambda v: 2.0 * v)
    assert_allclose(op @ np.array([1.0, 3.0]), [2.0, 6.0])
    same = rk.aslinearoperator(op)
    assert same is op
    with pytest.raises(ValueError):
        rk.aslinearoperator(np.ones((2, 3)))


def test_as_vector_validation():
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_vector(np.ones(3), n=4)


def test_solve_options_validation():
    with pytest.raises(ValueError):
        rk.SolveOptions(tol=0.0)
    with pytest.raises(ValueError):
        rk.SolveOptions(maxit=0)
    with pytest.raises(ValueError):
        rk.SolveOptions(restart=0)
    for name in ("tol", "breakdown_tol"):
        for value in (np.inf, np.nan):
            with pytest.raises(ValueError, match=name):
                rk.SolveOptions(**{name: value})
    for name in ("maxit", "restart"):
        for value in (10.5, np.float64(10), True, np.True_):
            with pytest.raises(ValueError, match=name):
                rk.SolveOptions(**{name: value})
    for value in ("no", 0, 1, np.int64(1)):
        with pytest.raises(ValueError, match="record_explicit"):
            rk.SolveOptions(record_explicit=value)
    assert rk.SolveOptions(record_explicit=np.False_).record_explicit == np.False_
    assert rk.SolveOptions(record_explicit=None).record_explicit is None
    opts = rk.SolveOptions(tol=1e-8, maxit=10, restart=5)
    assert opts.tol == 1e-8
    opts = rk.SolveOptions(maxit=np.int64(10), restart=np.int32(5))
    assert np.allclose(rk.gmres_solve(np.eye(2), np.ones(2), opts=opts).solution, 1.0)


@pytest.mark.parametrize("restart", [None, 6])
@pytest.mark.parametrize("rhs", ["consistent", "inconsistent"])
@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
def test_default_monitor_is_the_methods_own(method, rhs, restart):
    # record_explicit=None is resolved once per solve: explicit checks for
    # minres and for restarted gmres, estimates otherwise; the report
    # records the bool
    A = rk.make_random_symmetric_singular(
        rk.RandomSpec(n=20, rank=15, cond=100.0, seed=3)
    )
    b = np.random.default_rng(3).standard_normal(20)
    if rhs == "consistent":
        b = A @ b
    explicit = method == "minres" or (method == "gmres" and restart is not None)
    rep = rk.SOLVERS[method](A, b, opts=rk.SolveOptions(tol=1e-10, restart=restart))
    assert rep.record_explicit is explicit
    want = rk.SOLVERS[method](
        A, b, tol=1e-10, restart=restart, record_explicit=explicit
    )
    assert_same_report(rep, want)


def test_report_iterations_property():
    rep = rk.gmres_solve(np.eye(2), np.array([1.0, 2.0]))
    assert rep.iterations == len(rep.residual_history) - 1
    assert rep.matvec_count == rep.matvec_history[-1]


@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
@pytest.mark.parametrize("where", ["b", "x0", "A"])
def test_non_finite_input_rejected(method, where):
    A = np.diag([1.0, 2.0, 0.0, 3.0])
    b, x0 = np.ones(4), np.zeros(4)
    target = {"A": A[0], "b": b, "x0": x0}[where]  # A[0] is a view of row 0
    target[1] = np.nan
    with pytest.raises(ValueError, match=f"{where} has non-finite"):
        rk.SOLVERS[method](A, b, x0=x0)
    if where == "A":
        with pytest.raises(ValueError, match="A has non-finite"):
            rk.SOLVERS[method](sp.csr_matrix(A), b, x0=x0)


@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
def test_linear_operator_output_checked_in_a_solve(method):
    A = np.diag([1.0, 2.0, 0.0, 3.0])
    b = np.array([1.0, 1.0, 0.0, 1.0])
    ref = rk.SOLVERS[method](A, b)
    # A list is converted, with the same floats.
    as_list = rk.LinearOperator(4, lambda v: (A @ v).tolist())
    rep = rk.SOLVERS[method](as_list, b)
    assert rep.solution.tobytes() == ref.solution.tobytes()
    assert rep.matvec_count == ref.matvec_count
    short = rk.LinearOperator(4, lambda v: (A @ v)[:3])
    with pytest.raises(ValueError, match="length 3, expected 4"):
        rk.SOLVERS[method](short, b)
    # A NaN from the 6th apply on fails the solve at that apply, before it
    # can reach a solution under a success tag.
    grid = rk.make_bvp_matrix(rk.BvpSpec(m=6))
    gauss = np.random.default_rng(0).standard_normal(36)
    for explicit in (True, False):
        calls = []

        def nan_from_6th(v):
            calls.append(None)
            out = grid @ v
            if len(calls) >= 6:
                out[0] = np.nan
            return out

        nan_op = rk.LinearOperator(36, nan_from_6th)
        with pytest.raises(ValueError, match="output has non-finite entries"):
            rk.SOLVERS[method](nan_op, gauss, record_explicit=explicit)
        assert len(calls) == 6


@pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "estimate"])
@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
def test_identity_operator_returning_its_argument(method, explicit):
    # The solvers write into what an apply returns: an operator that
    # returns its argument, a basis vector, had it overwritten, and five
    # methods returned a solution at relative error 1 under happy_breakdown.
    b = np.random.default_rng(0).standard_normal(20)
    identity = rk.LinearOperator(20, lambda v: v)
    rep = rk.SOLVERS[method](identity, b, record_explicit=explicit)
    assert rep.termination == rk.HAPPY_BREAKDOWN
    assert np.linalg.norm(rep.solution - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("explicit", [True, False], ids=["explicit", "estimate"])
@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
def test_operator_reusing_one_buffer_matches_its_matrix(method, explicit):
    # minres and minares keep the output of one apply as their next
    # Lanczos vector past the next apply: a reused buffer the operator
    # does not copy changes their answers (minres ran to maxit).
    M = rk.make_random_symmetric_singular(rk.RandomSpec(n=30, rank=20, seed=4))
    b = M @ np.random.default_rng(4).standard_normal(30) + 0.1
    buf = np.empty(30)

    def into_buffer(v):
        np.matmul(M, v, out=buf)
        return buf

    want = rk.SOLVERS[method](M, b, record_explicit=explicit)
    got = rk.SOLVERS[method](rk.LinearOperator(30, into_buffer), b, record_explicit=explicit)
    assert_same_report(got, want)


def test_non_square_sparse_matrix_rejected():
    with pytest.raises(ValueError) as err:
        rk.aslinearoperator(sp.csr_matrix((2, 3)))
    assert str(err.value) == "operator must be square, got shape (2, 3)"


@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
def test_opts_and_keyword_options_together_rejected(method):
    with pytest.raises(TypeError) as err:
        rk.SOLVERS[method](np.eye(3), np.ones(3), opts=rk.SolveOptions(), tol=1e-8)
    assert str(err.value) == "pass either opts or keyword options, not both"
