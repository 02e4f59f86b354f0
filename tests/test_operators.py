import numpy as np
import pytest
from numpy.testing import assert_allclose

import rskrylov as rk
from rskrylov.operators import as_vector


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
    opts = rk.SolveOptions(tol=1e-8, maxit=10, restart=5)
    assert opts.tol == 1e-8


def test_report_iterations_property():
    rep = rk.gmres_solve(np.eye(2), np.array([1.0, 2.0]))
    assert rep.iterations == len(rep.residual_history) - 1
    assert rep.matvec_count == rep.matvec_history[-1]


@pytest.mark.parametrize("method", sorted(rk.SOLVERS))
@pytest.mark.parametrize("where", ["b", "x0"])
def test_non_finite_input_rejected(method, where):
    A = np.diag([1.0, 2.0, 0.0])
    vectors = {"b": np.ones(3), "x0": np.zeros(3)}
    vectors[where][1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        rk.SOLVERS[method](A, vectors["b"], x0=vectors["x0"])
