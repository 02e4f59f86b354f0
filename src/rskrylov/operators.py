"""Core numerical types shared by every solver in the package.

Vectors are 1-D float64 numpy arrays and dense matrices are 2-D float64
arrays.  Sparse matrices are scipy CSR matrices (build them with
:func:`sparse_from_triplets` to get duplicate summing and sorted indices).
Anything that can only be applied through matrix-vector products is
wrapped in a :class:`LinearOperator`.

A matrix is checked once, when it is wrapped: a non-finite entry is a
``ValueError``.  The solvers then apply it without further checks.  The
output of a user-supplied ``LinearOperator`` callable is checked on every
apply instead: it is converted to a contiguous float64 vector and its
length must be ``n``.

All of these objects are treated as immutable after construction: the
solvers never write into ``A``, ``b`` or ``x0``, so one system may be
shared by concurrent solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "LinearOperator",
    "aslinearoperator",
    "sparse_from_triplets",
    "SolveOptions",
    "SolveReport",
    "CONVERGED",
    "HAPPY_BREAKDOWN",
    "SINGULAR_FINAL_SYSTEM",
    "MAXIT",
]

# Termination vocabulary used by SolveReport.termination.
CONVERGED = "converged"
HAPPY_BREAKDOWN = "happy_breakdown"
SINGULAR_FINAL_SYSTEM = "singular_final_system"
MAXIT = "maxit"


def as_vector(v, n=None):
    """Return ``v`` as a contiguous 1-D float64 array, checking its length."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"vector has length {v.shape[0]}, expected {n}")
    return v


class LinearOperator:
    """A square operator of order ``n`` applied only through matvecs.

    Parameters
    ----------
    n : int
        Dimension of the (square) operator.
    apply_fn : callable
        Maps a length-``n`` vector to a length-``n`` vector.  Must be
        deterministic and linear up to rounding.
    """

    # Whether ``_apply`` is a matrix product known to map a contiguous
    # float64 vector to a new one, whose output needs no check.
    _product = False

    def __init__(self, n, apply_fn):
        self.n = int(n)
        self._apply = apply_fn

    def apply(self, v):
        v = as_vector(v, self.n)
        out = as_vector(self._apply(v), self.n)
        return out

    def __matmul__(self, v):
        return self.apply(v)

    def __repr__(self):
        return f"LinearOperator(n={self.n})"


def aslinearoperator(A):
    """Wrap a dense array, sparse matrix, or LinearOperator uniformly.

    A matrix with a non-finite entry is rejected with ``ValueError``.  The
    entries behind a ``LinearOperator`` are not visible; its outputs are
    converted and their length checked on every apply instead.
    """
    if isinstance(A, LinearOperator):
        return A
    if sp.issparse(A):
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"operator must be square, got shape {A.shape}")
        M = A.tocsr().astype(np.float64, copy=False)
        entries = M.data
    else:
        M = np.asarray(A, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {M.shape}")
        entries = M
    if not np.isfinite(entries).all():
        raise ValueError("A has non-finite entries")
    op = LinearOperator(M.shape[0], M.__matmul__)
    op._product = True
    return op


def sparse_from_triplets(n, rows, cols, values):
    """Build an ``n x n`` CSR matrix from COO triplets, summing duplicates."""
    mat = sp.coo_matrix(
        (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(n, n)
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


@dataclass(frozen=True)
class SolveOptions:
    """Options shared by every solver.

    Parameters
    ----------
    tol : float
        Relative convergence tolerance.  A solve stops once
        ``||r_k|| <= tol * ||r_0||`` or ``||A r_k|| <= tol * ||A r_0||``
        (whichever monitor the method can evaluate).  Without explicit
        monitoring, GMRES and RRGMRES watch matvec-free estimates of both
        norms and confirm a stop with one explicit norm; the other
        methods stop on the recurrence value of the norm they minimize.
    maxit : int, optional
        Iteration cap.  Defaults to the operator dimension.
    restart : int, optional
        Cycle length for restarted runs of the five long-recurrence
        methods; minres and minares keep no basis and ignore it.
        Default is an unrestarted run.
    breakdown_tol : float
        Threshold below which an Arnoldi/Lanczos continuation vector is
        declared zero (happy breakdown).
    record_explicit : bool
        Recompute ``r_k = b - A x_k`` and ``A r_k`` every iteration and
        record their true norms (two extra matvecs per iteration).  When
        off, histories contain the recurrence estimates instead, with
        ``nan`` where a method has no cheap estimate; the last row of a
        GMRES or RRGMRES run that stops on a rule holds the explicit norms
        of the returned iterate.
    """

    tol: float = 1e-10
    maxit: int | None = None
    restart: int | None = None
    breakdown_tol: float = 1e-13
    record_explicit: bool = True

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.maxit is not None and self.maxit < 1:
            raise ValueError("maxit must be at least 1")
        if self.restart is not None and self.restart < 1:
            raise ValueError("restart must be at least 1")
        if not self.breakdown_tol > 0:
            raise ValueError("breakdown_tol must be positive")


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``residual_history`` and ``aresidual_history`` hold ``||r_k||`` and
    ``||A r_k||`` with one entry per completed iteration plus the initial
    values.  ``estimate_history`` holds the method's own per-iteration
    subproblem estimate (a ``||r_k||`` estimate for GMRES/RRGMRES/MINRES,
    a ``||A r_k||`` estimate for DGMRES/RSMAR/MINARES).  ``matvec_history``
    gives the cumulative matvec count at each history row and
    ``matvec_count`` the exact total.  ``detected_ell`` is the maximal
    Krylov dimension found by the underlying orthogonalization process
    (for the seed the method uses), if the run reached it.
    """

    method: str
    solution: np.ndarray
    lifted_solution: np.ndarray | None
    residual_history: np.ndarray
    aresidual_history: np.ndarray
    estimate_history: np.ndarray
    matvec_history: np.ndarray
    matvec_count: int
    termination: str
    stop_rule: str | None = None
    detected_ell: int | None = None

    @property
    def iterations(self):
        return len(self.residual_history) - 1


class CountingOperator(LinearOperator):
    """Wrapper that counts how many times the operator is applied.

    The solvers pass it only contiguous float64 vectors of length ``n``,
    so an operator built from a matrix is applied directly; a
    user-supplied callable still has its output checked and converted.
    """

    def __init__(self, A):
        inner = aslinearoperator(A)
        super().__init__(inner.n, inner._apply)
        self._product = inner._product
        self.count = 0

    def apply(self, v):
        self.count += 1
        if self._product:
            return self._apply(v)
        return super().apply(v)
