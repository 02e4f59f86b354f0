"""Dense brute-force reference computations.

Everything here works on explicit dense matrices and is meant for tests
and the command-line ``check`` workflow, not for large problems: SVD-based
pseudoinverse solves, the matrix index, a range-symmetry verdict, the
maximal Krylov dimension for a seed vector, and thresholded condition
numbers.  All rank decisions share the same semantics: singular values
below ``rank_tol * sigma_max`` count as zero, with ``rank_tol`` defaulting
to ``n * machine epsilon``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ORACLE_CAP",
    "OracleResult",
    "pseudoinverse_solve",
    "index_of",
    "is_range_symmetric",
    "krylov_max_dim",
    "cond_number",
    "analyze",
]

# Dense computations refuse matrices larger than this by default.
ORACLE_CAP = 2000

_EPS = np.finfo(np.float64).eps


def _as_square(A, max_n=ORACLE_CAP):
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square dense matrix, got shape {A.shape}")
    if A.shape[0] > max_n:
        raise ValueError(
            f"matrix order {A.shape[0]} exceeds the dense oracle cap {max_n}"
        )
    if not np.all(np.isfinite(A)):
        raise ValueError("A has non-finite entries")
    return A


def _default_rank_tol(n):
    return n * _EPS


def _numerical_rank(M, rank_tol):
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


@dataclass
class OracleResult:
    """Summary verdicts for one dense system."""

    pseudo_solution: np.ndarray | None
    index: int
    range_symmetric: bool
    kappa: float


def pseudoinverse_solve(A, b, rank_tol=None, max_n=ORACLE_CAP):
    """Minimum-norm least squares solution via a thresholded SVD.

    Singular values below ``rank_tol * sigma_max`` are treated as exact
    zeros, so the result is orthogonal to the (numerical) null space.
    """
    A = _as_square(A, max_n)
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if rank_tol is None:
        rank_tol = _default_rank_tol(n)
    U, s, Vt = np.linalg.svd(A)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(n)
    keep = s > rank_tol * s[0]
    coeffs = (U.T @ b)[keep] / s[keep]
    return Vt[keep].T @ coeffs


def index_of(A, rank_tol=None, max_n=ORACLE_CAP):
    """Smallest ``a >= 0`` with ``rank(A**(a+1)) == rank(A**a)``.

    Matrix powers are renormalized before each rank decision so the
    thresholding is not distorted by growth or decay of the entries.
    """
    A = _as_square(A, max_n)
    n = A.shape[0]
    if rank_tol is None:
        rank_tol = _default_rank_tol(n)
    prev_rank = n  # rank of A**0
    P = A.copy()
    for alpha in range(n + 1):
        scale = np.abs(P).max()
        if scale == 0.0:
            rank = 0
        else:
            rank = _numerical_rank(P / scale, rank_tol)
        if rank == prev_rank:
            return alpha
        prev_rank = rank
        P = P @ A
        scale = np.abs(P).max()
        if scale > 0.0:
            P /= scale
    return n


def is_range_symmetric(A, tol=1e-10, rank_tol=None, max_n=ORACLE_CAP):
    """True iff the orthogonal projectors onto range(A) and range(A^T)
    differ by at most ``tol`` in spectral norm."""
    A = _as_square(A, max_n)
    n = A.shape[0]
    if rank_tol is None:
        rank_tol = _default_rank_tol(n)
    U, s, Vt = np.linalg.svd(A)
    if s.size == 0 or s[0] == 0.0:
        return True  # zero matrix: both ranges are {0}
    keep = s > rank_tol * s[0]
    Ur = U[:, keep]
    Vr = Vt[keep].T
    gap = Ur @ Ur.T - Vr @ Vr.T
    return float(np.linalg.norm(gap, 2)) <= tol


def krylov_max_dim(A, v, tol=1e-10, max_n=ORACLE_CAP):
    """Maximal dimension of the Krylov subspace generated with ``{A, v}``.

    Equals the largest ``k`` for which ``[v, A v, ..., A**(k-1) v]`` has
    rank ``k``.  The rank decision is made through a progressive
    orthogonal decomposition: each new direction is produced from the
    latest orthonormal basis vector and fully reorthogonalized, which
    keeps the decision reliable where the raw power sequence would be
    numerically degenerate.  A direction whose orthogonal remainder falls
    below ``tol`` times its norm closes the subspace.
    """
    A = _as_square(A, max_n)
    n = A.shape[0]
    v = np.asarray(v, dtype=np.float64)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0
    Q = np.empty((n, n))
    Q[:, 0] = v / nv
    k = 1
    while k < n:
        w = A @ Q[:, k - 1]
        wn = np.linalg.norm(w)
        for _ in range(2):
            w = w - Q[:, :k] @ (Q[:, :k].T @ w)
        rem = np.linalg.norm(w)
        if rem <= tol * max(wn, np.finfo(np.float64).tiny):
            return k
        Q[:, k] = w / rem
        k += 1
    return n


def cond_number(M, rank_tol=None, max_n=ORACLE_CAP):
    """Ratio of the largest singular value to the smallest positive one.

    Accepts rectangular matrices (the Hessenberg blocks are (k+1) x k).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if max(M.shape) > max_n:
        raise ValueError(
            f"matrix dimension {max(M.shape)} exceeds the dense oracle cap {max_n}"
        )
    if rank_tol is None:
        rank_tol = _default_rank_tol(max(M.shape))
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("condition number of the zero matrix is undefined")
    positive = s[s > rank_tol * s[0]]
    return float(s[0] / positive[-1])


def analyze(A, b=None, rank_tol=None, tol=1e-10, max_n=ORACLE_CAP):
    """Run every oracle on one system and collect the verdicts."""
    A = _as_square(A, max_n)
    pseudo = None if b is None else pseudoinverse_solve(A, b, rank_tol, max_n)
    return OracleResult(
        pseudo_solution=pseudo,
        index=index_of(A, rank_tol, max_n),
        range_symmetric=is_range_symmetric(A, tol, rank_tol, max_n),
        kappa=cond_number(A, rank_tol, max_n),
    )
