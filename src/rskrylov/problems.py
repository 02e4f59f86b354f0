"""Deterministic generators for the test systems used throughout.

The convection-diffusion matrix comes from a finite-difference
discretization of a Laplace operator plus a first-order term on the unit
square with periodic boundary conditions; it is normal (hence
range-symmetric) and singular with null space spanned by the all-ones
vector.  The random generators build structured singular matrices with a
known closed-form pseudoinverse.

All randomness goes through ``numpy.random.default_rng`` (PCG64), so a
given seed reproduces the same matrix bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BvpSpec",
    "RandomSpec",
    "make_bvp_matrix",
    "make_bvp_rhs",
    "make_random_range_symmetric",
    "make_random_symmetric_singular",
    "make_random_skew_singular",
    "scale_max_abs",
]


@dataclass(frozen=True)
class BvpSpec:
    """Grid size per dimension and convection constant for the periodic
    convection-diffusion matrix.  The matrix has order ``m**2``."""

    m: int
    d: float = 10.0

    def __post_init__(self):
        # m = 2 is enough for the grid right-hand sides; the matrix
        # builder itself insists on m >= 3.
        if self.m < 2:
            raise ValueError("grid size m must be at least 2")
        if not np.isfinite(self.d):
            raise ValueError("convection constant d must be finite")

    @property
    def h(self):
        return 1.0 / self.m

    @property
    def n(self):
        return self.m * self.m


@dataclass(frozen=True)
class RandomSpec:
    """Dimension, rank, condition target, and seed for the random
    structured generators."""

    n: int
    rank: int
    cond: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.rank <= self.n:
            raise ValueError("rank must satisfy 1 <= rank <= n")
        if not 1.0 <= self.cond < np.inf:
            raise ValueError("condition target must be finite and at least 1")


def _cyclic_shift(m, k):
    # Permutation matrix mapping index i to i+k modulo m (dense, m is small).
    S = np.zeros((m, m))
    idx = np.arange(m)
    S[idx, (idx + k) % m] = 1.0
    return S


def make_bvp_matrix(spec):
    """Block-circulant periodic convection-diffusion matrix (CSR).

    Diagonal blocks are circulant tridiagonal with -4 on the diagonal,
    ``1 + d*h/2`` on the superdiagonal, and ``1 - d*h/2`` on the
    subdiagonal (with periodic wraparound); off-diagonal blocks are
    identities, again with wraparound.  Row sums vanish, so the all-ones
    vector spans the null space.
    """
    if spec.m < 3:
        raise ValueError("the matrix requires grid size m >= 3")
    m = spec.m
    ap = 1.0 + spec.d * spec.h / 2.0
    am = 1.0 - spec.d * spec.h / 2.0
    T = -4.0 * np.eye(m) + ap * _cyclic_shift(m, 1) + am * _cyclic_shift(m, -1)
    B = _cyclic_shift(m, 1) + _cyclic_shift(m, -1)
    A = sp.kron(sp.identity(m), sp.csr_matrix(T)) + sp.kron(
        sp.csr_matrix(B), sp.identity(m)
    )
    A = A.tocsr()
    A.sort_indices()
    return A


def make_bvp_rhs(spec, kind, seed=0, matrix=None):
    """Right-hand sides for the periodic convection-diffusion system.

    ``kind="consistent_random"`` returns ``b = A u`` for a seeded uniform
    random ``u`` (so ``b`` lies in range(A)).  ``kind="inconsistent_xy"``
    discretizes ``f(x, y) = x + y`` on the interior grid, node ``(i, j)``
    at ``(i*h, j*h)`` stored at row ``(j-1)*m + i``; its entries have a
    positive sum, which puts it outside range(A).
    """
    m = spec.m
    if kind == "consistent_random":
        A = make_bvp_matrix(spec) if matrix is None else matrix
        rng = np.random.default_rng(seed)
        u = rng.uniform(size=spec.n)
        return np.asarray(A @ u)
    if kind == "inconsistent_xy":
        i = np.arange(1, m + 1)
        grid = i[None, :] + i[:, None]  # grid[j-1, i-1] = i + j
        return (grid * spec.h).reshape(-1)
    raise ValueError(f"unknown rhs kind {kind!r}")


def _random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    # Fix the sign convention so the factorization is unambiguous.
    Q = Q * np.sign(np.diag(R))
    return Q


def _log_spaced_singular_values(rank, cond):
    if rank == 1:
        return np.ones(1)
    return np.logspace(0.0, -np.log10(cond), rank)


def make_random_range_symmetric(spec):
    """Random singular range-symmetric matrix with known pseudoinverse.

    Builds ``A = U diag(C, 0) U^T`` with ``U`` orthogonal and ``C`` an
    invertible ``rank x rank`` block with log-spaced singular values
    realizing the condition target.  Returns ``(A, pinv_A)`` where the
    pseudoinverse comes from the closed form ``U diag(C^{-1}, 0) U^T``.
    """
    rng = np.random.default_rng(spec.seed)
    U = _random_orthogonal(rng, spec.n)
    r = spec.rank
    sv = _log_spaced_singular_values(r, spec.cond)
    Q1 = _random_orthogonal(rng, r)
    Q2 = _random_orthogonal(rng, r)
    C = Q1 @ (sv[:, None] * Q2.T)
    Cinv = Q2 @ ((1.0 / sv)[:, None] * Q1.T)
    Ur = U[:, :r]
    A = Ur @ C @ Ur.T
    Apinv = Ur @ Cinv @ Ur.T
    return A, Apinv


def make_random_symmetric_singular(spec):
    """Random symmetric matrix of the given rank with nonzero real
    eigenvalues of log-spaced magnitude and random signs."""
    rng = np.random.default_rng(spec.seed)
    U = _random_orthogonal(rng, spec.n)
    r = spec.rank
    lam = _log_spaced_singular_values(r, spec.cond)
    lam = lam * rng.choice([-1.0, 1.0], size=r)
    Ur = U[:, :r]
    A = (Ur * lam) @ Ur.T
    return (A + A.T) / 2.0  # exact symmetry despite rounding in the product


def make_random_skew_singular(n, seed=0):
    """Random skew-symmetric matrix of odd order (hence singular)."""
    if n < 1:
        raise ValueError("skew-symmetric generator requires n >= 1")
    if n % 2 == 0:
        raise ValueError("skew-symmetric generator requires odd n")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return (M - M.T) / 2.0


def scale_max_abs(A):
    """Scale a matrix by its largest absolute entry.

    Returns ``(A / rho, rho)`` with ``rho = max |A_ij|`` so the result has
    unit max-norm.  Works on sparse and dense matrices.
    """
    if sp.issparse(A):
        M, rho = A.tocsr(), float(np.abs(A.data).max(initial=0.0))
    else:
        M = np.asarray(A, dtype=np.float64)
        rho = float(np.abs(M).max())
    if rho == 0.0:
        raise ValueError("cannot scale the zero matrix")
    return M / rho, rho
