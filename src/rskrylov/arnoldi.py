"""Arnoldi process with classical Gram-Schmidt, run twice (CGS2).

Builds an orthonormal basis ``V_k`` of the Krylov subspace generated by an
operator and a seed vector, together with the rectangular upper-Hessenberg
matrix ``H`` satisfying ``A V_k = V_{k+1} H``.  The same machinery serves
two seeds: the initial residual (GMRES, long-recurrence A-residual
minimization) and the image of the initial residual under the operator
(range-restricted methods).

The basis is stored row-major, one basis vector per row, so each
Gram-Schmidt pass is two BLAS-2 products over contiguous memory:
``h = V w`` then ``w -= h V``.  The second pass removes what rounding left
of the first ("twice is enough": Giraud, Langou & Rozloznik, Comput. Math.
Appl. 50, 2005) and adds its coefficients to ``h``.

The rows of the basis are allocated up front: a caller that knows how many
steps it may take passes ``capacity`` and gets one array of that many rows,
written in place, whose untouched rows never become resident.  Without a
capacity, or when the operating system refuses the reservation, the array
starts at 32 rows and doubles by copying when it fills.

A step whose new subdiagonal entry falls below
``breakdown_tol * max(1, ||A v_k||)`` is a happy breakdown: the subspace
is invariant, the column is kept (with its tiny trailing entry) but no new
basis vector is added, and ``breakdown_step`` records the subspace
dimension.  The step that reaches dimension ``n`` is a breakdown too,
whatever its trailing entry: ``n`` orthonormal vectors span the space.
"""

from __future__ import annotations

import numpy as np

from ._common import norm
from .operators import aslinearoperator

__all__ = ["ZeroSeedError", "ArnoldiState", "arnoldi_init", "arnoldi_step"]


class ZeroSeedError(ValueError):
    """The seed vector is numerically zero: nothing to iterate on."""


class ArnoldiState:
    """Mutable state of one Arnoldi run.

    The basis vectors are the rows of one array, reserved for ``capacity``
    vectors up front (see :func:`arnoldi_init`) and written in place.

    Attributes
    ----------
    k : int
        Number of completed steps (= Hessenberg columns).
    seed_norm : float
        Norm of the seed vector.
    broke_down : bool
        Whether a happy breakdown occurred.
    breakdown_step : int or None
        The step index at which the subspace closed (the maximal Krylov
        dimension for this seed), if it did.
    reorthogonalize : bool
        Always true: every step runs two Gram-Schmidt passes.
    """

    reorthogonalize = True

    def __init__(self, v1, seed_norm, breakdown_tol, capacity=None):
        n = v1.shape[0]
        self._V = _basis_array(capacity, n)
        self._V[0] = v1
        self._columns = []
        self.n = n
        self.k = 0
        self.seed_norm = float(seed_norm)
        self.breakdown_tol = float(breakdown_tol)
        self.broke_down = False
        self.breakdown_step = None

    @property
    def basis_count(self):
        return self.k if self.broke_down else self.k + 1

    def basis(self, count=None):
        """View of the first ``count`` orthonormal basis vectors, as the
        columns of an ``n x count`` matrix."""
        if count is None:
            count = self.basis_count
        return self._V[:count].T

    def vector(self, j):
        """The ``j``-th basis vector (0-based)."""
        return self._V[j]

    def column(self, j):
        """The ``j``-th Hessenberg column (0-based, length ``j + 2``)."""
        return self._columns[j]

    def hessenberg(self, cols=None, rows=None):
        """Assemble the dense ``H`` with the given shape (defaults to
        ``(k+1) x k``)."""
        if cols is None:
            cols = self.k
        if rows is None:
            rows = cols + 1
        H = np.zeros((rows, cols))
        for j in range(cols):
            col = self._columns[j]
            H[: min(len(col), rows), j] = col[:rows]
        return H

    def _grow(self):
        """Double the rows of the basis array (at most ``n``), copying the
        rows in use into the new array."""
        rows = len(self._V)
        grown = np.empty((min(2 * rows, self.n), self.n))
        grown[:rows] = self._V
        self._V = grown


def _basis_array(capacity, n):
    """Uninitialized rows for the basis: ``capacity`` of them (at most
    ``n``), else, without a capacity or when the OS refuses that many,
    ``min(32, n)``."""
    if capacity is not None:
        try:
            return np.empty((min(capacity, n), n))
        except MemoryError:
            pass  # start small and double, as without a capacity
    return np.empty((min(32, n), n))


def arnoldi_init(A, seed, breakdown_tol=1e-13, capacity=None):
    """Start an Arnoldi run from a seed vector.

    ``capacity`` is the number of basis vectors to reserve at once: ``k``
    steps need ``k + 1``, and more than ``n`` are never reserved.  A run
    that outgrows it, or one started without it, doubles its basis array
    by copying.

    Raises :class:`ZeroSeedError` when the seed norm is at or below
    ``breakdown_tol`` (the system is already solved, or the seed carries
    no information).
    """
    A = aslinearoperator(A)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != (A.n,):
        raise ValueError(f"seed has shape {seed.shape}, expected ({A.n},)")
    if capacity is not None and capacity < 1:
        raise ValueError(f"capacity must be at least 1, got {capacity}")
    norm = float(np.linalg.norm(seed))
    if norm <= breakdown_tol:
        raise ZeroSeedError("seed vector is numerically zero (already solved)")
    return ArnoldiState(seed / norm, norm, breakdown_tol, capacity)


def arnoldi_step(state, A):
    """Advance one Arnoldi step; returns ``"advanced"`` or ``"breakdown"``.

    On a normal step the state gains one basis vector and one Hessenberg
    column.  On breakdown the column (with its tiny trailing entry) is
    still appended so that ``A V_l = V_l H_l`` holds, but no basis vector
    is added and the state refuses further steps.  The step that would
    add basis vector ``n + 1`` is a breakdown.
    """
    if state.broke_down:
        raise RuntimeError("cannot step an Arnoldi process past its breakdown")
    A = aslinearoperator(A)
    k = state.k
    w = A.apply(state._V[k])
    wnorm = norm(w)
    Vk = state._V[: k + 1]
    column = np.empty(k + 2)
    h = np.matmul(Vk, w, out=column[: k + 1])
    w -= h @ Vk
    corr = Vk @ w
    w -= corr @ Vk
    h += corr
    hnext = norm(w)
    column[k + 1] = hnext
    state._columns.append(column)
    state.k = k + 1
    if hnext <= state.breakdown_tol * max(1.0, wnorm) or state.k == state.n:
        state.broke_down = True
        state.breakdown_step = state.k
        return "breakdown"
    if k + 1 == len(state._V):
        state._grow()
    state._V[k + 1] = w / hnext
    return "advanced"
