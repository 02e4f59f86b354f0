"""Arnoldi process with classical Gram-Schmidt run twice, delayed once the
basis outgrows cache.

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

That CGS2 step reads ``V`` four times, which costs little while ``V``
fits in cache.  From the step whose basis reaches ``BASIS_BYTES`` on, the
run switches for good to delayed reorthogonalization (DCGS2: Swirydowicz,
Langou, Ananthan, Yang & Thomas, Numer. Linear Algebra Appl. 28, 2021;
Bielich et al., Parallel Comput. 112, 2022), which reads it twice.  The
run then holds the next vector ``u = A v_k - V p`` after one pass, with
its coefficients ``p``, and a step

- applies ``A`` to ``u`` (a look-ahead: the product ``A v_{k+1}`` is
  never formed),
- projects ``u`` and ``A u`` out of ``V`` in one two-vector pass, which
  yields ``c = V^T u`` and ``d = V^T A u``,
- finishes column ``k`` as ``p + c`` over ``|u - V c|`` and
  ``v_{k+1} = (u - V c) / |u - V c|``, as the second CGS2 pass would, and
- gets the first-pass coefficients of ``A v_{k+1}`` without reading
  ``V`` again, from ``A (u - V c) = A u - V_{k+2} H c``.

The pass runs over blocks of ``V``, each read once from memory and once
from cache.  A caller can hand a step the coefficients ``z`` of a vector
``V_j z`` in the basis (``ride``): a delayed step adds ``z`` as one more
row of each block's update product, so explicit monitoring forms its
iterate without a read of ``V`` of its own, and the step's own results
do not change.  Where such a block would hold fewer than 8 basis vectors
(``n`` above ``BASIS_BYTES / 128``) the run stays with CGS2 at every
step.  The switch costs one extra product with ``A`` per run: the first
delayed step applies ``A`` to both ``v_k`` and ``u``.

The rows of the basis are allocated up front: a caller that knows how
many steps it may take passes ``capacity`` and gets an array of that many
rows, written in place; the untouched rows never become resident.
``[beta e1, H]``, as in ``[v, A V_k] = V_{k+1} [beta e1, H_k]`` (Saad &
Schultz, SIAM J. Sci. Stat. Comput. 7, 1986), is one zeroed square array
beside it, of order ``r + 1`` for ``r`` rows of basis, so that ``H c`` is
one product and the solvers read its leading blocks in place.  Without a
capacity, or when the operating system refuses either reservation, the
pair starts at 32 rows and doubles by copying when the basis fills.

A step whose new subdiagonal entry falls below
``breakdown_tol * max(1, ||A v_k||)`` is a happy breakdown: the subspace
is invariant, the column is kept (with its tiny trailing entry) but no new
basis vector is added, and ``breakdown_step`` records the subspace
dimension.  The step that reaches dimension ``n`` is a breakdown too,
whatever its trailing entry: ``n`` orthonormal vectors span the space.
A delayed step skips the look-ahead product when it cannot advance: when
the first-pass norm ``|u|`` is already at the breakdown threshold, and on
the step that reaches dimension ``n``.
"""

from __future__ import annotations

import math

import numpy as np

from ._common import norm
from .operators import aslinearoperator

__all__ = ["ZeroSeedError", "ArnoldiState", "arnoldi_init", "arnoldi_step"]

# Bytes of basis at which a delayed step becomes cheaper than a CGS2 step.
# Measured with one BLAS thread on an x86-64 server (2 MiB of L2 per
# core) on 2-D grid operators: the two broke even at 1.15-1.2 MiB of basis
# for n = 2500, 5041 and 7921; at 1.35-1.4 MiB the delayed step was 4-14%
# faster, and at n = 2500, k = 300 it took 0.64 ms against 1.37 ms.  The
# delayed pass reads ``V`` in blocks of half as many bytes, which stay in
# cache with the two vectors between the product and the update.  With
# fewer than 8 rows a block no longer pays for the vector traffic of its
# update: at n = 40,000, 4-row blocks were 6-9% slower than CGS2, and
# 1-row blocks 3.3-4.2 times slower (n = 40,000 and 160,000).  So from
# n = BASIS_BYTES / 128 up, every step stays CGS2.
BASIS_BYTES = 5 << 18


class ZeroSeedError(ValueError):
    """The seed vector is numerically zero: nothing to iterate on."""


class ArnoldiState:
    """Mutable state of one Arnoldi run.

    The basis vectors are the rows of one array, reserved for ``capacity``
    vectors up front (see :func:`arnoldi_init`) and written in place.
    ``[beta e1, H]`` is one zeroed array beside it, in its own
    orientation, with a row and a column more than the basis has rows.
    Step ``j`` writes column ``j + 1`` once, so views of it stay valid.

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
        Always true: every basis vector gets two Gram-Schmidt passes, in
        one step (CGS2) or split over two (delayed).
    """

    reorthogonalize = True

    def __init__(self, v1, seed_norm, breakdown_tol, capacity=None):
        n = v1.shape[0]
        self._V, self._H = _reserve(capacity, n)
        self._V[0] = v1
        self._H[0, 0] = seed_norm
        self.n = n
        self.k = 0
        self.seed_norm = float(seed_norm)
        self.breakdown_tol = float(breakdown_tol)
        self.broke_down = False
        self.breakdown_step = None
        # Delayed run: (p, u) with u = A v_k - V_k p after one pass.
        self._ahead = None

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
        """The ``j``-th Hessenberg column (0-based, length ``j + 2``), a
        view."""
        return self._H[: j + 2, j + 1]

    def hessenberg(self, cols=None, rows=None):
        """The leading ``rows x cols`` block of ``H`` (defaults to
        ``(k+1) x k``), a view."""
        if cols is None:
            cols = self.k
        if rows is None:
            rows = cols + 1
        return self._H[:rows, 1 : cols + 1]

    def triangle(self, k):
        """The leading ``k x k`` block of ``[seed_norm e1, H]``, a view."""
        return self._H[:k, :k]

    def _grow(self):
        """Double the rows of the basis (at most ``n``) and the order of
        ``H``, copying what is in use into the new arrays."""
        rows = len(self._V)
        V, H = _arrays(min(2 * rows, self.n), self.n)
        V[:rows] = self._V
        H[: rows + 1, : rows + 1] = self._H
        self._V, self._H = V, H


def _arrays(rows, n):
    """Uninitialized ``rows`` of basis and a zeroed ``[beta e1, H]``."""
    return np.empty((rows, n)), np.zeros((rows + 1, rows + 1))


def _reserve(capacity, n):
    """The basis and ``H`` for ``capacity`` rows of basis (at most ``n``),
    else, without a capacity or when the OS refuses either array,
    ``min(32, n)``."""
    if capacity is not None:
        try:
            return _arrays(min(capacity, n), n)
        except MemoryError:
            pass  # start small and double, as without a capacity
    return _arrays(min(32, n), n)


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
    seed_norm = float(np.linalg.norm(seed))
    if seed_norm <= breakdown_tol:
        raise ZeroSeedError("seed vector is numerically zero (already solved)")
    return ArnoldiState(seed / seed_norm, seed_norm, breakdown_tol, capacity)


def _block_rows(k, n):
    """Rows of ``V`` per block of the pass of a delayed step ``k`` on
    vectors of length ``n``, or 0 where step ``k`` runs CGS2: while the
    basis ``V_k`` is below ``BASIS_BYTES``, and at every step when half
    of it holds fewer than 8 rows."""
    rows = BASIS_BYTES // (16 * n)
    if rows < 8 or 8 * (k + 1) * n < BASIS_BYTES:
        return 0
    return rows


def arnoldi_step(state, A, *, ride=None):
    """Advance one Arnoldi step; returns ``"advanced"`` or ``"breakdown"``.

    On a normal step the state gains one basis vector and one Hessenberg
    column.  On breakdown the column (with its tiny trailing entry) is
    still appended so that ``A V_l = V_l H_l`` holds, but no basis vector
    is added and the state refuses further steps.  The step that would
    add basis vector ``n + 1`` is a breakdown.

    ``ride = (z, x)`` also adds ``V_j z`` to ``x`` in place, ``V_j`` the
    first ``j = len(z) <= k + 1`` basis vectors.  A delayed step with a
    look-ahead sums it in its pass over the basis, any other step by one
    product; the step itself is the same with or without it.
    """
    if state.broke_down:
        raise RuntimeError("cannot step an Arnoldi process past its breakdown")
    A = aslinearoperator(A)
    k = state.k
    Vk = state._V[: k + 1]
    rows = _block_rows(k, state.n)
    ahead = None
    if not rows:
        w = A.apply(Vk[k])
        wnorm = norm(w)
        h = Vk @ w
        w -= h @ Vk
        corr = Vk @ w
        w -= corr @ Vk
        h += corr
    else:
        if state._ahead is None:  # the first delayed step
            w = A.apply(Vk[k])
            state._ahead = (_project(Vk, w[None], rows)[0], w)
        p, w = state._ahead
        state._ahead = None
        wnorm = math.sqrt(p @ p + w @ w)
        if k + 1 == state.n or norm(w) <= state.breakdown_tol * max(1.0, wnorm):
            c = _project(Vk, w[None], rows)[0]
        else:
            uz = np.stack((w, A.apply(w)))
            uz_dot = uz[0] @ uz[1]
            c, d = _project(Vk, uz, rows, ride)
            ride = None
            w = uz[0]
            ahead = (c, d, uz_dot, uz[1])
        h = p + c
    if ride is not None:
        z, x = ride
        x += z @ Vk[: len(z)]
    hnext = norm(w)
    state._H[: k + 1, k + 1] = h
    state._H[k + 1, k + 1] = hnext
    state.k = k + 1
    if hnext <= state.breakdown_tol * max(1.0, wnorm) or state.k == state.n:
        state.broke_down = True
        state.breakdown_step = state.k
        return "breakdown"
    if k + 1 == len(state._V):
        state._grow()
    state._V[k + 1] = w / hnext
    if ahead is not None:
        state._ahead = _look_ahead(state, hnext, *ahead)
    return "advanced"


def _project(Vk, X, rows, ride=None):
    """One classical Gram-Schmidt pass of the rows of ``X`` against the
    rows of ``Vk``, in place; returns the coefficients ``X Vk^T`` (one row
    per row of ``X``).

    ``Vk`` is taken ``rows`` rows at a time: each block is read from
    memory for its coefficients and again from cache for the update.
    With ``ride = (z, x)`` the coefficients ``z`` (zero past their end)
    are one more row of each block's update product, whose last row is
    added to ``x``: ``x += z Vk`` at no extra read of ``Vk``.
    """
    X0 = X.copy()
    m = len(X)
    C = np.empty((m + (ride is not None), len(Vk)))
    U = np.empty((len(C), X.shape[1]))  # the update product of a block
    if ride is not None:
        z, x = ride
        C[m, : len(z)] = z
        C[m, len(z) :] = 0.0
    head, update = C[:m], U[:m]
    for s in range(0, len(Vk), rows):
        block = Vk[s : s + rows]
        np.matmul(X0, block.T, out=head[:, s : s + rows])
        np.matmul(C[:, s : s + rows], block, out=U)
        X -= update
        if ride is not None:
            x += U[m]
    return head


def _look_ahead(state, hnext, c, d, uz_dot, z):
    """First pass of the next step from the products of the step just
    taken, without reading the basis.

    The step took ``u`` with second-pass coefficients ``c = V^T u`` to
    ``v = (u - V c) / hnext``, so ``A v = (A u - V H c) / hnext`` over the
    basis that now ends with ``v``.  ``d = V^T A u`` and ``uz_dot = u . A u``
    were taken before the pass, and ``z = A u - V d`` after it.  Returns
    ``(g, z)`` with ``g = V^T A v`` and ``z`` overwritten by ``A v - V g``.
    """
    k = state.k
    hc = state.hessenberg() @ c
    gamma = (uz_dot - c @ d) / hnext
    g = np.empty(k + 1)
    np.subtract(d, hc[:k], out=g[:k])
    g[k] = gamma - hc[k]
    g /= hnext
    z -= gamma * state._V[k]
    z /= hnext
    return g, z
