"""Incremental QR factorizations via Givens rotations.

:class:`HessenbergQr` factors a column-growing matrix with one subdiagonal
(the Arnoldi Hessenberg) while maintaining the rotated right-hand side, so
the tail entry of the transformed RHS is the least squares residual of the
current subproblem.  :class:`BandedQr` does the same for matrices whose
columns reach two rows below the diagonal, as produced by the second
factorization level of the long-recurrence A-residual method; each column
append there applies exactly two new rotations.

Rotations use the convention ``[[c, s], [-s, c]]`` with signs chosen so
every diagonal entry of ``R`` is nonnegative, which makes the factors
deterministic.

A solve of the leading ``k x k`` block raises
:class:`SingularTriangularError` when the smallest ``|R[i, i]|`` of the
block is at most ``1e-14`` times the largest.  Both extremes are recorded
for every leading block as its column is appended (running minimum and
maximum), so the guard costs O(1) per solve.

Both factors also keep ``W = R^{-1}``, extended lazily: a solve of size
``k`` when ``W`` holds ``k - 1`` columns first appends column ``k`` as
``[-W r / rho; 1 / rho]`` (``r`` and ``rho`` the new column of ``R`` above
and on the diagonal), one matrix-vector product, and then returns
``W z``.  A driver that solves after every append (explicit monitoring)
therefore pays two BLAS-2 products per solve.  A solve that finds ``W``
more than one column behind (a driver that solves only once, at the end)
back-substitutes with :func:`solve_upper` instead and leaves ``W`` as it
is, so a single final solve costs no inverse at all and keeps the
rounding of back substitution.  Du Croz & Higham, "Stability of methods
for matrix inversion", IMA J. Numer. Anal. 12 (1992), analyse building a
triangular inverse one column at a time.
"""

from __future__ import annotations

import numpy as np

try:
    # The LAPACK kernel of np.linalg.solve, without its argument checks.
    from numpy.linalg._umath_linalg import solve1 as _gesv
except ImportError:  # a numpy without that private module
    _gesv = np.linalg.solve

__all__ = ["SingularTriangularError", "HessenbergQr", "HessenbergQrWithQ", "BandedQr"]


class SingularTriangularError(np.linalg.LinAlgError):
    """The triangular factor is numerically singular; the square system at
    subspace closure has no unique solution."""


class ColumnBuffer:
    """Matrix grown one column at a time inside a zero-filled array.

    Column ``j`` holds the entries pushed for it and zeros below them.  The
    array doubles along a dimension only when a push outgrows it, so
    appending ``k`` columns copies ``O(k^2)`` entries in all.
    """

    def __init__(self):
        self._a = np.zeros((8, 8))
        self.cols = 0

    def push(self, col):
        self.new_column(len(col))[:] = col

    def new_column(self, rows):
        """Add a column and return the view of its first ``rows`` entries,
        for the caller to fill in place."""
        cap_rows, cap_cols = self._a.shape
        if rows > cap_rows or self.cols == cap_cols:
            shape = (
                cap_rows if rows <= cap_rows else max(2 * cap_rows, rows),
                cap_cols if self.cols < cap_cols else 2 * cap_cols,
            )
            grown = np.zeros(shape)
            grown[:cap_rows, :cap_cols] = self._a
            self._a = grown
        self.cols += 1
        return self._a[:rows, self.cols - 1]

    def view(self, rows, cols):
        """The leading ``rows x cols`` block (a view, not a copy)."""
        return self._a[:rows, :cols]


def _givens(a, b):
    """Rotation (c, s) with [[c, s], [-s, c]] @ [a, b] = [r, 0], r >= 0."""
    r = float(np.hypot(a, b))
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, b / r, r


# Rows per diagonal block of solve_upper.
_BLOCK = 32


def solve_upper(R, rhs):
    """Solve the upper triangular system ``R z = rhs`` by back substitution
    in blocks of ``_BLOCK`` rows, the last block first: LAPACK ``dgesv``
    solves each diagonal block, and one matrix-vector product takes the
    solved part of ``z`` out of the rows above.

    ``dgesv`` factors a triangular block with no row exchange and a unit
    lower factor whose multipliers are all zero, so its result is the back
    substitution (``dtrsm``) of the block.  It is called through the
    kernel of ``np.linalg.solve``, whose argument checks cost about 4 us
    per call, as much as the whole solve of a 20-row block.  ``dtrsv``
    from ``scipy.linalg`` would be faster still, but importing
    ``scipy.linalg`` loads a second BLAS and adds about 7.5 MiB to every
    process that imports this package.
    """
    k = len(rhs)
    lo = max(k - _BLOCK, 0)
    z = _gesv(R[lo:, lo:], rhs[lo:])
    while lo > 0:
        hi, lo = lo, max(lo - _BLOCK, 0)
        b = rhs[lo:hi] - R[lo:hi, hi:] @ z
        z = np.concatenate((_gesv(R[lo:hi, lo:hi], b), z))
    return z


def _rotate_rows(col, rotations):
    """Apply ``(row, c, s)`` rotations in order to a list of floats."""
    for row, c, s in rotations:
        ci, cip = col[row], col[row + 1]
        col[row] = c * ci + s * cip
        col[row + 1] = -s * ci + c * cip


class _TriangularFactor:
    """Storage of the ``k x k`` triangular factor shared by both QRs, and
    of its inverse as far as solves have needed it.  ``_lo[j]`` and
    ``_hi[j]`` are the smallest and largest ``|R[i, i]|`` over ``i <= j``
    (``nan`` once a ``nan`` enters, as ``np.min`` and ``np.max`` give).
    """

    def __init__(self):
        self._r = ColumnBuffer()
        self._w = ColumnBuffer()
        self._lo = []
        self._hi = []

    def _push(self, col):
        """Append column ``k`` (its first ``k + 1`` entries are used)."""
        j = self.k
        d = abs(col[j])
        if j == 0 or d != d:
            lo = hi = d
        else:
            lo, hi = min(self._lo[-1], d), max(self._hi[-1], d)
        self._lo.append(lo)
        self._hi.append(hi)
        self._r.push(col[: j + 1])

    @property
    def k(self):
        return self._r.cols

    @property
    def rcols(self):
        """Columns of the triangular factor (column ``j`` has ``j + 1``
        entries); assigning a list of columns replaces the factor."""
        return [self._r.view(j + 1, j + 1)[:, j] for j in range(self.k)]

    @rcols.setter
    def rcols(self, cols):
        _TriangularFactor.__init__(self)
        for col in cols:
            self._push(col)

    def r_matrix(self, size=None):
        """Dense triangular factor (leading ``size`` columns)."""
        if size is None:
            size = self.k
        return self._r.view(size, size).copy()

    def _solve(self, rhs, size):
        """Solve ``R[:size, :size] z = rhs[:size]``, raising
        :class:`SingularTriangularError` when the relative diagonal spread
        is below the floor."""
        if size is None:
            size = self.k
        rhs = np.asarray(rhs[:size], dtype=np.float64)
        if size == 0:
            return np.zeros(0)
        lo, hi = self._lo[size - 1], self._hi[size - 1]
        if lo <= 1e-14 * hi:
            raise SingularTriangularError(
                "triangular factor is numerically singular "
                f"(min diag {lo:.3e}, max diag {hi:.3e})"
            )
        R = self._r.view(size, size)
        j = self._w.cols
        if j == size - 1:
            rho = R[j, j]
            col = self._w.new_column(j + 1)
            np.divide(self._w.view(j, j) @ R[:j, j], -rho, out=col[:j])
            col[j] = 1.0 / rho
        if self._w.cols >= size:
            return self._w.view(size, size) @ rhs
        return solve_upper(R, rhs)


class HessenbergQr(_TriangularFactor):
    """Incremental QR of an upper-Hessenberg matrix with rotated RHS.

    Parameters
    ----------
    rhs_seed : float
        First entry of the right-hand side (the seed norm ``beta``); the
        transformed RHS starts as ``[rhs_seed]``.

    After ``k`` column appends the object holds the rotation pairs, the
    ``k x k`` triangular factor, and ``t = Q^T g`` of length ``k + 1``
    where ``g`` collects the RHS entries passed to :meth:`append_column`.
    The absolute tail entry ``|t[k]|``, which :meth:`append_column`
    returns, is the subproblem's minimal residual.
    """

    def __init__(self, rhs_seed):
        super().__init__()
        self.rotations = []
        self.t = [float(rhs_seed)]

    def _rotate(self, vec):
        """Apply the stored rotations in order to a list of floats."""
        for i, (c, s) in enumerate(self.rotations):
            vi, vip = vec[i], vec[i + 1]
            vec[i] = c * vi + s * vip
            vec[i + 1] = -s * vi + c * vip

    def append_column(self, column, rhs_append=0.0):
        """Append one Hessenberg column (length ``k + 2``) and one RHS
        entry; returns the new tail scalar ``|t[k+1]|``."""
        k = self.k
        col = np.asarray(column, dtype=np.float64).tolist()
        if len(col) != k + 2:
            raise ValueError(f"column has length {len(col)}, expected {k + 2}")
        self._rotate(col)
        c, s, r = _givens(col[k], col[k + 1])
        col[k] = r
        self.rotations.append((c, s))
        self._push(col)
        self.t.append(float(rhs_append))
        tk, tk1 = self.t[k], self.t[k + 1]
        self.t[k] = c * tk + s * tk1
        self.t[k + 1] = -s * tk + c * tk1
        return abs(self.t[k + 1])

    def q_matrix(self):
        """Dense ``(k+1) x (k+1)`` orthogonal factor rebuilt from the
        stored rotations (for verification)."""
        k = self.k
        Q = np.eye(k + 1)
        for i, (c, s) in enumerate(self.rotations):
            gi = Q[i].copy()
            gip = Q[i + 1].copy()
            Q[i] = c * gi + s * gip
            Q[i + 1] = -s * gi + c * gip
        return Q.T

    def solve(self, size=None):
        """Solve ``R z = t[:size]``.

        Raises :class:`SingularTriangularError` when the leading diagonal
        spread exceeds the relative floor; GMRES maps that condition to a
        ``singular_final_system`` termination on inconsistent systems.
        """
        return self._solve(self.t, size)

    def apply_rinv(self, rhs, size=None):
        """Solve ``R z = rhs`` for an arbitrary right-hand side (used by
        the two-level factorization to undo the inner factor)."""
        return self._solve(rhs, size)

    def solve_rhs(self, rhs):
        """Least squares solve of the current factorization against an
        arbitrary dense right-hand side (padded with zeros to length
        ``k + 1``)."""
        k = self.k
        g = [0.0] * (k + 1)
        g[: len(rhs)] = np.asarray(rhs, dtype=np.float64).tolist()
        self._rotate(g)
        return self._solve(g, k)


class HessenbergQrWithQ(HessenbergQr):
    """:class:`HessenbergQr` that also tracks columns of the orthogonal
    factor, for the second factorization level of rsmar2 and dgmres and
    for the A-residual estimate of estimate-mode GMRES.

    After each append, ``q_new_col`` is column ``k`` of ``Q_{k+1}`` (the
    combination of Hessenberg columns that the new triangular column
    stands for) and ``q_last`` is the last column of the same ``Q`` (the
    direction of the subproblem residual: ``g - H y = t[-1] q_last``).
    """

    def __init__(self, rhs_seed):
        super().__init__(rhs_seed)
        self.q_last = np.array([1.0])
        self.q_new_col = None

    def append_column(self, column, rhs_append=0.0):
        tail = super().append_column(column, rhs_append)
        c, s = self.rotations[-1]
        # Q_{k+1} e_{k+1} = c * [qlast; 0] + s * e_{k+2} and the running
        # last column becomes -s * [qlast; 0] + c * e_{k+2}.
        self.q_new_col = _combine(c, s, self.q_last)
        self.q_last = _combine(-s, c, self.q_last)
        return tail


def _combine(a, b, q):
    """``a * [q; 0] + b * e_last``, entry by entry.  The zero terms are
    added too: ``-0.0 + 0.0`` is ``+0.0``, so they fix the sign of zero
    entries exactly as the dense sum does."""
    out = np.empty(len(q) + 1)
    head = np.multiply(q, a, out=out[:-1])
    head += b * 0.0
    out[-1] = a * 0.0 + b * 1.0
    return out


class BandedQr(_TriangularFactor):
    """Incremental QR for columns reaching two rows below the diagonal.

    Parameters
    ----------
    rhs_seed : pair of floats
        The two leading RHS entries (the transformed RHS starts as this
        pair, of length ``k + 2`` after ``k`` appends).

    Column ``j`` (1-based) must have entries through row ``j + 2`` only.
    Each append applies the stored rotations and exactly two new ones
    (zeroing rows ``j+2`` then ``j+1``), and returns the pair
    ``(|t[j]|, |t[j+1]|)`` whose root sum of squares is the subproblem's
    minimal residual.
    """

    def __init__(self, rhs_seed):
        super().__init__()
        a, b = rhs_seed
        self.rotations = []  # (row, c, s) acting on (row, row + 1), in order
        self.t = [float(a), float(b)]

    def append_column(self, column):
        k = self.k
        col = np.asarray(column, dtype=np.float64).tolist()
        if len(col) != k + 3:
            raise ValueError(f"column has length {len(col)}, expected {k + 3}")
        _rotate_rows(col, self.rotations)
        new_rots = []
        # Zero the lowest entry first, then the one above it.
        for row in (k + 1, k):
            c, s, r = _givens(col[row], col[row + 1])
            col[row] = r
            col[row + 1] = 0.0
            new_rots.append((row, c, s))
        self.rotations.extend(new_rots)
        self._push(col)
        self.t.append(0.0)
        _rotate_rows(self.t, new_rots)
        return abs(self.t[k + 1]), abs(self.t[k + 2])

    def q_matrix(self):
        """Dense ``(k+2) x (k+2)`` orthogonal factor for verification."""
        k = self.k
        Q = np.eye(k + 2)
        for row, c, s in self.rotations:
            gi = Q[row].copy()
            gip = Q[row + 1].copy()
            Q[row] = c * gi + s * gip
            Q[row + 1] = -s * gi + c * gip
        return Q.T

    def solve(self, size=None):
        return self._solve(self.t, size)
