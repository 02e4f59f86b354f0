"""Incremental QR factorizations via Givens rotations.

:class:`HessenbergQr` factors a column-growing matrix whose columns reach
``band`` rows below the diagonal while maintaining the rotated right-hand
side, so the last ``band`` entries of the transformed RHS hold the least
squares residual of the current subproblem.  Its default band of one is
the Arnoldi Hessenberg; :class:`BandedQr` is the same class with a band of
two, for the second factorization level of the long-recurrence A-residual
methods.  Each column append applies the stored rotations, then ``band``
new ones that zero the new subdiagonal entries from the bottom up.  For
both bands, ``rotations`` holds ``(row, c, s)`` triples, each acting on
rows ``row`` and ``row + 1``, and :meth:`HessenbergQr.append_column`
returns the subproblem's minimal residual as one float: ``|t[-1]|`` for a
band of one, the root sum of squares of ``t[-2:]`` for a band of two (the
two tail entries themselves are ``t[-2:]``).

Rotations use the convention ``[[c, s], [-s, c]]`` with signs chosen so
every diagonal entry of ``R`` is nonnegative, which makes the factors
deterministic.

A solve of the leading ``size x size`` block (``0 <= size <= k``, a
``ValueError`` otherwise) raises :class:`SingularTriangularError` when
the smallest ``|R[i, i]|`` of the block is at most ``1e-14`` times the
largest.  Both extremes are recorded for every leading block as its
column is appended (running minimum and maximum), so the guard costs O(1)
per solve.

The factor also keeps ``W = R^{-1}``, extended lazily: a solve of size
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

``R`` and ``W`` are zeroed square arrays reserved for ``capacity``
columns (a restart cycle passes its step budget), written in place;
refused, or by default, they start at order 8 and double by copying.
Row-major: column-major order changed the rounding of 569 of the 638
benchmark solves and kept as many pages resident at 300 steps.
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
    """Apply ``(row, c, s)`` rotations in order to a list of floats, or to
    a list of row arrays (each rotated row is a new array)."""
    for row, c, s in rotations:
        ci, cip = col[row], col[row + 1]
        col[row] = c * ci + s * cip
        col[row + 1] = -s * ci + c * cip


class HessenbergQr:
    """Incremental QR, with rotated RHS, of a matrix whose column ``j``
    (0-based) has entries through row ``j + band`` only.

    Parameters
    ----------
    rhs_seed : float, or ``band`` floats
        The leading entries of the right-hand side (for ``band = 1`` the
        seed norm ``beta``); the transformed RHS starts as them.
    capacity : int
        Columns to reserve ``R`` and ``W`` for.

    After ``k`` column appends the object holds the rotations, the
    ``k x k`` triangular factor, and ``t = Q^T g`` of length ``k + band``
    where ``g`` collects the RHS entries passed to :meth:`append_column`.
    The norm of the last ``band`` entries of ``t``, which
    :meth:`append_column` returns, is the subproblem's minimal residual.
    ``_lo[j]`` and ``_hi[j]`` are the smallest and largest ``|R[i, i]|``
    over ``i <= j`` (``nan`` once a ``nan`` enters, as ``np.min`` and
    ``np.max`` give).
    """

    band = 1

    def __init__(self, rhs_seed, capacity=8):
        shape = (max(capacity, 1),) * 2
        try:
            self._r, self._w = np.zeros(shape), np.zeros(shape)
        except MemoryError:
            self._r, self._w = np.zeros((8, 8)), np.zeros((8, 8))
        self.rcols = []  # an empty factor
        self.rotations = []  # (row, c, s) acting on (row, row + 1), in order
        self.t = np.asarray(rhs_seed, dtype=np.float64).reshape(self.band).tolist()

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
        if j == len(self._r):
            self._grow()
        self._r[: j + 1, j] = col[: j + 1]
        self.k = j + 1

    def _grow(self):
        """Double the order of ``R`` and ``W``, copying them."""
        self._r, self._w = (np.pad(a, (0, len(a))) for a in (self._r, self._w))

    @property
    def rcols(self):
        """Columns of the triangular factor (column ``j`` has ``j + 1``
        entries); assigning a list of columns replaces the factor and
        discards ``W``."""
        return [self._r[: j + 1, j] for j in range(self.k)]

    @rcols.setter
    def rcols(self, cols):
        self.k = self._wk = 0  # columns of R and of W in use
        self._lo, self._hi = [], []
        for col in cols:
            self._push(col)

    def r_matrix(self, size=None):
        """Dense triangular factor (leading ``size`` columns)."""
        if size is None:
            size = self.k
        return self._r[:size, :size].copy()

    def append_column(self, column, rhs_append=0.0):
        """Append one column (length ``k + 1 + band``) and one RHS entry;
        returns the subproblem's minimal residual."""
        k, band = self.k, self.band
        col = np.asarray(column, dtype=np.float64).tolist()
        if len(col) != k + 1 + band:
            raise ValueError(f"column has length {len(col)}, expected {k + 1 + band}")
        _rotate_rows(col, self.rotations)
        # Zero the lowest entry first, then the ones above it.
        for row in range(k + band - 1, k - 1, -1):
            c, s, col[row] = _givens(col[row], col[row + 1])
            self.rotations.append((row, c, s))
        self._push(col)
        t = self.t
        t.append(float(rhs_append))
        _rotate_rows(t, self.rotations[-band:])
        if band == 1:
            return abs(t[-1])
        return float(np.hypot(t[-2], t[-1]))

    def q_matrix(self):
        """Dense ``(k + band) x (k + band)`` orthogonal factor rebuilt from
        the stored rotations (for verification)."""
        rows = list(np.eye(self.k + self.band))
        _rotate_rows(rows, self.rotations)
        return np.array(rows).T

    def solve(self, size=None):
        """Solve ``R z = t[:size]``.

        Raises :class:`SingularTriangularError` when the leading diagonal
        spread exceeds the relative floor; GMRES maps that condition to a
        ``singular_final_system`` termination on inconsistent systems.
        """
        return self._solve(self.t, size)

    def apply_rinv(self, rhs, size=None):
        """Solve ``R z = rhs`` for an arbitrary right-hand side of at least
        ``size`` entries (used by the two-level factorization to undo the
        inner factor)."""
        return self._solve(rhs, size)

    def solve_rhs(self, rhs):
        """Least squares solve of the current factorization against an
        arbitrary dense right-hand side of at most ``k + band`` entries
        (padded with zeros to that length)."""
        k = self.k
        g = [0.0] * (k + self.band)
        if len(rhs) > len(g):
            raise ValueError(f"rhs has length {len(rhs)}, expected at most {len(g)}")
        g[: len(rhs)] = np.asarray(rhs, dtype=np.float64).tolist()
        _rotate_rows(g, self.rotations)
        return self._solve(g, k)

    def _solve(self, rhs, size):
        """Solve ``R[:size, :size] z = rhs[:size]``, raising
        :class:`SingularTriangularError` when the relative diagonal spread
        is below the floor."""
        if size is None:
            size = self.k
        elif not 0 <= size <= self.k:
            raise ValueError(f"size {size} is outside 0..k with k = {self.k}")
        if len(rhs) < size:
            raise ValueError(f"rhs has length {len(rhs)}, expected at least {size}")
        rhs = np.asarray(rhs[:size], dtype=np.float64)
        if size == 0:
            return np.zeros(0)
        lo, hi = self._lo[size - 1], self._hi[size - 1]
        if lo <= 1e-14 * hi:
            raise SingularTriangularError(
                "triangular factor is numerically singular "
                f"(min diag {lo:.3e}, max diag {hi:.3e})"
            )
        R, W, j = self._r, self._w, self._wk
        if j == size - 1:
            np.divide(W[:j, :j] @ R[:j, j], -R[j, j], out=W[:j, j])
            W[j, j] = 1.0 / R[j, j]
            self._wk = size
        if self._wk >= size:
            return W[:size, :size] @ rhs
        return solve_upper(R[:size, :size], rhs)


class BandedQr(HessenbergQr):
    """:class:`HessenbergQr` for columns reaching two rows below the
    diagonal, as the second factorization level of rsmar2 and dgmres
    produces: ``rhs_seed`` is a pair, each append applies two new
    rotations (zeroing rows ``k+2`` then ``k+1``), and the residual it
    returns is the root sum of squares of the pair ``t[-2:]``."""

    band = 2


class HessenbergQrWithQ(HessenbergQr):
    """:class:`HessenbergQr` that also tracks columns of the orthogonal
    factor, for the second factorization level of rsmar2 and dgmres and
    for the A-residual estimate of estimate-mode GMRES.

    After each append, ``q_new_col`` is column ``k`` of ``Q_{k+1}`` (the
    combination of Hessenberg columns that the new triangular column
    stands for) and ``q_last`` is the last column of the same ``Q`` (the
    direction of the subproblem residual: ``g - H y = t[-1] q_last``).
    """

    def __init__(self, rhs_seed, capacity=8):
        super().__init__(rhs_seed, capacity)
        self.q_last = np.array([1.0])
        self.q_new_col = None

    def append_column(self, column, rhs_append=0.0):
        tail = super().append_column(column, rhs_append)
        _, c, s = self.rotations[-1]
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
