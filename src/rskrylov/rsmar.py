"""Minimum A-residual iterations over the Krylov space of the residual.

Both solvers here minimize ``||A (b - A x)||`` over
``x0 + span{r0, A r0, ..., A^(k-1) r0}`` for range-symmetric systems; the
A-residual norm converges to zero even when the residual norm cannot
(inconsistent systems), and the final iterate coincides with the final
GMRES iterate, so the rank-one lift recovers the minimum-norm least
squares solution from it.  They are two of the seven subproblems of the
restart-cycle driver in :mod:`rskrylov.gmres_family`, which monitors,
stops and lifts them exactly as it does the GMRES family.

``rsmar1_solve`` runs the Arnoldi process on the seed ``A r0``.  The
projected subproblem is then a plain Hessenberg least squares problem and
the tail of its rotated right-hand side is the A-residual norm; the
iterate is mapped back to the residual-seeded space through the
triangular change-of-basis matrix ``[bhat1 e1, Hhat_{k,k-1}]``, solved
at every step by block back substitution (``solve_upper``).  Its inverse,
built a column at a time as the projected factors keep theirs, is
unstable: on the m=50 grid with a consistent right-hand side it turns a
230-step convergence into 370 steps and a singular final system.  This
variant is known to go unstable on some consistent problems; it is kept
faithful to that behavior (the histories expose it) rather than patched.

``rsmar2_solve`` runs the Arnoldi process on the seed ``r0`` one step
ahead and factors the subproblem in two levels: an inner QR of the
Hessenberg matrix and an outer QR of the product of the next Hessenberg
with the inner orthogonal factor, a matrix that vanishes below its second
subdiagonal (the subproblem DGMRES uses on the seed ``A r0``).  This is
the implementation of choice in floating point.
"""

from __future__ import annotations

# The driver calls explicit_norms through gmres_family; the name stays
# bound here because perfbench/tracing.py wraps it in this module too.
from ._common import explicit_norms  # noqa: F401
from .arnoldi import arnoldi_step
from .gmres_family import _solve, _Subproblem, _TwoLevel
from .hessenberg_qr import ColumnBuffer, HessenbergQr, solve_upper

__all__ = ["rsmar1_solve", "rsmar2_solve"]


class _Rsmar1(_Subproblem):
    """A-residual norm over the space of ``r0``, on the seed ``A r0``."""

    hat = True
    minimized = 1

    def start(self):
        self.anchor(self.state.seed_norm)
        self.qr = HessenbergQr(self.beta_hat)
        # Columns of the change of basis [bhat1 e1, Hhat_{k,k-1}].
        self.change = ColumnBuffer()
        self.change.push([self.beta_hat])

    def step(self, k):
        self.closed = arnoldi_step(self.state, self.A, ride=self.ride) == "breakdown"
        col = self.state.column(k - 1)
        self.change.push(col)
        return self.qr.append_column(col, 0.0)

    def coefficients(self, k):
        """Solve the projected subproblem for ``zhat``, then
        ``[bhat1 e1, Hhat_{k,k-1}] y = zhat``: iterate ``k`` is
        ``x_in + [r0, Vhat_{k-1}] y``, ``base = x_in + y_0 r0``."""
        zhat = self.qr.solve(k)
        y = solve_upper(self.change.view(k, k), zhat)
        return self.x_in + y[0] * self.r0, y[1:]


def rsmar1_solve(A, b, x0=None, opts=None, **options):
    """Minimum A-residual iteration, hat-space implementation.

    Runs the Arnoldi process on the seed ``A r0``; the per-step scalar
    ``rho_k`` (tail of the rotated subproblem RHS) equals the A-residual
    norm of the iterate.  On inconsistent termination the lifted iterate
    (``lifted_solution``) is the minimum-norm least squares solution.
    """
    return _solve("rsmar1", _Rsmar1, A, b, x0, opts, options)


def rsmar2_solve(A, b, x0=None, opts=None, **options):
    """Minimum A-residual iteration, two-level QR implementation.

    Runs the Arnoldi process on the seed ``r0`` one step ahead and keeps
    two incremental QR factorizations: one of the Hessenberg matrix and
    one of the banded product matrix.  ``rho_k``, the root sum of squares
    of the two tail entries of the outer rotated RHS, equals the
    A-residual norm of the iterate.  Mathematically equivalent to
    :func:`rsmar1_solve`; preferable in floating point.
    """
    return _solve("rsmar2", _TwoLevel, A, b, x0, opts, options)
