"""Shared plumbing for the iterative solver drivers."""

from __future__ import annotations

import math

import numpy as np

from .lifting import lift
from .operators import (
    CONVERGED,
    HAPPY_BREAKDOWN,
    SINGULAR_FINAL_SYSTEM,
    CountingOperator,
    SolveOptions,
    as_vector,
)

LIFT_TERMINATIONS = (CONVERGED, HAPPY_BREAKDOWN, SINGULAR_FINAL_SYSTEM)
# A final residual counts as numerically in null(A) when
# rho = |A r| |r0| / (|r| |A r0|) is at most this.
LIFT_RHO = 1e-4


class Histories:
    """Per-iteration residual, A-residual, estimate, and matvec logs.

    The one copy of a run's norms: the stop rules read their floors
    ``tol |r0|`` and ``tol |A r0|`` from row 0, and the lift's null-space
    test (:func:`in_null_space`) reads rows 0 and -1.
    """

    def __init__(self):
        self.res = []
        self.ares = []
        self.est = []
        self.mv = []

    def append(self, rn, arn, est, mv):
        self.res.append(float(rn))
        self.ares.append(float(arn))
        self.est.append(float(est))
        self.mv.append(int(mv))

    def end_at(self, row, rn, arn, mv):
        """Drop the rows after ``row`` and give it explicit norms (its
        estimate stays)."""
        for log in (self.res, self.ares, self.est, self.mv):
            del log[row + 1 :]
        self.res[row] = float(rn)
        self.ares[row] = float(arn)
        self.mv[row] = int(mv)


def norm(v):
    """Euclidean norm of a contiguous float64 vector, as a float.

    The formula of ``np.linalg.norm`` for such a vector (``sqrt(v . v)``),
    hence the same bits, without its dispatch.
    """
    return math.sqrt(v.dot(v))


def prepare(A, b, x0, opts, **overrides):
    """Normalize the solver inputs and compute the initial residual."""
    if opts is None:
        opts = SolveOptions(**overrides)
    elif overrides:
        raise TypeError("pass either opts or keyword options, not both")
    A = CountingOperator(A)
    b = as_vector(b, A.n)
    if x0 is not None:
        x0 = as_vector(x0, A.n).copy()
    for name, v in (("b", b), ("x0", x0)):
        if v is not None and not np.all(np.isfinite(v)):
            raise ValueError(f"{name} has non-finite entries")
    if x0 is None:  # the zero guess, known finite and zero
        return A, b, np.zeros(A.n), b.copy(), opts
    r0 = b - A.apply(x0) if np.any(x0) else b.copy()
    return A, b, x0, r0, opts


def explicit_norms(A, b, x):
    """Recompute the residual and A-residual of an iterate (two matvecs)."""
    r = b - A.apply(x)
    ar = A.apply(r)
    return r, norm(r), norm(ar)


def in_null_space(hist, rn, arn):
    """Whether a residual of norms ``rn = |r|`` and ``arn = |A r|`` is
    numerically in null(A): ``rho <= LIFT_RHO``, with ``|r0|`` and
    ``|A r0|`` read from history row 0."""
    return arn * hist.res[0] <= LIFT_RHO * rn * hist.ares[0]


def maybe_lift(hist, tol, x, x0, r, termination):
    """The rank-one lift of ``x`` when the run ended in the inconsistent
    regime: finished, with a residual ``r = b - A x`` above the convergence
    floor ``tol |r0|`` that is numerically in null(A) (:func:`in_null_space`);
    else ``None``.

    A residual still partly in range(A) (a consistent run stopped by the
    A-residual rule just short of the residual floor) is not lifted: the
    lift would move a correct iterate along it.  ``|r|`` and ``|A r|`` are
    the last history row, the explicit norms of ``x`` (``|A r|`` is ``nan``,
    never lifted, where the run did not check it), and ``|r0|`` and
    ``|A r0|`` row 0: no operator is applied.
    """
    rn = hist.res[-1]
    if termination not in LIFT_TERMINATIONS or rn <= tol * hist.res[0]:
        return None
    if not in_null_space(hist, rn, hist.ares[-1]):
        return None
    return lift(x, x0, r)
