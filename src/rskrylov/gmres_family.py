"""Krylov solvers: one restart-cycle driver, seven subproblems.

GMRES, RRGMRES, DGMRES and the two RSMAR variants (:mod:`rskrylov.rsmar`)
differ only in the norm they minimize over a Krylov space, ``|r|``
(``gmres_solve``, ``rrgmres_solve``) or ``|A r|`` (the others), and in the
seed of their Arnoldi process, ``r0`` (GMRES, RSMAR2) or ``A r0``
(RRGMRES, DGMRES, RSMAR1).  RRGMRES and DGMRES search the range-restricted
space, which keeps their iterates in range(A): with a zero initial guess
on a singular range-symmetric system their final iterate is the
pseudoinverse solution.  MINRES and MINARES (:mod:`rskrylov.minres_family`)
are their short-recurrence counterparts for symmetric systems.

:func:`_cycle` runs one restart cycle of any of them.  A method supplies
only a :class:`_Subproblem`: its seed and initial history values, its
per-step append (the recurrence value of the minimized norm, and whether
the space closed), the reconstruction of iterate ``k`` and the square
solve at subspace closure.  One monitor decides everything else.

With explicit monitoring (:class:`_Monitor`) a run stops once the
residual norm falls below ``tol * ||r_0||`` or the A-residual norm below
``tol * ||A r_0||``.  The best least squares iterate seen (smallest
explicit A-residual norm) is the fallback whenever the subproblem
degenerates: when the minimized norm more than doubles, or a triangular
factor is numerically singular.  At subspace closure the iterate of the
square solve is accepted (``happy_breakdown``) only if that system is
numerically nonsingular, its minimized norm is not above the last one
recorded and its A-residual norm not above the smallest one seen in the
cycle.  Otherwise the square system is the signature of an inconsistent
system: the best least squares iterate is returned as
``singular_final_system``, and all but RRGMRES and DGMRES apply the
rank-one lift to it to recover the minimum-norm least squares solution.

Without explicit monitoring (``record_explicit=False``) GMRES and RRGMRES
stop on a matvec-free estimate of the A-residual norm of the previous
iterate, available one Arnoldi step late, and return a best iterate that
has been checked explicitly whenever the estimates cannot be trusted
(:class:`_EstimateMonitor`).  The other methods stop on the recurrence
value of their minimized norm (:class:`_RecurrenceMonitor`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._common import (
    LIFT_RHO,
    Histories,
    _trivial_report,
    build_report,
    explicit_norms,
    maybe_lift,
    norm,
    prepare,
)
from .arnoldi import ZeroSeedError, arnoldi_init, arnoldi_step
from .hessenberg_qr import (
    BandedQr,
    ColumnBuffer,
    HessenbergQr,
    HessenbergQrWithQ,
    SingularTriangularError,
)
from .operators import CONVERGED, HAPPY_BREAKDOWN, MAXIT, SINGULAR_FINAL_SYSTEM

__all__ = ["gmres_solve", "rrgmres_solve", "dgmres_solve"]


class _CycleResult(NamedTuple):
    """Outcome of one cycle; ``arn`` is ``|A r|`` when the cycle has it."""

    x: np.ndarray
    r: np.ndarray | None
    termination: str
    stop_rule: str | None
    detected_ell: int | None
    iters: int
    arn: float | None = None


class _Probe(NamedTuple):
    """An iterate rebuilt and checked explicitly."""

    j: int
    x: np.ndarray | None
    r: np.ndarray | None
    rn: float
    arn: float


class _Subproblem:
    """One method's part of a restart cycle from ``x_in`` (residual ``r0``).

    Class attributes hold what follows from the method: ``hat`` (the
    Arnoldi seed is ``A r0``, not ``r0``), ``minimized`` (index of the
    minimized norm in ``(|r|, |A r|)``), ``two_level`` (Arnoldi runs one
    step ahead, so closure shows before the row of iterate ``k`` exists),
    ``lift`` (the final iterate may need the rank-one lift), ``restarts``
    (``opts.restart`` applies) and ``polish`` (steps run on past the
    A-residual floor before the best iterate is returned).

    A method supplies :meth:`seed` (by default the Arnoldi start followed
    by :meth:`start`; may end the cycle), :meth:`step` (one append;
    returns the recurrence value of the minimized norm and sets
    ``closed``), :meth:`iterate` and :meth:`closure`.
    """

    hat = False
    minimized = 0
    two_level = False
    lift = True
    restarts = True
    polish = 0

    def __init__(self, A, b, x_in, r0, opts, floors, hist):
        self.A, self.b, self.x_in, self.r0 = A, b, x_in, r0
        self.opts, self.floors, self.hist = opts, floors, hist
        self.beta1 = norm(r0)
        self.closed = False

    def seed(self):
        """Start the Arnoldi run on ``r0`` or ``A r0``, then the method's
        :meth:`start`; raises :class:`ZeroSeedError` on a vanishing seed."""
        v = self.A.apply(self.r0) if self.hat else self.r0
        self.state = arnoldi_init(self.A, v, self.opts.breakdown_tol)
        return self.start()

    def anchor(self, beta_hat):
        """Take ``beta_hat = |A r0|``; the first cycle also records it in
        the empty initial history entries and sets the A-residual floor."""
        self.beta_hat = beta_hat
        hist = self.hist
        if np.isnan(hist.ares[0]):
            hist.ares[0] = beta_hat
        if np.isnan(hist.est[0]):
            hist.est[0] = beta_hat
        if self.floors["ares"] is None:
            self.floors["ares"] = self.opts.tol * beta_hat

    def iterate(self, k):
        """Iterate ``k``: ``x_in + V_k R^{-1} t``."""
        return self.x_in + self.state.basis(k) @ self.qr.solve(k)

    def closure(self, k):
        """The exact solve of the square system at subspace closure."""
        return self.iterate(k)


class _Gmres(_Subproblem):
    """Residual norm over the space of ``r0``; the tail of the rotated
    right-hand side is the residual norm."""

    def start(self):
        explicit = self.opts.record_explicit
        self.qr = (HessenbergQr if explicit else HessenbergQrWithQ)(self.beta1)

    def step(self, k):
        self.closed = arnoldi_step(self.state, self.A) == "breakdown"
        col = self.state.column(k - 1)
        if not self.opts.record_explicit:
            self.t_prev, self.q_prev = self.qr.t[-1], self.qr.q_last
        tail = self.qr.append_column(col, 0.0)
        if k == 1:
            self.anchor(self.beta1 * norm(col))
        return tail

    def ares_estimate(self, k, hess):
        # r_{k-1} = t_prev V_k q_prev, so A r_{k-1} = t_prev V_{k+1} H q_prev
        hq = hess.view(k + 1, k) @ self.q_prev
        return abs(self.t_prev) * norm(hq)


class _Rrgmres(_Subproblem):
    """Residual norm over the space of ``A r0``: the projected right-hand
    side ``g = V^T r0`` grows one entry per step.

    The residual of iterate ``k`` is ``V_{k+1} (g - H y)`` plus the part
    ``p = r0 - V_{k+1} g`` of ``r0`` outside the basis, so its norm is the
    root sum of squares of the subproblem tail and ``|p|``.  ``p`` is kept
    as a vector: the scalar form ``|r0|^2 - |g|^2`` cancels to zero once
    ``|p|`` falls below ``1e-8 |r0|``.
    """

    hat = True
    lift = False

    def start(self):
        self.anchor(self.state.seed_norm)
        v = self.state.vector(0)
        g0 = float(v @ self.r0)
        self.qr = HessenbergQr(g0)
        self.p = self.r0 - g0 * v

    def step(self, k):
        self.closed = arnoldi_step(self.state, self.A) == "breakdown"
        gk = 0.0
        if not self.closed:
            v = self.state.vector(k)
            gk = float(v @ self.r0)
            self.p -= gk * v
        tail = self.qr.append_column(self.state.column(k - 1), gk)
        return float(np.hypot(tail, norm(self.p)))

    def ares_estimate(self, k, hess):
        # A r_{k-1} = V_{k+1} (beta_hat e1 - H_{k+1,k} H_{k,k-1} y_{k-1})
        y = self.qr.solve(k - 1)
        w = hess.view(k + 1, k) @ (hess.view(k, k - 1) @ y)
        w[0] -= self.beta_hat
        return norm(w)


class _TwoLevel(_Subproblem):
    """A-residual norm through two QR levels, Arnoldi one step ahead: rsmar2
    (seed ``r0``), or dgmres (:class:`_Dgmres`, seed ``A r0``).

    With ``x = x_in + V_k y`` the A-residual is ``A r0 - V_{k+2} H_{k+2,k+1}
    H_{k+1,k} y``: an inner QR of the Hessenberg matrix, and an outer QR of
    the product of the next Hessenberg with the inner orthogonal factor, a
    matrix that vanishes below its second subdiagonal.  The outer product
    is assembled column by column, never as a dense matrix product.  The
    root sum of squares of the two outer tail entries is the A-residual
    norm of the iterate.
    """

    minimized = 1
    two_level = True

    def start(self):
        state = self.state
        arnoldi_step(state, self.A)
        col1 = state.column(0)
        self.hbuf = ColumnBuffer()
        self.hbuf.push(col1)
        s = state.seed_norm
        if self.hat:  # A r0 = s v_1
            self.anchor(s)
            ar0 = (s, 0.0)
        else:  # A r0 = s V_2 h_1
            self.anchor(s * norm(col1))
            ar0 = (s * col1[0], s * col1[1])
        if self.beta_hat <= self.opts.breakdown_tol:
            return _CycleResult(self.x_in, self.r0, CONVERGED, "aresidual", None, 0)
        self.inner = HessenbergQrWithQ(s)
        self.outer = BandedQr(ar0)
        return None

    def step(self, k):
        state = self.state
        if not state.broke_down:
            arnoldi_step(state, self.A)
            self.hbuf.push(state.column(state.k - 1))
        self.inner.append_column(state.column(k - 1), 0.0)
        # Step k equals the dimension of the closed space: no outer column.
        self.closed = state.k < k + 1
        if self.closed:
            return 0.0
        htcol = self.hbuf.view(k + 2, k + 1) @ self.inner.q_new_col
        t1, t2 = self.outer.append_column(htcol)
        return float(np.hypot(t1, t2))

    def iterate(self, k):
        z = self.inner.apply_rinv(self.outer.solve(k), k)
        return self.x_in + self.state.basis(k) @ z

    def closure(self, k):
        # The square Hessenberg is nonsingular on index-1 systems; dgmres
        # solves with its square, H_k**2 y = beta_hat e1, in two steps.
        y = self.inner.solve(k)
        if self.hat:
            y = self.inner.solve_rhs(y)
        return self.x_in + self.state.basis(k) @ y


class _Dgmres(_TwoLevel):
    """The two-level subproblem on the space of ``A r0``."""

    hat = True
    lift = False


class _Monitor:
    """Explicit monitoring: checks every iterate with two matvecs.

    Owns the stopping rules, the best least squares candidate of the cycle
    (``x_lsq``, smallest explicit ``|A r|``, the fallback whenever the
    subproblem degenerates), the growth guard, the closure guard, the
    polish past the A-residual floor and the ``maxit`` tail.
    """

    def __init__(self, sub):
        self.sub, self.A, self.b = sub, sub.A, sub.b
        self.hist, self.floors = sub.hist, sub.floors
        self.x_lsq, self.r_lsq, self.rn_lsq = sub.x_in, sub.r0, sub.beta1
        self.arn_lsq = sub.beta_hat if sub.minimized else np.inf
        # absolute slack of the guards on the minimized norm: relative to
        # |r0| of the cycle, or to |A r0| of the run
        self.slack = 1e-12 * (self.hist.ares[0] if sub.minimized else sub.beta1)
        self.x_best = self.r_best = None  # the last iterate recorded
        self.polish_left = sub.polish

    def advance(self, k):
        """Rules that run before the closure check (none here)."""
        return None

    def _rose(self, rn, arn, factor):
        """Whether the minimized one of ``rn`` and ``arn`` is above
        ``factor`` times its last recorded value, plus slack."""
        m = self.sub.minimized
        last = (self.hist.res, self.hist.ares)[m][-1]
        return (rn, arn)[m] > last * factor + self.slack

    def record(self, k, est):
        """Check iterate ``k`` explicitly, add its row, apply the rules."""
        hist, floors = self.hist, self.floors
        try:
            x = self.sub.iterate(k)
        except SingularTriangularError:
            return self.best_lsq(k, None, est)
        r, rn, arn = explicit_norms(self.A, self.b, x)
        if self._rose(rn, arn, 2.0):
            # A clear increase of the minimized norm contradicts the
            # minimization: the subproblem has degenerated numerically.
            return self.best_lsq(k - 1)
        hist.append(rn, arn, est, self.A.count)
        self.x_best, self.r_best = x, r
        if arn < self.arn_lsq:
            self.x_lsq, self.r_lsq, self.rn_lsq, self.arn_lsq = x, r, rn, arn
        if rn <= floors["res"]:
            return _CycleResult(x, r, CONVERGED, "residual", None, k, arn)
        if arn <= floors["ares"]:
            # Past the floor a polishing method runs on (the first hit
            # counts) while |A r| keeps improving, then returns the best;
            # at the first hit the best is this iterate.
            if self.polish_left <= 0 or arn > self.arn_lsq:
                return self._lsq(CONVERGED, "aresidual", None, k)
            self.polish_left -= 1
        return None

    def closure(self, k, est):
        """Accept the square solve at closure unless it is singular."""
        hist = self.hist
        try:
            x = self.sub.closure(k)
            r, rn, arn = explicit_norms(self.A, self.b, x)
            # The minimized norm cannot exceed the last one (nested
            # minimization); a jump proves the square system at closure is
            # numerically singular even when the diagonal guard missed it.
            # An A-residual above the best seen proves it too, whichever
            # way rounding moved the residual norm.
            singular = self._rose(rn, arn, 1.0 + 1e-6) or (
                arn > self.arn_lsq * (1.0 + 1e-6) + 1e-12 * hist.ares[0]
            )
        except SingularTriangularError:
            singular = True
        if not singular:
            hist.append(rn, arn, est, self.A.count)
            return _CycleResult(x, r, HAPPY_BREAKDOWN, None, k, k, arn)
        return self.singular(k, est)

    def singular(self, k, est):
        """``singular_final_system`` at closure in step ``k``."""
        # A two-level method sees closure before iterate k has a history
        # row: it adds none and reports k - 1 iterations.
        if self.sub.two_level:
            return self.best_lsq(k - 1, k)
        return self.best_lsq(k, k, est)

    def _lsq(self, termination, stop_rule, ell, iters):
        x, r, arn = self.x_lsq, self.r_lsq, self.arn_lsq
        return _CycleResult(x, r, termination, stop_rule, ell, iters, arn)

    def best_lsq(self, iters, ell=None, est=None):
        """``singular_final_system`` with the best least squares iterate;
        with ``est``, a history row for it is appended first."""
        if est is not None:
            if np.isinf(self.arn_lsq):
                self.r_lsq, self.rn_lsq, self.arn_lsq = explicit_norms(
                    self.A, self.b, self.x_lsq
                )
            self.hist.append(self.rn_lsq, self.arn_lsq, est, self.A.count)
        return self._lsq(SINGULAR_FINAL_SYSTEM, None, ell, iters)

    def tail(self, budget):
        if self.polish_left < self.sub.polish:  # the floor was reached
            return self._lsq(CONVERGED, "aresidual", None, budget)
        return _CycleResult(self.x_best, self.r_best, MAXIT, None, None, budget)


class _RecurrenceMonitor(_Monitor):
    """Estimate mode of the methods without an A-residual estimate: the
    recurrence value is the minimized norm, recorded in its column; the
    run stops once it is at its floor.  ``x_lsq`` stays at ``x_in``, so a
    singular closure returns the last iterate that can be rebuilt."""

    def _rebuilt(self, k):
        """Iterate ``k``, or ``x_in`` behind a singular factor."""
        try:
            return self.sub.iterate(k)
        except SingularTriangularError:
            return self.sub.x_in.copy()

    def record(self, k, est):
        m = self.sub.minimized
        row = [np.nan, np.nan]
        row[m] = est
        self.hist.append(*row, est, self.A.count)
        if est <= self.floors[("res", "ares")[m]]:
            rule = ("residual", "aresidual")[m]
            return _CycleResult(self.sub.iterate(k), None, CONVERGED, rule, None, k)
        return None

    def singular(self, k, est):
        x = self._rebuilt(k - 1)
        return _CycleResult(x, None, SINGULAR_FINAL_SYSTEM, None, k, k - 1)

    def tail(self, budget):
        return _CycleResult(self._rebuilt(budget), None, MAXIT, None, None, budget)


class _EstimateMonitor(_RecurrenceMonitor):
    """Stopping rules of the residual minimizers in estimate mode.

    The subproblem hands in, one Arnoldi step late and without a matvec,
    an estimate of ``|A r_j|`` for iterate ``j = k - 1`` (at step ``k``);
    the residual estimate of that iterate is the last history row.
    ``arn_lsq`` is the smallest A-residual estimate, of iterate ``best_j``.

    * A-residual rule: an estimate at ``tol |A r0|`` is confirmed by one
      explicit ``|A r|``; at most ten times the floor ends ``converged``.
    * Floor rule: an estimate above ten times the smallest one, while the
      best iterate's residual is numerically in null(A)
      (``rho <= LIFT_RHO``), means the iterates have left the attainable
      floor: past it GMRES diverges by several times per step, while
      before it ``|A r|`` (which neither method minimizes) can rise a few
      times and fall again.
    * Residual rule: a residual estimate at ``tol |r0|`` is confirmed by
      one explicit ``|r|``; a failed confirmation switches the rule off
      for the rest of the cycle (near closure a degenerate subproblem, or
      cancellation in the estimate, can fool it).

    A failed A-residual confirmation, the floor rule and a singular
    closure end the cycle through :meth:`fallback`.  The history ends at
    the returned iterate, its row made explicit.
    """

    def __init__(self, sub):
        super().__init__(sub)
        self.row0 = len(self.hist.res) - 1  # history row of iterate 0
        self.hess = ColumnBuffer()  # Hessenberg columns, for the estimates
        self.ares = []  # A-residual estimate of each iterate
        self.best_j = 0
        self.best_res = np.inf  # residual estimate of iterate best_j
        self.residual_rule = True

    def _explicit(self, j):
        """Iterate ``j`` checked explicitly (two matvecs); an iterate behind
        a singular triangular factor gets infinite norms."""
        try:
            x = self.sub.iterate(j)
        except SingularTriangularError:
            return _Probe(j, None, None, np.inf, np.inf)
        return _Probe(j, x, *explicit_norms(self.A, self.b, x))

    def _end(self, p, termination, stop_rule, ell):
        self.hist.end_at(self.row0 + p.j, p.rn, p.arn, self.A.count)
        return _CycleResult(p.x, p.r, termination, stop_rule, ell, p.j, p.arn)

    def advance(self, k):
        """A-residual and floor rules for iterate ``k - 1``."""
        self.hess.push(self.sub.state.column(k - 1))
        try:
            aest = self.sub.ares_estimate(k, self.hess)
        except SingularTriangularError:
            return self.fallback(None)
        j = k - 1
        self.ares.append(aest)
        if aest < self.arn_lsq:
            self.arn_lsq, self.best_j, self.best_res = aest, j, self.hist.est[-1]
        if aest <= self.floors["ares"]:
            p = self._explicit(j)
            if p.arn <= 10.0 * self.floors["ares"]:
                return self._end(p, CONVERGED, "aresidual", None)
            return self.fallback(None, p)
        if aest > 10.0 * self.arn_lsq and (
            self.arn_lsq * self.hist.res[0]
            <= LIFT_RHO * self.best_res * self.hist.ares[0]
        ):
            return self.fallback(None)
        return None

    def record(self, k, est):
        """Residual rule for iterate ``k``, whose history row this adds."""
        self.hist.append(est, np.nan, est, self.A.count)
        if not self.residual_rule or est > self.floors["res"]:
            return None
        try:
            x = self.sub.iterate(k)
        except SingularTriangularError:
            self.residual_rule = False
            return None
        r = self.b - self.A.apply(x)
        rn = norm(r)
        if rn > 10.0 * self.floors["res"]:
            self.residual_rule = False
            return None
        return self._end(_Probe(k, x, r, rn, np.nan), CONVERGED, "residual", None)

    def singular(self, k, est):
        return self.fallback(k)

    def fallback(self, ell, probe=None):
        """``singular_final_system`` with the best-estimate iterate, checked
        explicitly.  When its explicit ``|A r|`` is above ten times its
        estimate, the estimates had drifted from the true values before
        it: bisect for the last iterate whose explicit value still agrees
        with its estimate, and return the smallest explicit value seen."""
        j = self.best_j
        if probe is None or probe.j != j:
            probe = self._explicit(j)
        probes = [probe]
        if probe.arn > 10.0 * self.ares[j]:
            sub = self.sub
            probes.append(_Probe(0, sub.x_in, sub.r0, sub.beta1, self.ares[0]))
            lo, hi = 0, j
            while hi - lo > 1:
                mid = (lo + hi) // 2
                probe = self._explicit(mid)
                probes.append(probe)
                if probe.arn <= 10.0 * self.ares[mid]:
                    lo = mid
                else:
                    hi = mid
        best = min(probes, key=lambda p: p.arn)
        return self._end(best, SINGULAR_FINAL_SYSTEM, None, ell)


def _cycle(sub, budget):
    """One restart cycle of at most ``budget`` steps of any of the methods."""
    try:
        done = sub.seed()
    except ZeroSeedError:
        # The seed vanishes, so A r0 does: x_in already minimizes both
        # norms over x_in + range(A).
        sub.anchor(0.0)
        rule = "aresidual" if sub.hat else "residual"
        return _CycleResult(sub.x_in, sub.r0, CONVERGED, rule, None, 0)
    if done is not None:
        return done
    if sub.opts.record_explicit:
        monitor = _Monitor(sub)
    elif hasattr(sub, "ares_estimate"):
        monitor = _EstimateMonitor(sub)
    else:
        monitor = _RecurrenceMonitor(sub)
    for k in range(1, budget + 1):
        est = sub.step(k)
        done = monitor.advance(k)
        if done is None and sub.closed:
            done = monitor.closure(k, est)
        if done is None:
            done = monitor.record(k, est)
        if done is not None:
            return done
    return monitor.tail(budget)


def _solve(method, kind, A, b, x0, opts, options):
    """Restart cycles of subproblem class ``kind`` until one ends the run."""
    A, b, x0, r0, opts = prepare(A, b, x0, opts, **options)
    hist = Histories()
    beta1 = norm(r0)
    if beta1 <= opts.breakdown_tol:
        return _trivial_report(method, A, x0, beta1, hist)
    # The initial estimate is of the minimized norm (|A r0| comes later).
    hist.append(beta1, np.nan, np.nan if kind.minimized else beta1, A.count)
    floors = {"res": opts.tol * beta1, "ares": None}
    budget = opts.maxit if opts.maxit is not None else A.n
    restart = opts.restart if kind.restarts else None
    x, r = x0, r0
    while True:
        size = budget if restart is None else min(restart, budget)
        result = _cycle(kind(A, b, x, r, opts, floors, hist), size)
        budget -= result.iters
        x, r = result.x, result.r
        if result.termination != MAXIT or budget <= 0 or restart is None:
            break
        if r is None:
            r = b - A.apply(x)
    lifted = None
    if kind.lift:
        lifted = maybe_lift(
            A, b, hist, x, x0, r, floors["res"], result.termination, result.arn
        )
    ending = (result.termination, result.stop_rule, result.detected_ell)
    return build_report(method, x, lifted, hist, A.count, *ending)


def gmres_solve(A, b, x0=None, opts=None, **options):
    """GMRES for (possibly singular) range-symmetric systems.

    On consistent systems the run ends at the subspace closure with the
    exact solution; on inconsistent systems it ends with a least squares
    iterate (detected through the A-residual monitor or a singular final
    triangular factor) whose lifted companion, stored in
    ``lifted_solution``, is the projection of ``x0`` onto the least
    squares solution set.
    """
    return _solve("gmres", _Gmres, A, b, x0, opts, options)


def rrgmres_solve(A, b, x0=None, opts=None, **options):
    """Range-restricted GMRES.

    Minimizes the residual norm over the Krylov space seeded by
    ``A r_0``.  With a zero initial guess on a singular range-symmetric
    system the final iterate is the pseudoinverse solution in both the
    consistent and the inconsistent case, so no lifting is needed.
    """
    return _solve("rrgmres", _Rrgmres, A, b, x0, opts, options)


def dgmres_solve(A, b, x0=None, opts=None, **options):
    """Drazin-inverse GMRES specialized to index-1 systems.

    Minimizes the A-residual norm over the Krylov space seeded by
    ``A r_0`` through a two-level QR of the product of consecutive hat
    Hessenberg factors; the root sum of squares of the two outer tail
    entries is the A-residual norm estimate.  With a zero initial guess
    on a range-symmetric system the final iterate is the pseudoinverse
    solution.
    """
    return _solve("dgmres", _Dgmres, A, b, x0, opts, options)
