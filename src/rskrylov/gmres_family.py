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

Without explicit monitoring (``record_explicit=False``) every method
stops on a matvec-free estimate of the A-residual norm, confirmed by one
explicit check, and returns a best iterate that has been checked
explicitly whenever the estimates cannot be trusted
(:class:`_EstimateMonitor`).  The estimate is the recurrence value of
DGMRES, the RSMAR variants and MINARES; GMRES, RRGMRES and MINRES get it
for the previous iterate, one step late.

When the next Arnoldi step is a delayed one (:mod:`rskrylov.arnoldi`),
the explicit monitor hands it the coefficients of iterate ``k``: its
pass over the basis sums ``x_k`` on the way, and the monitor checks
``x_k`` with the same rules at step ``k + 1``, before that step's closure
check.  A run that stops there has spent step ``k + 1``'s product with
``A``, which the row of ``x_k`` counts.

Every exit of every monitor goes through ``_Monitor._end``, which makes
the explicit norms of the returned iterate the last history row (the
closure step's row after a closure) and hands on its ``r`` and ``|A r|``:
neither a restart nor the lift applies ``A`` again.
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
from .arnoldi import ZeroSeedError, _block_rows, arnoldi_init, arnoldi_step
from .hessenberg_qr import (
    BandedQr,
    HessenbergQr,
    HessenbergQrWithQ,
    SingularTriangularError,
)
from .operators import CONVERGED, HAPPY_BREAKDOWN, MAXIT, SINGULAR_FINAL_SYSTEM

__all__ = ["gmres_solve", "rrgmres_solve", "dgmres_solve"]


class _CycleResult(NamedTuple):
    """Outcome of one cycle: ``x``, ``r = b - A x`` and ``arn = |A r|``."""

    x: np.ndarray
    r: np.ndarray
    termination: str
    stop_rule: str | None
    detected_ell: int | None
    iters: int
    arn: float


class _Probe(NamedTuple):
    """Iterate ``j`` checked explicitly; the best of estimate mode holds
    estimates, and an ``x`` only from a short recurrence.  The explicit
    monitor stores plain tuples of these fields, in this order: a
    ``_Probe`` per step costs about 0.4 us, a few percent of a small step."""

    j: int
    x: np.ndarray | None
    r: np.ndarray | None
    rn: float
    arn: float


class _Subproblem:
    """One method's part of a restart cycle from ``x_in`` (residual ``r0``).

    Class attributes hold what follows from the method: ``hat`` (the
    Arnoldi seed is ``A r0``, not ``r0``), ``minimized`` (index of the
    minimized norm in ``(|r|, |A r|)``), ``lift`` (the final iterate may
    need the rank-one lift), ``keeps_basis`` (a Krylov basis is kept:
    ``opts.restart`` applies, :meth:`iterate` rebuilds any iterate of the
    cycle and delayed Arnoldi steps can sum one) and ``polish`` (steps run
    on past the A-residual floor before the best iterate is returned).

    A method supplies :meth:`seed` (by default the Arnoldi start followed
    by :meth:`start`; given the step budget of the cycle), :meth:`step`
    (one append, whose Arnoldi step takes ``ride``; returns the recurrence
    value of the minimized norm and sets ``closed``), :meth:`coefficients`
    (or :meth:`iterate`) and :meth:`closure`; a residual minimizer also
    ``ares_estimate(k)``, the A-residual estimate of iterate ``k - 1``
    after step ``k``.
    """

    hat = False
    minimized = 0
    lift = True
    keeps_basis = True
    polish = 0
    # (z, x): the coefficients of an iterate whose sum ``x += V z`` the
    # next Arnoldi step completes (see :meth:`_Monitor.record`)
    ride = None

    def __init__(self, A, b, x_in, r0, opts, floors, hist):
        self.A, self.b, self.x_in, self.r0 = A, b, x_in, r0
        self.opts, self.floors, self.hist = opts, floors, hist
        self.beta1 = norm(r0)
        self.closed = False

    def seed(self, budget):
        """Start the Arnoldi run on ``r0`` or ``A r0``, then the method's
        :meth:`start`; raises :class:`ZeroSeedError` when the seed or
        ``A r0`` vanishes.

        The basis is reserved for the ``budget`` steps of the cycle at
        once: ``budget + 1`` vectors, one more for a two-level method,
        which runs Arnoldi one step ahead, and the projected factors for
        ``capacity = budget`` columns; neither beyond ``n``.
        """
        v = self.A.apply(self.r0) if self.hat else self.r0
        self.capacity = min(budget, self.A.n)
        rows = min(budget + 2, self.A.n)
        self.state = arnoldi_init(self.A, v, self.opts.breakdown_tol, capacity=rows)
        self.start()

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

    def coefficients(self, k):
        """``(base, z)`` with iterate ``k`` equal to ``base + V z``, ``V``
        the first ``len(z)`` basis vectors: ``x_in`` and ``R^{-1} t``."""
        return self.x_in, self.qr.solve(k)

    def iterate(self, k):
        """Iterate ``k`` from its :meth:`coefficients`."""
        base, z = self.coefficients(k)
        return base + self.state.basis(len(z)) @ z

    def delays(self, budget):
        """Whether a cycle of ``budget`` steps reaches the delayed Arnoldi
        steps (see :mod:`rskrylov.arnoldi`), whose pass over the basis can
        sum an iterate on its way: whether its last step is delayed."""
        return self.keeps_basis and _block_rows(budget, self.A.n) > 0

    def delayed_next(self):
        """Whether the next step runs a delayed Arnoldi pass."""
        state = self.state
        return not state.broke_down and _block_rows(state.k, state.n) > 0

    def closure(self, k):
        """The exact solve of the square system at subspace closure."""
        return self.iterate(k)


class _Gmres(_Subproblem):
    """Residual norm over the space of ``r0``; the tail of the rotated
    right-hand side is the residual norm."""

    def start(self):
        kind = HessenbergQr if self.opts.record_explicit else HessenbergQrWithQ
        self.qr = kind(self.beta1, self.capacity)

    def step(self, k):
        self.closed = arnoldi_step(self.state, self.A, ride=self.ride) == "breakdown"
        col = self.state.column(k - 1)
        if not self.opts.record_explicit:
            self.t_prev, self.q_prev = self.qr.t[-1], self.qr.q_last
        tail = self.qr.append_column(col, 0.0)
        if k == 1:
            self.anchor(self.beta1 * norm(col))
        return tail

    def ares_estimate(self, k):
        # r_{k-1} = t_prev V_k q_prev, so A r_{k-1} = t_prev V_{k+1} H q_prev
        hq = self.state.hessenberg(k) @ self.q_prev
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
        self.qr = HessenbergQr(g0, self.capacity)
        self.p = self.r0 - g0 * v

    def step(self, k):
        self.closed = arnoldi_step(self.state, self.A, ride=self.ride) == "breakdown"
        gk = 0.0
        if not self.closed:
            v = self.state.vector(k)
            gk = float(v @ self.r0)
            self.p -= gk * v
        tail = self.qr.append_column(self.state.column(k - 1), gk)
        return float(np.hypot(tail, norm(self.p)))

    def ares_estimate(self, k):
        # A r_{k-1} = V_{k+1} (beta_hat e1 - H_{k+1,k} H_{k,k-1} y_{k-1})
        y = self.qr.solve(k - 1)
        H = self.state.hessenberg(k)
        w = H @ (H[:k, : k - 1] @ y)
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

    def start(self):
        state = self.state
        arnoldi_step(state, self.A)
        col1 = state.column(0)
        s = state.seed_norm
        if self.hat:  # A r0 = s v_1
            self.anchor(s)
            ar0 = (s, 0.0)
        else:  # A r0 = s V_2 h_1
            self.anchor(s * norm(col1))
            ar0 = (s * col1[0], s * col1[1])
        if self.beta_hat <= self.opts.breakdown_tol:
            raise ZeroSeedError("A r0 is numerically zero")
        self.inner = HessenbergQrWithQ(s, self.capacity)
        self.outer = BandedQr(ar0, self.capacity)

    def step(self, k):
        state = self.state
        if not state.broke_down:
            arnoldi_step(state, self.A, ride=self.ride)
        self.inner.append_column(state.column(k - 1), 0.0)
        # Step k equals the dimension of the closed space: no outer column.
        self.closed = state.k < k + 1
        if self.closed:
            return 0.0
        htcol = state.hessenberg(k + 1) @ self.inner.q_new_col
        return self.outer.append_column(htcol)

    def coefficients(self, k):
        return self.x_in, self.inner.apply_rinv(self.outer.solve(k), k)

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

    Owns the stopping rules, the best least squares iterate of the cycle
    (``best``, smallest explicit ``|A r|``, the fallback whenever the
    subproblem degenerates), the last iterate recorded (``last``), the
    growth guard, the closure guard, the polish past the A-residual floor
    and the ``maxit`` tail.  Every exit goes through :meth:`_end`.

    When step ``k + 1`` runs a delayed Arnoldi pass, :meth:`record`
    leaves the sum ``V z`` of iterate ``k`` to that pass and
    :meth:`advance` checks the iterate, with the same rules, before
    anything of step ``k + 1``: the pass reads the basis once for both,
    and a check that ends the cycle there has spent that step's product
    with ``A``.
    """

    def __init__(self, sub, budget):
        self.sub, self.A, self.b = sub, sub.A, sub.b
        self.hist, self.floors = sub.hist, sub.floors
        # record(k) for k below this may leave its sum to a delayed pass
        self.defer_below = budget if sub.delays(budget) else 0
        self.deferred = None  # (k, est, x) of the iterate the pass sums
        self.row0 = len(self.hist.res) - 1  # history row of iterate 0
        arn = sub.beta_hat if sub.minimized else np.inf
        self.best = self.last = _Probe(0, sub.x_in, sub.r0, sub.beta1, arn)
        # absolute slack of the guards on the minimized norm: relative to
        # |r0| of the cycle, or to |A r0| of the run
        self.slack = 1e-12 * (self.hist.ares[0] if sub.minimized else sub.beta1)
        # the history column of the minimized norm (Histories keeps its lists)
        self.minimized = sub.minimized
        self.minimized_log = (self.hist.res, self.hist.ares)[sub.minimized]
        self.polish_left = sub.polish

    def advance(self, k):
        """Rules that run before the closure check: the check of iterate
        ``k - 1``, if step ``k`` summed it."""
        if self.deferred is None:
            return None
        j, est, x = self.deferred
        self.deferred = self.sub.ride = None
        return self._check(j, est, x)

    def _rose(self, rn, arn, factor):
        """Whether the minimized one of ``rn`` and ``arn`` is above
        ``factor`` times its last recorded value, plus slack."""
        value = arn if self.minimized else rn
        return value > self.minimized_log[-1] * factor + self.slack

    def _end(self, p, termination, stop_rule, ell, est=np.nan):
        """End the cycle with iterate ``p``, whose explicit norms become
        the last history row: the row of the closure step ``ell`` (added
        with ``est``), otherwise ``p``'s own row, the rows after it
        dropped.  A probe with ``arn = inf`` is checked here first."""
        j, x, r, rn, arn = p
        if arn == np.inf:
            r, rn, arn = explicit_norms(self.A, self.b, x)
        hist, count = self.hist, self.A.count
        if ell is not None:
            hist.append(rn, arn, est, count)
        elif (len(hist.mv) - 1, hist.res[-1], hist.ares[-1], hist.mv[-1]) != (
            self.row0 + j, rn, arn, count
        ):  # unless the last row already is that row
            hist.end_at(self.row0 + j, rn, arn, count)
        iters = j if ell is None else ell
        return _CycleResult(x, r, termination, stop_rule, ell, iters, arn)

    def record(self, k, est):
        """Check iterate ``k``, or hand its coefficients to the next
        step's delayed Arnoldi pass and check it in :meth:`advance`."""
        sub = self.sub
        try:
            if k < self.defer_below and sub.delayed_next():
                base, z = sub.coefficients(k)
                x = base.copy()
                sub.ride = (z, x)
                self.deferred = (k, est, x)
                return None
            x = sub.iterate(k)
        except SingularTriangularError:
            return self.fallback(None)
        return self._check(k, est, x)

    def _check(self, k, est, x):
        """Check iterate ``k`` explicitly, add its row, apply the rules."""
        hist, floors = self.hist, self.floors
        r, rn, arn = explicit_norms(self.A, self.b, x)
        if self._rose(rn, arn, 2.0):
            # A clear increase of the minimized norm contradicts the
            # minimization: the subproblem has degenerated numerically.
            return self.fallback(None)
        hist.append(rn, arn, est, self.A.count)
        self.last = p = (k, x, r, rn, arn)
        best_arn = self.best[-1]
        if arn < best_arn:
            self.best = p
        if rn <= floors["res"]:
            return self._end(p, CONVERGED, "residual", None)
        if arn <= floors["ares"]:
            # Past the floor a polishing method runs on (the first hit
            # counts) while |A r| keeps improving, then returns the best;
            # at the first hit the best is this iterate.
            if self.polish_left <= 0 or arn > best_arn:
                return self._end(self.best, CONVERGED, "aresidual", None)
            self.polish_left -= 1
        return None

    def closure(self, k, est):
        """Accept the square solve at closure unless it is singular."""
        try:
            x = self.sub.closure(k)
            p = _Probe(k, x, *explicit_norms(self.A, self.b, x))
            # The minimized norm cannot exceed the last one (nested
            # minimization); a jump proves the square system at closure is
            # numerically singular even when the diagonal guard missed it.
            # An A-residual above the best seen, or above x_in's (its row,
            # needed before the first check; a NaN there, after an
            # estimate-mode maxit, loses to the best in min), proves it
            # too, whichever way rounding moved the residual norm.
            best_arn = min(self.best[-1], self.hist.ares[self.row0])
            singular = self._rose(p.rn, p.arn, 1.0 + 1e-6) or (
                p.arn > best_arn * (1.0 + 1e-6) + 1e-12 * self.hist.ares[0]
            )
        except SingularTriangularError:
            singular = True
        if not singular:
            return self._end(p, HAPPY_BREAKDOWN, None, k, est)
        return self.fallback(k, est)

    def fallback(self, ell, est=np.nan):
        """``singular_final_system`` with the best least squares iterate;
        ``ell`` is the closure step, if the space closed."""
        return self._end(self.best, SINGULAR_FINAL_SYSTEM, None, ell, est)

    def tail(self, budget):
        if self.polish_left < self.sub.polish:  # the floor was reached
            return self._end(self.best, CONVERGED, "aresidual", None)
        return self._end(self.last, MAXIT, None, None)


class _EstimateMonitor(_Monitor):
    """Monitoring without explicit checks (``record_explicit=False``).

    A method hands in a matvec-free estimate of ``|A r_j|``: a residual
    minimizer for ``j = k - 1`` in :meth:`advance`, one step late, an
    A-residual minimizer its recurrence value for ``j = k`` in
    :meth:`record`.  ``best`` holds the smallest estimate, the residual
    estimate of its iterate and, from a short recurrence, which cannot
    rebuild it, the iterate.

    * A-residual rule: an estimate at ``tol |A r0|`` is confirmed by one
      explicit ``|A r|``; at most ten times the floor ends ``converged``.
    * Floor rule: an estimate above ten times the smallest one, while the
      best iterate's residual is numerically in null(A)
      (``rho <= LIFT_RHO``), means the iterates have left the attainable
      floor; before it ``|A r|``, which a residual minimizer does not
      minimize, can rise a few times and fall again.
    * Residual rule (residual minimizers): a residual estimate at
      ``tol |r0|`` is confirmed by one explicit ``|r|``; a failed
      confirmation (a degenerate subproblem near closure, or cancellation
      in the estimate) switches the rule off for the rest of the cycle.

    A failed A-residual confirmation, the floor rule and a singular
    closure end the cycle through :meth:`fallback`.
    """

    def __init__(self, sub, budget):
        super().__init__(sub, budget)
        # A-residual estimate of each iterate, from |A r0| for a minimizer
        self.ares = [self.best.arn] if self.minimized else []
        self.residual_rule = True

    def _explicit(self, j, x=None):
        """Iterate ``j`` (or ``x``) checked explicitly (two matvecs); an
        iterate behind a singular triangular factor gets infinite norms."""
        if x is None:
            try:
                x = self.sub.iterate(j)
            except SingularTriangularError:
                return _Probe(j, None, None, np.inf, np.inf)
        return _Probe(j, x, *explicit_norms(self.A, self.b, x))

    def advance(self, k):
        """The rules of the A-residual estimate of iterate ``k - 1`` of a
        residual minimizer."""
        if self.minimized:
            return None
        try:
            aest = self.sub.ares_estimate(k)
        except SingularTriangularError:
            return self.fallback(None)
        return self._ares_rules(k - 1, aest, self.hist.est[-1])

    def _ares_rules(self, j, aest, rn):
        """A-residual and floor rules for iterate ``j``, of A-residual
        estimate ``aest`` and residual estimate ``rn``."""
        self.ares.append(aest)
        if aest < self.best.arn:
            held = None if self.sub.keeps_basis else self.sub.iterate(j)
            self.best = _Probe(j, held, None, rn, aest)
        best = self.best
        if aest <= self.floors["ares"]:
            p = self._explicit(j)
            if p.arn <= 10.0 * self.floors["ares"]:
                return self._end(p, CONVERGED, "aresidual", None)
            return self.fallback(None, probe=p)
        if aest > 10.0 * best.arn and (
            best.arn * self.hist.res[0] <= LIFT_RHO * best.rn * self.hist.ares[0]
        ):
            return self.fallback(None)
        return None

    def record(self, k, est):
        """Add iterate ``k``'s row; the rules of an A-residual minimizer's
        estimate, or the residual rule."""
        if self.minimized:
            self.hist.append(np.nan, est, est, self.A.count)
            return self._ares_rules(k, est, np.nan)
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

    def fallback(self, ell, est=np.nan, probe=None):
        """``singular_final_system`` with the best-estimate iterate, checked
        explicitly.  When its explicit ``|A r|`` is above ten times its
        estimate, the estimates had drifted from the true values before
        it: bisect for the last iterate whose explicit value still agrees
        with its estimate, and return the smallest explicit value seen.
        A held best has no earlier iterate to bisect over: it competes
        with ``x_in`` only."""
        j, held = self.best.j, self.best.x
        if probe is None or probe.j != j:
            probe = self._explicit(j, held)
        probes = [probe]
        if probe.arn > 10.0 * self.ares[j]:
            sub = self.sub
            probes.append(_Probe(0, sub.x_in, sub.r0, sub.beta1, self.ares[0]))
            lo, hi = 0, j
            while hi - lo > 1 and held is None:
                mid = (lo + hi) // 2
                probe = self._explicit(mid)
                probes.append(probe)
                if probe.arn <= 10.0 * self.ares[mid]:
                    lo = mid
                else:
                    hi = mid
        best = min(probes, key=lambda p: p.arn)
        return self._end(best, SINGULAR_FINAL_SYSTEM, None, ell, est)

    def tail(self, budget):
        """``maxit`` with the last iterate, checking only its ``|r|``."""
        try:
            x = self.sub.iterate(budget)
        except SingularTriangularError:
            x = self.sub.x_in.copy()
        r = self.b - self.A.apply(x)
        return self._end(_Probe(budget, x, r, norm(r), np.nan), MAXIT, None, None)


def _cycle(sub, budget):
    """One restart cycle of at most ``budget`` steps of any of the methods."""
    try:
        sub.seed(budget)
    except ZeroSeedError:
        # The seed vanishes, so A r0 does: x_in already minimizes both
        # norms over x_in + range(A), and its row stays the last, with the
        # |A r| a check of x_in measured, else 0.
        sub.anchor(0.0)
        hist = sub.hist
        hist.mv[-1] = sub.A.count
        if np.isnan(hist.ares[-1]):  # a restart after an estimate-mode tail
            hist.ares[-1] = 0.0
        rule = "residual" if sub.beta1 <= sub.opts.breakdown_tol else "aresidual"
        return _CycleResult(sub.x_in, sub.r0, CONVERGED, rule, None, 0, hist.ares[-1])
    if len(sub.hist.mv) == 1:
        # The first cycle: the initial row counts the seed's matvecs.
        sub.hist.mv[0] = sub.A.count
    kind = _Monitor if sub.opts.record_explicit else _EstimateMonitor
    monitor = kind(sub, budget)
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
    restart = opts.restart if kind.keeps_basis else None
    x, r = x0, r0
    while True:
        size = budget if restart is None else min(restart, budget)
        result = _cycle(kind(A, b, x, r, opts, floors, hist), size)
        budget -= result.iters
        x, r = result.x, result.r
        if result.termination != MAXIT or budget <= 0 or restart is None:
            break
    lifted = None
    if kind.lift:
        lifted = maybe_lift(
            hist, x, x0, r, result.arn, floors["res"], result.termination
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
