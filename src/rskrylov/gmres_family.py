"""Minimum-residual Krylov solvers built on the Arnoldi process.

``gmres_solve`` minimizes the residual norm over the Krylov space seeded
by the initial residual.  ``rrgmres_solve`` minimizes the same functional
over the range-restricted space seeded by the image of the initial
residual, which keeps its iterates in range(A) and makes the final
iterate the pseudoinverse solution on singular range-symmetric systems
(with a zero initial guess).  ``dgmres_solve`` minimizes the A-residual
norm over the range-restricted space (index-1 systems) through a
two-level QR of the product of consecutive hat Hessenberg factors, and
its final iterate is again the pseudoinverse solution.

All three share a convergence rule: stop once the residual norm falls
below ``tol * ||r_0||`` or the A-residual norm falls below
``tol * ||A r_0||``.  At subspace closure the iterate of the square
Hessenberg solve is accepted (``happy_breakdown``) only if that system is
numerically nonsingular and the iterate's explicit A-residual norm is not
above the smallest one seen in the cycle.  Otherwise the square system is
the signature of an inconsistent system: the best least squares iterate
seen (smallest explicit A-residual norm) is returned as
``singular_final_system``, and GMRES applies the rank-one lift to it to
recover the minimum-norm least squares solution.

Without explicit monitoring (``record_explicit=False``) GMRES and RRGMRES
stop on a matvec-free estimate of the A-residual norm of the previous
iterate, available one Arnoldi step late, and return a best iterate that
has been checked explicitly whenever the estimates cannot be trusted
(:class:`_EstimateMonitor`).  DGMRES minimizes the A-residual itself, so
its recurrence value is the estimate.
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


class _CycleResult:
    """Outcome of one cycle; ``arn`` is ``|A r|`` when the cycle has it."""

    def __init__(self, x, r, termination, stop_rule, detected_ell, iters, arn=None):
        self.x = x
        self.r = r
        self.termination = termination
        self.stop_rule = stop_rule
        self.detected_ell = detected_ell
        self.iters = iters
        self.arn = arn


def _run_cycles(cycle, A, b, x0, r0, opts, hist, floors):
    """Drive restart cycles around one inner-cycle implementation."""
    maxit = opts.maxit if opts.maxit is not None else A.n
    budget = maxit
    x = x0
    r = r0
    result = None
    while True:
        cycle_budget = budget if opts.restart is None else min(opts.restart, budget)
        result = cycle(A, b, x, r, opts, cycle_budget, floors, hist)
        budget -= result.iters
        x = result.x
        if result.termination != MAXIT or budget <= 0 or opts.restart is None:
            break
        r = result.r
        if r is None:
            r = b - A.apply(x)
    return result


def _finalize(method, A, b, x0, hist, floors, result, lift_enabled):
    lifted = (
        maybe_lift(
            A,
            b,
            hist,
            result.x,
            x0,
            result.r,
            floors["res"],
            result.termination,
            result.arn,
        )
        if lift_enabled
        else None
    )
    return build_report(
        method,
        result.x,
        lifted,
        hist,
        A.count,
        result.termination,
        result.stop_rule,
        result.detected_ell,
    )


class _Probe(NamedTuple):
    """An iterate rebuilt and checked explicitly."""

    j: int
    x: np.ndarray | None
    r: np.ndarray | None
    rn: float
    arn: float


class _EstimateMonitor:
    """Stopping rules of the gmres and rrgmres cycles in estimate mode.

    The cycle hands in, one Arnoldi step late and without a matvec, an
    estimate of ``|A r_j|`` for iterate ``j = k - 1`` (:meth:`check`, at
    step ``k``); the residual estimate of that iterate is the last history
    row.  Any iterate ``j`` is rebuilt as ``x_in + V_j qr.solve(j)``,
    because the leading parts of ``R`` and ``t`` never change.

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

    def __init__(self, A, b, x_in, r0, state, qr, floors, hist):
        self.A, self.b, self.x_in, self.r0 = A, b, x_in, r0
        self.state, self.qr = state, qr
        self.floors, self.hist = floors, hist
        self.row0 = len(hist.res) - 1  # history row of iterate 0
        self.hess = ColumnBuffer()  # Hessenberg columns, for the estimates
        self.ares = []  # A-residual estimate of each iterate
        self.best = np.inf  # smallest A-residual estimate, of iterate best_j
        self.best_j = 0
        self.best_res = np.inf  # residual estimate of iterate best_j
        self.residual_rule = True

    def _iterate(self, j):
        return self.x_in + self.state.basis(j) @ self.qr.solve(j)

    def _explicit(self, j):
        """Iterate ``j`` checked explicitly (two matvecs); an iterate behind
        a singular triangular factor gets infinite norms."""
        try:
            x = self._iterate(j)
        except SingularTriangularError:
            return _Probe(j, None, None, np.inf, np.inf)
        return _Probe(j, x, *explicit_norms(self.A, self.b, x))

    def _end(self, p, termination, stop_rule, ell):
        self.hist.end_at(self.row0 + p.j, p.rn, p.arn, self.A.count)
        return _CycleResult(p.x, p.r, termination, stop_rule, ell, p.j, p.arn)

    def check(self, k, aest):
        """A-residual and floor rules for iterate ``k - 1``."""
        j = k - 1
        self.ares.append(aest)
        if aest < self.best:
            self.best, self.best_j, self.best_res = aest, j, self.hist.est[-1]
        if aest <= self.floors["ares"]:
            p = self._explicit(j)
            if p.arn <= 10.0 * self.floors["ares"]:
                return self._end(p, CONVERGED, "aresidual", None)
            return self.fallback(None, p)
        if aest > 10.0 * self.best and (
            self.best * self.hist.res[0]
            <= LIFT_RHO * self.best_res * self.hist.ares[0]
        ):
            return self.fallback(None)
        return None

    def residual(self, k, est):
        """Residual rule for iterate ``k``, whose history row is the last."""
        if not self.residual_rule or est > self.floors["res"]:
            return None
        try:
            x = self._iterate(k)
        except SingularTriangularError:
            self.residual_rule = False
            return None
        r = self.b - self.A.apply(x)
        rn = float(np.linalg.norm(r))
        if rn > 10.0 * self.floors["res"]:
            self.residual_rule = False
            return None
        return self._end(_Probe(k, x, r, rn, np.nan), CONVERGED, "residual", None)

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
            r0n = float(np.linalg.norm(self.r0))
            probes.append(_Probe(0, self.x_in, self.r0, r0n, self.ares[0]))
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


def _gmres_cycle(A, b, x_in, r0, opts, budget, floors, hist):
    beta1 = float(np.linalg.norm(r0))
    try:
        state = arnoldi_init(A, r0, opts.breakdown_tol)
    except ZeroSeedError:
        return _CycleResult(x_in, r0, CONVERGED, "residual", None, 0)
    if opts.record_explicit:
        qr = HessenbergQr(beta1)
        monitor = None
    else:
        qr = HessenbergQrWithQ(beta1)
        monitor = _EstimateMonitor(A, b, x_in, r0, state, qr, floors, hist)
    x_best = x_in
    r_best = r0
    # best least squares candidate seen so far (smallest explicit |A r|);
    # the fallback whenever the subproblem degenerates
    x_lsq, r_lsq, rn_lsq, arn_lsq = x_in, r0, beta1, np.inf
    for k in range(1, budget + 1):
        outcome = arnoldi_step(state, A)
        col = state.column(k - 1)
        if monitor is not None:
            q_prev, t_prev = qr.q_last, qr.t[-1]
        tail = qr.append_column(col, 0.0)
        if k == 1:
            beta_hat = beta1 * float(np.linalg.norm(col))
            if floors["ares"] is None:
                floors["ares"] = opts.tol * beta_hat
            if np.isnan(hist.ares[0]):
                hist.ares[0] = beta_hat
        if monitor is not None:
            # r_{k-1} = t_prev V_k q_prev, so A r_{k-1} = t_prev V_{k+1} H q_prev
            monitor.hess.push(col)
            hq = monitor.hess.view(k + 1, k) @ q_prev
            done = monitor.check(k, abs(t_prev) * float(np.linalg.norm(hq)))
            if done is not None:
                return done
            arn_lsq = monitor.best  # what the closure guard compares with

        if outcome == "breakdown":
            ell = state.breakdown_step
            singular = False
            try:
                z = qr.solve(k)
                xk = x_in + state.basis(k) @ z
                r, rn, arn = explicit_norms(A, b, xk)
                # The residual norm cannot exceed the previous one (nested
                # minimization); a jump proves the square system at closure
                # is numerically singular even when the diagonal guard
                # missed it.  An A-residual above the best seen proves it
                # too, whichever way rounding moved |r|.
                singular = (
                    rn > hist.res[-1] * (1.0 + 1e-6) + 1e-12 * beta1
                    or arn > arn_lsq * (1.0 + 1e-6) + 1e-12 * hist.ares[0]
                )
            except SingularTriangularError:
                singular = True
            if not singular:
                hist.append(rn, arn, tail, A.count)
                return _CycleResult(xk, r, HAPPY_BREAKDOWN, None, ell, k, arn)
            if monitor is not None:
                return monitor.fallback(ell)
            if np.isinf(arn_lsq):
                r_lsq, rn_lsq, arn_lsq = explicit_norms(A, b, x_lsq)
            hist.append(rn_lsq, arn_lsq, tail, A.count)
            return _CycleResult(
                x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, ell, k, arn_lsq
            )

        if opts.record_explicit:
            try:
                z = qr.solve(k)
            except SingularTriangularError:
                if np.isinf(arn_lsq):
                    r_lsq, rn_lsq, arn_lsq = explicit_norms(A, b, x_lsq)
                hist.append(rn_lsq, arn_lsq, tail, A.count)
                return _CycleResult(
                    x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, None, k, arn_lsq
                )
            xk = x_in + state.basis(k) @ z
            r, rn, arn = explicit_norms(A, b, xk)
            if rn > hist.res[-1] * 2.0 + 1e-12 * beta1:
                # A clear residual increase contradicts the minimization
                # property: the subproblem has degenerated numerically.
                return _CycleResult(
                    x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, None, k - 1, arn_lsq
                )
            hist.append(rn, arn, tail, A.count)
            x_best, r_best = xk, r
            if arn < arn_lsq:
                x_lsq, r_lsq, rn_lsq, arn_lsq = xk, r, rn, arn
            if rn <= floors["res"]:
                return _CycleResult(xk, r, CONVERGED, "residual", None, k, arn)
            if arn <= floors["ares"]:
                return _CycleResult(xk, r, CONVERGED, "aresidual", None, k, arn)
        else:
            hist.append(tail, np.nan, tail, A.count)
            done = monitor.residual(k, tail)
            if done is not None:
                return done

    if opts.record_explicit:
        return _CycleResult(x_best, r_best, MAXIT, None, None, budget)
    try:
        z = qr.solve(qr.k)
        xk = x_in + state.basis(qr.k) @ z
    except SingularTriangularError:
        xk = x_in.copy()
    return _CycleResult(xk, None, MAXIT, None, None, budget)


def gmres_solve(A, b, x0=None, opts=None, **options):
    """GMRES for (possibly singular) range-symmetric systems.

    On consistent systems the run ends at the subspace closure with the
    exact solution; on inconsistent systems it ends with a least squares
    iterate (detected through the A-residual monitor or a singular final
    triangular factor) whose lifted companion, stored in
    ``lifted_solution``, is the projection of ``x0`` onto the least
    squares solution set.
    """
    A, b, x0, r0, opts = prepare(A, b, x0, opts, **options)
    hist = Histories()
    beta1 = float(np.linalg.norm(r0))
    if beta1 <= opts.breakdown_tol:
        return _trivial_report("gmres", A, x0, beta1, hist)
    hist.append(beta1, np.nan, beta1, A.count)
    floors = {"res": opts.tol * beta1, "ares": None}
    result = _run_cycles(_gmres_cycle, A, b, x0, r0, opts, hist, floors)
    return _finalize("gmres", A, b, x0, hist, floors, result, True)


def _rrgmres_cycle(A, b, x_in, r0, opts, budget, floors, hist):
    """Range-restricted cycle: projected RHS, residual minimization."""
    beta1 = float(np.linalg.norm(r0))
    seed = A.apply(r0)
    try:
        state = arnoldi_init(A, seed, opts.breakdown_tol)
    except ZeroSeedError:
        # A r0 vanishes: x_in already minimizes the residual over
        # x_in + range(A).
        if np.isnan(hist.ares[0]):
            hist.ares[0] = 0.0
        return _CycleResult(x_in, r0, CONVERGED, "aresidual", None, 0)
    beta_hat = state.seed_norm
    if np.isnan(hist.ares[0]):
        hist.ares[0] = beta_hat
    if floors["ares"] is None:
        floors["ares"] = opts.tol * beta_hat
    g0 = float(state.vector(0) @ r0)
    qr = HessenbergQr(g0)
    gnorm2 = g0 * g0
    monitor = None
    if not opts.record_explicit:
        monitor = _EstimateMonitor(A, b, x_in, r0, state, qr, floors, hist)
    x_best = x_in
    r_best = None
    x_lsq, r_lsq, rn_lsq, arn_lsq = x_in, r0, beta1, np.inf
    for k in range(1, budget + 1):
        outcome = arnoldi_step(state, A)
        col = state.column(k - 1)
        gk = float(state.vector(k) @ r0) if outcome == "advanced" else 0.0
        tail = qr.append_column(col, gk)
        gnorm2 += gk * gk
        est = np.sqrt(max(tail**2 + beta1**2 - gnorm2, 0.0))
        if monitor is not None:
            # A r_{k-1} = V_{k+1} (beta_hat e1 - H_{k+1,k} H_{k,k-1} y_{k-1})
            monitor.hess.push(col)
            try:
                y = qr.solve(k - 1)
            except SingularTriangularError:
                return monitor.fallback(None)
            w = monitor.hess.view(k + 1, k) @ (monitor.hess.view(k, k - 1) @ y)
            w[0] -= beta_hat
            done = monitor.check(k, float(np.linalg.norm(w)))
            if done is not None:
                return done
            arn_lsq = monitor.best  # what the closure guard compares with

        if outcome == "breakdown":
            m = state.breakdown_step
            singular = False
            try:
                z = qr.solve(k)
                xk = x_in + state.basis(k) @ z
                r, rn, arn = explicit_norms(A, b, xk)
                singular = (
                    rn > hist.res[-1] * (1.0 + 1e-6) + 1e-12 * beta1
                    or arn > arn_lsq * (1.0 + 1e-6) + 1e-12 * hist.ares[0]
                )
            except SingularTriangularError:
                singular = True
            if not singular:
                hist.append(rn, arn, est, A.count)
                return _CycleResult(xk, r, HAPPY_BREAKDOWN, None, m, k, arn)
            if monitor is not None:
                return monitor.fallback(m)
            if np.isinf(arn_lsq):
                r_lsq, rn_lsq, arn_lsq = explicit_norms(A, b, x_lsq)
            hist.append(rn_lsq, arn_lsq, est, A.count)
            return _CycleResult(
                x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, m, k, arn_lsq
            )

        if opts.record_explicit:
            try:
                z = qr.solve(k)
            except SingularTriangularError:
                if np.isinf(arn_lsq):
                    r_lsq, rn_lsq, arn_lsq = explicit_norms(A, b, x_lsq)
                hist.append(rn_lsq, arn_lsq, est, A.count)
                return _CycleResult(
                    x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, None, k, arn_lsq
                )
            xk = x_in + state.basis(k) @ z
            r, rn, arn = explicit_norms(A, b, xk)
            if rn > hist.res[-1] * 2.0 + 1e-12 * beta1:
                return _CycleResult(
                    x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, None, k - 1, arn_lsq
                )
            hist.append(rn, arn, est, A.count)
            x_best, r_best = xk, r
            if arn < arn_lsq:
                x_lsq, r_lsq, rn_lsq, arn_lsq = xk, r, rn, arn
            if rn <= floors["res"]:
                return _CycleResult(xk, r, CONVERGED, "residual", None, k, arn)
            if arn <= floors["ares"]:
                return _CycleResult(xk, r, CONVERGED, "aresidual", None, k, arn)
        else:
            hist.append(est, np.nan, est, A.count)
            done = monitor.residual(k, est)
            if done is not None:
                return done

    if opts.record_explicit:
        return _CycleResult(x_best, r_best, MAXIT, None, None, budget)
    try:
        z = qr.solve(qr.k)
        xk = x_in + state.basis(qr.k) @ z
    except SingularTriangularError:
        xk = x_in.copy()
    return _CycleResult(xk, None, MAXIT, None, None, budget)


def _dgmres_cycle(A, b, x_in, r0, opts, budget, floors, hist):
    """Index-1 cycle: A-residual minimization over the hat space.

    With ``x = x_in + Vhat_k y`` the A-residual is
    ``A r0 - Vhat_{k+2} Hhat_{k+2,k+1} Hhat_{k+1,k} y``, so the projected
    subproblem involves the product of two Hessenberg factors.  It is
    handled exactly like the two-level A-residual factorization: an inner
    QR of the hat Hessenberg and an outer banded QR of the product with
    the inner orthogonal factor, assembled column by column.
    """
    seed = A.apply(r0)
    try:
        state = arnoldi_init(A, seed, opts.breakdown_tol)
    except ZeroSeedError:
        if np.isnan(hist.ares[0]):
            hist.ares[0] = 0.0
        if np.isnan(hist.est[0]):
            hist.est[0] = 0.0
        return _CycleResult(x_in, r0, CONVERGED, "aresidual", None, 0)
    beta_hat = state.seed_norm
    if np.isnan(hist.ares[0]):
        hist.ares[0] = beta_hat
    if np.isnan(hist.est[0]):
        hist.est[0] = beta_hat
    if floors["ares"] is None:
        floors["ares"] = opts.tol * beta_hat

    hbuf = ColumnBuffer()
    arnoldi_step(state, A)
    hbuf.push(state.column(0))
    inner = HessenbergQrWithQ(beta_hat)
    outer = BandedQr((beta_hat, 0.0))
    x_best = x_in
    r_best = None
    x_lsq, r_lsq, rn_lsq, arn_lsq = x_in, r0, float(np.linalg.norm(r0)), beta_hat

    def reconstruct(k):
        ytilde = outer.solve(k)
        y = inner.apply_rinv(ytilde, k)
        return x_in + state.basis(k) @ y

    for k in range(1, budget + 1):
        if not state.broke_down:
            arnoldi_step(state, A)
            hbuf.push(state.column(state.k - 1))
        if state.k < k + 1:
            # Subspace closed at dimension k: the square hat Hessenberg
            # is nonsingular on index-1 systems, so solve
            # Hhat_k**2 y = beta_hat e1 through two triangular solves.
            inner.append_column(state.column(k - 1), 0.0)
            singular = False
            try:
                w = inner.solve(k)
                y = inner.solve_rhs(w)
                xk = x_in + state.basis(k) @ y
                r, rn, arn = explicit_norms(A, b, xk)
                singular = (
                    arn > hist.ares[-1] * (1.0 + 1e-6) + 1e-12 * hist.ares[0]
                )
            except SingularTriangularError:
                singular = True
            if singular:
                return _CycleResult(
                    x_lsq,
                    r_lsq,
                    SINGULAR_FINAL_SYSTEM,
                    None,
                    state.breakdown_step,
                    k - 1,
                    arn_lsq,
                )
            hist.append(rn, arn, 0.0, A.count)
            return _CycleResult(
                xk, r, HAPPY_BREAKDOWN, None, state.breakdown_step, k, arn
            )

        inner.append_column(state.column(k - 1), 0.0)
        q = inner.q_new_col
        htcol = hbuf.view(k + 2, k + 1) @ q
        t1, t2 = outer.append_column(htcol)
        rho = float(np.hypot(t1, t2))

        if opts.record_explicit:
            try:
                xk = reconstruct(k)
            except SingularTriangularError:
                hist.append(rn_lsq, arn_lsq, rho, A.count)
                return _CycleResult(
                    x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, None, k, arn_lsq
                )
            r, rn, arn = explicit_norms(A, b, xk)
            if arn > hist.ares[-1] * 2.0 + 1e-12 * hist.ares[0]:
                return _CycleResult(
                    x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, None, k - 1, arn_lsq
                )
            hist.append(rn, arn, rho, A.count)
            x_best, r_best = xk, r
            if arn < arn_lsq:
                x_lsq, r_lsq, rn_lsq, arn_lsq = xk, r, rn, arn
            if rn <= floors["res"]:
                return _CycleResult(xk, r, CONVERGED, "residual", None, k, arn)
            if arn <= floors["ares"]:
                return _CycleResult(xk, r, CONVERGED, "aresidual", None, k, arn)
        else:
            hist.append(np.nan, rho, rho, A.count)
            if rho <= floors["ares"]:
                xk = reconstruct(k)
                return _CycleResult(xk, None, CONVERGED, "aresidual", None, k)

    if opts.record_explicit:
        return _CycleResult(x_best, r_best, MAXIT, None, None, budget)
    try:
        xk = reconstruct(outer.k)
    except SingularTriangularError:
        xk = x_in.copy()
    return _CycleResult(xk, None, MAXIT, None, None, budget)



def _hat_solve(method, cycle, A, b, x0, opts, options, est0_is_residual):
    A, b, x0, r0, opts = prepare(A, b, x0, opts, **options)
    hist = Histories()
    beta1 = float(np.linalg.norm(r0))
    if beta1 <= opts.breakdown_tol:
        return _trivial_report(method, A, x0, beta1, hist)
    hist.append(beta1, np.nan, beta1 if est0_is_residual else np.nan, A.count)
    floors = {"res": opts.tol * beta1, "ares": None}
    result = _run_cycles(cycle, A, b, x0, r0, opts, hist, floors)
    return _finalize(method, A, b, x0, hist, floors, result, False)


def rrgmres_solve(A, b, x0=None, opts=None, **options):
    """Range-restricted GMRES.

    Minimizes the residual norm over the Krylov space seeded by
    ``A r_0``.  With a zero initial guess on a singular range-symmetric
    system the final iterate is the pseudoinverse solution in both the
    consistent and the inconsistent case, so no lifting is needed.
    """
    return _hat_solve("rrgmres", _rrgmres_cycle, A, b, x0, opts, options, True)


def dgmres_solve(A, b, x0=None, opts=None, **options):
    """Drazin-inverse GMRES specialized to index-1 systems.

    Minimizes the A-residual norm over the Krylov space seeded by
    ``A r_0`` through a two-level QR of the product of consecutive hat
    Hessenberg factors; the root sum of squares of the two outer tail
    entries is the A-residual norm estimate.  With a zero initial guess
    on a range-symmetric system the final iterate is the pseudoinverse
    solution.
    """
    return _hat_solve("dgmres", _dgmres_cycle, A, b, x0, opts, options, False)
