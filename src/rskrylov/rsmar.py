"""Minimum A-residual iterations over the Krylov space of the residual.

Both solvers here minimize ``||A (b - A x)||`` over
``x0 + span{r0, A r0, ..., A^(k-1) r0}`` for range-symmetric systems; the
A-residual norm converges to zero even when the residual norm cannot
(inconsistent systems), and the final iterate coincides with the final
GMRES iterate, so the rank-one lift recovers the minimum-norm least
squares solution from it.

``rsmar1_solve`` runs the Arnoldi process on the seed ``A r0``.  The
projected subproblem is then a plain Hessenberg least squares problem and
the tail of its rotated right-hand side is the A-residual norm; the
iterate is mapped back to the residual-seeded space through the
triangular change-of-basis matrix ``[bhat1 e1, Hhat_{k,k-1}]``.  This
variant is known to go unstable on some consistent problems; it is kept
faithful to that behavior (the histories expose it) rather than patched.

``rsmar2_solve`` runs the Arnoldi process on the seed ``r0`` one step
ahead and factors the subproblem in two levels: an inner QR of the
Hessenberg matrix and an outer QR of the product of the next Hessenberg
with the inner orthogonal factor, a matrix that vanishes below its second
subdiagonal.  The outer product is assembled column by column, never as a
dense matrix product.  This is the implementation of choice in floating
point.
"""

from __future__ import annotations

import numpy as np

from ._common import (
    Histories,
    _trivial_report,
    explicit_norms,
    prepare,
)
from .arnoldi import ZeroSeedError, arnoldi_init, arnoldi_step
from .gmres_family import _CycleResult, _finalize, _run_cycles
from .hessenberg_qr import (
    BandedQr,
    ColumnBuffer,
    HessenbergQr,
    HessenbergQrWithQ,
    SingularTriangularError,
    _back_substitute,
)
from .operators import CONVERGED, HAPPY_BREAKDOWN, MAXIT, SINGULAR_FINAL_SYSTEM

__all__ = ["rsmar1_solve", "rsmar2_solve"]


def _rsmar1_reconstruct(state, qr, change, x_in, r0, k):
    """Map the hat-space solution back through the change of basis.

    Solves the two stacked triangular systems: the projected subproblem
    for ``zhat`` and then ``[bhat1 e1, Hhat_{k,k-1}] y = zhat``, whose
    columns ``change`` collects as the run goes, and returns
    ``x_in + [r0, Vhat_{k-1}] y``.
    """
    zhat = qr.solve(k)
    y = _back_substitute(change.view(k, k), zhat)
    x = x_in + y[0] * r0
    if k > 1:
        x = x + state.basis(k - 1) @ y[1:]
    return x


def _rsmar1_cycle(A, b, x_in, r0, opts, budget, floors, hist):
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
    qr = HessenbergQr(beta_hat)
    change = ColumnBuffer()
    change.push([beta_hat])
    x_best = x_in
    r_best = None
    x_lsq, r_lsq, rn_lsq, arn_lsq = x_in, r0, float(np.linalg.norm(r0)), beta_hat
    for k in range(1, budget + 1):
        outcome = arnoldi_step(state, A)
        col = state.column(k - 1)
        change.push(col)
        rho = qr.append_column(col, 0.0)

        if outcome == "breakdown":
            # The square hat Hessenberg is nonsingular on index-1 systems,
            # so the subproblem is solved exactly at closure.
            m = state.breakdown_step
            singular = False
            try:
                xk = _rsmar1_reconstruct(state, qr, change, x_in, r0, k)
                r, rn, arn = explicit_norms(A, b, xk)
                singular = (
                    arn > hist.ares[-1] * (1.0 + 1e-6) + 1e-12 * beta_hat
                )
            except SingularTriangularError:
                singular = True
            if not singular:
                hist.append(rn, arn, rho, A.count)
                return _CycleResult(xk, r, HAPPY_BREAKDOWN, None, m, k, arn)
            hist.append(rn_lsq, arn_lsq, rho, A.count)
            return _CycleResult(
                x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, m, k, arn_lsq
            )

        if opts.record_explicit:
            try:
                xk = _rsmar1_reconstruct(state, qr, change, x_in, r0, k)
            except SingularTriangularError:
                hist.append(rn_lsq, arn_lsq, rho, A.count)
                return _CycleResult(
                    x_lsq, r_lsq, SINGULAR_FINAL_SYSTEM, None, None, k, arn_lsq
                )
            r, rn, arn = explicit_norms(A, b, xk)
            if arn > hist.ares[-1] * 2.0 + 1e-12 * beta_hat:
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
                xk = _rsmar1_reconstruct(state, qr, change, x_in, r0, k)
                return _CycleResult(xk, None, CONVERGED, "aresidual", None, k)

    if opts.record_explicit:
        return _CycleResult(x_best, r_best, MAXIT, None, None, budget)
    try:
        xk = _rsmar1_reconstruct(state, qr, change, x_in, r0, qr.k)
    except SingularTriangularError:
        xk = x_in.copy()
    return _CycleResult(xk, None, MAXIT, None, None, budget)


def _rsmar2_cycle(A, b, x_in, r0, opts, budget, floors, hist):
    beta1 = float(np.linalg.norm(r0))
    try:
        state = arnoldi_init(A, r0, opts.breakdown_tol)
    except ZeroSeedError:
        return _CycleResult(x_in, r0, CONVERGED, "residual", None, 0)
    hbuf = ColumnBuffer()
    arnoldi_step(state, A)
    col1 = state.column(0)
    hbuf.push(col1)
    beta_hat = beta1 * float(np.linalg.norm(col1))
    if np.isnan(hist.ares[0]):
        hist.ares[0] = beta_hat
    if np.isnan(hist.est[0]):
        hist.est[0] = beta_hat
    if floors["ares"] is None:
        floors["ares"] = opts.tol * beta_hat
    if beta_hat <= opts.breakdown_tol:
        return _CycleResult(x_in, r0, CONVERGED, "aresidual", None, 0)
    inner = HessenbergQrWithQ(beta1)
    outer = BandedQr((beta1 * col1[0], beta1 * col1[1]))
    x_best = x_in
    r_best = None
    x_lsq, r_lsq, rn_lsq, arn_lsq = x_in, r0, beta1, beta_hat

    def reconstruct(k):
        ztilde = outer.solve(k)
        z = inner.apply_rinv(ztilde, k)
        return x_in + state.basis(k) @ z

    for k in range(1, budget + 1):
        if not state.broke_down:
            arnoldi_step(state, A)
            hbuf.push(state.column(state.k - 1))
        if state.k < k + 1:
            # The subspace closed at the previous iterate (step k equals
            # its dimension): solve the square system exactly if it is
            # nonsingular, else the previous iterate is already final.
            inner.append_column(state.column(k - 1), 0.0)
            singular = False
            try:
                z = inner.solve(k)
                xk = x_in + state.basis(k) @ z
                r, rn, arn = explicit_norms(A, b, xk)
                singular = (
                    arn > hist.ares[-1] * (1.0 + 1e-6) + 1e-12 * hist.ares[0]
                )
            except SingularTriangularError:
                singular = True
            if singular:
                # The best iterate seen is already the final minimizer; the
                # square system at closure has no better one to offer.
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


def _rsmar_solve(method, cycle, A, b, x0, opts, options):
    A, b, x0, r0, opts = prepare(A, b, x0, opts, **options)
    hist = Histories()
    beta1 = float(np.linalg.norm(r0))
    if beta1 <= opts.breakdown_tol:
        return _trivial_report(method, A, x0, beta1, hist)
    hist.append(beta1, np.nan, np.nan, A.count)
    floors = {"res": opts.tol * beta1, "ares": None}
    result = _run_cycles(cycle, A, b, x0, r0, opts, hist, floors)
    return _finalize(method, A, b, x0, hist, floors, result, True)


def rsmar1_solve(A, b, x0=None, opts=None, **options):
    """Minimum A-residual iteration, hat-space implementation.

    Runs the Arnoldi process on the seed ``A r0``; the per-step scalar
    ``rho_k`` (tail of the rotated subproblem RHS) equals the A-residual
    norm of the iterate.  On inconsistent termination the lifted iterate
    (``lifted_solution``) is the minimum-norm least squares solution.
    """
    return _rsmar_solve("rsmar1", _rsmar1_cycle, A, b, x0, opts, options)


def rsmar2_solve(A, b, x0=None, opts=None, **options):
    """Minimum A-residual iteration, two-level QR implementation.

    Runs the Arnoldi process on the seed ``r0`` one step ahead and keeps
    two incremental QR factorizations: one of the Hessenberg matrix and
    one of the banded product matrix.  ``rho_k``, the root sum of squares
    of the two tail entries of the outer rotated RHS, equals the
    A-residual norm of the iterate.  Mathematically equivalent to
    :func:`rsmar1_solve`; preferable in floating point.
    """
    return _rsmar_solve("rsmar2", _rsmar2_cycle, A, b, x0, opts, options)
