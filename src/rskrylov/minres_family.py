"""Short-recurrence solvers for symmetric (possibly singular) systems.

``minres_solve`` is the classical minimum-residual iteration: Lanczos on
the initial residual plus an incremental QR of the tridiagonal matrix,
carrying two direction vectors so each iterate is updated in place.

``minares1_solve`` minimizes the A-residual norm instead, running the
Lanczos process on the seed ``A r0`` with a reflection-based QR of the
tridiagonal factor.  Storage stays at a fixed number of length-n vectors;
no basis is retained.  Its scalar recurrences follow the reflection
convention ``[[c, s], [s, -c]]`` throughout, and its per-step scalar
``rho_k = |s_1 s_2 ... s_k| * ||A r_0||`` equals the A-residual norm of
the iterate.

On singular symmetric systems with an inconsistent right-hand side both
methods stop at the same terminal least squares iterate, and the rank-one
lift stored in ``lifted_solution`` recovers the pseudoinverse solution.
"""

from __future__ import annotations

import numpy as np

from ._common import (
    Histories,
    _trivial_report,
    build_report,
    explicit_norms,
    maybe_lift,
    norm,
    prepare,
)
from .operators import CONVERGED, HAPPY_BREAKDOWN, MAXIT, SINGULAR_FINAL_SYSTEM

__all__ = ["minres_solve", "minares1_solve"]


def minres_solve(A, b, x0=None, opts=None, **options):
    """Classical minimum-residual iteration for symmetric systems.

    Symmetry of ``A`` is a documented contract, not checked at runtime.
    ``opts.restart`` is ignored (the recurrence is already short).
    """
    A, b, x0, r0, opts = prepare(A, b, x0, opts, **options)
    hist = Histories()
    beta1 = norm(r0)
    if beta1 <= opts.breakdown_tol:
        return _trivial_report("minres", A, x0, beta1, hist)
    hist.append(beta1, np.nan, beta1, A.count)
    maxit = opts.maxit if opts.maxit is not None else A.n
    res_floor = opts.tol * beta1
    ares_floor = None

    v_prev = np.zeros(A.n)
    v = r0 / beta1
    beta_k = 0.0
    c_km1, s_km1 = 1.0, 0.0
    c_km2, s_km2 = 1.0, 0.0
    phi_bar = beta1
    w_km1 = np.zeros(A.n)
    w_km2 = np.zeros(A.n)
    x = x0.copy()
    r_final = arn_final = None
    x_lsq, r_lsq, arn_lsq = None, None, np.inf
    polish_left = None
    tscale = 0.0
    termination, stop_rule, ell = MAXIT, None, None

    for k in range(1, maxit + 1):
        w = A.apply(v)
        if k == 1:
            beta_hat = beta1 * norm(w)
            hist.ares[0] = beta_hat
            ares_floor = opts.tol * beta_hat
        alpha = float(v @ w)
        w -= alpha * v + beta_k * v_prev
        beta_next = norm(w)

        # Rotate column k of the tridiagonal factor.
        eps_k = s_km2 * beta_k
        mid = c_km2 * beta_k
        delta_k = c_km1 * mid + s_km1 * alpha
        gamma_t = -s_km1 * mid + c_km1 * alpha
        gamma_k = float(np.hypot(gamma_t, beta_next))
        tscale = max(tscale, abs(alpha) + abs(beta_k) + beta_next)
        if gamma_k <= 1e-14 * max(1.0, tscale):
            # Singular square tridiagonal at subspace closure: the best
            # iterate seen is the terminal least squares solution.
            if x_lsq is not None:
                x, r_final, arn_final = x_lsq, r_lsq, arn_lsq
            termination = SINGULAR_FINAL_SYSTEM
            ell = k
            break
        c_k = gamma_t / gamma_k
        s_k = beta_next / gamma_k
        phi_k = c_k * phi_bar
        phi_bar = -s_k * phi_bar

        w_dir = (v - delta_k * w_km1 - eps_k * w_km2) / gamma_k
        x_prev = x
        x = x + phi_k * w_dir
        res_est = abs(phi_bar)

        if opts.record_explicit:
            r, rn, arn = explicit_norms(A, b, x)
            if rn > hist.res[-1] * 2.0 + 1e-12 * beta1:
                # A clear residual increase contradicts the minimization
                # property: the recurrence has degenerated (effective
                # subspace closure); keep the best iterate seen.
                if x_lsq is not None:
                    x, r_final, arn_final = x_lsq, r_lsq, arn_lsq
                else:
                    x = x_prev
                termination = SINGULAR_FINAL_SYSTEM
                break
            hist.append(rn, arn, res_est, A.count)
            r_final, arn_final = r, arn
            if arn < arn_lsq:
                x_lsq, r_lsq, arn_lsq = x, r, arn
            if rn <= res_floor:
                termination, stop_rule = CONVERGED, "residual"
                break
            if arn <= ares_floor:
                # The A-residual monitor certifies a least squares iterate;
                # polish a few more steps to its dip and return the best.
                if polish_left is None:
                    polish_left = 8
                elif arn > arn_lsq or polish_left <= 0:
                    x, r_final, arn_final = x_lsq, r_lsq, arn_lsq
                    termination, stop_rule = CONVERGED, "aresidual"
                    break
                polish_left -= 1
        else:
            hist.append(res_est, np.nan, res_est, A.count)
            if res_est <= res_floor:
                termination, stop_rule = CONVERGED, "residual"
                break

        if beta_next <= opts.breakdown_tol * max(1.0, tscale):
            termination, ell = HAPPY_BREAKDOWN, k
            break

        v_prev, v = v, w / beta_next
        beta_k = beta_next
        c_km2, s_km2 = c_km1, s_km1
        c_km1, s_km1 = c_k, s_k
        w_km2, w_km1 = w_km1, w_dir

    if polish_left is not None and termination in (MAXIT, HAPPY_BREAKDOWN):
        # the monitor certified convergence during the polish phase
        x, r_final, arn_final = x_lsq, r_lsq, arn_lsq
        termination, stop_rule = CONVERGED, "aresidual"
    lifted = maybe_lift(
        A, b, hist, x, x0, r_final, res_floor, termination, arn_final
    )
    return build_report(
        "minres", x, lifted, hist, A.count, termination, stop_rule, ell
    )


def minares1_solve(A, b, x0=None, opts=None, callback=None, **options):
    """Minimum A-residual iteration for symmetric systems, short form.

    Runs the Lanczos process on the seed ``A r0`` and updates the iterate
    with a fixed set of work vectors.  ``callback``, if given, is invoked
    once per iteration with a dict carrying ``k``, the current iterate
    ``x``, the direction vectors ``w`` and ``p``, and ``rho``.
    ``opts.restart`` is ignored.
    """
    A, b, x0, r0, opts = prepare(A, b, x0, opts, **options)
    hist = Histories()
    beta1 = norm(r0)
    if beta1 <= opts.breakdown_tol:
        return _trivial_report("minares", A, x0, beta1, hist)
    ar0 = A.apply(r0)
    beta_hat = norm(ar0)
    hist.append(beta1, beta_hat, beta_hat, A.count)
    if beta_hat <= opts.breakdown_tol:
        return build_report(
            "minares", x0, None, hist, A.count, CONVERGED, "aresidual", None
        )
    maxit = opts.maxit if opts.maxit is not None else A.n
    res_floor = opts.tol * beta1
    ares_floor = opts.tol * beta_hat

    vhat = ar0 / beta_hat
    vhat_prev = np.zeros(A.n)
    w_k = r0 / beta_hat
    w_prev = np.zeros(A.n)
    p_km1 = np.zeros(A.n)
    p_km2 = np.zeros(A.n)
    t_tilde = beta_hat
    c_km1, s_km1 = -1.0, 0.0
    lam_tilde_km1 = 0.0
    eta_km2 = 0.0
    beta_k = beta_hat
    x = x0.copy()
    r_final = arn_final = None
    tscale = 0.0
    termination, stop_rule, ell = MAXIT, None, None

    for k in range(1, maxit + 1):
        av = A.apply(vhat)
        nav = norm(av)
        v_next = av - beta_k * vhat_prev
        alpha_k = float(vhat @ v_next)
        v_next -= alpha_k * vhat
        beta_next = norm(v_next)
        tscale = max(tscale, abs(alpha_k) + beta_next, nav)

        lam_km1 = c_km1 * lam_tilde_km1 + s_km1 * alpha_k
        delta_tilde = s_km1 * lam_tilde_km1 - c_km1 * alpha_k
        eta_km1 = s_km1 * beta_next
        lam_tilde_k = -c_km1 * beta_next
        delta_k = float(np.hypot(delta_tilde, beta_next))
        if delta_k <= 1e-14 * max(1.0, tscale):
            termination = SINGULAR_FINAL_SYSTEM
            ell = k
            break
        c_k = delta_tilde / delta_k
        s_k = beta_next / delta_k
        t_hat = c_k * t_tilde
        t_tilde = s_k * t_tilde
        rho = abs(t_tilde)

        p_k = (w_k - eta_km2 * p_km2 - lam_km1 * p_km1) / delta_k
        x_prev = x
        x = x + t_hat * p_k
        if callback is not None:
            callback({"k": k, "x": x, "w": w_k, "p": p_k, "rho": rho})

        if opts.record_explicit:
            r, rn, arn = explicit_norms(A, b, x)
            if arn > hist.ares[-1] * 2.0 + 1e-12 * beta_hat:
                # A clear A-residual increase contradicts the minimization
                # property; keep the previous iterate.
                x = x_prev
                termination = SINGULAR_FINAL_SYSTEM
                break
            hist.append(rn, arn, rho, A.count)
            r_final, arn_final = r, arn
            if rn <= res_floor:
                termination, stop_rule = CONVERGED, "residual"
                break
            if arn <= ares_floor:
                termination, stop_rule = CONVERGED, "aresidual"
                break
        else:
            hist.append(np.nan, rho, rho, A.count)
            if rho <= ares_floor:
                termination, stop_rule = CONVERGED, "aresidual"
                break

        if beta_next <= opts.breakdown_tol * max(1.0, nav):
            # Lanczos closure: exit before the w update, whose divisor
            # vanishes here; the current iterate is the final minimizer.
            termination, ell = HAPPY_BREAKDOWN, k
            break

        w_next = (vhat - beta_k * w_prev - alpha_k * w_k) / beta_next
        vhat_prev, vhat = vhat, v_next / beta_next
        w_prev, w_k = w_k, w_next
        p_km2, p_km1 = p_km1, p_k
        beta_k = beta_next
        c_km1, s_km1 = c_k, s_k
        lam_tilde_km1 = lam_tilde_k
        eta_km2 = eta_km1

    lifted = maybe_lift(
        A, b, hist, x, x0, r_final, res_floor, termination, arn_final
    )
    return build_report(
        "minares", x, lifted, hist, A.count, termination, stop_rule, ell
    )
