"""Acceptance suite.

Each test realizes one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest -s`` to see them).  The
shared 50-system random suite comes from ``conftest.make_suite_instance``;
criteria with their own setups (symmetric equality, ill-conditioning
onset, the grid reproduction, skew systems) build their instances inline.
"""

import time

import numpy as np

import rskrylov as rk
from conftest import make_small_symmetric_instance

C1_METHODS = ("gmres", "rrgmres", "dgmres", "rsmar2", "minres", "minares")


def _report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} {detail}")
    return ok


def _final_estimate(rep):
    x = rep.lifted_solution
    return rep.solution if x is None else x


def test_criterion_01_pseudoinverse_recovery(acceptance_suite):
    """Lifted/raw finals of every applicable method match the closed-form
    minimum-norm least squares solution on 50 inconsistent systems."""
    instances, runs_inc, _, suite_wall = acceptance_suite
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for inst, runs in zip(instances, runs_inc):
        xstar = inst["pinv"] @ inst["b_inc"]
        scale = np.linalg.norm(xstar)
        for method in C1_METHODS:
            if method not in runs:
                continue
            err = np.linalg.norm(_final_estimate(runs[method]) - xstar) / scale
            worst = max(worst, err)
            ok = ok and err <= 1e-7
    elapsed = suite_wall + (time.perf_counter() - t0)
    ok = ok and elapsed <= 30.0
    assert _report_line(
        1,
        "pseudoinverse recovery",
        ok,
        f"(worst rel err {worst:.2e}, runtime {elapsed:.1f}s)",
    )


def test_criterion_02_consistent_termination(acceptance_suite):
    """Consistent systems: every method reaches the minimum-norm solution;
    the residual-seeded run terminates exactly at the maximal Krylov
    dimension, the range-restricted ones no later."""
    instances, _, runs_cons, _wall = acceptance_suite
    worst = 0.0
    ok = True
    for inst, runs in zip(instances, runs_cons):
        xstar = inst["pinv"] @ inst["b_cons"]
        scale = np.linalg.norm(xstar)
        ell = rk.krylov_max_dim(inst["A"], inst["b_cons"])
        for method, rep in runs.items():
            err = np.linalg.norm(rep.solution - xstar) / scale
            worst = max(worst, err)
            ok = ok and err <= 1e-7
        ok = ok and runs["gmres"].iterations == ell
        ok = ok and runs["rrgmres"].iterations <= ell
        ok = ok and runs["dgmres"].iterations <= ell
    assert _report_line(
        2, "consistent-case termination", ok, f"(worst rel err {worst:.2e})"
    )


def test_criterion_03_gmres_rsmar_final_equality(acceptance_suite):
    """Unlifted finals of the residual-minimizing and A-residual-minimizing
    long-recurrence runs coincide on the inconsistent suite."""
    instances, runs_inc, _, _wall = acceptance_suite
    worst = 0.0
    for runs in runs_inc:
        a = runs["gmres"].solution
        b = runs["rsmar2"].solution
        worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
    ok = worst <= 1e-7
    assert _report_line(
        3, "gmres/rsmar final-iterate equality", ok, f"(worst gap {worst:.2e})"
    )


def test_criterion_04_minares_minres_final_equality():
    """At the theoretical termination index (the maximal hat-space Krylov
    dimension) the two short-recurrence methods produce the same least
    squares iterate on symmetric singular systems."""
    worst = 0.0
    for seed in range(20):
        inst = make_small_symmetric_instance(seed)
        A, b = inst["A"], inst["b_inc"]
        m = rk.krylov_max_dim(A, b) - 1
        xr = rk.minres_solve(A, b, tol=1e-30, maxit=m).solution
        xa = rk.minares1_solve(A, b, tol=1e-30, maxit=m).solution
        worst = max(worst, np.linalg.norm(xr - xa) / np.linalg.norm(xa))
    ok = worst <= 1e-7
    assert _report_line(
        4, "minares/minres final-iterate equality", ok, f"(worst gap {worst:.2e})"
    )


def test_criterion_05_monotonicity(explicit_acceptance_suite):
    """Residual histories of the residual minimizers and A-residual
    histories of the A-residual minimizers, explicitly checked, are
    nonincreasing."""

    def monotone(h):
        h = np.asarray(h)
        return bool(np.all(h[1:] <= h[:-1] * (1 + 1e-12)))

    runs_inc, runs_cons = explicit_acceptance_suite
    violations = 0
    total = 0
    for runs in list(runs_inc) + list(runs_cons):
        for method, rep in runs.items():
            if method in ("gmres", "rrgmres"):
                total += 1
                violations += not monotone(rep.residual_history)
            if method in ("dgmres", "rsmar1", "rsmar2", "minares"):
                total += 1
                violations += not monotone(rep.aresidual_history)
    # the symmetric equality suite contributes too
    for seed in range(20):
        inst = make_small_symmetric_instance(seed)
        for method in ("rsmar1", "rsmar2", "dgmres", "minares"):
            rep = rk.SOLVERS[method](
                inst["A"],
                inst["b_inc"],
                tol=1e-10,
                maxit=4 * inst["n"],
                record_explicit=True,
            )
            total += 1
            violations += not monotone(rep.aresidual_history)
    ok = violations == 0
    assert _report_line(
        5, "history monotonicity", ok, f"({total - violations}/{total} histories)"
    )


def test_criterion_06_condition_number_bound(acceptance_suite):
    """The rectangular Hessenberg factor never exceeds the matrix condition
    number: on consistent residual-seeded runs, and unconditionally for the
    hat-space process, up to the respective subspace dimensions."""
    instances, _, _, _wall = acceptance_suite
    worst_ratio = 0.0
    ok = True
    for inst in instances[::5]:
        A = inst["A"]
        kA = rk.cond_number(A)
        ell = rk.krylov_max_dim(A, inst["b_cons"])
        state = rk.arnoldi_init(A, inst["b_cons"])
        for _ in range(ell):
            out = rk.arnoldi_step(state, A)
            ratio = rk.cond_number(state.hessenberg()) / kA
            worst_ratio = max(worst_ratio, ratio)
            ok = ok and ratio <= 1 + 1e-8
            if out == "breakdown":
                break
        seed_hat = np.asarray(A @ inst["b_inc"])
        m = rk.krylov_max_dim(A, seed_hat)
        state = rk.arnoldi_init(A, seed_hat)
        for _ in range(m):
            out = rk.arnoldi_step(state, A)
            ratio = rk.cond_number(state.hessenberg()) / kA
            worst_ratio = max(worst_ratio, ratio)
            ok = ok and ratio <= 1 + 1e-8
            if out == "breakdown":
                break
    assert _report_line(
        6, "condition-number bound", ok, f"(worst ratio 1 + {worst_ratio - 1:.1e})"
    )


def test_criterion_07_ill_conditioning_onset():
    """On inconsistent systems with a large least squares residual, the
    residual-seeded projected problem degenerates (condition number beyond
    1e6) by the time the A-residual has dropped below 1e-6."""
    ok = True
    worst_k = np.inf
    for seed in range(10):
        n, rank = 40, 30
        A, Ap = rk.make_random_range_symmetric(
            rk.RandomSpec(n=n, rank=rank, cond=1e4, seed=seed + 900)
        )
        rng = np.random.default_rng(seed + 11)
        b_cons = A @ rng.standard_normal(n)
        nullv = rng.standard_normal(n)
        nullv -= Ap @ (A @ nullv)
        nullv /= np.linalg.norm(nullv)
        b = b_cons + 0.5 * np.linalg.norm(b_cons) * nullv
        rstar_ratio = 0.5 / np.sqrt(1.25)
        assert rstar_ratio >= 0.1
        rep = rk.gmres_solve(A, b, tol=1e-13, maxit=4 * n)
        state = rk.arnoldi_init(A, b)
        steps = 0
        while steps < rep.iterations:
            if rk.arnoldi_step(state, A) == "breakdown":
                break
            steps += 1
        kappa_h = rk.cond_number(state.hessenberg(), rank_tol=0.0)
        ares_rel = rep.aresidual_history[-1] / rep.aresidual_history[0]
        ok = ok and kappa_h > 1e6 and ares_rel <= 1e-6
        worst_k = min(worst_k, kappa_h)
    assert _report_line(
        7, "ill-conditioning onset", ok, f"(min final kappa(H) {worst_k:.1e})"
    )


def test_criterion_08_grid_reproduction():
    """Desk-scale rerun of the periodic convection-diffusion benchmark at
    grid size 30: all four long-recurrence methods solve the consistent
    system below 1e-10; the A-residual methods drive the inconsistent
    system below 1e-8 with a monotone history while the residual-seeded
    method's A-residual history is erratic."""
    t0 = time.perf_counter()
    spec = rk.BvpSpec(m=30, d=10.0)
    A = rk.make_bvp_matrix(spec)
    n = spec.n
    b_cons = rk.make_bvp_rhs(spec, "consistent_random", seed=0, matrix=A)
    b_inc = rk.make_bvp_rhs(spec, "inconsistent_xy")
    ok = True
    for method in ("gmres", "rrgmres", "rsmar2", "dgmres"):
        rep = rk.SOLVERS[method](A, b_cons, tol=1e-12, maxit=n, record_explicit=True)
        reached = np.min(rep.residual_history) / rep.residual_history[0]
        ok = ok and reached <= 1e-10 and rep.iterations <= n
    ares_final = {}
    for method in ("rrgmres", "rsmar2", "dgmres"):
        rep = rk.SOLVERS[method](A, b_inc, tol=1e-8, maxit=n, record_explicit=True)
        h = rep.aresidual_history
        ares_final[method] = h[-1] / h[0]
        ok = ok and h[-1] <= 1e-8 * h[0]
        if method == "rsmar2":
            ok = ok and bool(np.all(h[1:] <= h[:-1] * (1 + 1e-12)))
    rep = rk.gmres_solve(A, b_inc, tol=1e-8, maxit=300, record_explicit=True)
    h = rep.aresidual_history
    ok = ok and bool(np.any(h[1:] > h[:-1]))  # at least one strict increase
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 60.0
    assert _report_line(
        8, "grid benchmark reproduction", ok, f"(time {elapsed:.1f}s)"
    )


def test_criterion_09_skew_symmetric_no_lift():
    """On odd-dimensional singular skew-symmetric systems the terminal
    residual-seeded iterate already is the pseudoinverse solution: the
    lift correction is negligible."""
    ok = True
    worst_corr = 0.0
    worst_err = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 21)) * 2 + 1
        A = rk.make_random_skew_singular(n, seed=seed + 1000)
        b = np.random.default_rng(seed + 5000).standard_normal(n)
        rep = rk.gmres_solve(A, b, tol=1e-9, maxit=4 * n)
        x = rep.solution
        corr = (
            0.0
            if rep.lifted_solution is None
            else np.linalg.norm(rep.lifted_solution - x)
        )
        xstar = rk.pseudoinverse_solve(A, b)
        err = np.linalg.norm(x - xstar) / np.linalg.norm(xstar)
        worst_corr = max(worst_corr, corr / np.linalg.norm(x))
        worst_err = max(worst_err, err)
        ok = ok and corr <= 1e-9 * np.linalg.norm(x) and err <= 1e-7
    assert _report_line(
        9,
        "skew-symmetric no-lift property",
        ok,
        f"(worst correction {worst_corr:.1e}, worst err {worst_err:.1e})",
    )


def test_criterion_10_estimate_fidelity(explicit_acceptance_suite):
    """The recurrence-based A-residual estimates of the A-residual
    minimizers match the explicitly recomputed norms until convergence."""
    runs_inc, runs_cons = explicit_acceptance_suite
    worst = 0.0
    ok = True
    for runs in list(runs_inc) + list(runs_cons):
        for method in ("rsmar1", "rsmar2", "minares"):
            if method not in runs:
                continue
            rep = runs[method]
            beta_hat = rep.aresidual_history[0]
            dev = np.nanmax(
                np.abs(rep.estimate_history - rep.aresidual_history)
            ) / beta_hat
            worst = max(worst, dev)
            ok = ok and dev <= 1e-8
    assert _report_line(
        10, "estimate fidelity", ok, f"(worst deviation {worst:.2e})"
    )
