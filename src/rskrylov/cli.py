"""Command-line interface: generate / solve / compare / check.

``generate`` writes test matrices (and optionally right-hand sides) as
Matrix Market / plain vector files.  ``solve`` runs one method on a
system.  ``compare`` runs several methods on the same system and writes a
joint convergence-history CSV.  ``check`` runs the dense oracles
(range-symmetry, index, condition number, pseudoinverse solve) on
moderate-size matrices.

``--estimates`` and ``--explicit`` choose the monitor of ``solve`` and
``compare`` (``SolveOptions.record_explicit``).  Both commands always pass
a bool, so the library's per-method default (``None``: estimates for all
but minres and restarted gmres) never applies here.  ``solve`` monitors
with the matvec-free recurrence estimates unless told otherwise, minres
and restarted gmres included, since its product is the answer and the
matvec is the cost; ``compare`` records
explicit norms, since its product is the joint history, and estimate-mode
rows of different methods leave different columns ``NaN``.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .gmres_family import dgmres_solve, gmres_solve, rrgmres_solve
from .history import write_history_csv
from .minres_family import minares1_solve, minres_solve
from .rsmar import rsmar1_solve, rsmar2_solve
from .matrixmarket import (
    read_matrix_market,
    read_vector,
    write_matrix_market,
    write_vector,
)
from .operators import SolveOptions
from .oracle import ORACLE_CAP, analyze
from .problems import (
    BvpSpec,
    RandomSpec,
    make_bvp_matrix,
    make_bvp_rhs,
    make_random_range_symmetric,
    make_random_skew_singular,
    make_random_symmetric_singular,
    scale_max_abs,
)

SOLVERS = {
    "gmres": gmres_solve,
    "rrgmres": rrgmres_solve,
    "dgmres": dgmres_solve,
    "rsmar1": rsmar1_solve,
    "rsmar2": rsmar2_solve,
    "minres": minres_solve,
    "minares": minares1_solve,
}
METHOD_NAMES = tuple(SOLVERS)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rskrylov",
        description="Krylov solvers for singular range-symmetric linear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a test matrix (Matrix Market)")
    gen.add_argument(
        "kind", choices=("bvp", "random-rs", "random-sym", "random-skew")
    )
    gen.add_argument("--out", required=True, help="output .mtx path")
    gen.add_argument("--m", type=int, help="bvp grid size per dimension (100)")
    gen.add_argument("--d", type=float, help="bvp convection constant (10)")
    gen.add_argument("--n", type=int, help="random matrix dimension (40)")
    gen.add_argument("--rank", type=int, help="random-rs/sym rank (3n/4)")
    gen.add_argument("--cond", type=float, help="random-rs/sym condition target (100)")
    gen.add_argument("--seed", type=int, help="random seed (0)")
    gen.add_argument(
        "--rhs-kind",
        choices=("xy", "consistent-random"),
        default=None,
        help="also write a right-hand side (bvp only)",
    )
    gen.add_argument("--rhs-out", default=None, help="output path for the RHS")

    def add_system_args(p, explicit):
        p.add_argument("--matrix", required=True, help="Matrix Market file")
        p.add_argument(
            "--rhs",
            default=None,
            help="RHS vector file, or the literal 'ones'",
        )
        p.add_argument(
            "--rhs-kind",
            choices=("Ae", "e", "xy"),
            default=None,
            help="construct the RHS from the matrix: Ae (consistent), "
            "e (all ones, inconsistent), xy (grid function, bvp matrices)",
        )
        p.add_argument("--x0", default=None, help="initial guess vector file")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--maxit", type=int, default=None)
        p.add_argument("--restart", type=int, default=None)
        p.add_argument(
            "--scale",
            action="store_true",
            help="scale the matrix by its largest absolute entry",
        )
        default = " (the default)"
        monitor = p.add_mutually_exclusive_group()
        monitor.add_argument(
            "--estimates",
            dest="record_explicit",
            action="store_false",
            help="monitor with matvec-free recurrence estimates, confirming "
            "a stop with one explicit norm" + ("" if explicit else default),
        )
        monitor.add_argument(
            "--explicit",
            dest="record_explicit",
            action="store_true",
            help="check every iterate's |r| and |Ar| explicitly, at two "
            "more matvecs per step" + (default if explicit else ""),
        )
        p.set_defaults(record_explicit=explicit)

    sol = sub.add_parser("solve", help="run one method on a system")
    sol.add_argument("--method", required=True, choices=METHOD_NAMES)
    add_system_args(sol, explicit=False)
    sol.add_argument("--out", default=None, help="write the solution vector here")
    sol.add_argument("--history", default=None, help="write a history CSV here")
    sol.add_argument(
        "--lifted", action="store_true", help="write/report the lifted solution"
    )

    cmp_ = sub.add_parser("compare", help="run several methods, write one CSV")
    cmp_.add_argument(
        "--methods",
        required=True,
        help="comma-separated subset of " + ",".join(METHOD_NAMES),
    )
    add_system_args(cmp_, explicit=True)
    cmp_.add_argument("--out", required=True, help="joint history CSV path")

    chk = sub.add_parser("check", help="dense oracle verdicts for a matrix")
    chk.add_argument("--matrix", required=True)
    chk.add_argument("--rhs", default=None, help="vector file or 'ones'")
    chk.add_argument("--out", default=None, help="write the pseudoinverse solution")
    chk.add_argument("--max-n", type=int, default=ORACLE_CAP)
    return parser


def _load_system(args):
    A = read_matrix_market(args.matrix)
    if args.scale:
        A, _ = scale_max_abs(A)
    n = A.shape[0]
    if args.rhs is not None and args.rhs_kind is not None:
        raise ValueError("pass either --rhs or --rhs-kind, not both")
    if args.rhs is not None:
        b = _read_rhs(args.rhs, n)
    elif args.rhs_kind == "Ae":
        b = np.asarray(A @ np.ones(n))
    elif args.rhs_kind == "e":
        b = np.ones(n)
    elif args.rhs_kind == "xy":
        m = int(round(np.sqrt(n)))
        if m * m != n:
            raise ValueError(
                f"--rhs-kind xy needs a grid matrix (order m*m), got order {n}"
            )
        b = make_bvp_rhs(BvpSpec(m=m), "inconsistent_xy")
    else:
        raise ValueError("an RHS is required: pass --rhs or --rhs-kind")
    x0 = None if args.x0 is None else read_vector(args.x0)
    opts = SolveOptions(
        tol=args.tol,
        maxit=args.maxit,
        restart=args.restart,
        record_explicit=args.record_explicit,
    )
    return A, b, x0, opts


def _read_rhs(rhs, n):
    """The right-hand side ``rhs`` of ``--rhs``, the literal ``ones`` or a
    vector file, for a matrix of order ``n``."""
    b = np.ones(n) if rhs == "ones" else read_vector(rhs)
    if b.shape[0] != n:
        raise ValueError(f"rhs has length {b.shape[0]}, matrix has order {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("b has non-finite entries")
    return b


# The options of each kind of ``generate`` and their defaults; one given
# to a kind it does not apply to is an error, not ignored.
_RANDOM = {"n": 40, "rank": None, "cond": 100.0, "seed": 0}
_GENERATE_OPTIONS = {
    "bvp": {"m": 100, "d": 10.0, "rhs_kind": None, "seed": 0},
    "random-rs": _RANDOM, "random-sym": _RANDOM, "random-skew": {"n": 40, "seed": 0},
}


def _cmd_generate(args):
    if args.rhs_out is not None and args.rhs_kind is None:
        raise ValueError("--rhs-out requires --rhs-kind")
    seeded = args.kind != "bvp" or args.rhs_kind == "consistent-random"
    if args.seed is not None and not seeded:
        raise ValueError("--seed applies to bvp only with --rhs-kind consistent-random")
    defaults = _GENERATE_OPTIONS[args.kind]
    for name in ("m", "d", "n", "rank", "cond", "seed", "rhs_kind"):
        if getattr(args, name) is None:
            setattr(args, name, defaults.get(name))
        elif name not in defaults:
            raise ValueError(f"--{name.replace('_', '-')} does not apply to {args.kind}")
    if args.kind == "bvp":
        spec = BvpSpec(m=args.m, d=args.d)
        A = make_bvp_matrix(spec)
        comment = f"periodic convection-diffusion, m={args.m}, d={args.d}"
        if args.rhs_kind is not None:
            if args.rhs_out is None:
                raise ValueError("--rhs-kind requires --rhs-out")
            kind = (
                "inconsistent_xy" if args.rhs_kind == "xy" else "consistent_random"
            )
            b = make_bvp_rhs(spec, kind, seed=args.seed, matrix=A)
            write_vector(args.rhs_out, b)
    else:
        rank = args.rank if args.rank is not None else max(1, (3 * args.n) // 4)
        if args.kind == "random-rs":
            spec = RandomSpec(n=args.n, rank=rank, cond=args.cond, seed=args.seed)
            A, _ = make_random_range_symmetric(spec)
            comment = f"random range-symmetric, n={args.n}, rank={rank}"
        elif args.kind == "random-sym":
            spec = RandomSpec(n=args.n, rank=rank, cond=args.cond, seed=args.seed)
            A = make_random_symmetric_singular(spec)
            comment = f"random symmetric singular, n={args.n}, rank={rank}"
        else:
            A = make_random_skew_singular(args.n, seed=args.seed)
            comment = f"random skew-symmetric, n={args.n}"
    write_matrix_market(args.out, A, comment=comment)
    print(f"wrote {args.out}")
    return 0


def _norm_text(history):
    """The answer's norm (the history's last value) and its ratio to the
    initial one; an estimate-mode ``maxit`` or residual-rule exit leaves
    the answer's ``|A r|`` unchecked (``NaN``)."""
    last = history[-1]
    if np.isnan(last):
        return "not checked"
    return f"{last:.6e} (rel {last / max(history[0], 1e-300):.2e})"


def _cmd_solve(args):
    A, b, x0, opts = _load_system(args)
    solver = SOLVERS[args.method]
    t0 = time.perf_counter()
    report = solver(A, b, x0=x0, opts=opts)
    elapsed = time.perf_counter() - t0
    monitor = "explicit" if report.record_explicit else "estimates"
    print(
        f"{args.method}: n={A.shape[0]} iterations={report.iterations} "
        f"termination={report.termination} matvecs={report.matvec_count} "
        f"monitor={monitor} time={elapsed:.3f}s"
    )
    print(
        f"  |r|={_norm_text(report.residual_history)}"
        f"  |Ar|={_norm_text(report.aresidual_history)}"
    )
    if report.lifted_solution is not None:
        print("  lifted solution available (inconsistent termination)")
    if args.history:
        write_history_csv([report], args.history)
        print(f"  history written to {args.history}")
    if args.out:
        x = report.solution
        if args.lifted and report.lifted_solution is not None:
            x = report.lifted_solution
        write_vector(args.out, x)
        print(f"  solution written to {args.out}")
    return 0


def _cmd_compare(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValueError("no methods given")
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        raise ValueError(f"unknown methods: {', '.join(unknown)}")
    A, b, x0, opts = _load_system(args)
    reports = []
    for method in methods:
        t0 = time.perf_counter()
        report = SOLVERS[method](A, b, x0=x0, opts=opts)
        elapsed = time.perf_counter() - t0
        reports.append(report)
        print(
            f"{method}: iterations={report.iterations} termination={report.termination} "
            f"|Ar|={_norm_text(report.aresidual_history)} time={elapsed:.3f}s"
        )
    write_history_csv(reports, args.out)
    print(f"joint history written to {args.out}")
    return 0


def _cmd_check(args):
    if args.out is not None and args.rhs is None:
        raise ValueError("--out requires --rhs")
    A = read_matrix_market(args.matrix)
    n = A.shape[0]
    if n > args.max_n:
        raise ValueError(
            f"matrix order {n} exceeds the dense oracle cap {args.max_n}"
        )
    dense = A.toarray()
    b = None if args.rhs is None else _read_rhs(args.rhs, n)
    result = analyze(dense, b, max_n=args.max_n)
    print(f"order: {n}")
    print(f"range_symmetric: {str(result.range_symmetric).lower()}")
    print(f"index: {result.index}")
    print(f"kappa: {result.kappa:.6e}")
    if b is not None:
        x = result.pseudo_solution
        print(f"pseudoinverse solution norm: {np.linalg.norm(x):.6e}")
        if args.out:
            write_vector(args.out, x)
            print(f"pseudoinverse solution written to {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "check": _cmd_check,
}


def cli_main(argv=None):
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
