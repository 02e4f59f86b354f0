"""Closed-loop solve benchmark for rskrylov.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One client in one process runs the ops of a workload back to back, pass
after pass, until the next pass would end after ``--seconds`` (at least one
pass).  The seed orders the ops inside each pass.  Every answer
(``lifted_solution`` if present, else ``solution``; for the CLI, the
written ``--out`` file) is checked against a reference ``A^+ b``.

Times are scaled to a fixed machine speed with the speed meter of
``speed.py``, so that the host's changing speed does not show in them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes, then traced passes with per-layer wrappers installed from outside
the package, and reports the per-layer metrics.  ``--workload all`` runs
every workload with both settings, one process each, and writes the
results under ``perfbench/out``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so iteration and matvec counts
# repeat exactly from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import workloads
from speed import SpeedMeter
from tracing import DRIVER_LAYER, Tracer, left_wrapped

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

ERROR_BOUND = 1e-7  # relative error bound of acceptance criterion 01
# Set-up repeats at least this often and until this much time has passed;
# setup_s is the median.
SETUP_REPEATS, SETUP_SECONDS = 5, 2.0
TRACE_SUM_TOL = 0.01  # relative slack between summed self times and solve time

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "correct_share": "ratio",
    "matvecs_per_solve": "count",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def import_package():
    """Import ``rskrylov`` from the checkout's own ``src``, never from an
    installed copy; exits with an error when the sources are missing."""
    src = ROOT / "src"
    if not (src / "rskrylov" / "__init__.py").is_file():
        raise SystemExit(f"error: no rskrylov sources under {src}")
    sys.path.insert(0, str(src))
    import rskrylov

    return rskrylov


def environment():
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


@dataclass
class Outcome:
    start: float  # meter clock at the start of the call
    seconds: float
    iterations: int | None
    matvecs: int | None
    termination: str | None
    stop_rule: str | None
    err_solution: float | None
    err_lifted: float | None
    err_answer: float | None
    error: str | None

    @property
    def failure(self):
        """Why the op counts as failed, or None."""
        if self.error is not None:
            return f"raised {self.error}"
        if self.termination == "maxit":
            return "maxit"
        if not self.err_answer <= ERROR_BOUND:
            return f"error {self.err_answer:.1e} > {ERROR_BOUND:.0e}"
        return None

    def key(self):
        return (self.iterations, self.matvecs, self.termination, self.stop_rule, self.error)


def run_op(rk, op, clock, tracer=None):
    """Run one op and check its answer.  Only the call itself is timed."""
    wrap = tracer.operator if tracer is not None else (lambda A: A)
    report = answer = error = None
    if op.argv is None:
        solve = rk.SOLVERS[op.method]
        A = wrap(op.A)
        t0 = clock()
        try:
            report = solve(A, op.b, **op.options)
        except Exception as exc:  # a raising solve is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = clock() - t0
        if report is not None:
            answer = report.lifted_solution if report.lifted_solution is not None else report.solution
    else:
        solvers = rk.cli.SOLVERS
        inner = solvers[op.method]
        reports = []

        def capture(A, b, **kwargs):
            reports.append(inner(wrap(A), b, **kwargs))
            return reports[-1]

        main = tracer.cli_main if tracer is not None else rk.cli_main
        sink = io.StringIO()
        solvers[op.method] = capture
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = clock()
                try:
                    code = main(op.argv)
                except Exception as exc:
                    code, sink = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
                seconds = clock() - t0
        finally:
            solvers[op.method] = inner
        if code != 0:
            error = sink.getvalue().strip().splitlines()[-1] if sink.getvalue().strip() else f"exit {code}"
        else:
            report = reports[0]
            answer = rk.read_vector(op.out)
    if report is None:
        return Outcome(t0, seconds, None, None, None, None, None, None, None, error)
    return Outcome(
        t0,
        seconds,
        report.iterations,
        report.matvec_count,
        report.termination,
        report.stop_rule,
        reference.rel_error(report.solution, op.xstar),
        reference.rel_error(report.lifted_solution, op.xstar),
        reference.rel_error(answer, op.xstar),
        error,
    )


@dataclass
class Pass:
    wall: float
    outcomes: list
    trace_gap: float = 0.0  # worst |solve time - summed self times| / solve time
    scaled: list | None = None  # per op: seconds at reference speed


def run_pass(rk, ops, order, meter, tracer=None):
    outcomes = [None] * len(ops)
    worst_gap = 0.0
    t0 = time.perf_counter()
    for i in order:
        before = tracer.self_total() if tracer is not None else 0.0
        outcomes[i] = run_op(rk, ops[i], meter.clock, tracer)
        if tracer is not None:
            # The self times of all layers inside one solve add up to it.
            covered = tracer.self_total() - before
            gap = abs(outcomes[i].seconds - covered)
            worst_gap = max(worst_gap, gap / max(outcomes[i].seconds, 1e-9))
            if gap > TRACE_SUM_TOL * outcomes[i].seconds + 1e-4:
                raise AssertionError(
                    f"{ops[i].label}: layer self times sum to {covered:.6f}s, "
                    f"solve took {outcomes[i].seconds:.6f}s"
                )
    return Pass(time.perf_counter() - t0, outcomes, worst_gap)


def measure(rk, ops, seconds, rng, meter, tracer=None):
    """Passes back to back until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(rk, ops, rng.permutation(len(ops)), meter, tracer))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def warm_up(rk):
    """Load lazily imported code paths before anything is timed."""
    A = rk.make_bvp_matrix(rk.BvpSpec(m=6, d=10.0))
    b = rk.make_bvp_rhs(rk.BvpSpec(m=6, d=10.0), "inconsistent_xy")
    for solve in rk.SOLVERS.values():
        solve(A, b, tol=1e-8, maxit=40)


def tail(values):
    """Highest order statistic with at least ten values beyond it, as
    ``(value, percentile)``; the maximum when there are ten values or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(passes, setup_s):
    n = len(passes[0].outcomes)
    per_op = [statistics.median(p.scaled[i] for p in passes) for i in range(n)]
    attempted = n * len(passes)
    failed = sum(o.failure is not None for p in passes for o in p.outcomes)
    matvecs = [o.matvecs for o in passes[0].outcomes if o.matvecs is not None]
    tail_s, tail_pct = tail(per_op)
    values = {
        "solves_per_s": attempted / sum(sum(p.scaled) for p in passes),
        "solve_ms_p50": 1e3 * statistics.median(per_op),
        "solve_ms_tail": 1e3 * tail_s,
        "correct_share": 1.0 - failed / attempted,
        "matvecs_per_solve": statistics.fmean(matvecs) if matvecs else 0.0,
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "solve_ms_tail": f"p{tail_pct:.1f} of {n} per-op medians over {len(passes)} passes",
        "solve_ms_p50": f"median of {n} per-op medians over {len(passes)} passes",
        "correct_share": f"{attempted - failed}/{attempted}",
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, notes, attempted, failed


def _div(a, b):
    return a / b if b > 0 else 0.0


def per_layer(ops, untraced, traced, tracer, setup_parts):
    npass = len(traced)

    def stat(name, field):
        return tracer.stats.get(name, [0, 0.0, 0.0, 0.0])[field] / npass

    solve_s = sum(o.seconds for p in traced for o in p.outcomes) / npass
    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    arn_self = stat("arnoldi.step", 2)
    put("arnoldi.step_calls", stat("arnoldi.step", 0), "count")
    put("arnoldi.self_s", arn_self, "s")
    put("arnoldi.share", _div(arn_self, solve_s), "ratio")
    put("arnoldi.gflops_per_s_computed", _div(stat("arnoldi.step", 3), arn_self) / 1e9, "GFLOP/s")

    app, sol = stat("hessenberg_qr.append", 2), stat("hessenberg_qr.solve", 2)
    put("hessenberg_qr.append_calls", stat("hessenberg_qr.append", 0), "count")
    put("hessenberg_qr.append_s", app, "s")
    put("hessenberg_qr.solve_calls", stat("hessenberg_qr.solve", 0), "count")
    put("hessenberg_qr.solve_s", sol, "s")
    put("hessenberg_qr.share", _div(app + sol, solve_s), "ratio")

    mv = stat("operators.apply", 2)
    put("operators.apply_calls", stat("operators.apply", 0), "count")
    put("operators.apply_s", mv, "s")
    put("operators.share", _div(mv, solve_s), "ratio")
    put("operators.gbytes_per_s_computed", _div(stat("operators.apply", 3), mv) / 1e9, "GB/s")

    en = stat("common.explicit_norms", 2)
    put("common.explicit_norms_calls", stat("common.explicit_norms", 0), "count")
    put("common.explicit_norms_s", en, "s")
    put("common.share", _div(en, solve_s), "ratio")

    first = untraced[0].outcomes
    for layer in dict.fromkeys(DRIVER_LAYER.values()):
        mine = [o for op, o in zip(ops, first) if DRIVER_LAYER[op.method] == layer]
        iters = [o.iterations for o in mine if o.iterations is not None]
        put(f"{layer}.self_s", stat(layer, 2), "s")
        put(f"{layer}.share", _div(stat(layer, 2), solve_s), "ratio")
        put(f"{layer}.iterations_per_solve", statistics.fmean(iters) if iters else 0.0, "count")
        put(f"{layer}.maxit_share", _div(sum(o.termination == "maxit" for o in mine), len(mine)), "ratio")

    lifted = [o for o in first if o.err_lifted is not None]
    put("lifting.lift_calls", stat("lifting.lift", 0), "count")
    put("lifting.lift_s", stat("lifting.lift", 2), "s")
    put("lifting.useful_share", _div(sum(o.err_lifted < o.err_solution for o in lifted), len(lifted)), "ratio")

    read_s = stat("matrixmarket.read", 2)
    put("matrixmarket.read_s", read_s, "s")
    put("matrixmarket.read_mb_per_s", _div(stat("matrixmarket.read", 3), read_s) / 1e6, "MB/s")
    put("matrixmarket.vector_io_s", stat("matrixmarket.vector_io", 2), "s")
    put("history.write_csv_s", stat("history.write_csv", 2), "s")
    put("cli.self_s", stat("cli", 2), "s")

    put("problems.make_s", setup_parts[0], "s")
    put("setup.reference_s", setup_parts[1], "s")

    def solve_time(passes):
        return statistics.fmean(sum(p.scaled) for p in passes)

    plain = solve_time(untraced)
    put("trace.overhead_s", solve_time(traced) - plain, "s")
    put("trace.overhead_share", _div(m["trace.overhead_s"]["value"], plain), "ratio")
    return m


def _fmt_err(err):
    return "-" if err is None else f"{err:.2e}"


def run_workload(rk, name, seed, seconds, trace, small=False, echo=print):
    """Run one workload; returns the result object of the last output line."""
    worst = reference.self_check(rk)
    echo(f"oracle self-check: FFT vs SVD pseudoinverse, worst relative gap {worst:.1e}")

    meter = SpeedMeter()
    clock = meter.clock
    setups = []
    rng = np.random.default_rng(seed)
    budget = seconds / 2 if trace else seconds
    traced = []
    with meter:
        start = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
            # A reading before each set-up puts the caches in the same state
            # for every repeat; back-to-back set-ups vary from process to
            # process with how their data fall in the cache.
            meter.read()
            t0 = clock()
            ops, make_s, ref_s = workloads.build(rk, name, OUT, small=small, clock=clock)
            setups.append((t0, clock() - t0, make_s, ref_s))
        warm_up(rk)
        gc.collect()

        passes = measure(rk, ops, budget, rng, meter)
        if trace:
            tracer = Tracer(rk, clock)
            with tracer:
                traced = measure(rk, ops, budget, rng, meter, tracer)
            left = left_wrapped(tracer)
            if left:
                raise AssertionError(f"trace wrappers left installed: {left}")
    kernels = workloads.METER[name]
    for p in passes + traced:
        p.scaled = [meter.scaled(o.start, o.start + o.seconds, kernels) for o in p.outcomes]
    setup_s, make_s, ref_s = [], [], []
    for t0, total, make, ref in setups:
        factor = meter.scaled(t0, t0 + total) / total
        setup_s.append(factor * total)
        make_s.append(factor * make)
        ref_s.append(factor * ref)
    setup_parts = (statistics.median(make_s), statistics.median(ref_s))
    setup_s = statistics.median(setup_s)

    reference_keys = [o.key() for o in passes[0].outcomes]
    repeat = all([o.key() for o in p.outcomes] == reference_keys for p in passes + traced)
    if not repeat:
        echo("NOT REPEATED: iterations, matvecs or terminations differ between passes")

    echo(f"{'op':<40} {'iters':>6} {'matvecs':>7} {'termination':<22} {'stop':<9} "
         f"{'err(solution)':>13} {'err(lifted)':>11} {'ms':>9}  verdict")
    for op, o in zip(ops, passes[0].outcomes):
        echo(f"{name + ':' + op.label:<40} {o.iterations if o.iterations is not None else '-':>6} "
             f"{o.matvecs if o.matvecs is not None else '-':>7} {o.termination or '-':<22} "
             f"{o.stop_rule or '-':<9} {_fmt_err(o.err_solution):>13} {_fmt_err(o.err_lifted):>11} "
             f"{1e3 * o.seconds:>9.1f}  {o.failure or 'ok'}")

    metrics, notes, attempted, failed = end_to_end(passes, setup_s)
    echo(f"passes: {len(passes)} untraced x {len(ops)} ops"
         + (f", {len(traced)} traced" if trace else ""))
    for key, val in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        echo(f"{key} = {val['value']:.6g} {val['unit']}{note}")
    if trace:
        metrics = per_layer(ops, passes, traced, tracer, setup_parts)
        for key, val in metrics.items():
            echo(f"{key} = {val['value']:.6g} {val['unit']}")
        echo(f"trace: worst gap between summed self times and solve time "
             f"{max(p.trace_gap for p in traced):.2e} of the solve")
    return {
        "correct": bool(repeat),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rows": [
            dict(op=op.label, failure=o.failure, **vars(o))
            for op, o in zip(ops, passes[0].outcomes)
        ],
    }


def run_all(args):
    """Every workload, end to end and traced, each in its own process."""
    OUT.mkdir(parents=True, exist_ok=True)
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr)
                raise SystemExit(f"error: {name} --trace {trace} exited with {proc.returncode}")
            results[f"{name}/trace{trace}"] = json.loads(lines[-1])
            print(f"== {name} --trace {trace}")
            print("\n".join(lines[:-1]))
    path = OUT / f"all-seed{args.seed}.json"
    path.write_text(json.dumps(results, indent=1))
    print(f"per-workload results, per-layer metrics included, written to {path}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{k}/{m}": v for k, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rk = import_package()
    if args.workload == "all":
        run_all(args)
        return
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env))
    result = run_workload(rk, args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"environment": env, **result}, indent=1))
    print(f"per-op rows written to {path}")
    del result["rows"]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
