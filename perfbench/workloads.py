"""The benchmark's workloads: systems, reference answers and solve ops.

Each workload function returns the ops of one pass and the time it spent in the
problem generators and in the reference solves.  The problem set of a
workload is fixed; the run's seed only orders the ops inside each pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

LONG_METHODS = ("gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2")
SYMMETRIC_METHODS = ("minres", "minares")

# Copies of the suite tolerances in tests/conftest.py, so the benchmark
# solves the suite exactly as the acceptance tests do.
INCONSISTENT_TOLS = {
    "gmres": 1e-9,
    "rrgmres": 1e-10,
    "dgmres": 1e-10,
    "rsmar1": 1e-10,
    "rsmar2": 1e-10,
    "minres": 1e-8,
    "minares": 1e-10,
}
CONSISTENT_TOL = 1e-12

GRID_M, GRID_D, GRID_MAXIT = 50, 10.0, 400
CLI_M, CLI_D = 150, 0.0
CLI_TOLS = {"consistent": 1e-10, "inconsistent": 1e-8}

WORKLOADS = ("grid-explicit", "grid-estimate", "suite-dense", "cli-file")
# Speed-meter kernels (see speed.py) whose work is most like the solves of
# each workload.  Set-up is metered by all kernels.
METER = {
    "grid-explicit": ("basis",),
    "grid-estimate": ("basis",),
    "suite-dense": ("small",),
    "cli-file": ("small", "basis"),
}


@dataclass
class Op:
    """One solve: a library call ``SOLVERS[method](A, b, **options)``, or,
    when ``argv`` is set, one in-process ``rskrylov`` command line whose
    answer is read back from ``out``."""

    system: str
    method: str
    rhs_kind: str
    mode: str
    xstar: np.ndarray
    A: object = None
    b: np.ndarray | None = None
    options: dict = field(default_factory=dict)
    argv: list | None = None
    out: Path | None = None

    @property
    def label(self):
        return f"{self.system}/{self.method}/{self.rhs_kind}/{self.mode}"


class _Clock:
    """Splits set-up time into generator time and reference time."""

    def __init__(self, clock):
        self.clock = clock
        self.make_s = 0.0
        self.reference_s = 0.0

    def make(self, fn, *args, **kwargs):
        t0 = self.clock()
        out = fn(*args, **kwargs)
        self.make_s += self.clock() - t0
        return out

    def reference(self, fn, *args, **kwargs):
        t0 = self.clock()
        out = fn(*args, **kwargs)
        self.reference_s += self.clock() - t0
        return out


def _grid(rk, clock, mode, m=GRID_M, maxit=GRID_MAXIT):
    spec = rk.BvpSpec(m=m, d=GRID_D)
    A = clock.make(rk.make_bvp_matrix, spec)
    rhs = (
        ("consistent", clock.make(rk.make_bvp_rhs, spec, "consistent_random", 0, A), 1e-12),
        ("inconsistent", clock.make(rk.make_bvp_rhs, spec, "inconsistent_xy"), 1e-8),
    )
    ops = []
    for kind, b, tol in rhs:
        xstar = clock.reference(reference.grid_pinv_solve, m, GRID_D, b)
        options = dict(tol=tol, maxit=maxit, record_explicit=mode == "explicit")
        for method in LONG_METHODS:
            ops.append(Op(f"grid-m{m}", method, kind, mode, xstar, A, b, options))
    return ops


def _suite_instance(rk, seed):
    """The acceptance-suite system of ``tests/conftest.make_suite_instance``."""
    rng = np.random.default_rng(seed)
    symmetric = seed % 3 == 2
    if symmetric:
        n = int(rng.integers(16, 21))
        rank = max(2, int(round(0.75 * n)))
        cond = 10 ** rng.uniform(1.0, 1.48)
        A = rk.make_random_symmetric_singular(
            rk.RandomSpec(n=n, rank=rank, cond=cond, seed=seed + 37)
        )
        Apinv = np.linalg.pinv(A, rcond=1e-9)
    else:
        n = int(rng.integers(20, 61))
        rank = max(2, int(round(0.75 * n)))
        cond = 10 ** rng.uniform(1.5, 3.0)
        A, Apinv = rk.make_random_range_symmetric(
            rk.RandomSpec(n=n, rank=rank, cond=cond, seed=seed)
        )
    rng2 = np.random.default_rng(seed + 10**6)
    b_cons = A @ rng2.standard_normal(n)
    nullvec = rng2.standard_normal(n)
    nullvec -= Apinv @ (A @ nullvec)
    nullvec /= np.linalg.norm(nullvec)
    b_inc = b_cons + 0.5 * np.linalg.norm(b_cons) * nullvec
    return A, Apinv, b_cons, b_inc, symmetric


def _criterion07_instance(rk, seed):
    """The ill-conditioned inconsistent system of acceptance criterion 07."""
    n = 40
    A, Apinv = rk.make_random_range_symmetric(
        rk.RandomSpec(n=n, rank=30, cond=1e4, seed=seed + 900)
    )
    rng = np.random.default_rng(seed + 11)
    b_cons = A @ rng.standard_normal(n)
    nullv = rng.standard_normal(n)
    nullv -= Apinv @ (A @ nullv)
    nullv /= np.linalg.norm(nullv)
    return A, Apinv, b_cons + 0.5 * np.linalg.norm(b_cons) * nullv


def _suite(rk, clock, seeds=range(50), c07_seeds=range(10)):
    ops = []
    for seed in seeds:
        A, Apinv, b_cons, b_inc, symmetric = clock.make(_suite_instance, rk, seed)
        methods = LONG_METHODS + (SYMMETRIC_METHODS if symmetric else ())
        maxit = 4 * A.shape[0]
        for kind, b in (("inconsistent", b_inc), ("consistent", b_cons)):
            xstar = clock.reference(np.matmul, Apinv, b)
            for method in methods:
                tol = INCONSISTENT_TOLS[method] if kind == "inconsistent" else CONSISTENT_TOL
                options = dict(tol=tol, maxit=maxit)
                ops.append(Op(f"suite-s{seed}", method, kind, "explicit", xstar, A, b, options))
    # Criterion 07 runs at tol 1e-13, where the projected problem of the
    # residual-seeded methods degenerates at subspace closure.
    for seed in c07_seeds:
        A, Apinv, b = clock.make(_criterion07_instance, rk, seed)
        xstar = clock.reference(np.matmul, Apinv, b)
        options = dict(tol=1e-13, maxit=4 * A.shape[0])
        for method in LONG_METHODS:
            ops.append(Op(f"c07-s{seed}", method, "inconsistent", "explicit", xstar, A, b, options))
    return ops


def _cli(rk, clock, workdir, m=CLI_M):
    workdir.mkdir(parents=True, exist_ok=True)
    spec = rk.BvpSpec(m=m, d=CLI_D)
    A = clock.make(rk.make_bvp_matrix, spec)
    matrix = workdir / f"grid{m}.mtx"
    clock.make(rk.write_matrix_market, matrix, A, f"periodic Laplacian, m={m}")
    rhs = (
        ("consistent", clock.make(rk.make_bvp_rhs, spec, "consistent_random", 0, A)),
        ("inconsistent", clock.make(rk.make_bvp_rhs, spec, "inconsistent_xy")),
    )
    ops = []
    for kind, b in rhs:
        rhs_path = workdir / f"rhs-{kind}.txt"
        clock.make(rk.write_vector, rhs_path, b)
        xstar = clock.reference(reference.grid_pinv_solve, m, CLI_D, b)
        for method in SYMMETRIC_METHODS:
            out = workdir / f"x-{method}-{kind}.txt"
            argv = [
                "solve", "--method", method, "--matrix", str(matrix),
                "--rhs", str(rhs_path), "--tol", repr(CLI_TOLS[kind]),
                "--out", str(out), "--history", str(workdir / f"h-{method}-{kind}.csv"),
                "--lifted",
            ]
            ops.append(Op(f"cli-m{m}", method, kind, "cli", xstar, argv=argv, out=out))
    return ops


def build(rk, name, workdir, small=False, clock=time.perf_counter):
    """Ops of one pass of workload ``name``, with the set-up time split.

    ``small`` builds the same recipe on tiny inputs for the smoke test.
    Returns ``(ops, make_s, reference_s)``, timed with ``clock``.
    """
    clock = _Clock(clock)
    if name in ("grid-explicit", "grid-estimate"):
        mode = name.split("-")[1]
        ops = _grid(rk, clock, mode, **(dict(m=8, maxit=80) if small else {}))
    elif name == "suite-dense":
        ops = _suite(rk, clock, **(dict(seeds=range(3), c07_seeds=range(1)) if small else {}))
    elif name == "cli-file":
        ops = _cli(rk, clock, workdir / name, **(dict(m=8) if small else {}))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return ops, clock.make_s, clock.reference_s
