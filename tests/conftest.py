"""Shared instance factories and a report comparison for the test suites.

Suite instances are singular range-symmetric systems with a closed-form
pseudoinverse.  Nonsymmetric members come straight from the random
generator; symmetric members are kept small with well-separated signed
eigenvalues so that the short-recurrence solvers can realize their
theoretical properties in floating point.
"""

import time

import numpy as np
import pytest

import rskrylov as rk


def assert_same_report(got, want):
    """Every field of two solve reports equal, arrays to the byte."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and other.tobytes() == value.tobytes(), name
        else:
            assert other == value, name


def make_suite_instance(seed):
    """One acceptance-suite system: returns a dict with the matrix, its
    closed-form pseudoinverse, a consistent RHS ``b_cons = A w``, an
    inconsistent RHS with a null-space component of relative size 0.5,
    and metadata."""
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
    w = rng2.standard_normal(n)
    b_cons = A @ w
    nullvec = rng2.standard_normal(n)
    nullvec -= Apinv @ (A @ nullvec)
    nullvec /= np.linalg.norm(nullvec)
    b_inc = b_cons + 0.5 * np.linalg.norm(b_cons) * nullvec
    return {
        "seed": seed,
        "A": A,
        "pinv": Apinv,
        "b_cons": b_cons,
        "b_inc": b_inc,
        "symmetric": symmetric,
        "n": n,
        "rank": rank,
        "cond": cond,
    }


def make_small_symmetric_instance(seed):
    """Low-dimensional symmetric singular system (subspace dimension about
    7 to 13) for the final-iterate equality checks."""
    rng = np.random.default_rng(seed + 4000)
    n = int(rng.integers(20, 61))
    rank = int(rng.integers(6, 13))
    cond = 10 ** rng.uniform(0.5, 1.5)
    A = rk.make_random_symmetric_singular(
        rk.RandomSpec(n=n, rank=rank, cond=cond, seed=seed + 84)
    )
    Apinv = np.linalg.pinv(A, rcond=1e-9)
    rng2 = np.random.default_rng(seed + 3 * 10**6)
    b_cons = A @ rng2.standard_normal(n)
    nullvec = rng2.standard_normal(n)
    nullvec -= Apinv @ (A @ nullvec)
    nullvec /= np.linalg.norm(nullvec)
    b_inc = b_cons + 0.5 * np.linalg.norm(b_cons) * nullvec
    return {"A": A, "pinv": Apinv, "b_cons": b_cons, "b_inc": b_inc, "n": n}


def make_criterion07_instance(seed):
    """Acceptance criterion 07 system ``seed`` (0 to 9): a nonsymmetric
    range-symmetric matrix from ``RandomSpec(n=40, rank=30, cond=1e4,
    seed=900 + seed)`` with an inconsistent RHS whose null-space part is
    half the size of its range part.  Returns (A, pinv, b)."""
    n = 40
    A, Ap = rk.make_random_range_symmetric(
        rk.RandomSpec(n=n, rank=30, cond=1e4, seed=seed + 900)
    )
    rng = np.random.default_rng(seed + 11)
    b_cons = A @ rng.standard_normal(n)
    nullv = rng.standard_normal(n)
    nullv -= Ap @ (A @ nullv)
    nullv /= np.linalg.norm(nullv)
    return A, Ap, b_cons + 0.5 * np.linalg.norm(b_cons) * nullv


# Per-method tolerances for inconsistent suite runs, calibrated to each
# method's attainable explicit accuracy.
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


def _suite_runs(instances, **options):
    """Every applicable method on each suite system's inconsistent and
    consistent right-hand side: (runs_inc, runs_cons), dicts by method."""
    runs_inc = []
    runs_cons = []
    for inst in instances:
        methods = ["gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2"]
        if inst["symmetric"]:
            methods += ["minres", "minares"]
        maxit = 4 * inst["n"]
        runs_inc.append(
            {
                m: rk.SOLVERS[m](
                    inst["A"],
                    inst["b_inc"],
                    tol=INCONSISTENT_TOLS[m],
                    maxit=maxit,
                    **options,
                )
                for m in methods
            }
        )
        runs_cons.append(
            {
                m: rk.SOLVERS[m](
                    inst["A"],
                    inst["b_cons"],
                    tol=CONSISTENT_TOL,
                    maxit=maxit,
                    **options,
                )
                for m in methods
            }
        )
    return runs_inc, runs_cons


@pytest.fixture(scope="session")
def acceptance_suite():
    """50 seeded systems plus all solver runs on them, with default
    options, shared across the acceptance criteria.  Returns (instances,
    runs_inc, runs_cons, wall) where wall is the time spent generating
    and solving."""
    t0 = time.perf_counter()
    instances = [make_suite_instance(seed) for seed in range(50)]
    runs_inc, runs_cons = _suite_runs(instances)
    return instances, runs_inc, runs_cons, time.perf_counter() - t0


@pytest.fixture(scope="session")
def explicit_acceptance_suite(acceptance_suite):
    """The acceptance suite's solves with explicit checks, for the criteria
    on true-norm histories: (runs_inc, runs_cons)."""
    return _suite_runs(acceptance_suite[0], record_explicit=True)
