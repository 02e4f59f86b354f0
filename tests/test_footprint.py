"""Memory footprint of a solving process, measured in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rskrylov as rk

PACKAGE_ROOT = str(Path(rk.__file__).resolve().parents[1])


def run_python(script, cwd=None):
    """Run ``script`` in a fresh interpreter that imports this rskrylov;
    return its standard output."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": PACKAGE_ROOT, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# The peak resident set of this process alone: ru_maxrss would start at
# the peak of the process that spawned it, which Linux carries over exec.
PEAK_BYTES = """
import rskrylov as rk

def peak_bytes():
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return 1024 * int(line.split()[1])
"""

SOLVE_300_STEPS = PEAK_BYTES + """
spec = rk.BvpSpec(m=100, d=10.0)
A = rk.make_bvp_matrix(spec)
b = rk.make_bvp_rhs(spec, "consistent_random", 0, A)
solve = rk.SOLVERS[{method!r}]
solve(A, b, maxit=2, record_explicit={explicit})  # lazy set-up of the solve path
before = peak_bytes()
rep = solve(A, b, tol=1e-30, maxit=300, record_explicit={explicit})
print(rep.iterations, peak_bytes() - before, 8 * 301 * A.shape[0])
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize(
    "method, explicit, bound",
    [
        ("gmres", True, 1.12),
        ("gmres", False, 1.08),
        ("rsmar2", True, 1.19),
        ("rsmar1", True, 1.13),
        ("dgmres", True, 1.19),
    ],
    ids=["gmres-explicit", "gmres-estimate", "rsmar2-explicit", "rsmar1-explicit", "dgmres-explicit"],
)
def test_gmres_peak_memory_is_close_to_its_basis(method, explicit, bound):
    # A basis regrown by copies holds the old and the new array at once
    # (1.9 times the basis here); one reserved array is written in place.
    # H is kept once, by Arnoldi, and the projected factors R and W are
    # reserved once per cycle.  Second copies of H (for the estimates, the
    # two-level product or rsmar1's change of basis) and R and W doubled
    # by copies to 512 x 512 took the rise to 1.14-1.33 times the basis;
    # with one BLAS thread it reads 1.05 (gmres estimates) to 1.16.
    script = SOLVE_300_STEPS.format(method=method, explicit=explicit)
    iterations, rise, basis = map(int, run_python(script).split())
    assert iterations == 300
    assert rise <= bound * basis


READ_GRID = PEAK_BYTES + """
rk.read_matrix_market("small.mtx")  # lazy set-up of the read path
before = peak_bytes()
A = rk.read_matrix_market("grid.mtx")
print(peak_bytes() - before, A.indptr.nbytes + A.indices.nbytes + A.data.nbytes)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_read_peak_memory_is_close_to_its_matrix(tmp_path):
    # Parsed a block at a time into the arrays of the result, the 1.7 MB
    # file costs about twice the CSR matrix at its peak (the triplets and
    # the CSR arrays); parsed whole, it cost 6.5 times.
    A = rk.make_bvp_matrix(rk.BvpSpec(m=150, d=0.0))
    rk.write_matrix_market(tmp_path / "grid.mtx", A)
    rk.write_matrix_market(tmp_path / "small.mtx", A[:2, :2])
    rise, matrix = map(int, run_python(READ_GRID, cwd=tmp_path).split())
    assert rise <= 2.5 * matrix


READ_BAD_GRID = PEAK_BYTES + """
def error(path):
    try:
        rk.read_matrix_market(path)
    except rk.MatrixMarketError as exc:
        return str(exc)

error("small.mtx")  # lazy set-up of the read and error paths
before = peak_bytes()
message = error("grid.mtx")
print(peak_bytes() - before, message)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_error_in_the_last_line_costs_no_more_than_a_read(tmp_path):
    # The bad line is found in the block that failed, with the arrays of
    # the result still the only large allocation.  Read a second time,
    # whole and decoded, to find that line, the file cost about 7 times
    # the CSR matrix.
    A = rk.make_bvp_matrix(rk.BvpSpec(m=150, d=0.0))
    path = tmp_path / "grid.mtx"
    rk.write_matrix_market(path, A)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " x"
    path.write_text("".join(line + "\n" for line in lines))
    (tmp_path / "small.mtx").write_text(lines[0] + "\n2 2 1\n1 1 y\n")
    rise, message = run_python(READ_BAD_GRID, cwd=tmp_path).split(" ", 1)
    assert message.strip() == (
        f"grid.mtx:{len(lines)}: bad entry: could not convert string to float: 'x'"
    )
    assert int(rise) <= 2.5 * (A.indptr.nbytes + A.indices.nbytes + A.data.nbytes)


SOLVE_EVERYTHING = """
import sys
import numpy as np
import rskrylov as rk

A = rk.make_random_symmetric_singular(rk.RandomSpec(n=30, rank=20, seed=1))
b = A @ np.ones(30) + 0.1
for solve in rk.SOLVERS.values():
    for explicit in (True, False):
        solve(A, b, record_explicit=explicit)
rk.write_matrix_market("a.mtx", A)
rk.write_vector("b.txt", b)
for method in rk.SOLVERS:
    argv = ["solve", "--method", method, "--matrix", "a.mtx", "--rhs", "b.txt"]
    rk.cli_main(argv + ["--out", "x.txt", "--history", "h.csv", "--lifted"])
print(sorted(name for name in sys.modules if name.startswith("scipy.linalg")))
"""


def test_solving_never_imports_scipy_linalg(tmp_path):
    # scipy.linalg loads a second BLAS and LAPACK into the process (about
    # 7.5 MiB resident); the solvers use numpy's LAPACK instead.
    assert run_python(SOLVE_EVERYTHING, cwd=tmp_path).splitlines()[-1] == "[]"
