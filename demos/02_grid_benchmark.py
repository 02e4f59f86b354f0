"""Convergence histories on the periodic convection-diffusion system.

Rebuilds the singular grid benchmark (block-circulant matrix with the
all-ones null space) at a desk-friendly size, runs the four long-recurrence
methods on a consistent and an inconsistent right-hand side, and writes
their explicit per-iteration histories to CSV, straight from the solve
reports, for plotting.  The figures
plot true norms, so the solves ask for explicit checks
(``record_explicit=True``); by default these methods monitor with
matvec-free estimates, whose histories leave ``|Ar|`` unrecorded.  The
qualitative contrast to look for: on the inconsistent system the
A-residual of the A-residual minimizers falls monotonically, while the
residual-seeded minimizer's A-residual is erratic.
"""

import numpy as np

import rskrylov as rk
from rskrylov.history import write_history_csv

spec = rk.BvpSpec(m=30, d=10.0)
A = rk.make_bvp_matrix(spec)
n = spec.n
print(f"grid matrix: order {n}, nnz {A.nnz}, null space = span of ones\n")

b_cons = rk.make_bvp_rhs(spec, "consistent_random", seed=0, matrix=A)
b_inc = rk.make_bvp_rhs(spec, "inconsistent_xy")

for label, b, tol in (("consistent", b_cons, 1e-12), ("inconsistent", b_inc, 1e-8)):
    print(f"--- {label} right-hand side ---")
    reports = []
    for name in ("gmres", "rrgmres", "rsmar2", "dgmres"):
        rep = rk.SOLVERS[name](A, b, tol=tol, maxit=min(300, n), record_explicit=True)
        reports.append(rep)
        h = rep.aresidual_history
        increases = int(np.sum(h[1:] > h[:-1]))
        print(f"  {name:8s} its={rep.iterations:4d} "
              f"|r|/|r0|={rep.residual_history[-1] / rep.residual_history[0]:.2e} "
              f"|Ar|/|Ar0|={h[-1] / h[0]:.2e} "
              f"A-residual increases: {increases}")
    out = f"grid_{label}_histories.csv"
    write_history_csv(reports, out)
    print(f"  histories written to {out}\n")

print("Plot res_norm (consistent) or ares_norm (inconsistent) against iter\n"
      "from the CSVs to reproduce the benchmark figures.")
