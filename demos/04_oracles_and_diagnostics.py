"""Dense oracles: the brute-force reference layer.

Everything the solvers claim can be cross-checked on small dense matrices:
range-symmetry, the matrix index, thresholded condition numbers, maximal
Krylov dimensions, and minimum-norm least squares solutions.  This script
walks through the verdicts on a few characteristic matrices and shows the
Krylov dimension shrink by one when seeding with A r0 on an inconsistent
system.
"""

import numpy as np

import rskrylov as rk

print("matrix                         range-sym  index  kappa")
cases = {
    "identity (4)": np.eye(4),
    "nilpotent [[0,1],[0,0]]": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "grid matrix (m=10)": rk.make_bvp_matrix(rk.BvpSpec(m=10)).toarray(),
    "random range-symmetric": rk.make_random_range_symmetric(
        rk.RandomSpec(n=12, rank=8, cond=50.0, seed=0)
    )[0],
    "random skew (n=11)": rk.make_random_skew_singular(11, seed=1),
}
for name, M in cases.items():
    res = rk.analyze(M)
    print(f"{name:30s} {str(res.range_symmetric):>9s}  {res.index:5d}  {res.kappa:9.2e}")

print("\nKrylov dimensions and the seed choice:")
A, Apinv = rk.make_random_range_symmetric(rk.RandomSpec(n=14, rank=9, cond=30.0, seed=2))
rng = np.random.default_rng(2)
b_cons = A @ rng.standard_normal(14)
nullvec = rng.standard_normal(14)
nullvec -= Apinv @ (A @ nullvec)
b_inc = b_cons + nullvec
ell_cons = rk.krylov_max_dim(A, b_cons)
ell_inc = rk.krylov_max_dim(A, b_inc)
m_inc = rk.krylov_max_dim(A, A @ b_inc)
print(f"  consistent b:   dim span{{b, Ab, ...}} = {ell_cons}")
print(f"  inconsistent b: dim span{{b, Ab, ...}} = {ell_inc}")
print(f"  seed A b:       dim span{{Ab, A^2 b, ...}} = {m_inc}  (= {ell_inc} - 1)")

print("\nThe solver detects the same closure step:")
state = rk.arnoldi_init(A, b_inc)
while rk.arnoldi_step(state, A) == "advanced":
    pass
print(f"  orthogonalization breakdown at step {state.breakdown_step}")

x = rk.pseudoinverse_solve(A, b_inc)
print(f"\nminimum-norm least squares solution via the dense oracle: |x| = {np.linalg.norm(x):.6f}")
print(f"rrgmres reproduces it to "
      f"{np.linalg.norm(rk.rrgmres_solve(A, b_inc, tol=1e-11).solution - x) / np.linalg.norm(x):.2e}")
