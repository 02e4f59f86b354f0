"""Reference pseudoinverse solutions the benchmark checks answers against.

The periodic grid matrix of ``rskrylov.make_bvp_matrix`` is
``I (x) T + B (x) I`` with circulant ``T`` and ``B``, so the 2-D DFT
diagonalizes it.  Its only zero eigenvalue is the (0, 0) mode (the
all-ones null vector), so ``A^+ b`` is the inverse transform of the
transformed ``b`` divided mode by mode, with the (0, 0) mode set to zero.
"""

from __future__ import annotations

import numpy as np


def grid_eigenvalues(m, d):
    """Eigenvalues of the grid matrix on the 2-D DFT grid, shape (m, m);
    axis 0 is the block index, axis 1 the index inside a block."""
    h = 1.0 / m
    ap = 1.0 + d * h / 2.0
    am = 1.0 - d * h / 2.0
    t = np.zeros(m)  # first column of the circulant diagonal block
    t[0], t[1], t[-1] = -4.0, am, ap
    c = np.zeros(m)  # first column of the circulant block pattern
    c[1], c[-1] = 1.0, 1.0
    return np.fft.fft(c)[:, None] + np.fft.fft(t)[None, :]


def grid_pinv_solve(m, d, b):
    """``A^+ b`` for the grid matrix ``make_bvp_matrix(BvpSpec(m, d))``."""
    lam = grid_eigenvalues(m, d)
    bhat = np.fft.fft2(np.asarray(b, dtype=np.float64).reshape(m, m))
    lam[0, 0] = 1.0
    xhat = bhat / lam
    xhat[0, 0] = 0.0
    return np.fft.ifft2(xhat).real.reshape(-1)


def rel_error(x, xstar):
    """``|x - x*| / |x*|`` (absolute when ``x*`` is zero); inf for non-finite x."""
    if x is None:
        return None
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return float("inf")
    scale = float(np.linalg.norm(xstar))
    err = float(np.linalg.norm(x - xstar))
    return err / scale if scale > 0.0 else err


def self_check(rk, tol=1e-10):
    """Compare the FFT oracle with the package's dense SVD oracle on small
    grids (both convection constants the workloads use) and raise if they
    disagree.  Returns the worst relative difference."""
    worst = 0.0
    rng = np.random.default_rng(12345)
    for m, d in ((12, 10.0), (12, 0.0), (17, 10.0)):
        A = rk.make_bvp_matrix(rk.BvpSpec(m=m, d=d))
        b = rng.standard_normal(m * m)
        fast = grid_pinv_solve(m, d, b)
        dense = rk.pseudoinverse_solve(A.toarray(), b)
        worst = max(worst, rel_error(fast, dense))
        # A x* must be the projection of b onto range(A): b minus its mean.
        resid = A @ fast - (b - b.mean())
        worst = max(worst, float(np.linalg.norm(resid) / np.linalg.norm(b)))
    if not worst <= tol:
        raise AssertionError(f"FFT oracle disagrees with the SVD oracle: {worst:.2e}")
    return worst
