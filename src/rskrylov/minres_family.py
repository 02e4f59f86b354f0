"""Short-recurrence solvers for symmetric (possibly singular) systems.

``minres_solve`` is the classical minimum-residual iteration: Lanczos on
the initial residual plus an incremental QR of the tridiagonal matrix,
carrying two direction vectors so each iterate is updated in place.

``minares1_solve`` minimizes the A-residual norm instead, running the
Lanczos process on the seed ``A r0`` with a reflection-based QR of the
tridiagonal factor.  Its scalar recurrences follow the reflection
convention ``[[c, s], [s, -c]]`` throughout, and its per-step scalar
``rho_k = |s_1 s_2 ... s_k| * ||A r_0||`` equals the A-residual norm of
the iterate.

Both are subproblems of the restart-cycle driver in
:mod:`rskrylov.gmres_family`, which monitors, stops and lifts them as it
does the five long-recurrence methods.  Each supplies only its Lanczos
start and one step of its recurrence; storage stays at a fixed number of
length-n vectors, no basis is retained, and ``opts.restart`` is ignored.
The rotated tridiagonal factor turning numerically singular, or the
Lanczos process closing, is a subspace closure.

On singular symmetric systems with an inconsistent right-hand side both
methods stop at the same terminal least squares iterate, and the rank-one
lift stored in ``lifted_solution`` recovers the pseudoinverse solution.
"""

from __future__ import annotations

import numpy as np

# The driver calls explicit_norms through gmres_family; the name stays
# bound here because perfbench/tracing.py wraps it in this module too.
from ._common import explicit_norms  # noqa: F401
from ._common import norm
from .arnoldi import ZeroSeedError
from .gmres_family import _solve, _Subproblem
from .hessenberg_qr import SingularTriangularError

__all__ = ["minres_solve", "minares1_solve"]


class _ShortRecurrence(_Subproblem):
    """A Lanczos recurrence that updates its iterate ``x`` once per step; a
    singular rotated factor sets ``singular`` and leaves ``x`` as it was."""

    restarts = False

    def iterate(self, k):
        """The iterate of the last step taken; the monitor asks for no
        other."""
        return self.x

    def closure(self, k):
        if self.singular:
            raise SingularTriangularError("rotated tridiagonal factor is singular")
        return self.x


class _Minres(_ShortRecurrence):
    """Residual norm over the space of ``r0``: ``|phi_bar|`` is the residual
    norm.  Past the A-residual floor it polishes eight more steps."""

    polish = 8

    def seed(self):
        n = self.A.n
        self.v_prev, self.v = np.zeros(n), self.r0 / self.beta1
        self.beta_k = 0.0
        self.c1, self.s1, self.c2, self.s2 = 1.0, 0.0, 1.0, 0.0
        self.phi_bar = self.beta1
        self.w1, self.w2 = np.zeros(n), np.zeros(n)
        self.x = self.x_in
        self.tscale = 0.0

    def step(self, k):
        v = self.v
        w = self.A.apply(v)
        if k == 1:
            self.anchor(self.beta1 * norm(w))
        alpha = float(v @ w)
        w -= alpha * v + self.beta_k * self.v_prev
        beta_next = norm(w)

        # Rotate column k of the tridiagonal factor.
        eps = self.s2 * self.beta_k
        mid = self.c2 * self.beta_k
        delta = self.c1 * mid + self.s1 * alpha
        gamma_t = -self.s1 * mid + self.c1 * alpha
        gamma = float(np.hypot(gamma_t, beta_next))
        self.tscale = max(self.tscale, abs(alpha) + abs(self.beta_k) + beta_next)
        scale = max(1.0, self.tscale)
        self.singular = gamma <= 1e-14 * scale
        self.closed = self.singular or beta_next <= self.opts.breakdown_tol * scale
        if self.singular:
            return abs(self.phi_bar)
        c, s = gamma_t / gamma, beta_next / gamma
        phi = c * self.phi_bar
        self.phi_bar = -s * self.phi_bar
        w_dir = (v - delta * self.w1 - eps * self.w2) / gamma
        self.x = self.x + phi * w_dir
        if not self.closed:
            self.v_prev, self.v = v, w / beta_next
            self.beta_k = beta_next
            self.c2, self.s2, self.c1, self.s1 = self.c1, self.s1, c, s
            self.w2, self.w1 = self.w1, w_dir
        return abs(self.phi_bar)


class _Minares(_ShortRecurrence):
    """A-residual norm over the space of ``r0``, Lanczos on ``A r0``:
    ``rho = |t_tilde|`` is the A-residual norm.  The work vectors ``w``
    are ``[r0, Vhat_{k-1}] Rtilde^{-1}``, a column per step."""

    hat = True
    minimized = 1

    def seed(self):
        A = self.A
        ar0 = A.apply(self.r0)
        self.hist.mv[0] = A.count  # the initial row counts the seed matvec
        beta_hat = norm(ar0)
        if beta_hat <= self.opts.breakdown_tol:
            raise ZeroSeedError("A r0 is numerically zero")
        self.anchor(beta_hat)
        n = A.n
        self.vhat_prev, self.vhat = np.zeros(n), ar0 / beta_hat
        self.w_prev, self.w = np.zeros(n), self.r0 / beta_hat
        self.p1, self.p2 = np.zeros(n), np.zeros(n)
        self.t_tilde = beta_hat
        self.c, self.s = -1.0, 0.0
        self.lam_tilde = self.eta = 0.0
        self.beta_k = beta_hat
        self.x = self.x_in
        self.tscale = 0.0

    def step(self, k):
        vhat = self.vhat
        av = self.A.apply(vhat)
        nav = norm(av)
        v_next = av - self.beta_k * self.vhat_prev
        alpha = float(vhat @ v_next)
        v_next -= alpha * vhat
        beta_next = norm(v_next)
        self.tscale = max(self.tscale, abs(alpha) + beta_next, nav)

        c1, s1 = self.c, self.s
        lam = c1 * self.lam_tilde + s1 * alpha
        delta_tilde = s1 * self.lam_tilde - c1 * alpha
        delta = float(np.hypot(delta_tilde, beta_next))
        self.singular = delta <= 1e-14 * max(1.0, self.tscale)
        self.closed = self.singular or (
            beta_next <= self.opts.breakdown_tol * max(1.0, nav)
        )
        if self.singular:
            return abs(self.t_tilde)
        c, s = delta_tilde / delta, beta_next / delta
        t_hat = c * self.t_tilde
        self.t_tilde = s * self.t_tilde
        p = (self.w - self.eta * self.p2 - lam * self.p1) / delta
        self.x = self.x + t_hat * p
        if not self.closed:
            # The w update divides by beta_next, which vanishes at closure.
            w_next = (vhat - self.beta_k * self.w_prev - alpha * self.w) / beta_next
            self.vhat_prev, self.vhat = vhat, v_next / beta_next
            self.w_prev, self.w = self.w, w_next
            self.p2, self.p1 = self.p1, p
            self.beta_k = beta_next
            self.c, self.s = c, s
            self.lam_tilde, self.eta = -c1 * beta_next, s1 * beta_next
        return abs(self.t_tilde)


def minres_solve(A, b, x0=None, opts=None, **options):
    """Classical minimum-residual iteration for symmetric systems.

    Symmetry of ``A`` is a documented contract, not checked at runtime.
    ``opts.restart`` is ignored (the recurrence is already short).
    """
    return _solve("minres", _Minres, A, b, x0, opts, options)


def minares1_solve(A, b, x0=None, opts=None, **options):
    """Minimum A-residual iteration for symmetric systems, short form.

    Runs the Lanczos process on the seed ``A r0`` and updates the iterate
    with a fixed set of work vectors.  ``opts.restart`` is ignored.
    """
    return _solve("minares", _Minares, A, b, x0, opts, options)
