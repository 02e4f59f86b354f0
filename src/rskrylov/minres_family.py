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
start and one step of its recurrence (minres also the matvec-free
A-residual estimate of MINRES-QLP) and holds its last two iterates;
storage stays at a fixed number of length-n vectors, no basis is
retained, and ``opts.restart`` is ignored.
The rotated tridiagonal factor turning numerically singular, or the
Lanczos process closing, is a subspace closure.

A step writes its vector algebra in place, in the order of the binary
operations it replaces, so every float is that of the plain formulas.
The operator's output, which the solver owns (see
:class:`rskrylov.operators.LinearOperator`), becomes the next Lanczos
vector.  One scratch vector reserved by ``seed`` and the vectors the
step retires take the other writes: minres's previous Lanczos vector,
and its oldest direction vector ``w2``, which the new direction vector
``w_dir`` replaces (``w_dir`` is written into the scratch vector, and
``w2`` becomes the next scratch vector); minares's oldest direction
vector ``p2``, which takes the new ``p``, and ``w_prev``, which takes
``w_next``.  A step allocates only the new iterate ``x``: the monitors
hold the one before, and estimate mode may hold a best iterate, so no
iterate is ever written.

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
    """A Lanczos recurrence that updates its iterate ``x`` once per step
    and holds the one before as ``x_prev``; a singular rotated factor sets
    ``singular`` and leaves ``x`` as it was.  Its :meth:`seed` reserves no
    basis, so it does not need the budget."""

    keeps_basis = False

    def iterate(self, k):
        """Iterate ``k`` of the last step ``steps`` taken, or the one
        before; the monitors ask for no other."""
        return self.x if k == self.steps else self.x_prev

    def closure(self, k):
        if self.singular:
            raise SingularTriangularError("rotated tridiagonal factor is singular")
        return self.x


class _Minres(_ShortRecurrence):
    """Residual norm over the space of ``r0``: ``|phi_bar|`` is the residual
    norm.  Past the A-residual floor it polishes eight more steps.  It
    checks explicitly by default: on consistent systems its estimate-mode
    stop can end far from the pseudoinverse solution."""

    polish = 8
    explicit_default = True

    def seed(self, budget=None):
        n = self.A.n
        self.v_prev, self.v = np.zeros(n), self.r0 / self.beta1
        self.beta_k = 0.0
        self.c1, self.s1, self.c2, self.s2 = 1.0, 0.0, 1.0, 0.0
        self.phi_bar = self.beta1
        self.w1, self.w2 = np.zeros(n), np.zeros(n)
        self.x = self.x_in
        self.tscale = 0.0
        self.scratch = np.empty(n)

    def step(self, k):
        self.x_prev, self.steps = self.x, k
        v, t = self.v, self.scratch
        w = self.A.apply(v)
        if k == 1:
            self.anchor(self.beta1 * norm(w))
        alpha = float(v @ w)
        # w -= alpha v + beta_k v_prev; v_prev is not needed after this
        np.multiply(v, alpha, out=t)
        t += np.multiply(self.v_prev, self.beta_k, out=self.v_prev)
        w -= t
        beta_next = norm(w)

        # Rotate column k of the tridiagonal factor.
        eps = self.s2 * self.beta_k
        mid = self.c2 * self.beta_k
        delta = self.c1 * mid + self.s1 * alpha
        gamma_t = -self.s1 * mid + self.c1 * alpha
        gamma = float(np.hypot(gamma_t, beta_next))
        # |A r| of the last iterate is |phi_bar| hypot(gamma_t, c1 beta_next)
        # (MINRES-QLP: Choi, Paige & Saunders, SISC 33(4), 2011)
        self.ares_parts = (self.phi_bar, gamma_t, self.c1 * beta_next)
        self.tscale = max(self.tscale, abs(alpha) + abs(self.beta_k) + beta_next)
        scale = max(1.0, self.tscale)
        self.singular = gamma <= 1e-14 * scale
        self.closed = self.singular or beta_next <= self.opts.breakdown_tol * scale
        if self.singular:
            return abs(self.phi_bar)
        c, s = gamma_t / gamma, beta_next / gamma
        phi = c * self.phi_bar
        self.phi_bar = -s * self.phi_bar
        # w_dir = (v - delta w1 - eps w2) / gamma and x = x + phi w_dir;
        # w_dir is written into the scratch vector, the retired w2 is next
        w_dir = np.multiply(self.w1, delta, out=t)
        np.subtract(v, w_dir, out=w_dir)
        w_dir -= np.multiply(self.w2, eps, out=self.w2)
        w_dir /= gamma
        x = w_dir * phi
        x += self.x
        self.x = x
        if not self.closed:
            w /= beta_next
            self.v_prev, self.v = v, w
            self.beta_k = beta_next
            self.c2, self.s2, self.c1, self.s1 = self.c1, self.s1, c, s
            self.w2, self.w1, self.scratch = self.w1, w_dir, self.w2
        return abs(self.phi_bar)

    def ares_estimate(self, k):
        phi_bar, gamma_t, c_beta = self.ares_parts
        return abs(phi_bar) * float(np.hypot(gamma_t, c_beta))


class _Minares(_ShortRecurrence):
    """A-residual norm over the space of ``r0``, Lanczos on ``A r0``:
    ``rho = |t_tilde|`` is the A-residual norm.  The work vectors ``w``
    are ``[r0, Vhat_{k-1}] Rtilde^{-1}``, a column per step."""

    hat = True
    minimized = 1

    def seed(self, budget=None):
        A = self.A
        ar0 = A.apply(self.r0)
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
        self.scratch = np.empty(n)

    def step(self, k):
        self.x_prev, self.steps = self.x, k
        vhat, t = self.vhat, self.scratch
        # v_next = A vhat - beta_k vhat_prev - alpha vhat, in A's output
        v_next = self.A.apply(vhat)
        nav = norm(v_next)
        v_next -= np.multiply(self.vhat_prev, self.beta_k, out=t)
        alpha = float(vhat @ v_next)
        v_next -= np.multiply(vhat, alpha, out=t)
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
        # p = (w - eta p2 - lam p1) / delta, in p2, which it retires, and
        # x = x + t_hat p
        p = np.multiply(self.p2, self.eta, out=self.p2)
        np.subtract(self.w, p, out=p)
        p -= np.multiply(self.p1, lam, out=t)
        p /= delta
        x = p * t_hat
        x += self.x
        self.x = x
        if not self.closed:
            # The w update divides by beta_next, which vanishes at closure:
            # w_next = (vhat - beta_k w_prev - alpha w) / beta_next, in w_prev
            w_next = np.multiply(self.w_prev, self.beta_k, out=self.w_prev)
            np.subtract(vhat, w_next, out=w_next)
            w_next -= np.multiply(self.w, alpha, out=t)
            w_next /= beta_next
            v_next /= beta_next
            self.vhat_prev, self.vhat = vhat, v_next
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
