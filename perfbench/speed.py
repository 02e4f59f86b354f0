"""Speed meter: fixed kernels that tell how fast the machine runs right now.

A shared host changes speed by up to 1.5x within seconds, as the work of
its other tenants comes and goes, and the change is invisible to CPU time.
Inside a ``SpeedMeter`` context a timer reads the meter every
``INTERVAL_S``, also in the middle of a solve, and every time the harness
reports is scaled by ``REFERENCE_S / kernel_s``, with ``kernel_s``
interpolated between the readings around each moment.  The scaled times
read as on a machine where the kernels take ``REFERENCE_S``: a change to
rskrylov moves them, a change in the host's speed does not.

Time spent in readings is taken out of ``clock()``, the clock every timed
interval of the harness and of the tracer is measured with.

The kernels are benchmark code only and never call rskrylov.  Each mimics
one kind of work the solvers do, because the host's slowdowns hit kinds of
work unequally, and a time is scaled by the sum of the kernels most like
its work:

- ``small``: numpy calls on 50-vectors, where call overhead dominates (the
  dense suite's solves);
- ``basis``: the two BLAS-2 products of Gram-Schmidt passes against a
  2500 x 200 basis, which lives in the last-level cache (Arnoldi on the
  grid).
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

KERNELS = ("small", "basis")
# Kernel times on the reference machine: the scaled times are quoted at them.
REFERENCE_S = {"small": 0.0011, "basis": 0.0014}
INTERVAL_S = 0.1  # timer period of the readings
REPEATS = 3  # kernel runs per reading; the fastest one counts


class SpeedMeter:
    def __init__(self):
        rng = np.random.default_rng(20240121)
        self._M = rng.standard_normal((50, 50))
        self._x = rng.standard_normal(50)
        self._V = rng.standard_normal((2500, 200))
        self._w = rng.standard_normal(2500)
        self.spent = 0.0  # seconds spent in readings so far
        self._at, self._kernel_s = [], []  # readings: clock() time, {kernel: seconds}
        self._busy = False
        self._handler = None
        for _ in range(20):  # warm up before the first reading counts
            self._run_kernels()

    def _small(self):
        v = self._x
        for _ in range(300):
            v = self._M @ v
            v = v / np.linalg.norm(v)

    def _basis(self):
        V = self._V
        for _ in range(4):
            h = V.T @ self._w
            V @ h

    def _run_kernels(self):
        clock = time.perf_counter
        times = {}
        for name in KERNELS:
            kernel = getattr(self, f"_{name}")
            best = float("inf")
            for _ in range(REPEATS):
                t0 = clock()
                kernel()
                best = min(best, clock() - t0)
            times[name] = best
        return times

    def clock(self):
        """Seconds of work: ``perf_counter`` minus the time spent in readings."""
        return time.perf_counter() - self.spent

    def read(self, *_signal_args):
        """Take one reading: each kernel's time now, the fastest of
        ``REPEATS`` runs.  Also the timer's signal handler."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self._at.append(t0 - self.spent)
        self._kernel_s.append(self._run_kernels())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self.read)
        self.read()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self.read()
        return False

    def scaled(self, start, end, kernels=KERNELS):
        """Time at reference speed of the work between the ``clock()``
        times ``start`` and ``end``, which readings must enclose, metered
        by the sum of ``kernels``."""
        at = self._at
        if not at or at[0] > start or at[-1] < end:
            raise ValueError("no meter reading on one side of the interval")
        ks = self._kernel_s
        reference_s = sum(REFERENCE_S[k] for k in kernels)
        i = bisect.bisect_right(at, start)
        total, t = 0.0, start
        while t < end:
            stop = min(end, at[i])
            kernel_s = 0.5 * sum(ks[i - 1][k] + ks[i][k] for k in kernels)
            total += (stop - t) * reference_s / kernel_s
            t, i = stop, i + 1
        return total
