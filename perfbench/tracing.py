"""Per-layer tracing from outside the package.

The traced run replaces the names the solver drivers call through (module
globals bound at import, class methods, and the CLI's I/O helpers) with
timing wrappers, and puts a timing ``LinearOperator`` around the matrix.
Nothing inside ``src/`` changes; every replaced name is restored when the
``Tracer`` context exits.

Spans nest on a stack: a span's duration is charged to its parent, so a
layer's self time is its duration minus the time of the spans it caused,
and the self times of all layers add up to the root span (the solve).
"""

from __future__ import annotations

import os
import time

# Self-time layer of each driver module, by method.
DRIVER_LAYER = {
    "gmres": "gmres_family",
    "rrgmres": "gmres_family",
    "dgmres": "gmres_family",
    "rsmar1": "rsmar",
    "rsmar2": "rsmar",
    "minres": "minres_family",
    "minares": "minres_family",
}


def arnoldi_flops(state, A):
    """Computed flops of one modified Gram-Schmidt step: 4 n (k + 1) per pass."""
    passes = 2 if state.reorthogonalize else 1
    return 4.0 * state.n * (state.k + 1) * passes


def file_bytes(path, *args, **kwargs):
    return float(os.path.getsize(path))


# Computed work each layer declares per call.
WORK = {"arnoldi.step": arnoldi_flops, "matrixmarket.read": file_bytes}


def matvec_bytes(A):
    """Computed bytes one product ``A @ v`` moves: the matrix once, ``v``
    read and the result written."""
    n = A.shape[0]
    if hasattr(A, "indptr"):
        matrix = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    else:
        matrix = A.size * A.itemsize
    return float(matrix + 16 * n)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    ``stats[name]`` is ``[calls, total_s, self_s, work]`` where ``work`` is
    the computed flops or bytes the layer declares per call.
    """

    def __init__(self, rk, clock=time.perf_counter):
        self.rk = rk
        self.clock = clock
        self.stats = {}
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, work=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            if work is not None:
                stats[3] += work(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, name, value):
        if isinstance(owner, dict):
            self._saved.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def targets(self):
        """``(owner, attribute, layer)`` for every name the tracer replaces."""
        rk = self.rk
        from rskrylov import _common, cli, gmres_family, minres_family, rsmar

        out = []
        for mod in (gmres_family, rsmar):
            out.append((mod, "arnoldi_step", "arnoldi.step"))
        for mod in (gmres_family, rsmar, minres_family):
            out.append((mod, "explicit_norms", "common.explicit_norms"))
        out.append((_common, "lift", "lifting.lift"))
        for cls in (rk.HessenbergQr, rk.BandedQr):
            for meth in ("append_column", "solve", "apply_rinv", "solve_rhs"):
                if meth in cls.__dict__:
                    kind = "append" if meth == "append_column" else "solve"
                    out.append((cls, meth, f"hessenberg_qr.{kind}"))
        out.append((cli, "read_matrix_market", "matrixmarket.read"))
        out.append((cli, "read_vector", "matrixmarket.vector_io"))
        out.append((cli, "write_vector", "matrixmarket.vector_io"))
        out.append((cli, "write_history_csv", "history.write_csv"))
        for method, layer in DRIVER_LAYER.items():
            out.append((cli.SOLVERS, method, layer))
        return out

    def __enter__(self):
        for owner, name, layer in self.targets():
            original = owner[name] if isinstance(owner, dict) else owner.__dict__[name]
            self._replace(owner, name, self.wrap(layer, original, WORK.get(layer)))
        self.cli_main = self.wrap("cli", self.rk.cli_main)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        return False

    def operator(self, A):
        """A timing ``LinearOperator`` that applies ``A`` exactly as the
        solvers' own wrapper does (``A @ v``)."""
        bytes_per_apply = matvec_bytes(A)
        apply = self.wrap("operators.apply", lambda v: A @ v, lambda v: bytes_per_apply)
        return self.rk.LinearOperator(A.shape[0], apply)

    def self_total(self):
        return sum(s[2] for s in self.stats.values())


def left_wrapped(tracer):
    """Names among the tracer's targets that still hold a wrapper."""
    left = []
    for owner, name, _ in tracer.targets():
        value = owner[name] if isinstance(owner, dict) else owner.__dict__[name]
        if hasattr(value, "__wrapped__"):
            left.append(name)
    return left
