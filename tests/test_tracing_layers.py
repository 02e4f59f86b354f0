"""The benchmark's per-layer tracer sees every layer of every driver.

``perfbench/tracing.py`` replaces ``arnoldi_step`` and ``explicit_norms``
by name in the driver modules' namespaces.  A driver that reached them
some other way would still solve correctly, but its traced Arnoldi and
monitoring layers would read zero; these tests pin the contract.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rskrylov as rk

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

METHODS = ("gmres", "rrgmres", "dgmres", "rsmar1", "rsmar2")


def _system():
    A, _ = rk.make_random_range_symmetric(
        rk.RandomSpec(n=30, rank=20, cond=100.0, seed=4)
    )
    b = np.random.default_rng(4).standard_normal(30)  # inconsistent
    return A, b


@pytest.mark.parametrize("explicit", [True, False])
@pytest.mark.parametrize("method", METHODS)
def test_traced_layers_count_every_step(method, explicit):
    A, b = _system()
    tracer = tracing.Tracer(rk)
    with tracer:
        rep = rk.SOLVERS[method](A, b, tol=1e-10, record_explicit=explicit)
    stats = tracer.stats
    assert rep.iterations >= 5
    assert stats["arnoldi.step"][0] >= rep.iterations
    assert stats["hessenberg_qr.append"][0] >= 1
    if method in ("dgmres", "rsmar2"):
        # both QR levels: the outer factor's appends are traced too
        assert stats["hessenberg_qr.append"][0] >= 2 * rep.iterations - 1
    if explicit:
        assert stats["common.explicit_norms"][0] >= rep.iterations
    assert tracing.left_wrapped(tracer) == []


@pytest.mark.parametrize("method", ["minres", "minares"])
def test_traced_short_recurrences_count_explicit_norms(method):
    A = rk.make_random_symmetric_singular(
        rk.RandomSpec(n=30, rank=20, cond=100.0, seed=4)
    )
    b = np.random.default_rng(4).standard_normal(30)  # inconsistent
    tracer = tracing.Tracer(rk)
    with tracer:
        rep = rk.SOLVERS[method](A, b, tol=1e-10, record_explicit=True)
    assert rep.iterations >= 5
    assert tracer.stats["common.explicit_norms"][0] >= rep.iterations
    assert tracing.left_wrapped(tracer) == []


@pytest.mark.parametrize("method", ["gmres", "rsmar2"])
def test_traced_layers_count_every_delayed_step(monkeypatch, method):
    # n = 2500: from step 65 on each explicit check is summed by the next
    # step's delayed Arnoldi pass, which the traced arnoldi_step runs.
    states = []
    init = rk.ArnoldiState.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        states.append(self)

    monkeypatch.setattr(rk.ArnoldiState, "__init__", keep)
    spec = rk.BvpSpec(m=50, d=10.0)
    A = rk.make_bvp_matrix(spec)
    b = rk.make_bvp_rhs(spec, "consistent_random", 0, A)
    tracer = tracing.Tracer(rk)
    with tracer:
        rep = rk.SOLVERS[method](A, b, tol=1e-12, maxit=400, record_explicit=True)
    stats = tracer.stats
    assert rep.iterations > 65 and len(states) == 1
    assert stats["arnoldi.step"][0] == states[0].k
    assert stats["common.explicit_norms"][0] >= rep.iterations
    assert tracing.left_wrapped(tracer) == []
