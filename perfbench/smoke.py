"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs one tiny untraced pass and one tiny traced pass of every workload,
the FFT oracle self-check, and checks that the metrics printed match
``BENCHMARK.json``, that every trace wrapper and the speed meter's timer
are removed afterwards, that the meter scales a time by the machine's
speed, and that the tail statistic keeps ten samples beyond it.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import math
import signal

import reference
import run
import speed
import workloads
from tracing import Tracer, left_wrapped


def check(cond, message):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {message}")


def main():
    rk = run.import_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names")

    check(reference.self_check(rk) < 1e-10, "FFT oracle self-check")

    tracer = Tracer(rk)
    originals = [
        owner[name] if isinstance(owner, dict) else owner.__dict__[name]
        for owner, name, _ in tracer.targets()
    ]
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(rk, name, 0, 0.0, trace, small=True, echo=lambda _: None)
            where = f"{name} --trace {trace}"
            check(result["correct"], f"{where}: counts did not repeat across passes")
            check(result["attempted"] == len(result["rows"]), f"{where}: one untraced pass")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{where}: metrics differ from BENCHMARK.json")
            check(
                all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                f"{where}: non-finite metric",
            )
            check(all(r["err_answer"] is not None or r["error"] for r in result["rows"]),
                  f"{where}: an answer went unchecked")
    restored = [
        owner[name] if isinstance(owner, dict) else owner.__dict__[name]
        for owner, name, _ in tracer.targets()
    ]
    check(all(a is b for a, b in zip(originals, restored)) and not left_wrapped(tracer),
          "trace wrappers removed, originals restored")
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) is signal.SIG_DFL,
          "speed meter timer stopped, signal handler restored")

    meter = speed.SpeedMeter()
    meter._at = [0.0, 1.0, 2.0]
    meter._kernel_s = [{k: 2.0 * v for k, v in speed.REFERENCE_S.items()}] * 3
    check(math.isclose(meter.scaled(0.25, 1.75), 0.75), "half speed halves the scaled time")
    check(math.isclose(meter.scaled(0.25, 1.75, ("small",)), 0.75), "scaled by one kernel")

    check(run.tail(range(11)) == (0, 100.0 * 1 / 11), "tail of 11 samples")
    check(run.tail(range(5)) == (4, 100.0), "tail of 5 samples is the maximum")
    print("smoke: ok")


if __name__ == "__main__":
    main()
