"""Check the work counters against the runners' default configurations.

Runs each default runner once through ``cavityswap.cli.main`` with
tracing on (jobs=1, about 15 s) and compares the integrate calls and RK4
steps counted from the SimConfig of every call with the expected counts
below, and with the arithmetic counters of ``counters.py``. Exits 1 on a
mismatch. Run from the root of a source checkout::

    python3 perfbench/check_counters.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

import counters
import layers
import tracer as tracing

# (integrate calls, RK4 steps) at the default configuration
EXPECTED = {
    "splitting": (0, 0),
    "chevron": (34, 1_091_418),
    "power_sweep": (22, 396_000),
    "store_retrieve": (138, 126_124),
    "phase_sweep": (170, 67_212),
}


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import cavityswap as cs
    import cavityswap.cli  # noqa: F401

    arithmetic = {
        "chevron": counters.chevron_work(cs, cs.experiments.resolve_config("chevron")),
        "power_sweep": counters.power_sweep_work(
            cs, cs.experiments.resolve_config("power_sweep")),
    }
    tr = tracing.Tracer()
    tracing.install(tr, cs)
    tr.enabled = True
    ok = True
    try:
        with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
            for runner, (calls, steps) in EXPECTED.items():
                first = len(tr.spans)
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = cs.cli.main([runner, "--out", os.path.join(tmp, runner),
                                      "--jobs", "1"])
                m = layers.pass_metrics(tr.spans[first:])
                got = (int(m[f"counters.{runner}.integrate_calls"]),
                       int(m[f"counters.{runner}.rk4_steps"]))
                same = rc == 0 and got == (calls, steps)
                if runner in arithmetic:
                    work = arithmetic[runner]
                    same = same and (work.calls, work.steps) == got
                ok = ok and same
                print(f"{'ok' if same else 'MISMATCH'} {runner}: {got[1]} RK4 steps "
                      f"in {got[0]} integrate calls (expected {steps} in {calls})")
    finally:
        tr.enabled = False
        tr.restore()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
