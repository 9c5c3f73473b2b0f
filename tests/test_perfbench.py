"""The benchmark's tracer wraps cavityswap functions by name, where each
module binds them (``perfbench/tracer.py``): every one of those names must
stay bound, or a traced benchmark run stops at once."""

import importlib.util
from pathlib import Path

import cavityswap
import cavityswap.cli
from cavityswap import experiments, sequences

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_installs_and_restores_every_wrapper():
    tracing = _tracing()
    tracer = tracing.Tracer()
    before = (experiments.integrate_checked, experiments.demodulate, sequences.integrate)
    try:
        tracing.install(tracer, cavityswap)
        assert experiments.integrate_checked is not before[0]
    finally:
        tracer.restore()
    assert (experiments.integrate_checked, experiments.demodulate,
            sequences.integrate) == before
