"""In-memory span tracer that wraps cavityswap's public functions where
they are imported.

Each span records (name, start, end, parent, position among the parent's
children, info). Wrappers do nothing but call through while the tracer is
disabled, and in any process other than the one that installed them (pool
workers forked from the benchmark inherit the patched modules but their
spans would be lost, so they are not recorded at all).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "index", "info", "nchild")

    def __init__(self, name, start, parent, index, info):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.index = index
        self.info = info
        self.nchild = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rk4_steps(config) -> int:
    """RK4 steps of one ``integrate`` call, from its SimConfig alone
    (the same rounding ``integrate`` applies)."""
    span = config.t_end - config.t_start
    return max(1, int(math.ceil(span / config.dt - 1e-12)))


class Tracer:
    """Collects spans while enabled; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[Span] = []
        self._patches = []
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------

    def _open(self, name, info):
        parent = self._stack[-1] if self._stack else None
        index = 0
        if parent is not None:
            index = parent.nchild
            parent.nchild += 1
        span = Span(name, time.perf_counter(), parent, index, info)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, **info):
        """Span around a call the benchmark itself makes into a layer."""
        if not self.enabled:
            yield
            return
        s = self._open(name, info)
        try:
            yield
        finally:
            self._close(s)

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr, name, info_fn=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        recording wrapper. ``info_fn(bound_arguments)`` returns span info."""
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else getattr(owner, attr)
        sig = inspect.signature(orig) if info_fn is not None else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return orig(*args, **kwargs)
            info = {}
            if info_fn is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                info = info_fn(bound.arguments)
            s = tracer._open(name, info)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(s)

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig, is_dict))

    def restore(self):
        for owner, attr, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    def dump(self, path):
        """Write the spans as tab-separated lines: id, parent id, name,
        start and end (seconds on the perf_counter clock), info."""
        ids = {id(s): k for k, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tinfo\n")
            for k, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else -1
                info = ",".join(f"{key}={val}" for key, val in sorted(s.info.items()))
                fh.write(f"{k}\t{parent}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t{info}\n")


def install(tracer: Tracer, cs) -> None:
    """Wrap the layer boundaries of the cavityswap package ``cs``."""
    cli, experiments, dynamics = cs.cli, cs.experiments, cs.dynamics
    sequences, fluxmap = cs.sequences, cs.fluxmap

    tracer.wrap(cli, "main", "cli.main")
    for runner in list(experiments.RUNNERS):
        tracer.wrap(experiments.RUNNERS, runner, f"experiments.runner.{runner}")
    for owner, attr in ((experiments, "_write_csv"), (experiments, "_write_report"),
                        (dynamics.TraceRecord, "to_csv")):
        tracer.wrap(owner, attr, "experiments.write")

    for owner in (experiments, sequences):
        tracer.wrap(owner, "parse_quantity", "units.parse")
    for attr in ("calibrated_curves", "coupling_rate", "pump_power_to_flux"):
        tracer.wrap(fluxmap, attr, f"fluxmap.{attr}")

    def steps(args):
        return {"steps": _rk4_steps(args["config"])}

    tracer.wrap(experiments, "integrate_checked", "dynamics.integrate_checked")
    for owner in (dynamics, sequences):
        tracer.wrap(owner, "integrate", "dynamics.integrate", steps)
    tracer.wrap(experiments, "reflection_spectrum", "dynamics.reflection_spectrum",
                lambda a: {"probes": int(np.size(a["probe_omegas"]))})

    tracer.wrap(experiments, "run_sequence_checked", "sequences.run_sequence_checked")
    tracer.wrap(sequences, "run_sequence", "sequences.run_sequence",
                lambda a: {"segments": len(a["seq"].segments)})
    tracer.wrap(experiments, "calibrate_swap_time", "sequences.calibrate_swap_time")
    tracer.wrap(experiments, "demodulate", "sequences.demodulate")
    tracer.wrap(experiments, "parse_sequence", "sequences.parse")
    tracer.wrap(sequences, "parse_sequence", "sequences.parse")
    tracer.wrap(sequences, "emit_sequence", "sequences.emit")

    tracer.wrap(experiments, "oscillation_frequency", "analysis.fft",
                lambda a: {"samples": int(np.size(a["series"]))})
    tracer.wrap(experiments, "fit_exponential_decay", "analysis.decay_fit")
    tracer.wrap(experiments, "fit_phase_slope", "analysis.phase_fit")
    tracer.wrap(experiments, "dwell_times", "analysis.dwell")
