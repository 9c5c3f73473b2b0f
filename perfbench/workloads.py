"""Seeded inputs for the benchmark workloads and the oracle gates that
check the program's outputs.

A workload is a ``Plan``: CLI invocations (config file, output directory,
worker count), sequence files that get a parse -> emit -> parse round
trip, and trace files read back, all generated from the seed. The
program sees only these files. Modes follow the paper and every runner:
A is the readout mode, B sits above A.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

import counters

TWO_PI = 2.0 * math.pi

# RK4 steps of one chevron sweep (3 us trajectories instead of the default
# 8 us, so that a pass takes a few seconds); the detuning span is solved
# for it so that run time does not depend on the seeded pump power
CHEVRON_STEPS = 300_000
CHEVRON_T_END = "3us"
# enlarged splitting grid (the runner default is 801 x 41)
PROBE_COUNT, PUMP_COUNT = 2001, 81
ROUND_TRIP_FILES = 60


@dataclass
class Call:
    """One ``cavityswap`` CLI invocation, with what its oracle expects."""

    runner: str
    config: str
    out: str
    jobs: int
    points: int
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    name: str
    jobs: int
    calls: list
    round_trips: list = field(default_factory=list)  # sequence file paths
    readback: bool = False  # read trace.csv back inside the timed pass
    a_priori: dict = field(default_factory=dict)  # runner -> counters.Work

    @property
    def points(self) -> int:
        return sum(c.points for c in self.calls)


# ---------------------------------------------------------------------------
# sequence files

@dataclass
class SeqSpec:
    """What the oracle needs to know about a generated sequence: the
    readout-mode external rate and each segment's (kind, duration, drive
    amplitude in the rotating frame)."""

    gamma_ext: float
    segments: list


def _fmt(value, digits=4):
    return f"{value:.{digits}g}"


def gp_closed_form_hz(p_dbm: float) -> float:
    """g_P at pump power `p_dbm` with the default flux calibration: 1.2 MHz
    at -52 dBm, linear in pump amplitude."""
    return 1.2e6 * 10.0 ** ((p_dbm + 52.0) / 20.0)


def sequence_text(rng: random.Random, n_middle: int = 1):
    """A lossless-interior sequence: readout mode A has external coupling
    only and storage mode B has no loss, so stored energy changes only
    through the port. It mixes rectangular and raised-cosine swaps, swaps
    given by gp= and by power=, delays, driven (non-leading) loads and a
    readout. The time layout is fixed, so the work does not depend on
    the seed; couplings, phases, detunings and amplitudes are seeded."""
    q_ext = 50e3
    lines = [f"mode A freq=8.7GHz q_ext={q_ext:g}", "mode B freq=9.33GHz"]
    segs = []

    def add(kind, dur_us, text="", amp=0.0):
        lines.append(f"seg {kind} dur={dur_us:g}us{text}")
        segs.append((kind, dur_us * 1e-6, amp))

    add("load", 2.0, f" nbar={_fmt(rng.uniform(1.0, 20.0))}")
    for _ in range(n_middle):
        add("swap", 0.4, f" gp={_fmt(rng.uniform(0.8, 1.6))}MHz"
            f" phase={_fmt(rng.uniform(0.0, 360.0))}deg"
            f" ramp={_fmt(rng.uniform(0.05, 0.15))}us")
        add("delay", 1.5)
        amp = float(_fmt(rng.uniform(500.0, 2000.0)))
        add("load", 1.0, f" amp={_fmt(amp)}", amp)
        add("swap", 0.25, f" power={_fmt(rng.uniform(-54.0, -50.0))}dBm"
            f" delta={_fmt(rng.uniform(-200.0, 200.0))}kHz"
            f" phase={_fmt(rng.uniform(0.0, 360.0))}deg")
    add("readout", 2.0)
    return "\n".join(lines) + "\n", SeqSpec(TWO_PI * 8.7e9 / q_ext, segs)


def energy_balance_error(trace, spec: SeqSpec) -> float:
    """Relative violation of the port energy balance after the leading load.

    With no internal loss, d(|a|^2 + |b|^2)/dt = |a_in|^2 - |a_out|^2
    = 2 sqrt(g_ext) Re(a_in* a) - g_ext |a|^2, with a_in the (real,
    resonant) drive amplitude on load segments and 0 elsewhere. Each
    segment is integrated on its own closed window, where the integrand
    is smooth.
    """
    energy = np.abs(trace.a) ** 2 + np.abs(trace.b) ** 2
    sq = math.sqrt(spec.gamma_ext)
    eps = 1e-9 * float(trace.t[-1] - trace.t[0])
    t0 = spec.segments[0][1]
    flux = 0.0
    for _, dur, amp in spec.segments[1:]:
        sel = (trace.t >= t0 - eps) & (trace.t <= t0 + dur + eps)
        a = trace.a[sel]
        rate = 2.0 * sq * amp * a.real - spec.gamma_ext * np.abs(a) ** 2
        flux += float(np.trapezoid(rate, trace.t[sel]))
        t0 += dur
    k_lead = int(np.argmin(np.abs(trace.t - spec.segments[0][1])))
    change = float(energy[-1] - energy[k_lead])
    return abs(change - flux) / float(np.max(energy))


# ---------------------------------------------------------------------------
# config files

def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def write_config(path, overrides):
    return _write(path, "".join(f"{k} = {v}\n" for k, v in overrides.items()))


def _chevron_call(cs, rng, b):
    """Seeded pump power; the detuning span is solved so the sweep costs
    CHEVRON_STEPS RK4 steps (sweep counts stay at their defaults)."""
    p_dbm = round(rng.uniform(-54.5, -52.5), 3)

    def overrides(span_mhz):
        return {"pump_power": f"{p_dbm:.3f}dBm", "delta_span": f"{span_mhz:.6g}MHz",
                "t_end": CHEVRON_T_END}

    def steps(span_mhz):
        cfg = cs.experiments.resolve_config("chevron", overrides(span_mhz))
        return counters.chevron_work(cs, cfg).steps

    lo, hi = 0.5, 30.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if steps(mid) < CHEVRON_STEPS else (lo, mid)
    cfg = b.call("chevron", overrides(0.5 * (lo + hi)), 17, gp_hz=gp_closed_form_hz(p_dbm))
    b.a_priori["chevron"] = counters.chevron_work(cs, cfg)


class _PlanWriter:
    def __init__(self, cs, workdir, jobs):
        self.cs = cs
        self.workdir = workdir
        self.jobs = jobs
        self.calls = []
        self.a_priori = {}
        os.makedirs(workdir, exist_ok=True)

    def call(self, runner, overrides, points, tag="", **expect):
        name = runner + tag
        overrides = dict(overrides, jobs=str(self.jobs))
        path = write_config(os.path.join(self.workdir, f"{name}.cfg"), overrides)
        self.calls.append(Call(runner, path, os.path.join(self.workdir, f"{name}_out"),
                               self.jobs, points, expect))
        return self.cs.experiments.resolve_config(runner, overrides)

    def sequence(self, rng, tag, n_middle=1):
        text, spec = sequence_text(rng, n_middle)
        path = _write(os.path.join(self.workdir, f"seq_{tag}.txt"), text)
        return path, spec

    def plan(self, name, **kw):
        return Plan(name, self.jobs, self.calls, a_priori=self.a_priori, **kw)


def rk4_sweep(cs, seed, workdir):
    rng = random.Random(seed)
    b = _PlanWriter(cs, workdir, jobs=1)
    _chevron_call(cs, rng, b)
    cfg = b.call("power_sweep", {"n_cycles": f"{rng.uniform(4.8, 5.2):.4f}"}, 11)
    b.a_priori["power_sweep"] = counters.power_sweep_work(cs, cfg)
    return b.plan("rk4_sweep")


def sequence_store(cs, seed, workdir):
    rng = random.Random(seed)
    b = _PlanWriter(cs, workdir, jobs=1)
    # the delays keep their default sum, so the work does not depend on the seed
    start = rng.uniform(0.5, 1.5)
    t1_us = round(rng.uniform(13.5, 16.5), 4)
    b.call("store_retrieve", {
        "nbar": _fmt(rng.uniform(2.0, 20.0)), "t1_b": f"{t1_us:.4f}us",
        "delay_start": f"{start:.4f}us", "delay_stop": f"{56.0 - start:.4f}us"},
        12, tau_s=t1_us * 1e-6)
    b.call("phase_sweep", {"nbar": _fmt(rng.uniform(2.0, 20.0)),
                           "t1_b": f"{rng.uniform(13.5, 16.5):.4f}us"}, 16)
    for k in range(3):
        path, spec = b.sequence(rng, str(k), n_middle=k + 1)
        b.call("custom_sequence", {"sequence": path}, 1, tag=f"_{k}", spec=spec)
    return b.plan("sequence_store")


def spectrum_io(cs, seed, workdir):
    rng = random.Random(seed)
    b = _PlanWriter(cs, workdir, jobs=1)
    p_dbm = round(rng.uniform(-54.0, -50.0), 3)
    b.call("splitting", {
        "pump_power": f"{p_dbm:.3f}dBm",
        "probe_span": f"{rng.uniform(7.0, 10.0):.4f}MHz",
        "pump_span": f"{rng.uniform(6.0, 10.0):.4f}MHz",
        "probe_count": str(PROBE_COUNT), "pump_count": str(PUMP_COUNT)},
        PROBE_COUNT * PUMP_COUNT, gp_hz=gp_closed_form_hz(p_dbm))
    path, spec = b.sequence(rng, "run")
    b.call("custom_sequence", {"sequence": path}, 1, spec=spec)
    files = [path] + [b.sequence(rng, f"rt{k}", n_middle=1 + k % 4)[0]
                      for k in range(ROUND_TRIP_FILES - 1)]
    return b.plan("spectrum_io", round_trips=files, readback=True)


def pool_sweep(cs, seed, workdir):
    rng = random.Random(seed)
    b = _PlanWriter(cs, workdir, jobs=2)
    _chevron_call(cs, rng, b)
    return b.plan("pool_sweep")


WORKLOADS = {"rk4_sweep": rk4_sweep, "sequence_store": sequence_store,
             "spectrum_io": spectrum_io, "pool_sweep": pool_sweep}

# tiny configs that load every code path of a runner before timing starts
WARMUP = {
    "splitting": {"probe_count": "51", "pump_count": "3"},
    "chevron": {"delta_count": "3", "t_end": "0.5us"},
    "power_sweep": {"power_count": "3", "n_cycles": "2"},
    "store_retrieve": {"delay_count": "3", "delay_stop": "5us"},
    "phase_sweep": {"phase_count": "4", "delay": "1us"},
}


# ---------------------------------------------------------------------------
# oracle gates

def gates(call: Call, results: dict, trace=None):
    """(name, error / tolerance) for each gate on one invocation; a gate
    passes when its ratio is at most 1. Expected values come from closed
    forms, not from what the program reports."""
    r, x = results, call.expect
    if call.runner == "splitting":
        return [("splitting.dip_count", 0.0 if r["dip_count"] == 2 else math.inf),
                ("splitting.separation",
                 abs(r["dip_separation_hz"] / (2.0 * x["gp_hz"]) - 1.0) / 0.05)]
    if call.runner == "chevron":
        return [("chevron.ridge_min",
                 abs(r["ridge_min_hz"] / (2.0 * x["gp_hz"]) - 1.0) / 0.02),
                ("chevron.fit_rms", r["model_rms_rel"] / 0.02)]
    if call.runner == "power_sweep":
        return [("power_sweep.r_squared", (1.0 - r["r_squared"]) / (1.0 - 0.999)),
                ("power_sweep.silent", 0.0 if r["points_no_oscillation"] == 0 else math.inf)]
    if call.runner == "store_retrieve":
        return [("store_retrieve.tau", abs(r["tau_s"] / x["tau_s"] - 1.0) / 0.01),
                ("store_retrieve.eta", abs(r["eta_shortest"] - 0.75) / 0.10),
                ("store_retrieve.eta_prime", (1.0 - r["eta_prime"]) / (1.0 - 0.99))]
    if call.runner == "phase_sweep":
        return [("phase_sweep.slope", abs(r["phase_slope"] - 1.0) / 1e-6)]
    if call.runner == "custom_sequence":
        return [("custom_sequence.energy_balance",
                 energy_balance_error(trace, x["spec"]) / 1e-4)]
    raise ValueError(f"no oracle for runner {call.runner!r}")


def round_trip_fixed_point(cs, text):
    """Parse -> emit -> parse -> emit; the two emitted texts must match."""
    sq = cs.sequences
    first = sq.emit_sequence(sq.parse_sequence(text))
    return first, sq.emit_sequence(sq.parse_sequence(first))
