"""Timed pulse sequences: parsing, execution, and swap-time calibration.

Sequence files are line-oriented text with ``#`` comments. Every
dimensioned value carries a mandatory unit suffix::

    mode A freq=8.7GHz q_int=900e3 q_ext=50e3
    mode B freq=9.33GHz t1=14.9us
    seg load dur=20us nbar=10
    seg swap dur=0.6us gp=1.2MHz delta=0Hz phase=0deg
    seg delay dur=5us
    seg swap dur=0.6us gp=1.2MHz delta=0Hz phase=90deg
    seg readout dur=5us

Execution hands the complex state from segment to segment. The pump
oscillator runs continuously in simulation time, so a swap segment's
phase is defined relative to that continuous reference and the relative
phase between two swap pulses is well defined across a delay.

Every segment with constant coefficients (rectangular swaps, delays,
readouts and driven loads) is evaluated in closed form on the grid RK4
would record; raised-cosine swaps are integrated with RK4.
``run_sequence_checked`` runs the whole sequence with RK4 as the oracle,
in one ``dynamics.rk4_run`` pass whose blocks of steps cross segment
boundaries.
``calibrate_swap_time`` gives the resonant swap length that empties the
readout mode as the first zero of its closed-form amplitude.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import fluxmap
from .core import (ModeParams, PumpDrive, ComplexAmplitudePair, ValidationError,
                   check_mode_order)
from .dynamics import (DriveTone, SimConfig, TraceRecord, check_exact, check_finite,
                       check_half_step, checked_steps, exact_segment, input_field,
                       integrate, max_step, record_times, rk4_run)
from .units import parse_quantity


class SequenceSyntaxError(ValueError):
    def __init__(self, message, line, col=None):
        at = f"line {line}" + (f", col {col}" if col is not None else "")
        super().__init__(f"{message} ({at})")
        self.line = line
        self.col = col


class SequenceSemanticError(ValueError):
    def __init__(self, message, index=None):
        where = "" if index is None else f" (segment {index})"
        super().__init__(f"{message}{where}")
        self.index = index


class CalibrationError(RuntimeError):
    """No pulse length nulls mode A: gamma_B - gamma_A >= 4 g_P."""


# key -> required unit kind, in canonical emit order
_MODE_KEYS = {"freq": "freq", "q_int": "dimensionless", "q_ext": "dimensionless",
              "t1": "time", "gamma_int": "freq", "gamma_ext": "freq"}
_SEG_KEYS = {
    "load": {"dur": "time", "nbar": "dimensionless", "amp": "dimensionless",
             "freq": "freq"},
    "swap": {"dur": "time", "gp": "freq", "power": "power_dbm", "delta": "freq",
             "phase": "angle", "ramp": "time"},
    "delay": {"dur": "time"},
    "readout": {"dur": "time"},
}


@dataclass(frozen=True)
class Segment:
    """One timed segment; params hold parsed quantities keyed per kind."""

    kind: str
    params: dict

    @property
    def duration(self) -> float:
        return self.params["dur"].value

    def get(self, key, default=0.0):
        q = self.params.get(key)
        return default if q is None else q.value


@dataclass(frozen=True)
class PulseSequence:
    mode_specs: dict  # {"A": {key: Quantity}, "B": {...}}
    segments: tuple

    @property
    def mode_a(self) -> ModeParams:
        return _mode_from_spec(self.mode_specs["A"])

    @property
    def mode_b(self) -> ModeParams:
        return _mode_from_spec(self.mode_specs["B"])

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

    def windows(self):
        """[(kind, t_start, t_end)] for each segment on the global clock."""
        out = []
        t = 0.0
        for seg in self.segments:
            out.append((seg.kind, t, t + seg.duration))
            t += seg.duration
        return out


def _mode_from_spec(spec) -> ModeParams:
    for key in ("q_int", "q_ext", "t1"):  # the rates divide by these
        if key in spec and not spec[key].value > 0.0:
            raise ValidationError(f"{key} must be positive, got {spec[key].render()}")
    omega = spec["freq"].value
    if "q_int" in spec:
        gamma_int = omega / spec["q_int"].value
    elif "t1" in spec:
        gamma_int = 1.0 / spec["t1"].value
    elif "gamma_int" in spec:
        gamma_int = spec["gamma_int"].value
    else:
        gamma_int = 0.0
    if "q_ext" in spec:
        gamma_ext = omega / spec["q_ext"].value
    elif "gamma_ext" in spec:
        gamma_ext = spec["gamma_ext"].value
    else:
        gamma_ext = 0.0
    return ModeParams(omega, gamma_int, gamma_ext)


def _parse_kv(tokens, allowed, lineno):
    """Parse (column, token) pairs of key=value tokens into quantities."""
    params = {}
    for col, tok in tokens:
        key, eq, val = tok.partition("=")
        if eq != "=" or not val:
            raise SequenceSyntaxError(f"expected key=value, got {tok!r}", lineno, col)
        if key not in allowed:
            raise SequenceSyntaxError(f"unknown key {key!r}", lineno, col)
        if key in params:
            raise SequenceSyntaxError(f"duplicate key {key!r}", lineno, col)
        try:
            q = parse_quantity(val)
        except ValueError as exc:
            raise SequenceSyntaxError(str(exc), lineno, col) from exc
        if q.kind != allowed[key]:
            raise SequenceSyntaxError(
                f"{key!r} requires a {allowed[key]} value, got {val!r}", lineno, col)
        params[key] = q
    return params


def parse_sequence(text: str) -> PulseSequence:
    """Parse sequence-file text into a validated PulseSequence."""
    mode_specs = {}
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        found = list(re.finditer(r"\S+", line))
        tokens = [m.group() for m in found]
        kv_tokens = [(m.start() + 1, m.group()) for m in found[2:]]
        head = tokens[0]
        if head == "mode":
            if len(tokens) < 2 or tokens[1] not in ("A", "B"):
                raise SequenceSyntaxError("mode line needs a name, A or B", lineno, 1)
            name = tokens[1]
            if name in mode_specs:
                raise SequenceSyntaxError(f"mode {name} defined twice", lineno, 1)
            spec = _parse_kv(kv_tokens, _MODE_KEYS, lineno)
            if "freq" not in spec:
                raise SequenceSyntaxError(f"mode {name} needs freq=", lineno, 1)
            mode_specs[name] = spec
        elif head == "seg":
            if len(tokens) < 2 or tokens[1] not in _SEG_KEYS:
                raise SequenceSyntaxError(
                    f"unknown segment kind {tokens[1] if len(tokens) > 1 else ''!r}",
                    lineno, 1)
            kind = tokens[1]
            params = _parse_kv(kv_tokens, _SEG_KEYS[kind], lineno)
            if "dur" not in params:
                raise SequenceSyntaxError(f"{kind} segment needs dur=", lineno, 1)
            segments.append(Segment(kind, params))
        else:
            raise SequenceSyntaxError(f"unknown directive {head!r}", lineno, 1)

    if not segments:
        raise SequenceSemanticError("empty sequence")
    for name in ("A", "B"):
        if name not in mode_specs:
            raise SequenceSemanticError(f"mode {name} is not defined")
    seq = PulseSequence(mode_specs, tuple(segments))
    validate_sequence(seq)
    return seq


def validate_sequence(seq: PulseSequence):
    """Raise SequenceSemanticError unless `seq` can run: consistent mode
    losses, w_A < w_B, positive durations and complete segment params."""
    for name, spec in seq.mode_specs.items():
        if sum(k in spec for k in ("q_int", "t1", "gamma_int")) > 1:
            raise SequenceSemanticError(
                f"mode {name}: internal loss given more than once")
        if sum(k in spec for k in ("q_ext", "gamma_ext")) > 1:
            raise SequenceSemanticError(
                f"mode {name}: external loss given more than once")
        _mode_from_spec(spec)  # validates ranges
    check_mode_order(seq.mode_a, seq.mode_b)
    for i, seg in enumerate(seq.segments):
        if not seg.duration > 0.0:
            raise SequenceSemanticError(
                f"{seg.kind} segment duration must be positive", i)
        if seg.kind == "swap":
            if ("gp" in seg.params) == ("power" in seg.params):
                raise SequenceSemanticError(
                    "swap segment needs exactly one of gp or power", i)
            if "gp" in seg.params and seg.params["gp"].value < 0.0:
                raise SequenceSemanticError("gp must be >= 0", i)
            if "ramp" in seg.params and not (
                    0.0 < seg.params["ramp"].value <= 0.5 * seg.duration):
                raise SequenceSemanticError("ramp must fit inside the pulse", i)
        if seg.kind == "load":
            if ("nbar" in seg.params) == ("amp" in seg.params):
                raise SequenceSemanticError(
                    "load segment needs exactly one of nbar or amp", i)
            if "nbar" in seg.params and seg.params["nbar"].value < 0.0:
                raise SequenceSemanticError("nbar must be >= 0", i)


def emit_sequence(seq: PulseSequence) -> str:
    """Render a PulseSequence back to file text (canonical key order).

    parse -> emit -> parse is a fixed point; files already written in the
    canonical format round-trip byte-identically.
    """
    lines = []
    for name in ("A", "B"):
        spec = seq.mode_specs[name]
        parts = [f"{k}={spec[k].render()}" for k in _MODE_KEYS if k in spec]
        lines.append(f"mode {name} " + " ".join(parts))
    for seg in seq.segments:
        parts = [f"{k}={seg.params[k].render()}" for k in _SEG_KEYS[seg.kind]
                 if k in seg.params]
        lines.append(f"seg {seg.kind} " + " ".join(parts))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution

def _segment_pump(seg: Segment, seq: PulseSequence, t0: float, t1: float,
                  flux_calib) -> PumpDrive:
    if "gp" in seg.params:
        g = seg.params["gp"].value
    else:
        g = fluxmap.pump_coupling_rate(seq.mode_a.omega, seq.mode_b.omega,
                                       seg.params["power"].value, flux_calib)
    # pad the support so boundary RK4 stages are inside despite rounding
    pad = 1e-12 * (t1 - t0)
    return PumpDrive(g, seg.get("delta"), seg.get("phase"), t0 - pad, t1 + pad,
                     seg.get("ramp"))


def _load_drive(seg: Segment, mode_a: ModeParams, t0: float, t1: float) -> DriveTone:
    omega_d = seg.get("freq", mode_a.omega)
    if "amp" in seg.params:
        amp = seg.params["amp"].value
    else:
        # resonant fill from vacuum: a(T) = (2 sq amp/ga)(1 - e^{-ga T/2}),
        # with sq = sqrt(gamma_ext) and ga = gamma_A >= gamma_ext; expm1
        # keeps the fill exact when ga T is tiny
        ga = mode_a.gamma_total
        fill = 2.0 * math.sqrt(mode_a.gamma_ext) * -math.expm1(-0.5 * ga * (t1 - t0))
        if not fill > 0.0:
            raise SequenceSemanticError(
                "cannot fill mode A to nbar: its external coupling is zero or too "
                "weak for the pulse")
        amp = math.sqrt(seg.params["nbar"].value) * ga / fill
    # pad the support like _segment_pump: boundary RK4 stages must see the drive
    pad = 1e-12 * (t1 - t0)
    return DriveTone(omega_d, amp, 0.0, t0 - pad, t1 + pad)


def run_sequence(seq: PulseSequence, *, points_per_cycle: int = 400,
                 flux_calib: float = fluxmap.DEFAULT_FLUX_CALIB) -> TraceRecord:
    """Execute a pulse sequence with continuous state handoff; the trace is
    in the rotating frame (``dynamics.lab_frame`` turns it to the lab).

    Each segment is sampled with `points_per_cycle` points per cycle of
    its fastest rate (``max_step``), at least 8 per segment.
    Constant-coefficient segments are exact (``exact_segment``);
    raised-cosine swaps are integrated with RK4 at that step. A leading
    ``load nbar=`` segment sets a = sqrt(nbar) at its end instead of
    simulating the fill pulse, with no incident field on its two samples;
    any other load drives the port. A sample on a segment boundary
    belongs to the segment that ends there. A swap
    given by ``power=`` gets its g_P from the flux curves with the pump
    calibration `flux_calib`.
    """
    return _run_segments(seq, points_per_cycle, True, flux_calib)


def _run_segments(seq, points_per_cycle, exact,
                  flux_calib=fluxmap.DEFAULT_FLUX_CALIB) -> TraceRecord:
    """``run_sequence``; `exact` = False integrates every segment with RK4
    (the oracle of ``run_sequence_checked``) in one ``rk4_run`` whose
    blocks of steps cross segment boundaries, with the refusals of
    ``integrate`` applied to each segment before any step is taken."""
    mode_a = seq.mode_a
    mode_b = seq.mode_b
    modes = (mode_a, mode_b)
    check_mode_order(mode_a, mode_b)
    t = 0.0
    state = ComplexAmplitudePair(0.0 + 0.0j, 0.0 + 0.0j, 0.0)
    pieces = []
    plan = []  # (pump, drive, config, step count, step) of each segment, for rk4_run
    for i, seg in enumerate(seq.segments):
        t0, t1 = t, t + seg.duration
        if seg.kind == "load" and i == 0 and "nbar" in seg.params:
            a = np.array([state.a, math.sqrt(seg.params["nbar"].value)], dtype=complex)
            piece = TraceRecord(np.array([t0, t1]), a, np.array([state.b, state.b]),
                                np.zeros(2) - math.sqrt(mode_a.gamma_ext) * a)  # a_in = 0
            state = ComplexAmplitudePair(a[-1], state.b, t1)
            pieces.append(piece)
        else:
            pump = PumpDrive(0.0)
            drive = None
            if seg.kind == "swap":
                pump = _segment_pump(seg, seq, t0, t1, flux_calib)
            elif seg.kind == "load":
                drive = _load_drive(seg, mode_a, t0, t1)
            dt = min(max_step(mode_a, mode_b, pump, drive,
                              points_per_cycle=points_per_cycle), seg.duration / 8.0)
            cfg = SimConfig(dt, t1, t0)
            if not exact:  # stepped below, with every other segment
                plan.append((pump, drive, cfg, *checked_steps(modes, pump, drive, cfg)))
            else:
                step = exact_segment if pump.ramp == 0.0 else integrate
                piece = step(state, modes, pump, drive, cfg)
                state = ComplexAmplitudePair(piece.a[-1], piece.b[-1], t1)
                pieces.append(piece)
        t = t1

    if plan:
        segments = [(pump, drive, cfg.t_start, n, dt) for pump, drive, cfg, n, dt in plan]
        x = rk4_run([state.a, state.b], modes, segments,
                    np.arange(1, sum(seg[3] for seg in segments) + 1))
        grids = [record_times(cfg) for _, _, cfg, _, _ in plan]
        check_finite(x, np.concatenate([grids[0]] + [grid[1:] for grid in grids[1:]]))
        k = 0
        for (_, drive, _, n, _), grid in zip(plan, grids):
            a_seg = x[0, k:k + n + 1]
            a_out = input_field(drive, mode_a, grid) - math.sqrt(mode_a.gamma_ext) * a_seg
            pieces.append(TraceRecord(grid, a_seg, x[1, k:k + n + 1], a_out))
            k += n

    skip = [0] + [1] * (len(pieces) - 1)  # drop duplicated boundary samples
    t_arr = np.concatenate([p.t[s:] for p, s in zip(pieces, skip)])
    a_arr = np.concatenate([p.a[s:] for p, s in zip(pieces, skip)])
    b_arr = np.concatenate([p.b[s:] for p, s in zip(pieces, skip)])
    o_arr = np.concatenate([p.a_out[s:] for p, s in zip(pieces, skip)])
    meta = {
        "frame": "rotating",
        "points_per_cycle": points_per_cycle,
        "omega_a": mode_a.omega, "gamma_int_a": mode_a.gamma_int,
        "gamma_ext_a": mode_a.gamma_ext,
        "omega_b": mode_b.omega, "gamma_int_b": mode_b.gamma_int,
        "gamma_ext_b": mode_b.gamma_ext,
    }
    for i, (kind, w0, w1) in enumerate(seq.windows()):
        meta[f"seg{i}_kind"] = kind
        meta[f"seg{i}_t_start"] = w0
        meta[f"seg{i}_t_end"] = w1
    return TraceRecord(t_arr, a_arr, b_arr, o_arr, meta)


def run_sequence_checked(seq: PulseSequence, tolerance: float = 1e-6, *,
                         points_per_cycle: int = 400,
                         flux_calib: float = fluxmap.DEFAULT_FLUX_CALIB):
    """run_sequence at 2 * `points_per_cycle`, checked against RK4.

    Two checks, each raising ConvergenceError above `tolerance`:
    - half-step: the all-RK4 runs at `points_per_cycle` and twice that are
      compared at their final rotating-frame states (``check_half_step``);
    - exact-vs-RK4: the closed-form run is compared with the finer RK4 run
      over the whole grid (``check_exact``).
    Returns (closed-form rotating-frame trace, half-step difference); its
    meta holds both as "convergence_rel_diff" and "exact_rk4_max_diff".
    """
    coarse = _run_segments(seq, points_per_cycle, False, flux_calib)
    fine = _run_segments(seq, 2 * points_per_cycle, False, flux_calib)
    rel = check_half_step(coarse, fine, tolerance)
    trace = run_sequence(seq, points_per_cycle=2 * points_per_cycle, flux_calib=flux_calib)
    diff = check_exact(trace.a, trace.b, fine, tolerance)
    trace.meta.update(convergence_rel_diff=rel, exact_rk4_max_diff=diff)
    return trace, rel


def demodulate(trace: TraceRecord, omega_ref: float, window) -> tuple:
    """IQ demodulation of the output field over a time window.

    Returns (I, Q, energy) with I + iQ = integral of a_out e^{+i w_ref t} dt
    for the lab-frame a_out, and energy = integral of |a_out|^2 dt. Both
    frames take one formula: a_out is turned by e^{i(w_ref - w_frame) t},
    with w_frame = 0 for a lab-frame trace and w_frame = w_A
    (meta["omega_a"]) for a rotating-frame one, whose a_out is the lab one
    times e^{+i w_A t}.
    """
    t_lo, t_hi = window
    if not t_hi > t_lo:
        raise ValidationError("empty demodulation window")
    if trace.meta.get("frame", "rotating") == "lab":
        w_frame = 0.0
    elif "omega_a" in trace.meta:
        w_frame = trace.meta["omega_a"]
    else:
        raise ValidationError("demodulating a rotating-frame trace needs meta['omega_a']")
    sub = trace.window(t_lo, t_hi)
    if sub.t.size < 2:
        raise ValidationError("demodulation window contains fewer than 2 samples")
    rotated = sub.a_out * np.exp(1j * (omega_ref - w_frame) * sub.t)
    iq = complex(np.trapezoid(rotated, sub.t))
    energy = float(np.trapezoid(np.abs(sub.a_out) ** 2, sub.t))
    return iq.real, iq.imag, energy


def calibrate_swap_time(modes, g_p: float) -> float:
    """Length of the shortest resonant swap pulse that empties mode A.

    For a(0) = 1, b(0) = 0 and a pump at zero detuning, a(T) is real:
    a(T) = e^{-(gamma_A + gamma_B) T/4} (cos(W T) - d sin(W T)/W), with
    d = (gamma_A - gamma_B)/4 and W = sqrt(g_P^2 - d^2) (``propagate_swap``).
    Its first zero is T = atan2(W, d)/W when g_P > |d| (pi/(2 g_P) for
    lossless modes), T = atanh(s/d)/s with s = sqrt(d^2 - g_P^2) when
    0 < g_P < d, and T = 1/d at g_P = d. Raises CalibrationError when
    gamma_B - gamma_A >= 4 g_P, where a(T) has no zero.
    """
    if not g_p > 0.0:
        raise ValidationError("g_p must be positive for swap calibration")
    gamma_a, gamma_b = modes[0].gamma_total, modes[1].gamma_total
    d = 0.25 * (gamma_a - gamma_b)
    if g_p > abs(d):
        w = math.sqrt((g_p - d) * (g_p + d))
        return math.atan2(w, d) / w
    if d > g_p:
        s = math.sqrt((d - g_p) * (d + g_p))
        # atanh(s/d) = log((d + s)/g_p), written without the cancellation
        # of 1 - s/d when g_p << d
        return math.log1p((d - g_p + s) / g_p) / s
    if d == g_p:
        return 1.0 / d
    raise CalibrationError(
        f"no pulse length nulls mode A: gamma_B - gamma_A = {gamma_b:.6g} - "
        f"{gamma_a:.6g} 1/s is at least 4 g_P = {4.0 * g_p:.6g} rad/s")
