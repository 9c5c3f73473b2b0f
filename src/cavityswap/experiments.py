"""Config-driven experiment runners, one per figure-style measurement.

Each runner takes a resolved configuration dict plus an output directory,
writes CSV data (with a ``#``-prefixed header block) and a ``report.txt``
containing the full resolved parameter set and the results, and returns
the results dict. Runners are deterministic: repeated invocations produce
byte-identical files.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import fluxmap
from .analysis import (PENCIL_MIN_SAMPLES, DegenerateFitError, NoOscillationError,
                       fit_exponential_decay, fit_phase_slope, oscillation_frequency)
from .core import (ComplexAmplitudePair, ModeParams, PumpDrive, ValidationError,
                   check_mode_order, mode_params_from_q)
from .dynamics import (SimConfig, _reflection_at, _reflection_dips, calibrate_swap_time,
                       half_step_config, lab_frame, max_step, propagate_swap, rabi_frequency,
                       swap_coupling_sq, swap_frequency)
from .sequences import (PulseSequence, Segment, _plan, check_plan, parse_sequence, run_plan,
                        run_sequence_checked, validate_sequence)
# not called here: perfbench/tracer.py wraps these by name where experiments binds them
from .analysis import dwell_times  # noqa: F401
from .dynamics import integrate_checked, reflection_spectrum  # noqa: F401
from .sequences import demodulate  # noqa: F401
from .textio import (write_key_values, write_mirrored_grid, write_row_groups,
                     write_csv as _write_csv)
from .units import Quantity, format_quantity, parse_quantity

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# configuration schemas

# Key groups. Each runner's schema is made of the groups it reads, and a
# key that a runner does not read is unknown to it (exit 2).
_MODES = {
    "freq_a": ("freq", TWO_PI * 8.70e9),
    "q_int_a": ("dimensionless", 900e3),
    "q_ext_a": ("dimensionless", 50e3),
    "freq_b": ("freq", TWO_PI * 9.33e9),
    "t1_b": ("time", 14.9e-6),
}
# gp = 0 derives g_P from pump_power and the flux curves
_GP_SOURCE = {"pump_power": ("power_dbm", -52.0), "gp": ("freq", 0.0)}
_FLUX_CALIB = {"flux_calib": ("dimensionless", fluxmap.DEFAULT_FLUX_CALIB)}
_TOLERANCE = {"tolerance": ("dimensionless", 1e-6)}
_JOBS = {"jobs": ("int", 1)}  # accepted only as 1: every sweep runs in one process

_SCHEMAS = {
    "splitting": {
        **_MODES, **_GP_SOURCE, **_FLUX_CALIB, **_JOBS,
        "probe_span": ("freq", TWO_PI * 8e6),
        "probe_count": ("int", 801),
        "pump_span": ("freq", TWO_PI * 8e6),
        "pump_count": ("int", 41),
    },
    "chevron": {
        **_MODES, **_GP_SOURCE, **_FLUX_CALIB, **_TOLERANCE, **_JOBS,
        "delta_span": ("freq", TWO_PI * 8e6),
        "delta_count": ("int", 17),
        "t_end": ("time", 8e-6),
        "points_per_cycle": ("int", 800),
        "nbar": ("dimensionless", 1.0),
    },
    "power_sweep": {  # g_P comes from each swept power
        **_MODES, **_FLUX_CALIB, **_TOLERANCE, **_JOBS,
        "power_start": ("power_dbm", -64.0),
        "power_stop": ("power_dbm", -44.0),
        "power_count": ("int", 11),
        "n_cycles": ("dimensionless", 12.0),
        "points_per_cycle": ("int", 1000),
    },
    "store_retrieve": {
        **_MODES, **_GP_SOURCE, **_FLUX_CALIB, **_TOLERANCE, **_JOBS,
        "delay_start": ("time", 1e-6),
        "delay_stop": ("time", 55e-6),
        "delay_count": ("int", 12),
        "t_swap": ("time", 0.0),  # 0 = calibrate a full swap
        "load_dur": ("time", 20e-6),
        "readout_dur": ("time", 0.0),  # 0 = 5/gamma_A
        "nbar": ("dimensionless", 10.0),
        "points_per_cycle": ("int", 400),
    },
    "phase_sweep": {
        **_MODES, **_GP_SOURCE, **_FLUX_CALIB, **_TOLERANCE, **_JOBS,
        "phase_count": ("int", 16),
        "delay": ("time", 5e-6),
        "t_swap": ("time", 0.0),
        "load_dur": ("time", 20e-6),
        "readout_dur": ("time", 0.0),
        "nbar": ("dimensionless", 10.0),
        "points_per_cycle": ("int", 400),
    },
    "custom_sequence": {  # the modes and couplings come from the sequence file
        **_FLUX_CALIB, **_TOLERANCE, **_JOBS,
        "sequence": ("str", ""),
        "points_per_cycle": ("int", 400),
        "frame": ("str", "rotating"),  # of the written trace
    },
}

# fewest sweep points: the decay fit needs 4 delays, the phase-slope fit 3 phases
_SWEEP_MIN = {"probe_count": 2, "pump_count": 2, "delta_count": 2, "power_count": 2,
              "delay_count": 4, "phase_count": 3}
# most points of any one sweep, checked before any array is built: a count
# like 1e12 fails to allocate or fills memory
_SWEEP_MAX = 100_000

_KIND_UNITS = {"freq": "Hz", "time": "s", "power_dbm": "dBm"}  # rendering units


def runner_schema(runner: str) -> dict:
    """{key: (kind, default)} of every config key `runner` reads."""
    if runner not in _SCHEMAS:
        raise ValidationError(f"unknown runner {runner!r}")
    return dict(_SCHEMAS[runner])


def _read_text(path) -> str:
    """The text of the UTF-8 file at `path`; a byte that is not UTF-8 is a
    ValidationError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start}: "
                                  f"{exc.object[exc.start:exc.end]!r})") from None


def parse_config_file(path) -> dict:
    """Read a flat key=value config file (# comments, unit suffixes); a key
    given twice is an error."""
    overrides = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if eq != "=":
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key = key.strip()
        if key in overrides:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        overrides[key] = val.strip()
    return overrides


def resolve_config(runner: str, overrides: dict | None = None) -> dict:
    """Apply overrides to the runner defaults with unit/kind validation."""
    schema = runner_schema(runner)
    cfg = {key: default for key, (_, default) in schema.items()}
    for key, raw in (overrides or {}).items():
        if key not in schema:
            raise ValidationError(f"unknown config key {key!r} for runner {runner!r}")
        kind = schema[key][0]
        if kind == "str":
            cfg[key] = str(raw)
            continue
        if isinstance(raw, str):
            q = parse_quantity(raw)
            if kind == "int":
                if q.kind != "dimensionless" or q.value != int(q.value):
                    raise ValidationError(f"{key!r} must be an integer, got {raw!r}")
                cfg[key] = int(q.value)
                continue
            if q.kind != kind:
                raise ValidationError(
                    f"{key!r} must be a {kind} value, got {raw!r}")
            cfg[key] = q.value
        else:
            cfg[key] = int(raw) if kind == "int" else float(raw)
    _validate_config(runner, cfg)
    return cfg


def _validate_config(runner, cfg):
    if cfg.get("frame", "rotating") not in ("lab", "rotating"):
        raise ValidationError(f"frame must be lab or rotating, got {cfg['frame']!r}")
    if "\0" in cfg.get("sequence", ""):  # open() refuses it with a ValueError
        raise ValidationError(f"sequence = {cfg['sequence']!r}: a path holds no NUL byte")
    if cfg["jobs"] != 1:
        raise ValidationError(f"jobs must be 1: sweeps run in one process, got {cfg['jobs']}")
    for key, least in _SWEEP_MIN.items():
        if key in cfg and cfg[key] < least:
            raise ValidationError(f"sweep count {key} must be >= {least}")
        if key in cfg and cfg[key] > _SWEEP_MAX:
            raise ValidationError(f"sweep count {key} must be <= {_SWEEP_MAX}, "
                                  f"got {cfg[key]}")
    if cfg.get("points_per_cycle", 1) < 1:
        raise ValidationError("points_per_cycle must be >= 1")
    for key in ("tolerance", "nbar"):
        if key in cfg and not cfg[key] > 0.0:
            raise ValidationError(f"{key} must be positive, got {cfg[key]}")
    if "delay_start" in cfg and not cfg["delay_start"] < cfg["delay_stop"]:
        raise ValidationError(
            f"delay_start = {format_quantity(cfg['delay_start'], 's')} must be below "
            f"delay_stop = {format_quantity(cfg['delay_stop'], 's')}")
    if "power_start" in cfg and cfg["power_start"] == cfg["power_stop"]:
        raise ValidationError(
            f"power_start = power_stop = {format_quantity(cfg['power_start'], 'dBm')}: "
            "the slope fit needs two pump powers")
    for key in ("gp", "t_swap"):  # 0 = derive from the flux curves / calibrate
        if not cfg.get(key, 0.0) >= 0.0:
            kind = runner_schema(runner)[key][0]
            raise ValidationError(f"{key} must be >= 0, got {_render_cfg_value(kind, cfg[key])}")
    if "freq_a" in cfg:  # constructing the modes validates all mode overrides
        _modes(cfg)


def _render_cfg_value(kind, value):
    unit = _KIND_UNITS.get(kind)
    return f"{value}" if unit is None else format_quantity(value, unit)


# ---------------------------------------------------------------------------
# shared pieces

def _modes(cfg):
    if not cfg["t1_b"] > 0.0:  # the storage-mode loss rate is 1/t1_b
        raise ValidationError(f"t1_b must be positive, got {format_quantity(cfg['t1_b'], 's')}")
    mode_a = mode_params_from_q(cfg["freq_a"], cfg["q_int_a"], cfg["q_ext_a"])
    mode_b = ModeParams(cfg["freq_b"], 1.0 / cfg["t1_b"], 0.0)
    check_mode_order(mode_a, mode_b)
    return mode_a, mode_b


def _mirror_grid(n):
    """``linspace(-0.5, 0.5, n)`` with its lower half the negated upper
    half bit for bit: the upper half runs from 0 (odd n) or half a spacing
    (even n) to 0.5, so each value's mirror is its negation."""
    upper = np.linspace(0.5 * (1 - n % 2) / (n - 1), 0.5, (n + 1) // 2)
    return np.concatenate((-upper[::-1][:n // 2], upper))


def _resolve_gp(cfg) -> float:
    """Coupling rate from the config: explicit gp, or flux-pump conversion."""
    if cfg["gp"] > 0.0:
        return cfg["gp"]
    return fluxmap.pump_coupling_rate(cfg["freq_a"], cfg["freq_b"], cfg["pump_power"],
                                      cfg["flux_calib"])


def _write_report(outdir, runner, cfg, results):
    schema = runner_schema(runner)
    path = os.path.join(outdir, "report.txt")
    pairs = [("runner", runner)]
    pairs += [(f"config.{key}", _render_cfg_value(schema[key][0], cfg[key]))
              for key in sorted(cfg)]
    pairs += [(f"result.{key}", f"{val:.12g}" if isinstance(val, float) else val)
              for key, val in sorted(results.items())]
    write_key_values(path, pairs)
    return path


def _swap_energies(trace):
    """(|a|^2, dt, low) of a swap trace: |a|^2 on its strictly uniform time
    grid of step dt (the trailing sample of an off-stride record is
    dropped), and low, the least |a|^2 + |b|^2 over every sample."""
    t = trace.t
    dt = t[1] - t[0]
    ea = trace.energy_a
    low = np.min(ea + trace.energy_b)
    if t.size > 2 and abs((t[-1] - t[-2]) - dt) > 1e-9 * dt:
        ea = ea[:-1]
    return ea, float(dt), low


# ---------------------------------------------------------------------------
# sweep points

def _swap_problem(cfg, g, delta, t_end, amp0):
    """(initial state, modes, plan) of a constant-pump swap from a(0) =
    amp0, b(0) = 0 at pump detuning `delta`, in the rotating frame (callers
    use only frame-independent energies): one segment on the half-step grid
    of a run at `points_per_cycle`, the run ``check_plan``'s coarse twin is."""
    modes = _modes(cfg)
    pump = PumpDrive(g, delta)
    dt = max_step(*modes, pump, points_per_cycle=cfg["points_per_cycle"])
    stride = max(1, int(math.ceil(t_end / dt)) // 4096)
    config = half_step_config(SimConfig(dt, t_end, 0.0, stride))
    return ComplexAmplitudePair(complex(amp0), 0.0j, 0.0), modes, [(pump, None, config)]


def _swap_sweep(cfg, points, amp0, source, window):
    """(half-step difference, exact-vs-RK4 difference, frequencies,
    records, order) of a sweep of constant-pump swaps from a(0) = amp0,
    b(0) = 0 over `points`, each (g_P, delta, t_end).

    The energies are even in the detuning: conjugating the coupled-mode
    equations and setting b -> -b turns +delta into -delta, and with a real
    a(0) and no drive |a(t)|^2 is the same function at both. So the points
    whose (g_P, |delta|, t_end) are equal bit for bit share one trace
    (``run_plan`` of ``_swap_problem``), its energies and its frequency:
    ``records[order[k]]`` is the (|a|^2, dt) of point k (``_swap_energies``),
    frequencies[k] the swap frequency of that |a|^2, nan where it has none
    (``oscillation_frequency``, at the stride the lossless rate bounds and
    refitting to `tolerance`). The middle point, entered first, is the one
    ``check_plan`` checks. A trace of fewer than ``PENCIL_MIN_SAMPLES``
    samples of |a|^2 is refused before its frequency is read, naming the
    config keys `window` that set the count, and energies |a|^2 + |b|^2
    below the normal doubles are refused, naming `source` (exit 2)."""
    mid = len(points) // 2
    # (g_P, |delta|, t_end) -> (its record, the sweep point computed for it)
    distinct = {}
    for k in (mid, *range(len(points))):
        g, delta, t_end = points[k]
        distinct.setdefault((g, abs(delta), t_end), (len(distinct), k))
    order = [distinct[g, abs(delta), t_end][0] for g, delta, t_end in points]
    records, omegas, lows = [], [], []
    for _, k in distinct.values():
        g, delta, t_end = points[k]
        problem = _swap_problem(cfg, g, delta, t_end, amp0)
        if k == mid:
            trace, rel, diff = check_plan(*problem, cfg["tolerance"])
        else:
            trace = run_plan(*problem)
        ea, dt, low = _swap_energies(trace)
        if ea.size < PENCIL_MIN_SAMPLES:
            raise ValidationError(f"a swap window of {ea.size} samples is too short for the "
                                  f"swap frequency, which needs {PENCIL_MIN_SAMPLES}: "
                                  f"raise {window}")
        records.append((ea, dt))
        try:
            omegas.append(oscillation_frequency(ea, dt, rabi_frequency(delta, g),
                                                cfg["tolerance"]))
        except NoOscillationError:
            omegas.append(math.nan)
        lows.append(low)
    _check_normal_energies(source, lows, "energies |a|^2 + |b|^2 down to")
    return rel, diff, np.asarray(omegas)[order], records, order


def _sr_sequence(cfg, g, t_swap, delay, phase2) -> PulseSequence:
    q = Quantity.of
    mode_specs = {
        "A": {"freq": q(cfg["freq_a"], "GHz"), "q_int": q(cfg["q_int_a"], ""),
              "q_ext": q(cfg["q_ext_a"], "")},
        "B": {"freq": q(cfg["freq_b"], "GHz"), "t1": q(cfg["t1_b"], "us")},
    }
    readout = cfg["readout_dur"]
    if readout == 0.0:
        mode_a, _ = _modes(cfg)
        readout = 5.0 / mode_a.gamma_total

    def swap(phase):
        return Segment("swap", {"dur": q(t_swap, "us"), "gp": q(g, "MHz"),
                                "delta": q(0.0, "Hz"), "phase": q(phase, "rad")})

    segs = (
        Segment("load", {"dur": q(cfg["load_dur"], "us"), "nbar": q(cfg["nbar"], "")}),
        swap(0.0),
        Segment("delay", {"dur": q(delay, "us")}),
        swap(phase2),
        Segment("readout", {"dur": q(readout, "us")}),
    )
    seq = PulseSequence(mode_specs, segs)
    validate_sequence(seq)
    return seq


def _carry(state, modes, pump, t_end) -> ComplexAmplitudePair:
    """`state` carried on to `t_end` under the constant pump `pump` (a
    delay's g_P is 0): one ``propagate_swap`` at that time alone."""
    a, b = propagate_swap(state, modes, pump, [t_end])
    return ComplexAmplitudePair(a[0], b[0], t_end)


def _readout_iq(mode_a, a_r, duration):
    """(I + iQ, energy) that ``demodulate`` gives at w_ref = w_A over a
    readout of length T = `duration` from a = `a_r`, in closed form: with
    no pump and no drive the rotating-frame a = a_r e^{-gamma_A tau/2} and
    a_out = -sqrt(gamma_ext) a, so
        I + iQ = -sqrt(gamma_ext) a_r 2 (1 - e^{-gamma_A T/2})/gamma_A,
        energy = gamma_ext |a_r|^2 (1 - e^{-gamma_A T})/gamma_A
    (gamma_A > 0: the mode's quality factors are finite)."""

    def held(rate):  # integral of e^{-rate tau} over [0, T]
        return -math.expm1(-rate * duration) / rate

    gamma = mode_a.gamma_total
    iq = -math.sqrt(mode_a.gamma_ext) * held(0.5 * gamma) * complex(a_r)
    return iq, mode_a.gamma_ext * (a_r.real ** 2 + a_r.imag ** 2) * held(gamma)


def _retrieval(cfg, runner, points):
    """(readout states, I + iQ, energies, reference energy, CSV header
    lines, shared results) of a storage/retrieval sweep over `points`, each
    the (delay, retrieval phase) of one ``_sr_sequence``: load, swap,
    delay, swap back, readout. The swaps last `t_swap`, or the calibrated
    full swap when it is 0. Only the middle point's sequence is built: it
    runs the RK4 oracle (``run_sequence_checked``, both of its checks),
    and its ``_plan`` gives the load's state and the storage swap's pump.

    Every point reads its readout from the state where it starts
    (``_readout_iq``). Those states grow in closed form from a prefix the
    points share, one ``propagate_swap`` (``_carry``) per segment end:
    once through the storage swap, once per distinct delay, and once per
    point through its retrieval swap. Each call gets the pump and the
    window times the point's own sequence would give it, summed as
    ``PulseSequence.windows`` sums them, so each state is that of the
    point's own plan bit for bit. The reference is the load read out at
    once: the same closed form from a = sqrt(nbar), over a window of the
    readout's length, so that eta compares equal windows.

    Refused (exit 2): a pump power whose g_P is 0, which has no swap to
    store with even at a set `t_swap`; a storage swap that leaves less
    energy in mode B than in mode A, which stores nothing to retrieve; a
    delay whose windows do not end after they start; and readout energies
    below the normal doubles or past them."""
    mode_a, mode_b = _modes(cfg)
    g = _resolve_gp(cfg)
    if not g > 0.0:
        raise ValidationError(f"pump power {format_quantity(cfg['pump_power'], 'dBm')} gives "
                              f"g_P = {format_quantity(g, 'Hz')}: it has no swap to store with")
    t_swap = cfg["t_swap"] if cfg["t_swap"] > 0.0 else calibrate_swap_time((mode_a, mode_b), g)
    seq = _sr_sequence(cfg, g, t_swap, *points[len(points) // 2])
    modes, duration = (seq.mode_a, seq.mode_b), seq.segments[-1].duration
    _, loaded, plan = _plan(seq, cfg["points_per_cycle"], cfg["flux_calib"])
    swap, _, config = plan[0]
    stored = _carry(loaded, modes, swap, config.t_end)
    if abs(stored.b) < abs(stored.a):
        source = (f"gp = {format_quantity(cfg['gp'], 'Hz')}" if cfg["gp"] > 0.0 else
                  f"pump_power = {format_quantity(cfg['pump_power'], 'dBm')}")
        share = (abs(stored.b) / math.hypot(abs(stored.a), abs(stored.b))) ** 2
        raise ValidationError(f"{source} and t_swap = {format_quantity(t_swap, 's')} leave "
                              f"{share:.3g} of the energy in mode B after the storage swap, "
                              "less than in mode A: there is no stored state to retrieve")
    held, states = {}, []  # held: delay -> the state at its end
    for delay, phase in points:
        if delay not in held:
            t_d = stored.t + delay
            if not stored.t < t_d < t_d + t_swap < t_d + t_swap + duration:
                raise ValidationError(f"delay = {format_quantity(delay, 's')} gives a segment "
                                      "that does not end after it starts")
            held[delay] = _carry(stored, modes, PumpDrive(0.0), t_d)
        t0 = held[delay].t
        t1 = t0 + t_swap
        pad = 1e-12 * (t1 - t0)  # as _plan pads the retrieval swap
        states.append(_carry(held[delay], modes, PumpDrive(g, 0.0, phase, t0 - pad, t1 + pad),
                             t1))
    oracle, rel = run_sequence_checked(seq, tolerance=cfg["tolerance"],
                                       points_per_cycle=cfg["points_per_cycle"])
    with np.errstate(over="ignore"):  # an energy past the doubles is refused as inf
        iqs, energies = zip(*(_readout_iq(mode_a, state.a, duration) for state in states))
    reference = _readout_iq(mode_a, math.sqrt(cfg["nbar"]), duration)[1]
    energies = np.array(energies)
    _check_normal_energies(f"nbar = {cfg['nbar']:.3g}", np.append(energies, reference))
    header = [f"runner = {runner}", f"gp_hz = {g / TWO_PI:.12g}",
              f"t_swap_s = {t_swap:.12g}", f"reference = {reference:.12g}"]
    results = {"gp_hz": g / TWO_PI, "t_swap_s": t_swap, "convergence_rel_diff": rel,
               "exact_rk4_max_diff": oracle.meta["exact_rk4_max_diff"]}
    return states, np.array(iqs), energies, reference, header, results


def _check_normal_energies(source, energies, what="readout energies down to"):
    """Refuse `energies` below the normal doubles, where a subnormal keeps
    too few bits for the fits, the swap frequency and the written trace,
    and an inf. The energies scale with the occupancy `source` names."""
    low, high = float(np.min(energies)), float(np.max(energies))
    tiny = float(np.finfo(float).tiny)
    if not low >= tiny:
        raise ValidationError(
            f"{source} gives {what} {low:.3g}, below the smallest normal "
            f"double {tiny:.3g}: they keep only a few bits")
    if high == math.inf:
        raise ValidationError(f"{source} gives energies past the largest double "
                              f"{np.finfo(float).max:.3g}: they overflow to inf")


# ---------------------------------------------------------------------------
# runners

def run_splitting(cfg, outdir):
    """Steady-state reflection of the readout mode vs pump detuning.

    Both axes are ``_mirror_grid``s: the probe offsets x = w - w_A and the
    pump detunings delta. Conjugating the steady state gives |r(delta, x)|
    = |r(-delta, -x)|, and ``_reflection_at`` keeps that bit for bit at the
    exact offsets x, so the pump-major |r| grid of N cells
    is a palindrome: cell f equals cell N-1-f. Only the first ceil(P/2)
    pump rows are evaluated, and ``write_mirrored_grid`` writes the file
    from them, a pump row at a time, each later row the reverse of its
    mirror row. The dips are the minima of the closed-form |r| at delta = 0
    (``_reflection_dips``), not samples of the grid, which serves only
    ``spectrum.csv``."""
    os.makedirs(outdir, exist_ok=True)
    mode_a, mode_b = _modes(cfg)
    g = _resolve_gp(cfg)
    # the dips at w_A +- g_P are interior minima only if the grid reaches
    # past both by at least one probe spacing
    half_span = 0.5 * abs(cfg["probe_span"])
    spacing = 2.0 * half_span / (cfg["probe_count"] - 1)
    if not half_span > g + spacing:
        raise ValidationError(
            f"probe_span = {format_quantity(cfg['probe_span'], 'Hz')} cannot "
            f"hold both dips at +-g_P = +-{g / TWO_PI:.12g}Hz: half the span "
            "must exceed g_P plus one probe spacing")
    offsets = _mirror_grid(cfg["probe_count"]) * cfg["probe_span"]
    pump_deltas = _mirror_grid(cfg["pump_count"]) * cfg["pump_span"]

    mags = np.array([np.abs(_reflection_at(mode_a, mode_b, PumpDrive(g, delta), offsets))
                     for delta in pump_deltas[:(pump_deltas.size + 1) // 2]])
    write_mirrored_grid(os.path.join(outdir, "spectrum.csv"),
                        [f"runner = splitting", f"gp_hz = {g / TWO_PI:.12g}"],
                        ["pump_detuning_hz", "probe_offset_hz", "reflection_abs"],
                        pump_deltas / TWO_PI, offsets / TWO_PI, mags)

    dips = _reflection_dips(mode_a, mode_b, g)  # one at 0, or a pair at +-x0
    results = {
        "gp_hz": g / TWO_PI,
        "dip_separation_hz": (dips[-1] - dips[0]) / TWO_PI if dips.size else 0.0,
        "expected_splitting_hz": 2.0 * g / TWO_PI,
        "dip_count": dips.size,
    }
    _write_report(outdir, "splitting", cfg, results)
    return results


def run_chevron(cfg, outdir):
    """Swap oscillations of the readout energy vs pump detuning and time.

    The detuning grid's lower half is its negated upper half, so each
    mirror pair has the same |delta| bit for bit, and ``_swap_sweep``
    computes it once. ``chevron_map.csv`` is written as row groups
    (``write_row_groups``): the t_s and energy_a text of each distinct
    point is laid out once, and the group of each detuning leads every
    line of it with that detuning's cell. g_P^2 is fitted as the mean of
    ``swap_coupling_sq`` over the ridge, the inverse of the lossy
    ``swap_frequency``. A detuning whose |a|^2 has no oscillation, and a
    ridge whose least-squares g_P^2 is not positive, are refused (exit 3)
    before any file is written."""
    os.makedirs(outdir, exist_ok=True)
    modes = _modes(cfg)
    g = _resolve_gp(cfg)
    deltas = _mirror_grid(cfg["delta_count"]) * cfg["delta_span"]
    # the RK4 oracle sits at the middle point: resonant only for an odd delta_count
    rel, diff, omega_es, records, point = _swap_sweep(
        cfg, [(g, delta, cfg["t_end"]) for delta in deltas], math.sqrt(cfg["nbar"]),
        f"nbar = {cfg['nbar']:.3g}", "points_per_cycle or t_end")
    lost = np.isnan(omega_es)
    if lost.any():
        raise NoOscillationError("no swap oscillation at pump detuning "
                                 f"{format_quantity(deltas[np.argmax(lost)], 'Hz')}")
    # the lossy swap frequency is linear in g^2 once inverted: least squares for g^2
    g_fit_sq = float(np.mean(swap_coupling_sq(modes, omega_es, deltas)))
    if not g_fit_sq > 0.0:
        raise DegenerateFitError(
            f"the ridge gives a least-squares g_P^2 of {g_fit_sq / TWO_PI**2:.3g}Hz^2, "
            "not positive: it shows no coupling")
    g_fit = math.sqrt(g_fit_sq)
    # detuning-major rows: the group of each detuning holds the t_s and
    # energy_a rows of its distinct point
    detunings = deltas / TWO_PI
    write_row_groups(os.path.join(outdir, "chevron_map.csv"),
                     ["runner = chevron", f"gp_hz = {g / TWO_PI:.12g}"],
                     ["pump_detuning_hz", "t_s", "energy_a"], detunings,
                     [(np.arange(ea.size) * dt, ea) for ea, dt in records], point)
    _write_csv(os.path.join(outdir, "chevron_ridge.csv"),
               ["runner = chevron", f"gp_hz = {g / TWO_PI:.12g}"],
               ["pump_detuning_hz", "oscillation_hz"], [detunings, omega_es / TWO_PI])

    model = swap_frequency(modes, g_fit, deltas)
    rms_rel = float(np.sqrt(np.mean((omega_es / model - 1.0) ** 2)))
    k0 = int(np.argmin(np.abs(deltas)))
    results = {
        "gp_hz": g / TWO_PI,
        "gp_fit_hz": g_fit / TWO_PI,
        "ridge_min_hz": float(np.min(omega_es)) / TWO_PI,
        "ridge_center_hz": float(omega_es[k0]) / TWO_PI,
        "model_rms_rel": rms_rel,
        "convergence_rel_diff": rel,
        "exact_rk4_max_diff": diff,
    }
    _write_report(outdir, "chevron", cfg, results)
    return results


def run_power_sweep(cfg, outdir):
    """Extracted swap rate vs pump power at zero detuning.

    Each power's swap lasts `n_cycles` periods of its own g_P, through
    ``_swap_sweep``, and its g_P is read back from the swap frequency by
    ``swap_coupling_sq`` at zero detuning, sqrt(W^2 + c^2)/2. A power whose
    g_P is 0 has no swap to time and is refused (exit 2); one whose |a|^2
    has no oscillation has no swap frequency, so its g_P is written as
    ``nan`` and left out of the slope fit."""
    os.makedirs(outdir, exist_ok=True)
    powers = np.linspace(cfg["power_start"], cfg["power_stop"], cfg["power_count"])
    g_true = np.array([fluxmap.pump_coupling_rate(cfg["freq_a"], cfg["freq_b"], p_dbm,
                                                  cfg["flux_calib"]) for p_dbm in powers])
    if not np.all(g_true > 0.0):
        k = int(np.argmin(g_true > 0.0))
        raise ValidationError(f"pump power {format_quantity(powers[k], 'dBm')} gives g_P = "
                              f"{format_quantity(g_true[k], 'Hz')}: it has no swap to time")
    rel, diff, omega_es = _swap_sweep(
        cfg, [(g, 0.0, cfg["n_cycles"] * TWO_PI / (2.0 * g)) for g in g_true], 1.0,
        f"|a(0)|^2 = 1 over n_cycles = {cfg['n_cycles']:.3g}",
        "points_per_cycle or n_cycles")[:3]

    amps = np.array([fluxmap.pump_amplitude(p) for p in powers])
    found = ~np.isnan(omega_es)
    g_ext = np.sqrt(swap_coupling_sq(_modes(cfg), omega_es, 0.0))
    _write_csv(os.path.join(outdir, "power_sweep.csv"),
               ["runner = power_sweep"],
               ["power_dbm", "amp_sqrt_mw", "gp_flux_model_hz", "gp_extracted_hz"],
               [powers, amps, g_true / TWO_PI, g_ext / TWO_PI])

    amps = amps[found]
    g_ext = g_ext[found]
    results = {"convergence_rel_diff": rel, "exact_rk4_max_diff": diff,
               "points_no_oscillation": int(np.sum(~found))}
    if amps.size >= 2:
        slope, intercept = np.polyfit(amps, g_ext, 1)
        pred = slope * amps + intercept
        ss_res = float(np.sum((g_ext - pred) ** 2))
        ss_tot = float(np.sum((g_ext - np.mean(g_ext)) ** 2))
        results.update({
            "slope_hz_per_sqrt_mw": slope / TWO_PI,
            "intercept_hz": intercept / TWO_PI,
            "r_squared": 1.0 - ss_res / ss_tot,
        })
    _write_report(outdir, "power_sweep", cfg, results)
    return results


def run_store_retrieve(cfg, outdir):
    """Retrieved energy vs storage delay, with the storage-decay fit.

    ``_retrieval`` gives each delay's energy in closed form and runs the
    RK4 oracle at the middle delay. Nothing drives the modes from the
    load's end to the shortest delay's readout, so the loss correction
    exp(gamma_A t_a + gamma_B t_b) of its dwell times is exactly the ratio
    of the energies |a|^2 + |b|^2 there, and eta' = |a_r|^2/(|a_r|^2 +
    |b_r|^2) at the state (a_r, b_r) where that readout starts."""
    os.makedirs(outdir, exist_ok=True)
    delays = np.linspace(cfg["delay_start"], cfg["delay_stop"], cfg["delay_count"])
    states, _, retrieved, reference, header, results = _retrieval(
        cfg, "store_retrieve", [(delay, 0.0) for delay in delays])
    n_a, n_b = abs(states[0].a) ** 2, abs(states[0].b) ** 2  # |a_r|^2, |b_r|^2
    _write_csv(os.path.join(outdir, "store_retrieve.csv"), header,
               ["delay_s", "retrieved_energy", "eta"],
               [delays, retrieved, retrieved / reference])

    mode_b = _modes(cfg)[1]
    results.update({
        "reference_energy": reference,
        "eta_shortest": float(retrieved[0]) / reference,
        "eta_prime": n_a / (n_a + n_b),
        "configured_tau_s": 1.0 / mode_b.gamma_total if mode_b.gamma_total else math.inf,
    })
    try:
        fit = fit_exponential_decay(delays, retrieved)
        results["tau_s"] = fit.params["tau"]
        results["fit_residual_rms"] = fit.residual_rms
        results["tau_degenerate"] = "false"
    except DegenerateFitError as exc:  # lossless storage mode
        results["tau_degenerate"] = "true"
        results["tau_note"] = type(exc).__name__
    _write_report(outdir, "store_retrieve", cfg, results)
    return results


def run_phase_sweep(cfg, outdir):
    """Retrieved IQ vs the relative phase of the retrieval pump pulse.

    ``_retrieval`` gives each phase's I, Q and energy in closed form and
    runs the RK4 oracle at the middle phase; no point is traced for its
    data."""
    os.makedirs(outdir, exist_ok=True)
    phases = np.arange(cfg["phase_count"]) * TWO_PI / cfg["phase_count"]
    _, iqs, energies, reference, header, results = _retrieval(
        cfg, "phase_sweep", [(cfg["delay"], phase) for phase in phases])
    _write_csv(os.path.join(outdir, "phase_sweep.csv"), header,
               ["pump_phase_rad", "i", "q", "energy"], [phases, iqs.real, iqs.imag, energies])

    eta = float(np.mean(energies)) / reference
    mags = np.abs(iqs)
    fit = fit_phase_slope(phases, np.angle(iqs))

    # circular-locus check: scale so the radius is sqrt(eta), then compare
    # the polygon area against pi*eta (with the n-gon correction factor)
    scale = math.sqrt(eta) / float(np.mean(mags))
    x = iqs.real * scale
    y = iqs.imag * scale
    area = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
    n = phases.size
    area_expected = math.pi * eta * (n / TWO_PI) * math.sin(TWO_PI / n)

    results.update({
        "phase_slope": fit.params["slope"],
        "phase_intercept": fit.params["intercept"],
        "slope_residual_rms": fit.residual_rms,
        "eta": eta,
        "iq_mag_rel_spread": float((np.max(mags) - np.min(mags)) / np.mean(mags)),
        "energy_rel_spread": float((np.max(energies) - np.min(energies))
                                   / np.mean(energies)),
        "iq_locus_area": area,
        "iq_locus_area_expected": area_expected,
    })
    _write_report(outdir, "phase_sweep", cfg, results)
    return results


def run_custom_sequence(cfg, outdir):
    """Run a user sequence file and dump the full trace."""
    os.makedirs(outdir, exist_ok=True)
    if not cfg["sequence"]:
        raise ValidationError("custom_sequence needs sequence=<file>")
    seq = parse_sequence(_read_text(cfg["sequence"]))
    trace, rel = run_sequence_checked(
        seq, tolerance=cfg["tolerance"], points_per_cycle=cfg["points_per_cycle"],
        flux_calib=cfg["flux_calib"])
    with np.errstate(over="ignore"):  # an energy past the doubles is refused as inf
        peak = np.max(trace.energy_a + trace.energy_b)
    _check_normal_energies("the sequence", peak, "energies |a|^2 + |b|^2 that peak at")
    if cfg["frame"] == "lab":
        trace = lab_frame(trace, seq.mode_a, seq.mode_b)
    trace.to_csv(os.path.join(outdir, "trace.csv"))
    results = {
        "total_duration_s": seq.total_duration,
        "final_energy_a": float(trace.energy_a[-1]),
        "final_energy_b": float(trace.energy_b[-1]),
        "convergence_rel_diff": rel,
        "exact_rk4_max_diff": trace.meta["exact_rk4_max_diff"],
    }
    _write_report(outdir, "custom_sequence", cfg, results)
    return results


RUNNERS = {
    "splitting": run_splitting,
    "chevron": run_chevron,
    "power_sweep": run_power_sweep,
    "store_retrieve": run_store_retrieve,
    "phase_sweep": run_phase_sweep,
    "custom_sequence": run_custom_sequence,
}
