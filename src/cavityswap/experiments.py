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
from .analysis import (DegenerateFitError, FitConvergenceError,
                       NoOscillationError, dwell_times,
                       fit_exponential_decay, fit_phase_slope,
                       loss_corrected_efficiency, oscillation_frequency)
from .core import (ComplexAmplitudePair, ModeParams, PumpDrive, ValidationError,
                   check_mode_order, mode_params_from_q)
from .dynamics import (SimConfig, TraceRecord, check_exact, exact_segment,
                       format_cells, half_step_config, integrate_checked,
                       lab_frame, max_step, reflection_spectrum, write_columns)
from .sequences import (PulseSequence, Segment, calibrate_swap_time,
                        demodulate, parse_sequence, run_sequence,
                        run_sequence_checked, validate_sequence)
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

_KIND_UNITS = {"freq": "Hz", "time": "s", "power_dbm": "dBm"}  # rendering units


def runner_schema(runner: str) -> dict:
    """{key: (kind, default)} of every config key `runner` reads."""
    if runner not in _SCHEMAS:
        raise ValidationError(f"unknown runner {runner!r}")
    return dict(_SCHEMAS[runner])


def parse_config_file(path) -> dict:
    """Read a flat key=value config file (# comments, unit suffixes); a key
    given twice is an error."""
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    if cfg["jobs"] != 1:
        raise ValidationError(f"jobs must be 1: sweeps run in one process, got {cfg['jobs']}")
    for key, least in _SWEEP_MIN.items():
        if key in cfg and cfg[key] < least:
            raise ValidationError(f"sweep count {key} must be >= {least}")
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


def _resolve_gp(cfg) -> float:
    """Coupling rate from the config: explicit gp, or flux-pump conversion."""
    if cfg["gp"] > 0.0:
        return cfg["gp"]
    return fluxmap.pump_coupling_rate(cfg["freq_a"], cfg["freq_b"], cfg["pump_power"],
                                      cfg["flux_calib"])


def _write_csv(path, meta_lines, colnames, columns):
    """Write equal-length `columns` under a ``#`` header block: a float
    column as ``%.17g`` cells, a str column as it is, and a pair
    ``(values, index)`` as the cells of ``values[index]``."""
    with open(path, "w") as fh:
        for line in meta_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(colnames) + "\n")
        write_columns(fh, columns)


def _write_report(outdir, runner, cfg, results):
    schema = runner_schema(runner)
    path = os.path.join(outdir, "report.txt")
    with open(path, "w") as fh:
        fh.write(f"runner = {runner}\n")
        for key in sorted(cfg):
            fh.write(f"config.{key} = {_render_cfg_value(schema[key][0], cfg[key])}\n")
        for key in sorted(results):
            val = results[key]
            if isinstance(val, float):
                fh.write(f"result.{key} = {val:.12g}\n")
            else:
                fh.write(f"result.{key} = {val}\n")
    return path


def _swap_energies(trace):
    """(|a|^2, |a|^2 + |b|^2, dt, low) of a swap trace, each energy
    computed once: both on its strictly uniform time grid of step dt (the
    trailing sample of an off-stride record is dropped), and low, the
    least |a|^2 + |b|^2 over every sample."""
    t = trace.t
    dt = t[1] - t[0]
    ea = trace.energy_a
    total = ea + trace.energy_b
    low = np.min(total)
    if t.size > 2 and abs((t[-1] - t[-2]) - dt) > 1e-9 * dt:
        ea, total = ea[:-1], total[:-1]
    return ea, total, float(dt), low


def _swap_oscillation_frequency(ea, total, dt) -> float:
    """Oscillation frequency of the readout-mode occupancy fraction, from
    the energies |a|^2 and |a|^2 + |b|^2 sampled every `dt`.

    Using |a|^2/(|a|^2+|b|^2) instead of |a|^2 divides out the overall
    energy decay, so the FFT peak stays sharp for lossy modes at any
    pump detuning."""
    floor = np.max(total) * 1e-300
    return oscillation_frequency(ea / np.maximum(total, floor), dt)


# ---------------------------------------------------------------------------
# sweep points

def _swap_problem(cfg, g, delta, t_end, amp0):
    """(initial state, modes, pump, RK4 config) of a constant-pump swap
    from a(0) = amp0, b(0) = 0 at pump detuning `delta`, in the rotating
    frame: callers use only frame-independent energies."""
    modes = _modes(cfg)
    pump = PumpDrive(g, delta)
    dt = max_step(*modes, pump, points_per_cycle=cfg["points_per_cycle"])
    stride = max(1, int(math.ceil(t_end / dt)) // 4096)
    config = SimConfig(dt, t_end, 0.0, stride, cfg["tolerance"])
    return ComplexAmplitudePair(complex(amp0), 0.0j, 0.0), modes, pump, config


def _swap_point(cfg, g, delta, t_end, amp0) -> TraceRecord:
    """The exact swap trace, sampled on the grid ``integrate_checked``
    records for this point (its dt/2 trace)."""
    init, modes, pump, config = _swap_problem(cfg, g, delta, t_end, amp0)
    return exact_segment(init, modes, pump, None, half_step_config(config))


def _swap_oracle(cfg, g, delta, t_end, amp0, exact):
    """(half-step difference, exact-vs-RK4 difference) of one swap point
    whose ``_swap_point`` trace is `exact`: ``integrate_checked`` at the
    point, and the worst exact-minus-RK4 amplitude over its grid relative to
    the peak, which must stay within the tolerance."""
    init, modes, pump, config = _swap_problem(cfg, g, delta, t_end, amp0)
    rk4, rel = integrate_checked(init, modes, pump, None, config)
    return rel, check_exact(exact.a, exact.b, rk4, cfg["tolerance"])


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


def _retrieval_traces(cfg, seqs):
    """(half-step difference, exact-vs-RK4 difference, traces) of a
    storage/retrieval sweep. The middle sequence is the RK4 oracle
    (``run_sequence_checked``); `traces` yields the rotating-frame trace of
    each sequence in turn at twice `points_per_cycle`, reusing the oracle's
    closed-form trace for the middle one."""
    mid = len(seqs) // 2
    oracle, rel = run_sequence_checked(seqs[mid], tolerance=cfg["tolerance"],
                                       points_per_cycle=cfg["points_per_cycle"])
    traces = (oracle if k == mid
              else run_sequence(seq, points_per_cycle=2 * cfg["points_per_cycle"])
              for k, seq in enumerate(seqs))
    return rel, oracle.meta["exact_rk4_max_diff"], traces


def _readout(seq, trace):
    """Demodulated I, Q and energy over the readout window of `seq`."""
    windows = seq.windows()
    return demodulate(trace, trace.meta["omega_a"], (windows[-1][1], windows[-1][2]))


def _retrieval_reference(cfg, seq):
    """Readout energy of the load of `seq` followed directly by its
    readout: gamma_ext nbar (1 - e^{-gamma_A T_R}) / gamma_A over a window
    of the readout's length T_R."""
    ref = PulseSequence(seq.mode_specs, (seq.segments[0], seq.segments[-1]))
    return _readout(ref, run_sequence(ref, points_per_cycle=2 * cfg["points_per_cycle"]))[2]


def _check_normal_energies(source, energies, what="readout energies down to"):
    """Refuse `energies` below the normal doubles: a subnormal keeps too
    few bits for the fits, the FFT and the written trace. The energies
    scale with the occupancy that `source` names."""
    low = float(np.min(energies))
    tiny = float(np.finfo(float).tiny)
    if not low >= tiny:
        raise ValidationError(
            f"{source} gives {what} {low:.3g}, below the smallest normal "
            f"double {tiny:.3g}: they keep only a few bits")


def _resolve_t_swap(cfg, g, mode_a, mode_b) -> float:
    if cfg["t_swap"] > 0.0:
        return cfg["t_swap"]
    return calibrate_swap_time((mode_a, mode_b), g)


# ---------------------------------------------------------------------------
# runners

def run_splitting(cfg, outdir):
    """Steady-state reflection of the readout mode vs pump detuning."""
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
    probes = mode_a.omega + np.linspace(-0.5, 0.5, cfg["probe_count"]) * cfg["probe_span"]
    pump_deltas = np.linspace(-0.5, 0.5, cfg["pump_count"]) * cfg["pump_span"]

    mags = np.empty((pump_deltas.size, probes.size))
    for k, delta in enumerate(pump_deltas):
        mags[k] = np.abs(reflection_spectrum(mode_a, mode_b, PumpDrive(g, delta), probes))
    # pump-major rows; the two axes as (values, index) columns
    n_pump, n_probe = mags.shape
    _write_csv(os.path.join(outdir, "spectrum.csv"),
               [f"runner = splitting", f"gp_hz = {g / TWO_PI:.12g}"],
               ["pump_detuning_hz", "probe_offset_hz", "reflection_abs"],
               [(pump_deltas / TWO_PI, np.repeat(np.arange(n_pump), n_probe)),
                ((probes - mode_a.omega) / TWO_PI, np.tile(np.arange(n_probe), n_pump)),
                mags.ravel()])

    center_mag = mags[int(np.argmin(np.abs(pump_deltas)))]
    separation = _dip_separation(probes, center_mag)
    results = {
        "gp_hz": g / TWO_PI,
        "dip_separation_hz": separation / TWO_PI,
        "expected_splitting_hz": 2.0 * g / TWO_PI,
        "dip_count": _count_dips(center_mag),
    }
    _write_report(outdir, "splitting", cfg, results)
    return results


def _count_dips(mag):
    interior = (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])
    return int(np.sum(interior))


def _dip_separation(omegas, mag):
    """Frequency separation of the two deepest local minima (0 if single dip),
    each refined by a parabola through its neighbours."""
    idx = np.where((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))[0] + 1
    if idx.size < 2:
        return 0.0
    deepest = idx[np.argsort(mag[idx])][:2]
    dw = omegas[1] - omegas[0]
    refined = []
    for k in sorted(deepest):
        ya, yb, yc = mag[k - 1], mag[k], mag[k + 1]
        denom = ya - 2.0 * yb + yc
        shift = 0.0 if denom == 0.0 else 0.5 * (ya - yc) / denom
        refined.append(omegas[k] + shift * dw)
    return abs(refined[1] - refined[0])


def run_chevron(cfg, outdir):
    """Swap oscillations of the readout energy vs pump detuning and time."""
    os.makedirs(outdir, exist_ok=True)
    g = _resolve_gp(cfg)
    t_end = cfg["t_end"]
    deltas = np.linspace(-0.5, 0.5, cfg["delta_count"]) * cfg["delta_span"]

    amp0 = math.sqrt(cfg["nbar"])
    mid = len(deltas) // 2  # the RK4 oracle; resonant only for an odd delta_count
    eas, dts, omega_es, lows = [], [], [], []
    for k, delta in enumerate(deltas):
        trace = _swap_point(cfg, g, delta, t_end, amp0)
        if k == mid:
            rel, diff = _swap_oracle(cfg, g, delta, t_end, amp0, trace)
        ea, total, dt, low = _swap_energies(trace)
        eas.append(ea)
        dts.append(dt)
        omega_es.append(_swap_oscillation_frequency(ea, total, dt))
        lows.append(low)
    _check_normal_energies(f"nbar = {cfg['nbar']:.3g}", lows,
                           "energies |a|^2 + |b|^2 down to")
    omega_es = np.asarray(omega_es)
    # detuning-major rows
    detunings = deltas / TWO_PI
    _write_csv(os.path.join(outdir, "chevron_map.csv"),
               ["runner = chevron", f"gp_hz = {g / TWO_PI:.12g}"],
               ["pump_detuning_hz", "t_s", "energy_a"],
               [(detunings, np.repeat(np.arange(detunings.size), [ea.size for ea in eas])),
                np.concatenate([np.arange(ea.size) * dt for ea, dt in zip(eas, dts)]),
                np.concatenate(eas)])
    _write_csv(os.path.join(outdir, "chevron_ridge.csv"),
               ["runner = chevron", f"gp_hz = {g / TWO_PI:.12g}"],
               ["pump_detuning_hz", "oscillation_hz"], [detunings, omega_es / TWO_PI])

    # sqrt(D^2 + 4 g^2) model: linear least squares for g^2
    g_fit_sq = float(np.mean(omega_es**2 - deltas**2)) / 4.0
    g_fit = math.sqrt(max(g_fit_sq, 0.0))
    model = np.sqrt(deltas**2 + 4.0 * g_fit**2)
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
    """Extracted swap rate vs pump power at zero detuning."""
    os.makedirs(outdir, exist_ok=True)
    powers = np.linspace(cfg["power_start"], cfg["power_stop"], cfg["power_count"])

    g_true = [fluxmap.pump_coupling_rate(cfg["freq_a"], cfg["freq_b"], p_dbm,
                                         cfg["flux_calib"]) for p_dbm in powers]
    mid = len(powers) // 2  # the RK4 oracle, skipped when its g_P is 0
    rel = diff = 0.0
    omega_es = np.full(len(powers), math.nan)
    for k, g in enumerate(g_true):
        if not g:
            continue
        t_end = cfg["n_cycles"] * TWO_PI / (2.0 * g)
        trace = _swap_point(cfg, g, 0.0, t_end, 1.0)
        if k == mid:
            rel, diff = _swap_oracle(cfg, g, 0.0, t_end, 1.0, trace)
        try:
            omega_es[k] = _swap_oscillation_frequency(*_swap_energies(trace)[:3])
        except NoOscillationError:
            pass

    amps = np.array([fluxmap.pump_amplitude(p) for p in powers])
    g_true = np.asarray(g_true)
    found = ~np.isnan(omega_es)
    _write_csv(os.path.join(outdir, "power_sweep.csv"),
               ["runner = power_sweep"],
               ["power_dbm", "amp_sqrt_mw", "gp_flux_model_hz", "gp_extracted_hz"],
               [powers, amps, g_true / TWO_PI,
                np.where(found, format_cells(omega_es / (2.0 * TWO_PI)), "no_oscillation")])

    amps = amps[found]
    g_ext = omega_es[found] / 2.0
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
    """Retrieved energy vs storage delay, with the storage-decay fit."""
    os.makedirs(outdir, exist_ok=True)
    mode_a, mode_b = _modes(cfg)
    g = _resolve_gp(cfg)
    t_swap = _resolve_t_swap(cfg, g, mode_a, mode_b)
    delays = np.linspace(cfg["delay_start"], cfg["delay_stop"], cfg["delay_count"])

    seqs = [_sr_sequence(cfg, g, t_swap, delay, 0.0) for delay in delays]
    rel, diff, traces = _retrieval_traces(cfg, seqs)
    reference = _retrieval_reference(cfg, seqs[0])
    retrieved = []
    for seq, trace in zip(seqs, traces):
        if not retrieved:  # the shortest-delay run also gives the dwell times of eta'
            windows = seq.windows()  # over load end -> readout start
            t_a, t_b = dwell_times(trace, (windows[0][2], windows[-1][1]))
        retrieved.append(_readout(seq, trace)[2])

    retrieved = np.asarray(retrieved)
    _check_normal_energies(f"nbar = {cfg['nbar']:.3g}", np.append(retrieved, reference))
    eta_shortest = float(retrieved[0]) / reference
    eta_prime = loss_corrected_efficiency(eta_shortest, t_a, t_b, mode_a, mode_b)

    _write_csv(os.path.join(outdir, "store_retrieve.csv"),
               ["runner = store_retrieve", f"gp_hz = {g / TWO_PI:.12g}",
                f"t_swap_s = {t_swap:.12g}", f"reference = {reference:.12g}"],
               ["delay_s", "retrieved_energy", "eta"],
               [delays, retrieved, retrieved / reference])

    results = {
        "gp_hz": g / TWO_PI,
        "t_swap_s": t_swap,
        "reference_energy": reference,
        "eta_shortest": eta_shortest,
        "eta_prime": eta_prime,
        "convergence_rel_diff": rel,
        "exact_rk4_max_diff": diff,
        "configured_tau_s": 1.0 / mode_b.gamma_total if mode_b.gamma_total else math.inf,
    }
    try:
        fit = fit_exponential_decay(delays, retrieved)
        results["tau_s"] = fit.params["tau"]
        results["fit_residual_rms"] = fit.residual_rms
        results["tau_degenerate"] = "false"
    except (DegenerateFitError, FitConvergenceError) as exc:  # lossless storage mode
        results["tau_degenerate"] = "true"
        results["tau_note"] = type(exc).__name__
    _write_report(outdir, "store_retrieve", cfg, results)
    return results


def run_phase_sweep(cfg, outdir):
    """Retrieved IQ vs the relative phase of the retrieval pump pulse."""
    os.makedirs(outdir, exist_ok=True)
    mode_a, mode_b = _modes(cfg)
    g = _resolve_gp(cfg)
    t_swap = _resolve_t_swap(cfg, g, mode_a, mode_b)
    phases = np.arange(cfg["phase_count"]) * TWO_PI / cfg["phase_count"]
    delay = cfg["delay"]

    seqs = [_sr_sequence(cfg, g, t_swap, delay, phase) for phase in phases]
    rel, diff, traces = _retrieval_traces(cfg, seqs)
    reference = _retrieval_reference(cfg, seqs[0])
    out = [_readout(seq, trace) for seq, trace in zip(seqs, traces)]

    i, q, energies = (np.asarray(col) for col in zip(*out))
    _check_normal_energies(f"nbar = {cfg['nbar']:.3g}", np.append(energies, reference))
    _write_csv(os.path.join(outdir, "phase_sweep.csv"),
               ["runner = phase_sweep", f"gp_hz = {g / TWO_PI:.12g}",
                f"t_swap_s = {t_swap:.12g}", f"reference = {reference:.12g}"],
               ["pump_phase_rad", "i", "q", "energy"], [phases, i, q, energies])

    iqs = np.array([complex(*iq) for iq in zip(i, q)])
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

    results = {
        "gp_hz": g / TWO_PI,
        "t_swap_s": t_swap,
        "phase_slope": fit.params["slope"],
        "phase_intercept": fit.params["intercept"],
        "slope_residual_rms": fit.residual_rms,
        "eta": eta,
        "iq_mag_rel_spread": float((np.max(mags) - np.min(mags)) / np.mean(mags)),
        "energy_rel_spread": float((np.max(energies) - np.min(energies))
                                   / np.mean(energies)),
        "iq_locus_area": area,
        "iq_locus_area_expected": area_expected,
        "convergence_rel_diff": rel,
        "exact_rk4_max_diff": diff,
    }
    _write_report(outdir, "phase_sweep", cfg, results)
    return results


def run_custom_sequence(cfg, outdir):
    """Run a user sequence file and dump the full trace."""
    os.makedirs(outdir, exist_ok=True)
    if not cfg["sequence"]:
        raise ValidationError("custom_sequence needs sequence=<file>")
    with open(cfg["sequence"]) as fh:
        seq = parse_sequence(fh.read())
    trace, rel = run_sequence_checked(
        seq, tolerance=cfg["tolerance"], points_per_cycle=cfg["points_per_cycle"],
        flux_calib=cfg["flux_calib"])
    _check_normal_energies("the sequence", np.max(trace.energy_a + trace.energy_b),
                           "energies |a|^2 + |b|^2 that peak at")
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
