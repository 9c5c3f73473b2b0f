"""Config-driven experiment runners, one per figure-style measurement.

Each runner takes a resolved configuration dict plus an output directory,
writes CSV data (with a ``#``-prefixed header block) and a ``report.txt``
containing the full resolved parameter set and the results, and returns
the results dict. Runners are deterministic: repeated invocations produce
byte-identical files, independent of the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import fluxmap
from .analysis import (DegenerateFitError, FitConvergenceError,
                       NoOscillationError, dwell_times,
                       fit_exponential_decay, fit_phase_slope,
                       loss_corrected_efficiency, oscillation_frequency)
from .core import (ComplexAmplitudePair, ModeParams, PumpDrive, RectPulse,
                   ValidationError, check_mode_order, cw_envelope,
                   mode_params_from_q)
from .dynamics import (SimConfig, TraceRecord, check_exact, exact_segment,
                       format_cells, half_step_config, integrate_checked,
                       lab_frame, max_step, reflection_spectrum, write_columns)
from .sequences import (PulseSequence, Segment, calibrate_swap_time,
                        demodulate, parse_sequence, run_sequence,
                        run_sequence_checked, validate_sequence, without_swaps)
from .units import Quantity, parse_quantity

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# configuration schemas

_COMMON_KEYS = {
    "freq_a": ("freq", TWO_PI * 8.70e9),
    "q_int_a": ("dimensionless", 900e3),
    "q_ext_a": ("dimensionless", 50e3),
    "freq_b": ("freq", TWO_PI * 9.33e9),
    "t1_b": ("time", 14.9e-6),
    "pump_power": ("power_dbm", -52.0),
    "flux_calib": ("dimensionless", fluxmap.DEFAULT_FLUX_CALIB),
    "delta_phi": ("dimensionless", 0.0),  # 0 = derive from pump_power
    "gp": ("freq", 0.0),                  # 0 = derive from the flux curves
    "jobs": ("int", 1),
    "tolerance": ("dimensionless", 1e-6),
}

_RUNNER_KEYS = {
    "splitting": {
        "probe_span": ("freq", TWO_PI * 8e6),
        "probe_count": ("int", 801),
        "pump_span": ("freq", TWO_PI * 8e6),
        "pump_count": ("int", 41),
    },
    "chevron": {
        "delta_span": ("freq", TWO_PI * 8e6),
        "delta_count": ("int", 17),
        "t_end": ("time", 8e-6),
        "points_per_cycle": ("int", 800),
        "nbar": ("dimensionless", 1.0),
    },
    "power_sweep": {
        "power_start": ("power_dbm", -64.0),
        "power_stop": ("power_dbm", -44.0),
        "power_count": ("int", 11),
        "n_cycles": ("dimensionless", 12.0),
        "points_per_cycle": ("int", 1000),
    },
    "store_retrieve": {
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
        "phase_count": ("int", 16),
        "delay": ("time", 5e-6),
        "t_swap": ("time", 0.0),
        "load_dur": ("time", 20e-6),
        "readout_dur": ("time", 0.0),
        "nbar": ("dimensionless", 10.0),
        "points_per_cycle": ("int", 400),
    },
    "custom_sequence": {
        "sequence": ("str", ""),
        "points_per_cycle": ("int", 400),
        "frame": ("str", "rotating"),  # of the written trace
    },
}


def runner_schema(runner: str) -> dict:
    if runner not in _RUNNER_KEYS:
        raise ValidationError(f"unknown runner {runner!r}")
    schema = dict(_COMMON_KEYS)
    schema.update(_RUNNER_KEYS[runner])
    return schema


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
    if cfg["jobs"] < 1:
        raise ValidationError("jobs must be >= 1")
    for key in ("probe_count", "pump_count", "delta_count", "power_count",
                "delay_count", "phase_count"):
        if key in cfg and cfg[key] < 2:
            raise ValidationError(f"sweep count {key} must be >= 2")
    if cfg.get("points_per_cycle", 1) < 1:
        raise ValidationError("points_per_cycle must be >= 1")
    for key in ("tolerance", "nbar"):
        if key in cfg and not cfg[key] > 0.0:
            raise ValidationError(f"{key} must be positive, got {cfg[key]}")
    for key in ("gp", "t_swap"):  # 0 = derive from the flux curves / calibrate
        if not cfg.get(key, 0.0) >= 0.0:
            kind = runner_schema(runner)[key][0]
            raise ValidationError(f"{key} must be >= 0, got {_render_cfg_value(kind, cfg[key])}")
    # constructing the modes validates all physical overrides
    _modes(cfg)


def _render_cfg_value(kind, value):
    if kind == "freq":
        return f"{value / TWO_PI:.12g}Hz"
    if kind == "time":
        return f"{value:.12g}s"
    if kind == "angle":
        return f"{value:.12g}rad"
    if kind == "power_dbm":
        return f"{value:.12g}dBm"
    return f"{value}"


# ---------------------------------------------------------------------------
# shared pieces

def _modes(cfg):
    mode_a = mode_params_from_q(cfg["freq_a"], cfg["q_int_a"], cfg["q_ext_a"])
    mode_b = ModeParams(cfg["freq_b"], 1.0 / cfg["t1_b"], 0.0)
    check_mode_order(mode_a, mode_b)
    return mode_a, mode_b


def _resolve_gp(cfg) -> float:
    """Coupling rate from the config: explicit gp, or flux-pump conversion."""
    if cfg["gp"] > 0.0:
        return cfg["gp"]
    return fluxmap.pump_coupling_rate(cfg["freq_a"], cfg["freq_b"], cfg["pump_power"],
                                      cfg["flux_calib"], cfg["delta_phi"])


def _pmap(fn, items, jobs):
    if jobs <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _write_csv(path, meta_lines, colnames, columns):
    """Write equal-length `columns` under a ``#`` header block: a float
    column as ``%.17g`` cells, a str column as it is."""
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


def _uniform_energy_series(trace):
    """(energy_a, dt) on a strictly uniform time grid (trailing sample of an
    off-stride record is dropped)."""
    t = trace.t
    dt = t[1] - t[0]
    if t.size > 2 and abs((t[-1] - t[-2]) - dt) > 1e-9 * dt:
        t = t[:-1]
        ea = trace.energy_a[:-1]
    else:
        ea = trace.energy_a
    return ea, float(dt)


def _swap_oscillation_frequency(trace) -> float:
    """Oscillation frequency of the readout-mode occupancy fraction.

    Using |a|^2/(|a|^2+|b|^2) instead of |a|^2 divides out the overall
    energy decay, so the FFT peak stays sharp for lossy modes at any
    pump detuning."""
    ea, dt = _uniform_energy_series(trace)
    eb = trace.energy_b[:ea.size]
    total = ea + eb
    floor = np.max(total) * 1e-300
    return oscillation_frequency(ea / np.maximum(total, floor), dt)


# ---------------------------------------------------------------------------
# sweep workers (module level so they pickle for the process pool)

def _swap_problem(cfg, g, delta, t_end, amp0):
    """(initial state, modes, pump, RK4 config) of a constant-pump swap
    from a(0) = amp0, b(0) = 0 at pump detuning `delta`, in the rotating
    frame: callers use only frame-independent energies."""
    mode_a, mode_b = modes = _modes(cfg)
    pump = PumpDrive(abs(mode_a.omega - mode_b.omega) + delta, 0.0,
                     RectPulse(g, -1.0, 2.0 * t_end))
    dt = max_step(mode_a, mode_b, pump, points_per_cycle=cfg["points_per_cycle"])
    stride = max(1, int(math.ceil(t_end / dt)) // 4096)
    config = SimConfig("rotating", dt, t_end, 0.0, stride, cfg["tolerance"])
    return ComplexAmplitudePair(complex(amp0), 0.0j, 0.0), modes, pump, config


def _swap_point(cfg, g, delta, t_end, amp0) -> TraceRecord:
    """The exact swap trace, sampled on the grid ``integrate_checked``
    records for this point (its dt/2 trace)."""
    init, modes, pump, config = _swap_problem(cfg, g, delta, t_end, amp0)
    return exact_segment(init, modes, pump, None, half_step_config(config))


def _swap_oracle(cfg, g, delta, t_end, amp0):
    """(half-step difference, exact-vs-RK4 difference) of one swap point:
    ``integrate_checked`` at the point, and the worst exact-minus-RK4
    amplitude over its grid relative to the peak, which must stay within
    the tolerance."""
    init, modes, pump, config = _swap_problem(cfg, g, delta, t_end, amp0)
    rk4, rel = integrate_checked(init, modes, pump, None, config)
    exact = _swap_point(cfg, g, delta, t_end, amp0)
    return rel, check_exact(exact.a, exact.b, rk4, cfg["tolerance"])


def _chevron_worker(cfg, t_end, g, delta):
    trace = _swap_point(cfg, g, delta, t_end, math.sqrt(cfg["nbar"]))
    ea, dt_rec = _uniform_energy_series(trace)
    return ea, dt_rec, _swap_oscillation_frequency(trace)


def _power_point(cfg, p_dbm):
    """(g_P, swap duration) at pump power `p_dbm`; the duration is None at
    g_P = 0."""
    g = fluxmap.pump_coupling_rate(cfg["freq_a"], cfg["freq_b"], p_dbm, cfg["flux_calib"])
    return g, (cfg["n_cycles"] * TWO_PI / (2.0 * g) if g else None)


def _power_worker(cfg, p_dbm):
    g, t_end = _power_point(cfg, p_dbm)
    if t_end is None:
        return g, None
    try:
        return g, _swap_oscillation_frequency(_swap_point(cfg, g, 0.0, t_end, 1.0))
    except NoOscillationError:
        return g, None


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


def _retrieval_worker(cfg, g, t_swap, point, dwell=False):
    """One storage/retrieval trajectory at `point` = (delay, phase of the
    retrieval pulse); returns demodulated readout I, Q and retrieved
    energy, followed with `dwell` by the dwell times over the correction
    window."""
    delay, phase2 = point
    seq = _sr_sequence(cfg, g, t_swap, delay, phase2)
    trace = run_sequence(seq, points_per_cycle=2 * cfg["points_per_cycle"])
    windows = seq.windows()
    readout_win = (windows[-1][1], windows[-1][2])
    readout = demodulate(trace, trace.meta["omega_a"], readout_win)
    if not dwell:
        return readout
    correction_win = (windows[0][2], windows[-1][1])  # load end -> readout start
    return readout + dwell_times(trace, correction_win)


def _retrieval_oracle(cfg, g, t_swap, point):
    """(half-step difference, exact-vs-RK4 difference) of
    ``run_sequence_checked`` at one storage/retrieval point; its trace is
    the one ``_retrieval_worker`` computes."""
    seq = _sr_sequence(cfg, g, t_swap, *point)
    trace, rel = run_sequence_checked(seq, tolerance=cfg["tolerance"],
                                      points_per_cycle=cfg["points_per_cycle"])
    return rel, trace.meta["exact_rk4_max_diff"]


def _retrieval_reference(cfg, g, t_swap, delay):
    """Leaked energy of the same load with the swap pulses disabled."""
    seq = without_swaps(_sr_sequence(cfg, g, t_swap, delay, 0.0))
    trace = run_sequence(seq, points_per_cycle=2 * cfg["points_per_cycle"])
    windows = seq.windows()
    ref_win = (windows[0][2], windows[-1][2])  # everything after the load
    _, _, energy = demodulate(trace, trace.meta["omega_a"], ref_win)
    return energy


def _resolve_t_swap(cfg, g, mode_a, mode_b) -> float:
    if cfg["t_swap"] > 0.0:
        return cfg["t_swap"]
    t_pi = math.pi / (2.0 * g)
    return calibrate_swap_time((mode_a, mode_b), g, (0.25 * t_pi, 2.0 * t_pi))


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
            f"probe_span = {_render_cfg_value('freq', cfg['probe_span'])} cannot "
            f"hold both dips at +-g_P = +-{g / TWO_PI:.12g}Hz: half the span "
            "must exceed g_P plus one probe spacing")
    probes = mode_a.omega + np.linspace(-0.5, 0.5, cfg["probe_count"]) * cfg["probe_span"]
    pump_deltas = np.linspace(-0.5, 0.5, cfg["pump_count"]) * cfg["pump_span"]
    diff = abs(mode_a.omega - mode_b.omega)

    mags = np.empty((pump_deltas.size, probes.size))
    for k, delta in enumerate(pump_deltas):
        pump = PumpDrive(diff + delta, 0.0, cw_envelope(g))
        mags[k] = np.abs(reflection_spectrum(mode_a, mode_b, pump, probes))
    # pump-major rows; each axis value is formatted once
    _write_csv(os.path.join(outdir, "spectrum.csv"),
               [f"runner = splitting", f"gp_hz = {g / TWO_PI:.12g}"],
               ["pump_detuning_hz", "probe_offset_hz", "reflection_abs"],
               [np.repeat(format_cells(pump_deltas / TWO_PI), probes.size),
                np.tile(format_cells((probes - mode_a.omega) / TWO_PI), pump_deltas.size),
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

    out = _pmap(partial(_chevron_worker, cfg, t_end, g), deltas, cfg["jobs"])
    # the middle point is the resonant one of the symmetric detuning sweep
    rel, diff = _swap_oracle(cfg, g, deltas[len(deltas) // 2], t_end,
                             math.sqrt(cfg["nbar"]))

    eas, dts, omega_es = zip(*out)
    omega_es = np.asarray(omega_es)
    # detuning-major rows; each detuning is formatted once
    detunings = format_cells(deltas / TWO_PI)
    _write_csv(os.path.join(outdir, "chevron_map.csv"),
               ["runner = chevron", f"gp_hz = {g / TWO_PI:.12g}"],
               ["pump_detuning_hz", "t_s", "energy_a"],
               [np.repeat(detunings, [ea.size for ea in eas]),
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

    out = _pmap(partial(_power_worker, cfg), powers, cfg["jobs"])
    g_mid, t_mid = _power_point(cfg, powers[len(powers) // 2])
    rel, diff = _swap_oracle(cfg, g_mid, 0.0, t_mid, 1.0) if t_mid else (0.0, 0.0)

    amps = np.array([math.sqrt(10.0 ** (p / 10.0)) for p in powers])
    g_true = np.array([g for g, _ in out])
    omega_es = np.array([math.nan if w is None else w for _, w in out])
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

    points = [(delay, 0.0) for delay in delays]
    rel, diff = _retrieval_oracle(cfg, g, t_swap, points[len(points) // 2])
    reference = _retrieval_reference(cfg, g, t_swap, float(delays[-1]))
    worker = partial(_retrieval_worker, cfg, g, t_swap)
    # the shortest-delay run also gives the dwell times of eta'
    *shortest, t_a, t_b = worker(points[0], dwell=True)
    out = [tuple(shortest)] + _pmap(worker, points[1:], cfg["jobs"])

    retrieved = np.asarray([energy for _, _, energy in out])
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

    points = [(delay, phase) for phase in phases]
    rel, diff = _retrieval_oracle(cfg, g, t_swap, points[len(points) // 2])
    reference = _retrieval_reference(cfg, g, t_swap, delay)
    out = _pmap(partial(_retrieval_worker, cfg, g, t_swap), points, cfg["jobs"])

    i, q, energies = (np.asarray(col) for col in zip(*out))
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
