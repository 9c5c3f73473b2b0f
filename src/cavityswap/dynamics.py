"""Coupled-mode integration and steady-state reflection.

The lab frame integrates the coupled-mode equations of motion directly
(plus an input drive term on the readout port):

    da/dt = -i(w_A - i g_A/2) a - i g_P(t) e^{+i(w_P t + phi_P)} b + sqrt(g_ext) a_in(t)
    db/dt = -i(w_B - i g_B/2) b - i g_P(t) e^{-i(w_P t + phi_P)} a

The rotating frame rotates each mode at its own natural frequency, which
leaves only the slow envelopes:

    da~/dt = -(g_A/2) a~ - i g_P(t) e^{+i(D t + phi_P)} b~ + drive
    db~/dt = -(g_B/2) b~ - i g_P(t) e^{-i(D t + phi_P)} a~

with D = w_P - (w_B - w_A) (``core.detuning``; mode B must lie above mode
A). The output field at the readout port is a_out = a_in - sqrt(g_ext) a
(fixed by the critical-coupling null of the reflection coefficient).

Both frames hold the same rotating-wave equations, so a lab-frame trace is
exactly the rotating-frame one times e^{-i w_A t} (a, a_out) and
e^{-i w_B t} (b): ``lab_frame`` applies that rotation after the fact, and
lab-frame RK4 stays only as an independent check of it.

Integration is classic fixed-step RK4, chosen over adaptive stepping so
that sweep trajectories are bit-reproducible. The equations are linear,
x' = A(t) x + f(t), so one RK4 step is an affine map x_{k+1} = P_k x_k +
q_k. ``integrate`` builds the maps of a block of steps as arrays from A
and f at the stage times and composes them with an odd-even prefix scan
(Blelloch, CMU-CS-90-190, 1990): the RK4 solution of a step-by-step loop,
rounded differently, so the dt/2 rerun of ``integrate_checked`` still
measures a genuine RK4 step-size difference. A constant pump with no
drive has an exact solution instead (``propagate_swap``): substituting
c = b~ e^{i(D t + phi_P)} makes the rotating-frame system time-invariant,

    d/dt (a~, c) = M (a~, c),   M = [[-g_A/2, -i g_P], [-i g_P, i D - g_B/2]],

and exp(M t) = e^{m t} (cosh(s t) I + sinh(s t)/s N) with m = tr M / 2,
N = M - m I and s^2 = N_11^2 - g_P^2 (Moler & Van Loan, SIAM Rev. 45,
2003). A drive tone with no pump is a scalar affine equation for a~ and
a free decay for b~ (``propagate_load``). RK4 stays the integrator for
everything else (raised-cosine pump envelopes) and the oracle for the
exact solutions (``check_exact``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (ModeParams, PumpDrive, ComplexAmplitudePair, ValidationError,
                   check_mode_order, detuning)

TWO_PI = 2.0 * math.pi

# minimum sample points per cycle of the fastest timescale
MIN_POINTS_PER_CYCLE = 50

# RK4 steps whose maps ``integrate`` builds and composes at once: bounds
# its working memory, not its result
_BLOCK = 4096

# CSV rows formatted by one ``%`` in ``write_columns``: bounds the template
# and each write, not the text
_CSV_BLOCK = 4096


class ResolutionError(ValidationError):
    """Integrator step too large for the fastest timescale in this frame."""


class IntegrationDivergedError(RuntimeError):
    """Non-finite state encountered during integration."""


class ConvergenceError(RuntimeError):
    """Half-step self-convergence (or exact-vs-RK4 agreement) check failed."""

    def __init__(self, rel_diff, tolerance, check="half-step self-convergence"):
        super().__init__(f"{check} {rel_diff:.3e} exceeds tolerance {tolerance:.3e}")
        self.rel_diff = rel_diff
        self.tolerance = tolerance


class SingularSteadyStateError(ValidationError):
    """Steady-state system is exactly singular (zero damping on resonance)."""


@dataclass(frozen=True)
class DriveTone:
    """Coherent input tone on the readout port.

    amp_in is in sqrt(photons/s); the tone is zero outside [t_start, t_stop].
    """

    omega_d: float
    amp_in: float
    phase: float = 0.0
    t_start: float = -math.inf
    t_stop: float = math.inf

    def __post_init__(self):
        if self.amp_in < 0.0:
            raise ValidationError("incident amplitude must be >= 0")
        if not self.t_stop > self.t_start:
            raise ValidationError("drive support must be well-ordered")


@dataclass(frozen=True)
class SimConfig:
    frame: str = "rotating"  # "lab" or "rotating"
    dt: float = 1e-9
    t_end: float = 1e-6
    t_start: float = 0.0
    record_stride: int = 1
    tolerance: float = 1e-6  # half-step self-convergence target

    def __post_init__(self):
        if self.frame not in ("lab", "rotating"):
            raise ValidationError(f"unknown frame {self.frame!r}")
        if not self.dt > 0.0:
            raise ValidationError("dt must be positive")
        if not self.t_end > self.t_start:
            raise ValidationError("t_end must exceed t_start")
        if self.record_stride < 1:
            raise ValidationError("record_stride must be >= 1")


@dataclass
class TraceRecord:
    """Sampled trajectory: times, mode amplitudes, and the output field."""

    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    a_out: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def energy_a(self) -> np.ndarray:
        return np.abs(self.a) ** 2

    @property
    def energy_b(self) -> np.ndarray:
        return np.abs(self.b) ** 2

    def window(self, t_lo: float, t_hi: float) -> "TraceRecord":
        """Sub-trace with t_lo <= t <= t_hi (half-open rounding tolerant)."""
        eps = 1e-15 + 1e-9 * (self.t[-1] - self.t[0])
        sel = (self.t >= t_lo - eps) & (self.t <= t_hi + eps)
        if not np.any(sel):
            raise ValidationError("empty trace window")
        return TraceRecord(self.t[sel], self.a[sel], self.b[sel],
                           self.a_out[sel], dict(self.meta))

    def to_csv(self, path):
        """Write data columns to `path` (cells as ``%.17g``) and metadata to
        `<path>.meta`."""
        with open(path, "w") as fh:
            fh.write("t_s,re_a,im_a,re_b,im_b,re_aout,im_aout\n")
            write_columns(fh, [self.t, self.a.real, self.a.imag, self.b.real,
                               self.b.imag, self.a_out.real, self.a_out.imag])
        with open(f"{path}.meta", "w") as fh:
            for key in sorted(self.meta):
                fh.write(f"{key} = {self.meta[key]}\n")

    @classmethod
    def from_csv(cls, path):
        """Read a trace written by ``to_csv``; metadata values that parse as
        int or float come back as numbers, the rest as str."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        meta = {}
        try:
            with open(f"{path}.meta") as fh:
                for line in fh:
                    key, _, val = line.partition("=")
                    meta[key.strip()] = _meta_value(val.strip())
        except FileNotFoundError:
            pass
        return cls(data[:, 0], data[:, 1] + 1j * data[:, 2],
                   data[:, 3] + 1j * data[:, 4], data[:, 5] + 1j * data[:, 6],
                   meta)


def _csv_blocks(columns):
    """The CSV rows of equal-length `columns`, ``_CSV_BLOCK`` rows to a
    string: a column of str cells (a str or object array, or a list) as it
    is, any other as float ``%.17g``."""
    cols = []
    for col in columns:
        arr = np.asarray(col)
        cols.append(arr if arr.dtype.kind in "OU" else arr.astype(float, copy=False))
    n = len(cols[0])
    if any(len(col) != n for col in cols):
        raise ValidationError("CSV columns must have equal lengths")
    width = len(cols)
    row = ",".join("%s" if col.dtype.kind in "OU" else "%.17g" for col in cols) + "\n"
    for lo in range(0, n, _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, n)
        cells = [None] * ((hi - lo) * width)
        for k, col in enumerate(cols):
            cells[k::width] = col[lo:hi].tolist()
        yield row * (hi - lo) % tuple(cells)


def write_columns(fh, columns):
    """Write equal-length `columns` to the text file `fh` as CSV rows."""
    fh.writelines(_csv_blocks(columns))


def format_cells(values) -> np.ndarray:
    """The ``%.17g`` cells of `values` as an object array of str: a sweep
    axis is formatted once, and ``np.repeat``/``np.tile`` of the result make
    a str column that holds references to these strings, not copies."""
    return np.array("".join(_csv_blocks([values])).splitlines(), dtype=object)


def _meta_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def lab_frame(trace: TraceRecord, mode_a: ModeParams, mode_b: ModeParams) -> TraceRecord:
    """The lab-frame trace of a rotating-frame one: a and a_out times
    e^{-i w_A t}, b times e^{-i w_B t}. Exact, since both frames hold the
    same rotating-wave equations."""
    rot_a = np.exp(-1j * mode_a.omega * trace.t)
    return TraceRecord(trace.t, trace.a * rot_a,
                       trace.b * np.exp(-1j * mode_b.omega * trace.t),
                       trace.a_out * rot_a, dict(trace.meta, frame="lab"))


def rabi_frequency(delta: float, g_p: float) -> float:
    """Energy-oscillation frequency of the detuned two-mode swap.

    This is the frequency at which |a(t)|^2 oscillates: sqrt(D^2 + 4 g_P^2),
    i.e. 2 g_P on resonance (the normal-mode splitting).
    """
    return math.sqrt(delta * delta + 4.0 * g_p * g_p)


def max_step(mode_a, mode_b, pump, drive=None, frame="rotating",
             points_per_cycle=MIN_POINTS_PER_CYCLE) -> float:
    """Largest RK4 step that spends `points_per_cycle` steps on one cycle of
    the fastest rate of this system in the given frame (inf if none).

    The rotating-frame fastest rate is max(sqrt(D^2 + 4 g_P^2), gamma_A,
    gamma_B, |w_d - w_A|): the swap frequency at the peak pump amplitude,
    the losses and the drive offset. The lab frame adds the carriers.
    """
    rates = [mode_a.gamma_total, mode_b.gamma_total]
    if frame == "lab":
        rates += [mode_a.omega, mode_b.omega, pump.omega_p]
        if drive is not None:
            rates.append(drive.omega_d)
    else:
        rates.append(rabi_frequency(detuning(pump, mode_a, mode_b),
                                    pump.envelope.max_amplitude))
        if drive is not None:
            rates.append(abs(drive.omega_d - mode_a.omega))
    fastest = max(rates)
    return math.inf if fastest == 0.0 else TWO_PI / (points_per_cycle * fastest)


def input_field(drive, mode_a, frame, t):
    """Incident field a_in at times t (array), in the integration frame."""
    if drive is None or drive.amp_in == 0.0:
        return np.zeros_like(t, dtype=complex)
    dw = drive.omega_d if frame == "lab" else drive.omega_d - mode_a.omega
    field_vals = drive.amp_in * np.exp(-1j * (dw * t + drive.phase))
    mask = (t >= drive.t_start) & (t <= drive.t_stop)
    return np.where(mask, field_vals, 0.0 + 0.0j)


def _steps(config: SimConfig):
    """(step count, step) of ``integrate``: dt is shrunk, never grown, so an
    integer number of steps lands exactly on t_end."""
    span = config.t_end - config.t_start
    n = max(1, int(math.ceil(span / config.dt - 1e-12)))
    return n, span / n


def half_step_config(config: SimConfig) -> SimConfig:
    """The dt/2 run ``integrate_checked`` compares against (and returns),
    recording at twice the stride so it keeps the same record times."""
    _, dt = _steps(config)
    return SimConfig(config.frame, 0.5 * dt, config.t_end, config.t_start,
                     2 * config.record_stride, config.tolerance)


def _record_steps(n: int, stride: int) -> np.ndarray:
    """Step counts after which ``integrate`` records: every `stride` steps
    plus the final one."""
    k = np.arange(stride, n + 1, stride)
    if k.size == 0 or k[-1] != n:
        k = np.append(k, n)
    return k


def record_times(config: SimConfig) -> np.ndarray:
    """The times ``integrate`` records under `config`, bit for bit."""
    n, dt = _steps(config)
    k = _record_steps(n, config.record_stride)
    return np.concatenate(([config.t_start], config.t_start + k * dt))


def exact_segment(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
                  drive: DriveTone | None, config: SimConfig) -> TraceRecord:
    """The closed-form rotating-frame solution of one constant-coefficient
    segment (constant pump and no drive, or a drive tone and no pump) on
    the grid ``integrate`` records under `config`."""
    mode_a, mode_b = modes
    t = record_times(config)
    if drive is None:
        a, b = propagate_swap(initial, modes, pump.envelope.max_amplitude,
                              detuning(pump, mode_a, mode_b), pump.phi_p, t)
    else:
        a, b = propagate_load(initial, modes, drive, t)
    a_out = input_field(drive, mode_a, "rotating", t) - math.sqrt(mode_a.gamma_ext) * a
    return TraceRecord(t, a, b, a_out)


def integrate(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
              drive: DriveTone | None = None,
              config: SimConfig = SimConfig()) -> TraceRecord:
    """Fixed-step RK4 trajectory of the coupled-mode equations.

    The step is shrunk (never grown) so an integer number of steps lands
    exactly on t_end. Records (t, a, b, a_out) every `record_stride` steps
    plus the final point. ``_rk4_maps`` builds the affine maps of `_BLOCK`
    steps at a time and ``_scan`` composes them (see the module docstring).
    """
    mode_a, mode_b = modes
    check_mode_order(mode_a, mode_b)
    dt_max = max_step(mode_a, mode_b, pump, drive, config.frame)
    if config.dt > dt_max * (1.0 + 1e-12):
        raise ResolutionError(
            f"dt={config.dt:.3e} s does not resolve the fastest timescale in the "
            f"{config.frame} frame (need dt <= {dt_max:.3e} s)")

    n, dt = _steps(config)
    steps = _record_steps(n, config.record_stride)
    t_arr = record_times(config)
    x = np.empty((2, steps.size + 1), dtype=complex)
    x[:, 0] = state = np.array([initial.a, initial.b], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is checked below
        for j0 in range(0, n, _BLOCK):
            j1 = min(j0 + _BLOCK, n)
            maps = _rk4_maps(config.t_start + np.arange(j0, j1) * dt, dt,
                             mode_a, mode_b, pump, drive, config.frame)
            states = _scan(maps, state)
            state = states[:, -1]
            lo, hi = np.searchsorted(steps, (j0, j1), side="right")
            x[:, 1 + lo:1 + hi] = states[:, steps[lo:hi] - j0 - 1]
    bad = np.flatnonzero(~np.all(np.isfinite(x), axis=0))
    if bad.size:
        a, b = complex(x[0, bad[0]]), complex(x[1, bad[0]])
        raise IntegrationDivergedError(
            f"non-finite state at t={t_arr[bad[0]]:.6e} s (a={a!r}, b={b!r})")

    a_in = input_field(drive, mode_a, config.frame, t_arr)
    a_out = a_in - math.sqrt(mode_a.gamma_ext) * x[0]
    meta = {
        "frame": config.frame,
        "dt": dt,
        "t_start": config.t_start,
        "t_end": config.t_end,
        "record_stride": config.record_stride,
        "omega_a": mode_a.omega,
        "gamma_int_a": mode_a.gamma_int,
        "gamma_ext_a": mode_a.gamma_ext,
        "omega_b": mode_b.omega,
        "gamma_int_b": mode_b.gamma_int,
        "gamma_ext_b": mode_b.gamma_ext,
        "omega_p": pump.omega_p,
        "phi_p": pump.phi_p,
    }
    return TraceRecord(t_arr, x[0], x[1], a_out, meta)


def _rk4_maps(t, dt, mode_a, mode_b, pump, drive, frame) -> np.ndarray:
    """The affine RK4 maps of the steps starting at the times `t`, as an
    array M of shape (2, 3, len(t)): row r of step k gives component r of
    x_{k+1} = M[:, :2, k] x_k + M[:, 2, k].

    The classic RK4 stages run on the three columns at once: the unit
    states (1, 0) and (0, 1) without the drive, and (0, 0) with it.
    """
    ga2 = 0.5 * mode_a.gamma_total
    gb2 = 0.5 * mode_b.gamma_total
    if frame == "lab":
        na, nb, wp = -1j * mode_a.omega - ga2, -1j * mode_b.omega - gb2, pump.omega_p
    else:
        na, nb, wp = complex(-ga2), complex(-gb2), detuning(pump, mode_a, mode_b)
    half = 0.5 * dt
    stages = t + np.array([0.0, half, dt])[:, None]  # t, t + dt/2, t + dt
    ph = np.exp(1j * (wp * stages + pump.phi_p))
    g = -1j * pump.envelope(stages)
    up, down = g * ph, g * ph.conj()  # a <- b and b <- a couplings
    f = math.sqrt(mode_a.gamma_ext) * input_field(drive, mode_a, frame, stages)

    def rhs(s, a, b):
        da = na * a + up[s] * b
        da[2] += f[s]
        return da, nb * b + down[s] * a

    a = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    b = np.array([[0.0], [1.0], [0.0]], dtype=complex)
    k1a, k1b = rhs(0, a, b)
    k2a, k2b = rhs(1, a + half * k1a, b + half * k1b)
    k3a, k3b = rhs(1, a + half * k2a, b + half * k2b)
    k4a, k4b = rhs(2, a + dt * k3a, b + dt * k3b)
    sixth = dt / 6.0
    return np.stack((a + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a),
                     b + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)))


def _scan(maps: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States (2, m) after each of the m affine steps `maps` from x0.

    Odd-even prefix scan (Blelloch, CMU-CS-90-190): compose neighbouring
    pairs of steps, solve the half-length problem for every second state,
    then take one step from each of those to fill in the rest. log2(m)
    levels of array operations and O(m) work, with no loop over steps.
    """
    m = maps.shape[-1]
    even, odd = maps[..., 0::2], maps[..., 1::2]  # steps 0, 2, ... and 1, 3, ...
    pairs = odd.shape[-1]
    before = x0[:, None]  # the states the even steps start from
    if pairs:
        first = even[..., :pairs]
        composed = odd[:, :1] * first[:1] + odd[:, 1:2] * first[1:2]
        composed[:, 2] += odd[:, 2]
        every_second = _scan(composed, x0)
        before = np.concatenate((before, every_second[:, :(m - 1) // 2]), axis=1)
    out = np.empty((2, m), dtype=complex)
    out[:, 0::2] = even[:, 0] * before[0] + even[:, 1] * before[1] + even[:, 2]
    if pairs:
        out[:, 1::2] = every_second
    return out


def integrate_checked(initial, modes, pump, drive=None,
                      config: SimConfig = SimConfig()):
    """Integrate with a mandatory half-step self-convergence check.

    Runs the trajectory at dt and dt/2 and compares the final states;
    raises ConvergenceError above config.tolerance. Returns the half-step
    trace and the measured relative difference.
    """
    coarse = integrate(initial, modes, pump, drive, config)
    fine = integrate(initial, modes, pump, drive, half_step_config(config))
    return fine, check_half_step(coarse, fine, config.tolerance)


def check_half_step(coarse: TraceRecord, fine: TraceRecord, tolerance: float) -> float:
    """Relative difference |(a, b)_coarse - (a, b)_fine| / |(a, b)_fine| of
    the final states of a run and its half-step rerun.

    Raises ConvergenceError above `tolerance`; otherwise stores the
    difference as fine.meta["convergence_rel_diff"] and returns it.
    """
    vc = np.array([coarse.a[-1], coarse.b[-1]])
    vf = np.array([fine.a[-1], fine.b[-1]])
    scale = max(float(np.linalg.norm(vf)), 1e-300)
    rel = float(np.linalg.norm(vc - vf) / scale)
    if rel > tolerance:
        raise ConvergenceError(rel, tolerance)
    fine.meta["convergence_rel_diff"] = rel
    return rel


def check_exact(a, b, rk4: TraceRecord, tolerance: float) -> float:
    """Largest |(a, b) - (a, b)_RK4| over the grid of `rk4`, relative to
    the peak exact amplitude |(a, b)|, for exact amplitudes `a`, `b`
    sampled on that grid.

    Raises ConvergenceError above `tolerance`; otherwise returns it.
    """
    peak = max(float(np.max(np.hypot(np.abs(a), np.abs(b)))), 1e-300)
    diff = float(np.max(np.hypot(np.abs(a - rk4.a), np.abs(b - rk4.b)))) / peak
    if diff > tolerance:
        raise ConvergenceError(diff, tolerance, "exact-vs-RK4 difference")
    return diff


def propagate_swap(initial: ComplexAmplitudePair, modes, g_p: float,
                   delta: float, phi_p: float, t):
    """Exact rotating-frame amplitudes under a constant pump and no drive.

    `g_p` is the pump amplitude, `delta` = omega_p - (omega_B - omega_A)
    the detuning and `phi_p` the pump phase; the state `initial` is taken
    at time initial.t. Returns the arrays (a~(t), b~(t)) at the times `t`
    from the closed-form matrix exponential in the module docstring.
    """
    mode_a, mode_b = modes
    check_mode_order(mode_a, mode_b)
    t = np.asarray(t, dtype=float)
    tau = t - initial.t
    a0 = complex(initial.a)
    c0 = complex(initial.b) * cmath.exp(1j * (delta * initial.t + phi_p))
    ga2 = 0.5 * mode_a.gamma_total
    gb2 = 0.5 * mode_b.gamma_total
    m = 0.5 * (1j * delta - ga2 - gb2)
    n11 = -ga2 - m  # N = [[n11, -i g], [-i g, -n11]]
    s = cmath.sqrt(n11 * n11 - g_p * g_p)
    if abs(s.real) * float(np.max(np.abs(tau))) < 700.0:
        em = np.exp(m * tau)
        ch = em * np.cosh(s * tau)
        sh = em * (tau if s == 0.0 else np.sinh(s * tau) / s)  # sinh(s t)/s -> t
    else:  # cosh(s t) would overflow: expand in the eigenvalues m +- s instead
        e_plus, e_minus = np.exp((m + s) * tau), np.exp((m - s) * tau)
        ch = 0.5 * (e_plus + e_minus)
        sh = (e_plus - e_minus) / (2.0 * s)
    a = ch * a0 + sh * (n11 * a0 - 1j * g_p * c0)
    c = ch * c0 - sh * (1j * g_p * a0 + n11 * c0)
    b = c * np.exp(-1j * (delta * t + phi_p))
    return _finite(a, b, "swap")


def propagate_load(initial: ComplexAmplitudePair, modes, drive: DriveTone, t):
    """Exact rotating-frame amplitudes under the drive tone `drive` and no
    pump; the drive must be on over all of `t`.

    With gamma = gamma_A/2, f = sqrt(gamma_ext) amp_in, D = w_d - w_A,
    z = gamma - iD and tau = t - initial.t,

        a~(t) = a0 e^{-gamma tau} + f e^{-i phi} e^{-iD t} tau h(z tau),

    where h(w) = (1 - e^{-w})/w and h(0) = 1, and b~ decays freely.
    Returns the arrays (a~(t), b~(t)).
    """
    mode_a, mode_b = modes
    check_mode_order(mode_a, mode_b)
    t = np.asarray(t, dtype=float)
    if np.any(t < drive.t_start) or np.any(t > drive.t_stop):
        raise ValidationError("propagate_load needs the drive on over all sample times")
    tau = t - initial.t
    ga2 = 0.5 * mode_a.gamma_total
    dw = drive.omega_d - mode_a.omega
    w = (ga2 - 1j * dw) * tau
    nonzero = w != 0.0
    w_safe = np.where(nonzero, w, 1.0)
    h = np.where(nonzero, -np.expm1(-w_safe) / w_safe, 1.0)
    f = math.sqrt(mode_a.gamma_ext) * drive.amp_in
    a = (complex(initial.a) * np.exp(-ga2 * tau)
         + f * np.exp(-1j * (dw * t + drive.phase)) * tau * h)
    b = complex(initial.b) * np.exp(-0.5 * mode_b.gamma_total * tau)
    return _finite(a, b, "load")


def _finite(a, b, what):
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise IntegrationDivergedError(f"non-finite exact {what} amplitudes")
    return a, b


def reflection_spectrum(mode_a: ModeParams, mode_b: ModeParams,
                        pump: PumpDrive, probe_omegas) -> np.ndarray:
    """Steady-state reflection coefficient of the readout port under a CW pump.

    Solves the linear rotating-frame steady state under a weak probe at
    each frequency and returns Gamma(w) = a_out/a_in. For g_P = 0 this is
    the standard single-port Lorentzian 1 - gamma_ext / (i(w_A - w) + gamma_A/2).
    """
    check_mode_order(mode_a, mode_b)
    if not getattr(pump.envelope, "is_cw", False):
        raise ValidationError("reflection_spectrum requires a CW pump envelope")
    g = pump.envelope.max_amplitude
    w = np.asarray(probe_omegas, dtype=float)

    chi_a_inv = 1j * (mode_a.omega - w) + 0.5 * mode_a.gamma_total
    if g == 0.0:
        denom = chi_a_inv
    else:
        chi_b_inv = 1j * (mode_b.omega - w - pump.omega_p) + 0.5 * mode_b.gamma_total
        if np.any(chi_b_inv == 0.0):
            raise SingularSteadyStateError(
                "undamped storage mode exactly on the converted probe frequency")
        denom = chi_a_inv + g * g / chi_b_inv
    if np.any(denom == 0.0):
        raise SingularSteadyStateError(
            "undamped readout mode exactly on the probe frequency")
    return 1.0 - mode_a.gamma_ext / denom
