"""Coupled-mode integration and steady-state reflection.

In the lab frame the coupled-mode equations of motion read (plus an input
drive term on the readout port):

    da/dt = -i(w_A - i g_A/2) a - i g_P(t) e^{+i(w_P t + phi_P)} b + sqrt(g_ext) a_in(t)
    db/dt = -i(w_B - i g_B/2) b - i g_P(t) e^{-i(w_P t + phi_P)} a

Everything here integrates them in the rotating frame, which rotates each
mode at its own natural frequency and leaves only the slow envelopes:

    da~/dt = -(g_A/2) a~ - i g_P(t) e^{+i(D t + phi_P)} b~ + drive
    db~/dt = -(g_B/2) b~ - i g_P(t) e^{-i(D t + phi_P)} a~

with D = w_P - (w_B - w_A) the pump detuning (mode B must lie above mode
A). ``core.PumpDrive`` holds D itself, with the envelope g_P(t) and the
phase phi_P, and no absolute pump frequency. Every tone on mode A is held
the same way, by its offset from w_A: a ``DriveTone`` at w_d holds
delta = w_d - w_A and enters as drive = sqrt(g_ext) amp_in e^{-i delta t},
and ``_reflection_at`` takes each probe w as x = w - w_A. The output
field at the readout port is a_out = a_in - sqrt(g_ext) a (fixed by the
critical-coupling null of the reflection coefficient).

Both frames hold the same rotating-wave equations, so a lab-frame trace is
exactly the rotating-frame one times e^{-i w_A t} (a, a_out) and
e^{-i w_B t} (b): ``lab_frame`` applies that rotation after the fact.

Integration is classic fixed-step RK4, chosen over adaptive stepping so
that sweep trajectories are bit-reproducible. The equations are linear,
x' = A(t) x + f(t), so one RK4 step is an affine map x_{k+1} = P_k x_k +
q_k. One trace builder, ``rk4_trace``, serves ``integrate`` (a plan of one
segment) and the sequence oracle (a plan of every segment of a sequence,
each with its own step, pump and drive) alike, around one call to the
engine ``rk4_run``: for each block of steps it builds one map per
distinct step as arrays from A and f at the stage times (one for a
segment's share with constant A and f, such as a resonant rectangular
swap, a delay or a resonant load, and one per step otherwise), repeats
each to one map per step and composes them with an odd-even prefix scan
(Blelloch, CMU-CS-90-190, 1990); its blocks run across segment
boundaries. That is the RK4 solution of a step-by-step
loop, rounded differently, so the dt/2 rerun of ``integrate_checked``
still measures a genuine RK4 step-size difference. ``rk4_final``, the
coarse twin of the sequence oracle, is the same engine run to its final
state alone, which ``_last`` composes bit for bit as the scan would. A
constant pump with no drive has an exact solution instead
(``propagate_swap``): substituting c = b~ e^{i(D t + phi_P)} makes the
rotating-frame system time-invariant,

    d/dt (a~, c) = M (a~, c),   M = [[-g_A/2, -i g_P], [-i g_P, i D - g_B/2]],

and exp(M t) = e^{m t} (cosh(s t) I + sinh(s t)/s N) with m = tr M / 2,
N = M - m I and s^2 = N_11^2 - g_P^2 (Moler & Van Loan, SIAM Rev. 45,
2003). ``swap_eigen`` alone forms m, N_11 and s (M's eigenvalues are
m +- s), and every closed form of the swap lives here and reads it: the
propagators, ``swap_frequency`` W = 2 |Im s| and its inverse, and
``calibrate_swap_time``, the resonant swap that empties mode A. A drive
tone with no pump is a scalar affine equation for a~ and a free decay for
b~ (``propagate_load``). RK4 stays the integrator for
everything else (raised-cosine pump envelopes) and the oracle for the
exact solutions (``check_exact``).

``exact_segment`` samples the swap on its record grid t_j = t_start + j h
(h = record_stride dt, j = 0..J, then the off-stride last step) with no
complex exp, cosh or sinh per sample, by the addition theorem
exp(M (tau_q + tau_i)) = exp(M tau_i) exp(M tau_q). The grid is laid out
in rows of B = ceil(sqrt(J + 1)) samples; one ``_swap_exp`` call gives
ch = e^{m tau} cosh(s tau) and sh = e^{m tau} sinh(s tau)/s on about
2 sqrt(J) offsets: the first time of each row (and the last step) from
initial.t, and i h for i < B. Sample j = q B + i is the state at the start
of row q moved on by ch_i I + sh_i N, one (rows, 2) by (2, B) matrix
product, and the rotation e^{-i(D t + phi_P)} of b~ splits into a factor
per row and one per column, folded into both. The tabulated sample is the
closed form at t_{qB} + i h where ``propagate_swap`` takes the rounded
grid time t_j; the two differ by about an ulp of t, so they agree to about
that ulp times the fastest rate: 5.8e-14 of the peak |(a, b)| at worst on
the runners' default grids, and within 1e-12 on the generated grids of
the tests. ``propagate_swap`` stays per-sample, at any times: it is public
API, the tests' oracle of the tabulation, and what the storage/retrieval
runners chain segment by segment, at each segment's end time alone, to
reach the state where a readout starts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (ModeParams, PumpDrive, ComplexAmplitudePair, ValidationError,
                   check_mode_order)
from .textio import read_csv, read_key_values, write_csv, write_key_values

TWO_PI = 2.0 * math.pi

# minimum sample points per cycle of the fastest timescale
MIN_POINTS_PER_CYCLE = 50

# RK4 steps whose maps ``integrate`` builds and composes at once: bounds
# its working memory, not its result
_BLOCK = 4096

# most RK4 steps one ``integrate`` call may take (default runner configs
# take at most 30,720): a longer run is refused before it starts
MAX_STEPS = 10**7


class ResolutionError(ValidationError):
    """Integrator step too large for the fastest rotating-frame timescale."""


class IntegrationDivergedError(RuntimeError):
    """Non-finite state encountered during integration."""


class ConvergenceError(RuntimeError):
    """Half-step self-convergence (or exact-vs-RK4 agreement) check failed."""

    def __init__(self, rel_diff, tolerance, check="half-step self-convergence"):
        super().__init__(f"{check} {rel_diff:.3e} exceeds tolerance {tolerance:.3e}")
        self.rel_diff = rel_diff
        self.tolerance = tolerance


class CalibrationError(RuntimeError):
    """No pulse length nulls mode A: gamma_B - gamma_A >= 4 g_P."""


class SingularSteadyStateError(ValidationError):
    """Steady-state system is exactly singular (zero damping on resonance)."""


@dataclass(frozen=True)
class DriveTone:
    """Coherent input tone on the readout port in the rotating frame: its
    offset `delta` = w_d - w_A (rad/s) from mode A, like
    ``PumpDrive.delta``, and no absolute carrier.

    amp_in is in sqrt(photons/s); the tone is zero outside [t_start, t_stop].
    """

    delta: float
    amp_in: float
    t_start: float = -math.inf
    t_stop: float = math.inf

    def __post_init__(self):
        if not math.isfinite(self.delta):
            raise ValidationError(f"drive offset must be finite, got {self.delta}")
        if not self.amp_in >= 0.0:
            raise ValidationError(f"incident amplitude must be >= 0, got {self.amp_in}")
        if not self.t_stop > self.t_start:
            raise ValidationError("drive support must be well-ordered")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-9
    t_end: float = 1e-6
    t_start: float = 0.0
    record_stride: int = 1

    def __post_init__(self):
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
        `<path>.meta` as ``key = value`` lines."""
        write_csv(path, [], ["t_s", "re_a", "im_a", "re_b", "im_b", "re_aout", "im_aout"],
                  [self.t, self.a.real, self.a.imag, self.b.real, self.b.imag,
                   self.a_out.real, self.a_out.imag])
        write_key_values(f"{path}.meta", [(key, self.meta[key]) for key in sorted(self.meta)])

    @classmethod
    def from_csv(cls, path):
        """Read a trace written by ``to_csv``; metadata values that parse as
        int or float come back as numbers, the rest as str."""
        data = read_csv(path)
        return cls(data[:, 0], data[:, 1] + 1j * data[:, 2],
                   data[:, 3] + 1j * data[:, 4], data[:, 5] + 1j * data[:, 6],
                   read_key_values(f"{path}.meta"))


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


def _loss_offset(modes) -> float:
    """c = (gamma_B - gamma_A)/2, the loss imbalance of the lossy swap."""
    mode_a, mode_b = modes
    return 0.5 * (mode_b.gamma_total - mode_a.gamma_total)


def swap_eigen(modes, g_p, delta):
    """(m, n11, s, s2) of the constant-pump matrix M of the module
    docstring, elementwise: its half-trace m = (iD - gamma_A/2 - gamma_B/2)/2,
    n11 = (c - iD)/2 of N = M - m I with c = (gamma_B - gamma_A)/2
    (``_loss_offset``), the radicand s2 = n11^2 - g_P^2 (N^2 = s2 I) and
    s = sqrt(s2). M's eigenvalues are m +- s."""
    mode_a, mode_b = modes
    m = 0.5 * (1j * delta - 0.5 * mode_a.gamma_total - 0.5 * mode_b.gamma_total)
    n11 = 0.5 * (_loss_offset(modes) - 1j * delta)
    s2 = n11 * n11 - g_p * g_p
    return m, n11, np.sqrt(s2), s2


def swap_frequency(modes, g_p, delta):
    """Energy-oscillation frequency W of the lossy detuned swap, elementwise.

    |a(t)|^2 under a constant pump is a sum of damped exponentials whose one
    complex pair oscillates at W = 2 |Im s| for the s of ``swap_eigen``:
    W = |Im sqrt((c - iD)^2 - 4 g_P^2)| with c = (gamma_B - gamma_A)/2.
    It is 0 where the swap is overdamped, and never above the lossless
    ``rabi_frequency(D, g_P)``.
    """
    s = swap_eigen(modes, np.asarray(g_p, dtype=float), np.asarray(delta, dtype=float))[2]
    return 2.0 * np.abs(s.imag)


def swap_coupling_sq(modes, omega, delta):
    """g_P^2 whose ``swap_frequency`` at pump detuning `delta` is `omega`,
    elementwise: 4 g_P^2 = W^2 - D^2 + c^2 (1 - D^2/W^2), the inverse of
    that forward model. At D = 0 it is (W^2 + c^2)/4."""
    c = _loss_offset(modes)
    w2 = np.square(omega)
    d2 = np.square(delta)
    return 0.25 * (w2 - d2 + c * c * (1.0 - d2 / w2))


def calibrate_swap_time(modes, g_p: float) -> float:
    """Length of the shortest resonant swap pulse that empties mode A.

    For a(0) = 1, b(0) = 0 and a pump at zero detuning, a(T) is real:
    a(T) = e^{-(gamma_A + gamma_B) T/4} (cos(W T) - d sin(W T)/W), with
    d = (gamma_A - gamma_B)/4 = -c/2 (``_loss_offset``) and
    W = sqrt(g_P^2 - d^2) = |Im s| of ``swap_eigen`` at D = 0
    (``propagate_swap``). Its first zero is T = atan2(W, d)/W when
    g_P > |d| (pi/(2 g_P) for lossless modes), T = atanh(s/d)/s with
    s = sqrt(d^2 - g_P^2) when 0 < g_P < d, and T = 1/d at g_P = d. Raises
    CalibrationError when gamma_B - gamma_A >= 4 g_P, where a(T) has no
    zero, and ValidationError where W or s over- or underflows.

    W and s are formed here in real arithmetic, factored as
    sqrt((g_P - d)(g_P + d)): near critical damping the complex s of
    ``swap_eigen`` loses about eps (g_P^2 + d^2)/W^2 of W to the
    cancellation in n11^2 - g_P^2, and T sets every store_retrieve file.
    """
    if not g_p > 0.0:
        raise ValidationError("g_p must be positive for swap calibration")
    gamma_a, gamma_b = modes[0].gamma_total, modes[1].gamma_total
    d = 0.25 * (gamma_a - gamma_b)
    if g_p > abs(d):
        w = _calibration_rate(g_p, d, "W")
        return math.atan2(w, d) / w
    if d > g_p:
        s = _calibration_rate(g_p, d, "s")
        # atanh(s/d) = log((d + s)/g_p), written without the cancellation
        # of 1 - s/d when g_p << d
        return math.log1p((d - g_p + s) / g_p) / s
    if d == g_p:
        return 1.0 / d
    raise CalibrationError(
        f"no pulse length nulls mode A: gamma_B - gamma_A = {gamma_b:.6g} - "
        f"{gamma_a:.6g} 1/s is at least 4 g_P = {4.0 * g_p:.6g} rad/s")


def _calibration_rate(g_p, d, name):
    """sqrt(|(g_P - d)(g_P + d)|), the W or s of ``calibrate_swap_time``;
    one that is not positive and finite raises ValidationError naming g_P."""
    rate = math.sqrt(abs((g_p - d) * (g_p + d)))
    if not 0.0 < rate < math.inf:
        raise ValidationError(f"g_P = {g_p:.6g} rad/s with d = {d:.6g} 1/s gives "
                              f"{name} = {rate:.6g} 1/s: no finite swap time")
    return rate


def max_step(mode_a, mode_b, pump, drive=None,
             points_per_cycle=MIN_POINTS_PER_CYCLE) -> float:
    """Largest RK4 step that spends `points_per_cycle` steps on one cycle of
    the fastest rotating-frame rate of this system (inf if none).

    That rate is max(sqrt(D^2 + 4 g_P^2), gamma_A, gamma_B, |delta_d|):
    the swap frequency at the peak pump amplitude, the losses and the
    drive offset delta_d = w_d - w_A (``DriveTone.delta``). A swap
    frequency at or above w_B - w_A, outside the rotating-wave model,
    raises ValidationError.
    """
    swap = rabi_frequency(pump.delta, pump.g)
    spacing = mode_b.omega - mode_a.omega
    if not swap < spacing:
        raise ValidationError(f"swap frequency {swap / TWO_PI:.6g}Hz is not below the mode "
                              f"spacing {spacing / TWO_PI:.6g}Hz: outside the rotating-wave model")
    rates = [mode_a.gamma_total, mode_b.gamma_total, swap]
    if drive is not None:
        rates.append(abs(drive.delta))
    fastest = max(rates)
    return math.inf if fastest == 0.0 else TWO_PI / (points_per_cycle * fastest)


def input_field(drive, t):
    """Incident field a_in = amp_in e^{-i delta t} at times t (array), in
    the rotating frame."""
    if drive is None or drive.amp_in == 0.0:
        return np.zeros_like(t, dtype=complex)
    field_vals = drive.amp_in * np.exp(-1j * (drive.delta * t))
    mask = (t >= drive.t_start) & (t <= drive.t_stop)
    return np.where(mask, field_vals, 0.0 + 0.0j)


def _steps(config: SimConfig):
    """(step count, step) of ``integrate``: dt is shrunk, never grown, so an
    integer number of steps lands exactly on t_end. The rounding slack is
    relative, as in the ResolutionError check of ``integrate``, so a span
    of exactly N steps takes N at any N."""
    span = config.t_end - config.t_start
    n = max(1, int(math.ceil(span / config.dt * (1.0 - 1e-12))))
    return n, span / n


def half_step_config(config: SimConfig) -> SimConfig:
    """The dt/2 run of ``integrate_checked`` and of
    ``experiments._swap_problem``, recording at twice the stride so it
    keeps the same record times."""
    _, dt = _steps(config)
    return replace(config, dt=0.5 * dt, record_stride=2 * config.record_stride)


def _record_steps(n: int, stride: int) -> np.ndarray:
    """Step counts after which ``integrate`` records: every `stride` steps
    plus the final one."""
    k = np.arange(stride, n + 1, stride)
    if k.size == 0 or k[-1] != n:
        k = np.append(k, n)
    return k


def record_times(config: SimConfig) -> np.ndarray:
    """The times ``integrate`` records under `config`, bit for bit. A span
    of 2**64 steps or more, a count numpy holds in no integer type, raises
    ValidationError."""
    n, dt = _steps(config)
    if n >= 2**64:
        raise ValidationError(f"{n} steps on the record grid exceed the bound of "
                              f"{2**64 - 1} steps")
    k = _record_steps(n, config.record_stride)
    return np.concatenate(([config.t_start], config.t_start + k * dt))


def exact_segment(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
                  drive: DriveTone | None, config: SimConfig) -> TraceRecord:
    """The closed-form rotating-frame solution of one constant-coefficient
    segment (constant pump and no drive, or a drive tone and no pump) on
    the grid ``integrate`` records under `config`; a swap is tabulated
    (``_swap_grid``, see the module docstring)."""
    check_mode_order(*modes)
    mode_a = modes[0]
    t = record_times(config)
    if drive is None:
        a, b = _swap_grid(initial, modes, pump, config, t)
    else:
        a, b = propagate_load(initial, modes, drive, t)
    a_out = input_field(drive, t) - math.sqrt(mode_a.gamma_ext) * a
    return TraceRecord(t, a, b, a_out)


def mode_meta(modes) -> dict:
    """The metadata every rotating-frame trace of ``integrate`` and
    ``sequences.run_sequence`` carries: its frame and the frequency and
    loss rates of both modes."""
    mode_a, mode_b = modes
    return {"frame": "rotating",
            "omega_a": mode_a.omega, "gamma_int_a": mode_a.gamma_int,
            "gamma_ext_a": mode_a.gamma_ext,
            "omega_b": mode_b.omega, "gamma_int_b": mode_b.gamma_int,
            "gamma_ext_b": mode_b.gamma_ext}


def integrate(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
              drive: DriveTone | None = None,
              config: SimConfig = SimConfig()) -> TraceRecord:
    """Fixed-step RK4 trajectory of the coupled-mode equations.

    The step is shrunk (never grown) so an integer number of steps lands
    exactly on t_end; more than ``MAX_STEPS`` steps raise ValidationError.
    Records (t, a, b, a_out) every `record_stride` steps plus the final
    point: ``rk4_trace`` of one segment.
    """
    trace = rk4_trace(initial, modes, [(pump, drive, config)])
    trace.meta = {**mode_meta(modes), "dt": _steps(config)[1], "t_start": config.t_start,
                  "t_end": config.t_end, "record_stride": config.record_stride,
                  "delta": pump.delta, "phi_p": pump.phase}
    return trace


def _rk4_segments(modes, plan):
    """The segments of `plan`, each (pump, drive, SimConfig), as ``rk4_run``
    takes them: (pump, drive, t_start, step count, step). Each is refused
    before any array is built, with ResolutionError where its dt does not
    resolve the fastest timescale (``max_step``) and ValidationError above
    ``MAX_STEPS`` steps."""
    check_mode_order(*modes)
    segments = []
    for pump, drive, config in plan:
        dt_max = max_step(*modes, pump, drive)
        if config.dt > dt_max * (1.0 + 1e-12):
            raise ResolutionError(f"dt={config.dt:.3e} s does not resolve the fastest "
                                  f"timescale (need dt <= {dt_max:.3e} s)")
        n, dt = _steps(config)
        if n > MAX_STEPS:
            raise ValidationError(f"{n} RK4 steps exceed the bound of {MAX_STEPS} steps "
                                  "per integration")
        segments.append((pump, drive, config.t_start, n, dt))
    return segments


def rk4_trace(initial: ComplexAmplitudePair, modes, plan) -> TraceRecord:
    """RK4 trace, with no metadata, from the state `initial` through the
    one or more segments of `plan`, each (pump, drive, SimConfig), in one
    ``rk4_run``: each segment is refused as ``_rk4_segments`` refuses it,
    and recorded on its ``record_times``. A boundary sample belongs to the
    segment that ends there, whose drive gives its a_out. The first
    non-finite state raises IntegrationDivergedError naming its time.
    """
    segments = _rk4_segments(modes, plan)
    times, a_in, record = [], [], []
    done = 0  # the steps of the segments before
    for (_, drive, config), (*_, n, _) in zip(plan, segments):
        grid = record_times(config)
        first = 1 if times else 0  # the boundary sample belongs to the segment before
        times.append(grid[first:])
        a_in.append(input_field(drive, grid)[first:])
        record.append(done + _record_steps(n, config.record_stride))
        done += n
    t = np.concatenate(times)
    x = rk4_run([initial.a, initial.b], modes, segments, np.concatenate(record))
    bad = np.flatnonzero(~np.all(np.isfinite(x), axis=0))
    if bad.size:
        a, b = complex(x[0, bad[0]]), complex(x[1, bad[0]])
        raise IntegrationDivergedError(
            f"non-finite state at t={t[bad[0]]:.6e} s (a={a!r}, b={b!r})")
    a_out = np.concatenate(a_in) - math.sqrt(modes[0].gamma_ext) * x[0]
    return TraceRecord(t, x[0], x[1], a_out)


def rk4_final(initial: ComplexAmplitudePair, modes, plan) -> np.ndarray:
    """The state (a, b) after the segments of `plan`, each (pump, drive,
    SimConfig), from the state `initial`: the last sample of ``rk4_trace``
    of `plan` bit for bit, refused as it refuses, with no record grid,
    input field, a_out or other state. A non-finite final state reruns
    ``rk4_trace``, which raises IntegrationDivergedError naming the first
    non-finite time."""
    x = rk4_run([initial.a, initial.b], modes, _rk4_segments(modes, plan))
    if not np.all(np.isfinite(x)):
        rk4_trace(initial, modes, plan)  # its last sample is x: it raises
        raise IntegrationDivergedError(f"non-finite final state (a, b) = {tuple(x)!r}")
    return x


def rk4_run(x0, modes, segments, record=None) -> np.ndarray:
    """RK4 from the state `x0` = (a, b) through `segments`, one after the
    other: each is (pump, drive, t_start, n, dt), n steps of dt from
    t_start. Returns the states (2, 1 + len(record)): `x0`, then the
    state after each step count of `record` (increasing, counted over
    all the segments); without a `record`, the final state (2,) alone.

    The steps run in blocks of ``_BLOCK``, counted from the first step,
    that cross segment boundaries: one ``_rk4_maps`` call builds the
    distinct affine maps of a block (``_block_coefficients``: one for a
    segment's share with constant coefficients, one per step otherwise),
    they are repeated to one map per step, and one ``_scan`` composes them
    from the state the block starts in (``_last`` without a `record`, to
    the same final state bit for bit). So a block holds at most
    ``_BLOCK`` steps, however long a segment is.
    """
    mode_a, mode_b = modes
    na, nb = complex(-0.5 * mode_a.gamma_total), complex(-0.5 * mode_b.gamma_total)
    total = sum(n for _, _, _, n, _ in segments)
    state = np.array(x0, dtype=complex)
    if record is not None:
        x = np.empty((2, len(record) + 1), dtype=complex)
        x[:, 0] = state
    with np.errstate(over="ignore", invalid="ignore"):  # see rk4_trace
        for j0 in range(0, total, _BLOCK):
            j1 = min(j0 + _BLOCK, total)
            counts, *coefficients = _block_coefficients(segments, j0, j1, mode_a)
            # `maps` lives on while the next block's maps are built: freed
            # first, its pages go back to the system and fault in again
            # (3.6 times the page faults over a run of 8 blocks)
            maps = _rk4_maps(na, nb, *coefficients)
            if len(counts) == 1:
                maps = np.broadcast_to(maps, (2, 3, j1 - j0))
            elif len(counts) < j1 - j0:
                maps = np.repeat(maps, counts, axis=-1)
            if record is None:
                state = _last(maps, state)
                continue
            states = _scan(maps, state)
            state = states[:, -1]
            lo, hi = np.searchsorted(record, (j0, j1), side="right")
            x[:, 1 + lo:1 + hi] = states[:, record[lo:hi] - j0 - 1]
    return state if record is None else x


def _block_coefficients(segments, j0, j1, mode_a):
    """(counts, h, up, down, f) of the steps j0 to j1 - 1 of ``rk4_run``:
    the stage coefficients (``_rk4_coefficients``) of the distinct steps
    of each segment's share, joined, with the number of steps each stands
    for, and the step length, a float where one segment holds them all
    and an array of one per distinct step otherwise.

    A share with constant coefficients (``_constant_share``) is one
    distinct step standing for all of its steps, a varying one has each
    of its steps standing for itself. Each map entry of ``_rk4_maps`` is
    elementwise in its column and in h, and its stage coefficients at
    every step of a constant share differ at most in the signs of zeros
    (see ``_rk4_coefficients``), so repeating its map keeps every bit."""
    shares = []  # (step, counts, coefficients) of each share
    first = 0  # the first step of each segment
    for pump, drive, t_start, n, dt in segments:
        lo, hi = max(j0 - first, 0), min(j1 - first, n)
        if lo < hi:
            t = t_start + np.arange(lo, hi) * dt
            # the first and last stage times, as _rk4_coefficients forms them
            if _constant_share(pump, drive, t[0] + 0.0, t[-1] + dt):
                t, counts = t[:1], [hi - lo]
            else:
                counts = np.ones(hi - lo, dtype=int)
            shares.append((dt, counts, _rk4_coefficients(t, dt, mode_a, pump, drive)))
        first += n
    if len(shares) == 1:
        dt, counts, coeffs = shares[0]
        return (counts, dt, *coeffs)
    steps, counts, coeffs = zip(*shares)
    h = np.repeat(steps, [c[0].shape[-1] for c in coeffs])
    return (np.concatenate(counts), h, *(np.concatenate(c, axis=-1) for c in zip(*coeffs)))


def _constant_share(pump, drive, first, last) -> bool:
    """Whether the stage coefficients of ``_rk4_coefficients`` are the
    same at every stage time from `first` to `last`: the pump is off, or
    rectangular and resonant, and the drive is absent, off or resonant,
    and each that is on is on over all of [first, last] (from its support,
    not from its values at the ends: a pulse may start and stop between
    them)."""
    pump_const = pump.g == 0.0 or (pump.delta == 0.0 and pump.ramp == 0.0
                                   and pump.t_start <= first and last <= pump.t_stop)
    return pump_const and (drive is None or drive.amp_in == 0.0
                           or (drive.delta == 0.0 and drive.t_start <= first
                               and last <= drive.t_stop))


def _rk4_coefficients(t, dt, mode_a, pump, drive):
    """The coefficients at the three RK4 stage times t, t + dt/2, t + dt of
    the steps of length `dt` starting at the times `t`, each as a
    (3, len(t)) array: the couplings up = -i g_P e^{+i(D t + phi_P)}
    (a <- b) and down = -i g_P e^{-i(D t + phi_P)} (b <- a), and the drive
    f = sqrt(gamma_ext) a_in.

    Where g_P = 0 (a delay, readout or load) both couplings are zeros and
    the pump phase is not evaluated. The maps of ``_rk4_maps`` keep their
    bits, signed zeros included: a zero coupling of either sign changes no
    nonzero stage value, and each map entry ends by adding its stage sum
    to 0 or 1, which turns a zero of either sign into +0."""
    stages = t + np.array([0.0, 0.5 * dt, dt])[:, None]
    f = math.sqrt(mode_a.gamma_ext) * input_field(drive, stages)
    if pump.g == 0.0:
        zero = np.zeros(stages.shape, dtype=complex)
        return zero, zero, f
    ph = np.exp(1j * (pump.delta * stages + pump.phase))
    g = -1j * pump(stages)
    return g * ph, g * ph.conj(), f


def _rk4_maps(na, nb, h, up, down, f) -> np.ndarray:
    """The affine RK4 maps of the steps with the stage coefficients `up`,
    `down`, `f` of ``_rk4_coefficients``, the decay rates na = -gamma_A/2
    and nb = -gamma_B/2 and the step length `h` (a float, or an array of
    one per step: the arithmetic and its bits are the same), as an array
    M of shape (2, 3, steps): row r of step k gives component r of
    x_{k+1} = M[:, :2, k] x_k + M[:, 2, k].

    The classic RK4 stages run on the three columns at once: the unit
    states (1, 0) and (0, 1) without the drive, and (0, 0) with it.
    """
    half = 0.5 * h

    def rhs(s, a, b):
        da = na * a + up[s] * b
        da[2] += f[s]
        return da, nb * b + down[s] * a

    a = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    b = np.array([[0.0], [1.0], [0.0]], dtype=complex)
    k1a, k1b = rhs(0, a, b)
    k2a, k2b = rhs(1, a + half * k1a, b + half * k1b)
    k3a, k3b = rhs(1, a + half * k2a, b + half * k2b)
    k4a, k4b = rhs(2, a + h * k3a, b + h * k3b)
    sixth = h / 6.0
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


def _last(maps: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """The state (2,) after the m affine steps `maps` from x0:
    ``_scan(maps, x0)[:, -1]`` bit for bit. It composes the same pairs as
    ``_scan`` at every level and solves the half-length problem for its
    final state alone: at an even m that is the final state, at an odd m
    the last step is taken from it."""
    m = maps.shape[-1]
    pairs = m // 2
    if pairs:
        first, odd = maps[..., 0:2 * pairs:2], maps[..., 1::2]
        composed = odd[:, :1] * first[:1] + odd[:, 1:2] * first[1:2]
        composed[:, 2] += odd[:, 2]
        x0 = _last(composed, x0)
        if m % 2 == 0:
            return x0
    step = maps[..., -1:]  # one column, laid out as _scan applies it
    return (step[:, 0] * x0[0] + step[:, 1] * x0[1] + step[:, 2])[:, 0]


def integrate_checked(initial, modes, pump, drive=None,
                      config: SimConfig = SimConfig(), tolerance: float = 1e-6):
    """Integrate with a mandatory half-step self-convergence check.

    Runs the trajectory at dt and dt/2 and compares the final states;
    raises ConvergenceError above `tolerance`. Returns the half-step
    trace, with the measured relative difference as
    meta["convergence_rel_diff"], and that difference.
    """
    coarse = integrate(initial, modes, pump, drive, config)
    fine = integrate(initial, modes, pump, drive, half_step_config(config))
    rel = fine.meta["convergence_rel_diff"] = check_half_step(
        (coarse.a[-1], coarse.b[-1]), (fine.a[-1], fine.b[-1]), tolerance)
    return fine, rel


def check_half_step(coarse, fine, tolerance: float) -> float:
    """Relative difference |(a, b)_coarse - (a, b)_fine| / |(a, b)_fine| of
    the final states (a, b) of a run and its half-step rerun.

    Both states are first scaled by the power of two that brings the peak
    component of the fine one into [1/2, 1): exact, so the difference is
    the same, but its squares in the norms cannot underflow at tiny
    amplitudes.

    Raises ConvergenceError above `tolerance`; otherwise returns it.
    """
    vc, vf = np.array(coarse, dtype=complex), np.array(fine, dtype=complex)
    shift = -math.frexp(float(np.max(np.abs(vf.view(float)))))[1]
    with np.errstate(over="ignore"):  # a coarse state far above the fine one fails below
        vc, vf = (np.ldexp(v.view(float), shift).view(complex) for v in (vc, vf))
    scale = max(float(np.linalg.norm(vf)), 1e-300)
    rel = float(np.linalg.norm(vc - vf) / scale)
    if rel > tolerance:
        raise ConvergenceError(rel, tolerance)
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


def propagate_swap(initial: ComplexAmplitudePair, modes, pump: PumpDrive, t):
    """Exact rotating-frame amplitudes under the constant pump `pump` (its
    g, delta and phase; its support is not read) and no drive.

    The state `initial` is taken at time initial.t. Returns the arrays
    (a~(t), b~(t)) at the times `t` from the closed-form matrix
    exponential in the module docstring, evaluated at each time on its own
    (``exact_segment`` tabulates it on its record grid instead). A ramped
    pump, which is not constant, raises ValidationError.
    """
    check_mode_order(*modes)
    if pump.ramp > 0.0:
        raise ValidationError("propagate_swap needs a constant pump, not a ramped one")
    g, delta, phi = pump.g, pump.delta, pump.phase
    t = np.asarray(t, dtype=float)
    a0 = complex(initial.a)
    c0 = complex(initial.b) * cmath.exp(1j * (delta * initial.t + phi))
    n11, _, ch, sh = _swap_exp(modes, g, delta, t - initial.t)
    a = ch * a0 + sh * (n11 * a0 - 1j * g * c0)
    c = ch * c0 - sh * (1j * g * a0 + n11 * c0)
    b = c * np.exp(-1j * (delta * t + phi))
    return _finite(a, b, "swap")


def _swap_exp(modes, g_p, delta, tau):
    """(n11, s2, ch, sh) with exp(M tau) = ch I + sh N at the offsets `tau`:
    ch = e^{m tau} cosh(s tau) and sh = e^{m tau} sinh(s tau)/s, for the
    m, n11, s, s2 of ``swap_eigen`` and N = [[n11, -i g_P], [-i g_P, -n11]]."""
    m, n11, s, s2 = swap_eigen(modes, g_p, delta)
    if abs(s.real) * float(np.max(np.abs(tau))) < 700.0:
        em = np.exp(m * tau)
        ch = em * np.cosh(s * tau)
        sh = em * (tau if s == 0.0 else np.sinh(s * tau) / s)  # sinh(s t)/s -> t
    else:  # cosh(s t) would overflow: expand in the eigenvalues m +- s instead
        e_plus, e_minus = np.exp((m + s) * tau), np.exp((m - s) * tau)
        ch = 0.5 * (e_plus + e_minus)
        sh = (e_plus - e_minus) / (2.0 * s)
    return n11, s2, ch, sh


def _swap_grid(initial: ComplexAmplitudePair, modes, pump: PumpDrive,
               config: SimConfig, t):
    """(a~, b~) of ``propagate_swap`` under `pump` on the grid
    `t` = ``record_times(config)``, tabulated by the addition theorem of
    the module docstring."""
    g, delta, phi = pump.g, pump.delta, pump.phase
    n, dt = _steps(config)
    last = n // config.record_stride  # t[j] = t_start + j h for j <= last
    width = math.isqrt(last) + 1  # ceil(sqrt(last + 1)) samples to a row
    rows = last // width + 1
    # the first time of each row, the off-stride last time, then i h, i < width
    tau = np.concatenate((t[:last + 1:width], t[last + 1:],
                          (np.arange(width) * config.record_stride) * dt))
    k = len(tau) - width
    angle = delta * tau
    angle[:k] += phi
    tau[:k] -= initial.t
    n11, s2, ch, sh = _swap_exp(modes, g, delta, tau)
    table = np.array((ch, sh))
    turn = np.exp(-1j * angle)
    # exp(M tau) x0 = ch x0 + sh N x0 and N exp(M tau) x0 = ch N x0 + sh s^2 x0
    a0 = complex(initial.a)
    c0 = complex(initial.b) * cmath.exp(1j * (delta * initial.t + phi))
    u0, v0 = n11 * a0 - 1j * g * c0, -(1j * g * a0 + n11 * c0)
    start = table[:, :k].T @ np.array([[a0, u0, c0, v0], [u0, s2 * a0, v0, s2 * c0]])
    start[:, 2:] *= turn[:k, None]  # (a, (N x)_a, b, (N x)_c e^{-i(D t + phi_P)})
    # row q, column i: the state at the row's start moved on by exp(M i h),
    # and b turned by the column's factor of the rotation
    step = np.stack((table[:, k:], table[:, k:] * turn[k:]))
    x = (start[:rows].reshape(rows, 2, 2).transpose(1, 0, 2) @ step).reshape(2, -1)
    x = np.concatenate((x[:, :last + 1], start[rows:, ::2].T), axis=1)
    return _finite(x[0], x[1], "swap")


def propagate_load(initial: ComplexAmplitudePair, modes, drive: DriveTone, t):
    """Exact rotating-frame amplitudes under the drive tone `drive` and no
    pump; the drive must be on over all of `t`.

    With gamma = gamma_A/2, f = sqrt(gamma_ext) amp_in, D = delta = w_d - w_A,
    z = gamma - iD and tau = t - initial.t,

        a~(t) = a0 e^{-gamma tau} + f e^{-iD t} tau h(z tau),

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
    w = (ga2 - 1j * drive.delta) * tau
    nonzero = w != 0.0
    w_safe = np.where(nonzero, w, 1.0)
    h = np.where(nonzero, -np.expm1(-w_safe) / w_safe, 1.0)
    f = math.sqrt(mode_a.gamma_ext) * drive.amp_in
    a = (complex(initial.a) * np.exp(-ga2 * tau)
         + f * np.exp(-1j * (drive.delta * t)) * tau * h)
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
    the standard single-port Lorentzian 1 - gamma_ext / (gamma_A/2 - i(w - w_A)).
    The absolute probes are turned into their offsets from mode A once.
    """
    return _reflection_at(mode_a, mode_b, pump,
                          np.asarray(probe_omegas, dtype=float) - mode_a.omega)


def _reflection_at(mode_a, mode_b, pump, x) -> np.ndarray:
    """``reflection_spectrum`` at the probe offsets x = w - w_A themselves,
    the sign of ``DriveTone.delta``.

    Conjugating the steady state maps (delta, x) to (-delta, -x): negating
    both flips the sign of every imaginary part here and keeps every real
    part, exactly, so the two reflections are complex conjugates bit for
    bit, with equal magnitudes and the same singular points."""
    check_mode_order(mode_a, mode_b)
    if not pump.is_cw:
        raise ValidationError("reflection_spectrum requires a CW pump envelope")
    g = pump.g

    chi_a_inv = 0.5 * mode_a.gamma_total - 1j * x
    if g == 0.0:
        denom = chi_a_inv
    else:
        chi_b_inv = 0.5 * mode_b.gamma_total - 1j * (x + pump.delta)
        if np.any(chi_b_inv == 0.0):
            raise SingularSteadyStateError(
                "undamped storage mode exactly on the converted probe frequency")
        denom = chi_a_inv + g * g / chi_b_inv
    if np.any(denom == 0.0):
        raise SingularSteadyStateError(
            "undamped readout mode exactly on the probe frequency")
    return 1.0 - mode_a.gamma_ext / denom


def _reflection_dips(mode_a, mode_b, g) -> np.ndarray:
    """The probe offsets x of the minima of ``|_reflection_at|`` under a
    resonant pump of coupling `g`, in increasing order.

    With u = gamma_A/2 - i x and v = gamma_B/2 - i x, r = N/D for D = u v +
    g^2 and N = D - gamma_ext v (at g = 0 the factor v cancels: D = u, N =
    u - gamma_ext). |N|^2 and |D|^2 are real polynomials with equal leading
    coefficients, so the stationary points of |r|^2 are the real roots of
    F = (|N|^2)' |D|^2 - |N|^2 (|D|^2)', and the minima those where F' > 0.
    |r| is even in x, and F/x is at most quadratic in x^2, with roots that
    sum to at most 0, so the minima are one at x = 0 or a pair at +-x0. x is scaled
    by max(g, gamma_A/2) to keep the coefficients of order 1."""
    scale = max(g, 0.5 * mode_a.gamma_total)
    u = np.array([-1j, 0.5 * mode_a.gamma_total / scale])
    v = np.array([-1j, 0.5 * mode_b.gamma_total / scale])
    ext = mode_a.gamma_ext / scale
    if g == 0.0:
        d, n = u, np.polysub(u, [ext])
    else:
        d = np.polyadd(np.polymul(u, v), [(g / scale) ** 2])
        n = np.polysub(d, ext * v)
    nn, dd = (np.polymul(p, p.conj()).real for p in (n, d))
    f = np.polysub(np.polymul(np.polyder(nn), dd), np.polymul(nn, np.polyder(dd)))
    roots = np.roots(f)
    y = roots[roots.imag == 0.0].real
    return scale * np.sort(y[np.polyval(np.polyder(f), y) > 0.0])
