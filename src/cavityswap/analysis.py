"""Extraction of derived quantities from simulated traces.

Covers the swap-oscillation frequency (a matrix pencil on a decimated
series that is a sum of damped exponentials, such as |a|^2 under a
constant pump), exponential energy-decay fits (variable projection: a
grid of decay rates, then bracketed Newton steps on the rate), the dwell
times and loss-corrected storage/retrieval efficiency, and the
pump-phase response slope. The three estimators refuse NaN and infinite
input with ValidationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError

TWO_PI = 2.0 * math.pi
# a spread of the energies below this fraction of their maximum is rounding,
# not decay: it would put tau above 1e12 spans of the sampled times
_DECAY_MIN_SPREAD = 1e-12
# the decay rates, per span of the sampled times, that fit_exponential_decay
# searches, 10 a decade: at 1e-9 the decay's curvature is below rounding, and
# at 1e6 it has died (k s > 37) by the second of up to 25,000 even samples
_DECAY_RATES = np.geomspace(1e-9, 1e6, 151)
# the pencil of oscillation_frequency: Hankel columns (room for the four
# exponents of a swap's |a|^2 and margin), samples a cycle of the bounding
# rate after decimation, and the singular values above this fraction of
# the largest that count toward the rank: a thousand times the rounding
# floor of a closed-form |a|^2 (below 1e-15), and low enough to keep the
# two real exponents of a window under one cycle apart (at 1e-10 they
# merge, and W is off by up to 1e-4)
_PENCIL_COLUMNS = 13
_PENCIL_PER_CYCLE = 8
_PENCIL_CUTOFF = 1e-12
# the fewest samples the pencil takes: four rows of its Hankel matrix for
# each column
PENCIL_MIN_SAMPLES = 4 * _PENCIL_COLUMNS


class NoOscillationError(ValueError):
    """Series carries no oscillating component."""


class DegenerateFitError(ValueError):
    """Fit target is degenerate (constant data, a decay time the samples do
    not resolve, growing data)."""


@dataclass(frozen=True)
class FitResult:
    params: dict
    residual_rms: float

    def __post_init__(self):
        if self.residual_rms < 0.0:
            raise ValidationError("residual_rms must be >= 0")


def _finite(values, what):
    """`values` as a float array; NaN or infinity raises ValidationError."""
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValidationError(f"{what} must be finite")
    return x


def oscillation_frequency(series, dt: float, rate: float, tolerance: float) -> float:
    """Oscillation frequency W (rad/s) of a sum of damped exponentials
    sampled every `dt`, such as |a|^2 of a swap under a constant pump.

    A matrix pencil (Hua & Sarkar, IEEE Trans. ASSP 38, 814, 1990): the
    series is decimated to about ``_PENCIL_PER_CYCLE`` samples a cycle of
    `rate`, an upper bound on W, keeping at least ``PENCIL_MIN_SAMPLES``
    samples. Its Hankel matrix of ``_PENCIL_COLUMNS`` columns has as many
    singular values above ``_PENCIL_CUTOFF`` of the largest as the series
    has exponents (4 for a detuned swap, 3 at zero detuning), and the
    shift invariance of their right singular vectors, solved by least
    squares, gives the poles z = e^{lambda h} at the decimated step h. W is
    the largest |Im lambda|. Raises NoOscillationError for a rank below 3,
    for poles all on the positive real axis, and where refitting the
    series' amplitudes on the poles leaves a residual above `tolerance` of
    its peak.
    """
    x = _finite(series, "series")
    if x.ndim != 1 or x.size < PENCIL_MIN_SAMPLES:
        raise ValidationError(f"need a 1-D series of at least {PENCIL_MIN_SAMPLES} samples, "
                              f"got shape {x.shape}")
    if not _finite(dt, "dt") > 0.0:
        raise ValidationError("dt must be positive")
    if not _finite(rate, "rate") > 0.0:
        raise ValidationError("rate must be positive")
    # the stride that keeps PENCIL_MIN_SAMPLES samples, shortened where it
    # would leave fewer than _PENCIL_PER_CYCLE samples a cycle of `rate`
    step = _PENCIL_PER_CYCLE * rate * dt
    stride = (x.size - 1) // (PENCIL_MIN_SAMPLES - 1)
    if stride * step > TWO_PI:
        stride = max(1, int(TWO_PI / step))
    # scaled by the power of two that brings its peak into [1/2, 1), so that
    # the SVD of a series near the top of the doubles does not overflow: W
    # and the residual test are scale-free, and the scaling is exact on every
    # entry that stays a normal double
    y = x[::stride]
    peak, exp = math.frexp(float(np.max(np.abs(y))))
    y = np.ldexp(y, -exp)
    hankel = np.lib.stride_tricks.sliding_window_view(y, _PENCIL_COLUMNS)
    _, sv, vt = np.linalg.svd(hankel, full_matrices=False)
    rank = int(np.count_nonzero(sv > _PENCIL_CUTOFF * sv[0]))
    if rank < 3:
        raise NoOscillationError(f"the series holds {rank} exponents, too few to oscillate")
    v = vt[:rank].T
    poles = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    phase = float(np.max(np.abs(np.angle(poles))))
    if phase == 0.0:
        raise NoOscillationError("the series' exponents are all real")
    powers = np.vander(poles, y.size, increasing=True).T
    fit = powers @ np.linalg.lstsq(powers, y, rcond=None)[0]
    residual = float(np.max(np.abs(fit - y)))
    if not residual <= tolerance * peak:
        raise NoOscillationError(f"the exponents leave a residual of {residual / peak:.3g} "
                                 "of the series' peak: the series is not their sum")
    return phase / (stride * dt)


def fit_exponential_decay(t, energy) -> FitResult:
    """Least-squares fit of A*exp(-t/tau) + c to (t, energy) data.

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413,
    1973): at a fixed rate k, A and c are linear, so only k is searched.
    On s = (t - t[0]) / (t[-1] - t[0]) and y / max(y), the residual of the
    centred y off the centred column expm1(-k s) is formed explicitly, so
    that it resolves k to rounding, slow decays included. Its rms is
    evaluated on the ``_DECAY_RATES`` grid in one pass. Newton steps on k,
    with the Gauss-Newton curvature (Kaufman, BIT 15, 49, 1975), then stay
    between the best rate's neighbours, bisecting where a step would leave
    them or fails to halve the last, until a move is below sqrt(eps) of k.
    Returns amplitude (at t = 0), tau, offset and residual_rms in the
    caller's units. Raises DegenerateFitError for data constant to within
    1e-12 of their maximum, for an rms at either end of the grid within
    8 ulp of the least (tau not resolved), for a non-positive amplitude
    (data that grow) and for an amplitude at t = 0 that overflows.
    """
    t = _finite(t, "times")
    y = _finite(energy, "energies")
    if t.ndim != 1 or t.size < 4 or y.shape != t.shape:
        raise ValidationError("need >= 4 matching (t, energy) points")
    if np.any(np.diff(t) <= 0.0):
        raise ValidationError("times must be strictly increasing")
    if np.any(y < 0.0):
        raise ValidationError("energies must be >= 0")

    span = float(t[-1] - t[0])
    y_unit = float(np.max(y))
    spread = float(y_unit - np.min(y)) / y_unit if y_unit > 0.0 else 0.0
    if not spread > _DECAY_MIN_SPREAD:
        raise DegenerateFitError("constant series: decay time is unbounded")
    s = (t - t[0]) / span
    mean = np.full(s.size, 1.0 / s.size)
    y = y / y_unit
    y_mean = float(y @ mean)
    y = y - y_mean

    w = np.expm1(np.multiply.outer(-_DECAY_RATES, s))
    w -= (w @ mean)[:, None]
    r = y - ((w @ y) / np.vecdot(w, w))[:, None] * w
    rms = np.sqrt(np.vecdot(r, r) * (1.0 / s.size))
    j = int(np.argmin(rms))
    if min(rms[0], rms[-1]) <= rms[j] + 8.0 * math.ulp(1.0):
        raise DegenerateFitError("decay time not resolved by the sampled times")

    lo, k, hi = (float(rate) for rate in _DECAY_RATES[j - 1:j + 2])
    last = hi - lo
    while True:
        w = np.expm1(-k * s)
        d = s + s * w  # -dw/dk
        w_mean = float(w @ mean)
        w -= w_mean
        ww = float(w @ w)
        amp = float(w @ y) / ww
        r = y - amp * w
        if last <= 1.5e-8 * k:  # a move below sqrt(eps): k is at rounding
            break
        # the slope of |r|^2 over its Gauss-Newton curvature, with d
        # projected off the fitted columns
        d -= float(d @ mean) + float(d @ w) / ww * w
        step = float(r @ d) / (amp * float(d @ d))
        if step > 0.0:
            hi = k
        else:
            lo = k
        if abs(step) < 0.5 * last and lo <= k - step <= hi:
            k_next = k - step
        else:
            k_next = 0.5 * (lo + hi)
        last = abs(k_next - k)
        k = k_next
    if not amp > 0.0:
        raise DegenerateFitError("series does not decay")
    growth = k * t[0] / span  # from the first time back to t = 0
    try:
        amplitude = amp * y_unit * math.exp(growth)
    except OverflowError:
        amplitude = math.inf
    if math.isinf(amplitude):
        raise DegenerateFitError(f"amplitude at t = 0 overflows: {amp * y_unit:.6g} e^{growth:g}")

    return FitResult({"amplitude": amplitude,
                      "tau": span / k,
                      "offset": (y_mean - amp * (1.0 + w_mean)) * y_unit},
                     math.sqrt(float(r @ r) / s.size) * y_unit)


def dwell_times(trace, window) -> tuple[float, float]:
    """Occupancy-weighted dwell times (t_a_eff, t_b_eff) over a time window.

    t_a_eff = integral of |a|^2/(|a|^2+|b|^2) dt; likewise for b. Raises
    DegenerateFitError when the total energy in the window is zero.
    """
    t_lo, t_hi = window
    sub = trace.window(t_lo, t_hi)
    ea = sub.energy_a
    eb = sub.energy_b
    total = ea + eb
    if np.max(total) <= 0.0:
        raise DegenerateFitError("zero total energy in the correction window")
    # guard isolated zero-total samples (before the state exists)
    safe = np.maximum(total, np.max(total) * 1e-300)
    t_a = float(np.trapezoid(ea / safe, sub.t))
    t_b = float(np.trapezoid(eb / safe, sub.t))
    return t_a, t_b


def loss_corrected_efficiency(eta: float, t_a: float, t_b: float,
                              mode_a, mode_b) -> float:
    """Efficiency corrected for dissipation while the state dwelt in each mode.

    eta' = eta / exp(-gamma_A * t_a - gamma_B * t_b), with `t_a`, `t_b` the
    occupancy-weighted dwell times of ``dwell_times`` over the window
    between the end of the load and the start of the readout.
    """
    if not 0.0 < eta <= 1.0:
        raise ValidationError("eta must be in (0, 1]")
    return eta * math.exp(mode_a.gamma_total * t_a + mode_b.gamma_total * t_b)


def fit_phase_slope(pump_phases, retrieved_phases) -> FitResult:
    """Line fit of retrieved signal phase vs pump phase shift.

    The retrieved phases are unwrapped before fitting; for the unwrap to
    be unambiguous for slopes of order one, adjacent pump phases must be
    spaced by less than pi (sparser sampling is rejected).
    """
    x = _finite(pump_phases, "pump phases")
    y = _finite(retrieved_phases, "retrieved phases")
    if x.ndim != 1 or x.size < 3 or y.shape != x.shape:
        raise ValidationError("need >= 3 matching (pump phase, retrieved phase) points")
    if np.max(x) - np.min(x) < math.pi:
        raise ValidationError("pump phases must span at least pi")
    order = np.argsort(x, kind="stable")
    dx = np.diff(x[order])
    if np.any(dx <= 0.0):
        raise ValidationError("pump phases must be distinct")
    if np.max(dx) >= math.pi:
        raise ValidationError(
            "pump phase sampling too sparse to unwrap unambiguously "
            "(adjacent spacing must be < pi)")
    y_unwrapped = np.unwrap(y[order])
    slope, intercept = np.polyfit(x[order], y_unwrapped, 1)
    resid = y_unwrapped - (slope * x[order] + intercept)
    return FitResult({"slope": float(slope), "intercept": float(intercept)},
                     float(np.sqrt(np.mean(resid**2))))
