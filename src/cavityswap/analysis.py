"""Extraction of derived quantities from simulated traces.

Covers the swap-oscillation frequency (FFT peak with quadratic
refinement, zero-padded to the smallest 2^i 3^j 5^k length of at least
8x the series), exponential energy-decay fits (variable projection: a
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


def fft_length(n: int) -> int:
    """Smallest 2^i 3^j 5^k >= `n`: a length the FFT factors into small
    radices (Frigo & Johnson, Proc. IEEE 93, 216, 2005)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < n:
            # p35 times the least power of two that reaches n
            m = p35 << ((n - 1) // p35).bit_length()
            if m < best:
                best = m
            p35 *= 3
        if p35 < best:
            best = p35
        p5 *= 5
    return best


def oscillation_frequency(series, dt: float) -> float:
    """Dominant oscillation frequency (rad/s) of a uniformly sampled series.

    Removes the mean and linear ramp, normalizes, applies a Hann window,
    zero-pads to ``fft_length(8 n)`` samples, and refines the spectral peak
    by quadratic interpolation of the log magnitudes of the three bins
    around it (Gasior & Gonzalez, AIP Conf. Proc. 732, 276, 2004).
    """
    x = _finite(series, "series")
    if x.ndim != 1 or x.size < 16:
        raise ValidationError("need a 1-D series of at least 16 samples")
    if not _finite(dt, "dt") > 0.0:
        raise ValidationError("dt must be positive")
    n = x.size
    scale = float(np.max(np.abs(x)))
    t = np.arange(n, dtype=float)
    coef = np.polynomial.polynomial.polyfit(t, x, 1)
    x = x - np.polynomial.polynomial.polyval(t, coef)
    peak_amp = np.max(np.abs(x))
    if peak_amp <= 1e-12 * max(scale, 1e-300):
        raise NoOscillationError("series is constant after detrending")
    x = x / peak_amp  # scale invariance: result is independent of amplitude

    nfft = fft_length(8 * n)
    mag = np.abs(np.fft.rfft(x * np.hanning(n), nfft))
    k = int(np.argmax(mag[1:-1])) + 1
    if mag[k] == 0.0:
        raise NoOscillationError("flat spectrum")
    with np.errstate(divide="ignore"):
        la, lb, lc = np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1])
    denom = la - 2.0 * lb + lc
    shift = 0.0 if denom == 0.0 else 0.5 * (la - lc) / denom
    shift = min(max(shift, -0.5), 0.5)
    return TWO_PI * (k + shift) / (nfft * dt)


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
