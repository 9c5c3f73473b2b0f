"""Extraction of derived quantities from simulated traces.

Covers the swap-oscillation frequency (FFT peak with quadratic
refinement, zero-padded to the smallest 2^i 3^j 5^k length of at least
8x the series), exponential energy-decay fits, the dwell times and
loss-corrected storage/retrieval efficiency, and the pump-phase response
slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ValidationError

TWO_PI = 2.0 * math.pi


class NoOscillationError(ValueError):
    """Series carries no oscillating component."""


class DegenerateFitError(ValueError):
    """Fit target is degenerate (constant data, infinite or negative tau)."""


class FitConvergenceError(RuntimeError):
    """Iterative fit failed to converge; carries the last iterate."""

    def __init__(self, message, last_params):
        super().__init__(message)
        self.last_params = last_params


@dataclass(frozen=True)
class FitResult:
    params: dict
    residual_rms: float

    def __post_init__(self):
        if self.residual_rms < 0.0:
            raise ValidationError("residual_rms must be >= 0")


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
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 16:
        raise ValidationError("need a 1-D series of at least 16 samples")
    if not dt > 0.0:
        raise ValidationError("dt must be positive")
    n = x.size
    t = np.arange(n, dtype=float)
    coef = np.polynomial.polynomial.polyfit(t, x, 1)
    x = x - np.polynomial.polynomial.polyval(t, coef)
    scale = float(np.max(np.abs(np.asarray(series, dtype=float))))
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


def fit_exponential_decay(t, energy, max_iter: int = 100,
                          step_tol: float = 1e-10) -> FitResult:
    """Least-squares fit of A*exp(-t/tau) + c to (t, energy) data.

    Initialized by a log-linear fit, refined by damped Gauss-Newton
    iterations. Raises DegenerateFitError for constant or growing data and
    for a non-positive fitted tau; FitConvergenceError if the iteration
    stalls without meeting the step tolerance.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(energy, dtype=float)
    if t.ndim != 1 or t.size < 4 or y.shape != t.shape:
        raise ValidationError("need >= 4 matching (t, energy) points")
    if np.any(np.diff(t) <= 0.0):
        raise ValidationError("times must be strictly increasing")
    if np.any(y < 0.0):
        raise ValidationError("energies must be >= 0")

    spread = float(np.max(y) - np.min(y))
    if spread == 0.0:
        raise DegenerateFitError("constant series: decay time is unbounded")

    # log-linear initialization on the offset-shifted data
    c0 = float(np.min(y)) - 0.05 * spread
    z = np.log(y - c0)
    slope, intercept = np.polyfit(t, z, 1)
    if slope >= 0.0:
        raise DegenerateFitError("series does not decay")
    p = np.array([math.exp(intercept), -1.0 / slope, c0])

    def residual(params):
        amp, tau, off = params
        return amp * np.exp(-t / tau) + off - y

    r = residual(p)
    cost = float(r @ r)
    for _ in range(max_iter):
        amp, tau, off = p
        e = np.exp(-t / tau)
        jac = np.column_stack([e, amp * t / tau**2 * e, np.ones_like(t)])
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        # damped update: halve the step until the cost stops increasing
        lam = 1.0
        for _ in range(40):
            trial = p + lam * step
            if trial[1] > 0.0:
                r_trial = residual(trial)
                cost_trial = float(r_trial @ r_trial)
                if cost_trial <= cost:
                    break
            lam *= 0.5
        else:
            raise FitConvergenceError("Gauss-Newton step rejected",
                                      {"amplitude": p[0], "tau": p[1], "offset": p[2]})
        rel_step = np.max(np.abs(lam * step) / np.maximum(np.abs(trial), 1e-300))
        p, r, cost = trial, r_trial, cost_trial
        if rel_step < step_tol:
            break
    else:
        raise FitConvergenceError(
            f"no convergence in {max_iter} iterations",
            {"amplitude": p[0], "tau": p[1], "offset": p[2]})

    if p[1] <= 0.0:
        raise DegenerateFitError(f"fitted tau is non-positive ({p[1]:.3e})")

    amp, tau, off = p
    return FitResult({"amplitude": amp, "tau": tau, "offset": off},
                     math.sqrt(cost / t.size))


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
    x = np.asarray(pump_phases, dtype=float)
    y = np.asarray(retrieved_phases, dtype=float)
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
