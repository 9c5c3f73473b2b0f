"""Flux dependence of the cavity frequencies and the pump coupling rate.

Each cavity frequency follows a ``CouplerPullCurve``: a flux-tuned
coupler self-resonance (below both cavities) dispersively pulls the bare
cavity frequency.

The parametric coupling rate for a flux modulation of amplitude
``delta_phi`` about a DC bias is

    g_P = (delta_phi / 4) * sqrt(|dw_A/dPhi * dw_B/dPhi|)

with both slopes evaluated at the bias point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import CouplerState, ValidationError
from .units import format_quantity


class DegenerateBiasWarning(UserWarning):
    """Bias point where a modulation-curve slope vanishes (no coupling)."""


@dataclass(frozen=True)
class CouplerPullCurve:
    """Cavity frequency vs flux from a dispersive coupler pull.

    omega(phi) = omega_bare + kappa_pull / (omega_bare^2 - omega_c(phi)^2)
    omega_c(phi) = omega_c_max * sqrt(|cos(pi*phi)|)

    The coupler self-resonance must stay below the bare cavity frequency
    (omega_c_max < omega_bare), so the denominator never vanishes.
    kappa_pull carries units of (rad/s)^3.
    """

    omega_bare: float
    kappa_pull: float
    omega_c_max: float

    def __post_init__(self):
        if not self.omega_bare > 0.0:
            raise ValidationError("omega_bare must be positive")
        if not 0.0 <= self.omega_c_max < self.omega_bare:
            raise ValidationError("require 0 <= omega_c_max < omega_bare")

    def omega_at(self, phi):
        """Mode frequency (rad/s) at flux `phi` (flux-quantum units, periodic)."""
        c = np.abs(np.cos(np.pi * _check_flux(phi)))
        denom = self.omega_bare * self.omega_bare - self.omega_c_max**2 * c
        return self.omega_bare + self.kappa_pull / denom

    def slope_at(self, phi):
        """Analytic derivative d(omega)/d(phi) in rad/s per flux quantum."""
        theta = np.pi * _check_flux(phi)
        c = np.cos(theta)
        denom = self.omega_bare * self.omega_bare - self.omega_c_max**2 * np.abs(c)
        # d|cos|/dphi = -pi*sin(theta)*sign(cos(theta)); zero at the cusp
        dabs = -np.pi * np.sin(theta) * np.sign(c)
        # (w_c/denom)^2 first, so a huge omega_bare or kappa_pull cannot overflow
        return self.kappa_pull * (dabs * (self.omega_c_max / denom) ** 2)


def _check_flux(phi):
    arr = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"flux must be finite, got {phi!r}")
    return arr if arr.ndim else float(arr)


def coupling_rate(curve_a, curve_b, state: CouplerState) -> float:
    """Parametric coupling rate g_P (rad/s) for the given flux bias and
    pump amplitude.

    Uses the magnitude of the slope product; a sign flip of g_P is
    equivalent to a pi shift of the pump phase, which the dynamics handle
    exactly. A vanishing slope at the bias point gives g_P = 0 with a
    DegenerateBiasWarning.
    """
    sa = float(curve_a.slope_at(state.phi_dc))
    sb = float(curve_b.slope_at(state.phi_dc))
    if sa == 0.0 or sb == 0.0:
        warnings.warn("degenerate bias point: zero modulation slope",
                      DegenerateBiasWarning, stacklevel=2)
        return 0.0
    return 0.25 * state.delta_phi * math.sqrt(abs(sa * sb))


def pump_amplitude(p_dbm: float) -> float:
    """Pump amplitude sqrt(10**(p_dbm/10)) in sqrt(mW); a power whose mW
    value overflows raises ValidationError."""
    try:
        return math.sqrt(math.pow(10.0, p_dbm / 10.0))
    except OverflowError:
        raise ValidationError(f"pump power {format_quantity(p_dbm, 'dBm')} "
                              "overflows its value in mW") from None


def pump_power_to_flux(p_dbm: float, calib: float) -> float:
    """Pump flux amplitude (flux quanta) from pump power in dBm.

    `calib` is a single lumped scalar in flux quanta per sqrt(mW);
    delta_phi = calib * pump_amplitude(p_dbm) is linear in pump amplitude.
    """
    if not calib > 0.0:
        raise ValidationError("calibration scalar must be positive")
    return calib * pump_amplitude(p_dbm)


def flux_for_pump_power(target_delta_phi: float, p_dbm: float) -> float:
    """Calibration scalar that maps `p_dbm` to `target_delta_phi`."""
    return target_delta_phi / pump_amplitude(p_dbm)


# Targets of ``calibrated_curves``: the coupler's maximum self-resonance,
# the readout curve's peak-to-peak flux modulation, and the coupling rate
# that a pump amplitude of DELTA_PHI must give.
OMEGA_C_MAX = 2.0 * math.pi * 7.7e9
PEAK_TO_PEAK_A = 2.0 * math.pi * 4.0e6
GP_TARGET = 2.0 * math.pi * 1.2e6
DELTA_PHI = 0.2

# Lumped pump-line calibration fixed so that -52 dBm gives DELTA_PHI, and
# so g_P = GP_TARGET on the calibrated curves.
DEFAULT_FLUX_CALIB = flux_for_pump_power(DELTA_PHI, -52.0)


def max_slope_bias(curve) -> float:
    """Flux bias in [0, 1/2] of largest |slope| ~ sqrt(1 - c^2) / (w0^2 - wc^2 c)^2,
    c = |cos(pi*phi)|: c = 4r / (1 + sqrt(1 + 8 r^2)), r = (wc/w0)^2, the positive
    root of wc^2 c^2 + w0^2 c - 2 wc^2 = 0 (w0 = omega_bare, wc = omega_c_max)."""
    r = (curve.omega_c_max / curve.omega_bare) ** 2
    return math.acos(4.0 * r / (1.0 + math.sqrt(1.0 + 8.0 * r * r))) / math.pi


def _calibrated(what, value, omega):
    if not (math.isfinite(value) and value > 0.0):  # overflowed, or a zero slope
        raise ValidationError(f"flux calibration: {what} at mode frequency "
                              f"{format_quantity(omega, 'GHz')} is {value!r}")
    return value


@lru_cache(maxsize=32)
def calibrated_curves(omega_a: float = 2.0 * math.pi * 8.70e9,
                      omega_b: float = 2.0 * math.pi * 9.33e9):
    """Closed-form coupler-pull curves for cavities at `omega_a` and `omega_b`,
    and their bias point. kappa_A sets the peak-to-peak modulation (the pull at
    |cos| = 1 minus that at |cos| = 0, kappa_A w_c^2 / (w_A^2 (w_A^2 - w_c^2)))
    to PEAK_TO_PEAK_A; the DC bias is that curve's maximum-slope point; slope_B
    is linear in kappa_B, set so a pump amplitude of DELTA_PHI yields GP_TARGET.
    A value that overflows or a slope that vanishes raises ValidationError.
    Returns (curve_a, curve_b, CouplerState)."""
    curve_a = CouplerPullCurve(omega_a, PEAK_TO_PEAK_A * omega_a * omega_a * (
        omega_a * omega_a - OMEGA_C_MAX**2) / OMEGA_C_MAX**2, OMEGA_C_MAX)
    _calibrated("the A pull strength", curve_a.kappa_pull, omega_a)
    phi_dc = max_slope_bias(curve_a)
    slope_a = abs(float(curve_a.slope_at(phi_dc)))  # of order PEAK_TO_PEAK_A
    unit_b = CouplerPullCurve(omega_b, 1.0, OMEGA_C_MAX)
    slope_b1 = _calibrated("the B slope", abs(float(unit_b.slope_at(phi_dc))), omega_b)
    kappa_b = _calibrated("the B pull strength",
                          (4.0 * GP_TARGET / DELTA_PHI) ** 2 / slope_a / slope_b1, omega_b)
    curve_b = CouplerPullCurve(omega_b, kappa_b, OMEGA_C_MAX)
    return curve_a, curve_b, CouplerState(phi_dc=phi_dc, delta_phi=DELTA_PHI)


def pump_coupling_rate(omega_a: float, omega_b: float, p_dbm: float,
                       calib: float) -> float:
    """Coupling rate g_P (rad/s) of a flux pump at power `p_dbm` between
    modes at `omega_a` and `omega_b`: ``calibrated_curves`` at those modes,
    ``pump_power_to_flux`` with scalar `calib`, then ``coupling_rate``."""
    curve_a, curve_b, coupler = calibrated_curves(omega_a=omega_a, omega_b=omega_b)
    delta_phi = pump_power_to_flux(p_dbm, calib)
    return coupling_rate(curve_a, curve_b, replace(coupler, delta_phi=delta_phi))
