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


class DegenerateBiasWarning(UserWarning):
    """Bias point where a modulation-curve slope vanishes (no coupling)."""


@dataclass(frozen=True)
class CouplerPullCurve:
    """Cavity frequency vs flux from a dispersive coupler pull.

    omega(phi) = omega_bare + kappa_pull / (omega_bare^2 - omega_c(phi)^2)
    omega_c(phi) = omega_c_max * sqrt(|cos(pi*(phi - phi_offset))|)

    The coupler self-resonance must stay below the bare cavity frequency
    (omega_c_max < omega_bare), so the denominator never vanishes.
    kappa_pull carries units of (rad/s)^3.
    """

    omega_bare: float
    kappa_pull: float
    omega_c_max: float
    phi_offset: float = 0.0

    def __post_init__(self):
        if not self.omega_bare > 0.0:
            raise ValidationError("omega_bare must be positive")
        if not 0.0 <= self.omega_c_max < self.omega_bare:
            raise ValidationError("require 0 <= omega_c_max < omega_bare")

    def omega_at(self, phi):
        """Mode frequency (rad/s) at flux `phi` (flux-quantum units, periodic)."""
        phi = _check_flux(phi)
        c = np.cos(np.pi * (phi - self.phi_offset))
        denom = self.omega_bare**2 - self.omega_c_max**2 * np.abs(c)
        return self.omega_bare + self.kappa_pull / denom

    def slope_at(self, phi):
        """Analytic derivative d(omega)/d(phi) in rad/s per flux quantum."""
        phi = _check_flux(phi)
        theta = np.pi * (phi - self.phi_offset)
        c = np.cos(theta)
        denom = self.omega_bare**2 - self.omega_c_max**2 * np.abs(c)
        # d|cos|/dphi = -pi*sin(theta)*sign(cos(theta)); zero at the cusp
        dabs = -np.pi * np.sin(theta) * np.sign(c)
        return self.kappa_pull * self.omega_c_max**2 * dabs / denom**2


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


def pump_power_to_flux(p_dbm: float, calib: float) -> float:
    """Pump flux amplitude (flux quanta) from pump power in dBm.

    `calib` is a single lumped scalar in flux quanta per sqrt(mW);
    delta_phi = calib * sqrt(10**(p_dbm/10)) is linear in pump amplitude.
    """
    if not calib > 0.0:
        raise ValidationError("calibration scalar must be positive")
    return calib * math.sqrt(10.0 ** (p_dbm / 10.0))


def flux_for_pump_power(target_delta_phi: float, p_dbm: float) -> float:
    """Calibration scalar that maps `p_dbm` to `target_delta_phi`."""
    return target_delta_phi / math.sqrt(10.0 ** (p_dbm / 10.0))


# Targets of ``calibrated_curves``: the coupler's maximum self-resonance
# and flux offset, the readout curve's peak-to-peak flux modulation, and
# the coupling rate that a pump amplitude of DELTA_PHI must give.
OMEGA_C_MAX = 2.0 * math.pi * 7.7e9
PHI_OFFSET = 0.0
PEAK_TO_PEAK_A = 2.0 * math.pi * 4.0e6
GP_TARGET = 2.0 * math.pi * 1.2e6
DELTA_PHI = 0.2

# Lumped pump-line calibration fixed so that -52 dBm gives DELTA_PHI, and
# so g_P = GP_TARGET on the calibrated curves.
DEFAULT_FLUX_CALIB = flux_for_pump_power(DELTA_PHI, -52.0)


def _peak_to_peak(curve, n: int = 4001) -> float:
    phi = np.linspace(0.0, 1.0, n)
    om = curve.omega_at(phi)
    return float(np.max(om) - np.min(om))


def _bisect_increasing(fun, target, lo, hi, rel_tol=1e-12, max_iter=200):
    # fun must be increasing in its argument; bracket grows if needed
    while fun(hi) < target:
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if fun(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def max_slope_bias(curve, lo: float = 0.0, hi: float = 0.5, n: int = 2001) -> float:
    """Flux bias maximizing |slope| over [lo, hi], grid search plus golden refine."""
    phi = np.linspace(lo, hi, n)
    s = np.abs(curve.slope_at(phi))
    k = int(np.argmax(s))
    a = phi[max(k - 1, 0)]
    b = phi[min(k + 1, n - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1 = -abs(float(curve.slope_at(x1)))
    f2 = -abs(float(curve.slope_at(x2)))
    for _ in range(80):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = -abs(float(curve.slope_at(x1)))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = -abs(float(curve.slope_at(x2)))
    return 0.5 * (a + b)


@lru_cache(maxsize=32)
def calibrated_curves(omega_a: float = 2.0 * math.pi * 8.70e9,
                      omega_b: float = 2.0 * math.pi * 9.33e9):
    """Coupler-pull curves for cavities at `omega_a` and `omega_b` plus
    their bias point.

    The A-curve pull strength is set (by bisection) so its peak-to-peak
    flux modulation is PEAK_TO_PEAK_A; the DC bias is the maximum-slope
    point of that curve; the B-curve pull strength is then set so a pump
    amplitude of DELTA_PHI yields exactly GP_TARGET.
    Returns (curve_a, curve_b, CouplerState).
    """
    def pp_a(kappa):
        return _peak_to_peak(CouplerPullCurve(omega_a, kappa, OMEGA_C_MAX, PHI_OFFSET))

    kappa_a = _bisect_increasing(pp_a, PEAK_TO_PEAK_A, 0.0, omega_a**3 * 1e-6)
    curve_a = CouplerPullCurve(omega_a, kappa_a, OMEGA_C_MAX, PHI_OFFSET)
    phi_dc = max_slope_bias(curve_a, PHI_OFFSET, PHI_OFFSET + 0.5)
    state = CouplerState(phi_dc=phi_dc, delta_phi=DELTA_PHI)

    slope_a = abs(float(curve_a.slope_at(phi_dc)))
    # g = (delta_phi/4) sqrt(slope_a * slope_b), slope_b linear in kappa_b
    def gp_of(kappa):
        cb = CouplerPullCurve(omega_b, kappa, OMEGA_C_MAX, PHI_OFFSET)
        return 0.25 * DELTA_PHI * math.sqrt(slope_a * abs(float(cb.slope_at(phi_dc))))

    kappa_b = _bisect_increasing(gp_of, GP_TARGET, 0.0, omega_b**3 * 1e-6)
    curve_b = CouplerPullCurve(omega_b, kappa_b, OMEGA_C_MAX, PHI_OFFSET)
    return curve_a, curve_b, state


def pump_coupling_rate(omega_a: float, omega_b: float, p_dbm: float,
                       calib: float) -> float:
    """Coupling rate g_P (rad/s) of a flux pump at power `p_dbm` between
    modes at `omega_a` and `omega_b`: ``calibrated_curves`` at those modes,
    ``pump_power_to_flux`` with scalar `calib`, then ``coupling_rate``."""
    curve_a, curve_b, coupler = calibrated_curves(omega_a=omega_a, omega_b=omega_b)
    delta_phi = pump_power_to_flux(p_dbm, calib)
    return coupling_rate(curve_a, curve_b, replace(coupler, delta_phi=delta_phi))
