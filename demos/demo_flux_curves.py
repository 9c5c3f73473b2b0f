"""Flux modulation curves and the pump-power to coupling-rate conversion.

The tunable coupler pulls both cavity frequencies as a function of flux
bias; modulating the flux at the difference frequency with amplitude
delta_phi produces a parametric coupling proportional to the geometric
mean of the two slopes.
"""

import math
from dataclasses import replace

import numpy as np

from cavityswap import (DEFAULT_FLUX_CALIB, calibrated_curves, coupling_rate,
                        pump_power_to_flux)

TWO_PI = 2.0 * math.pi

curve_a, curve_b, bias = calibrated_curves()
print(f"DC bias: {bias.phi_dc:.4f} flux quanta (maximum-slope point)")
print(f"readout-mode slope: {abs(curve_a.slope_at(bias.phi_dc)) / TWO_PI / 1e6:.2f} MHz per flux quantum")
print(f"storage-mode slope: {abs(curve_b.slope_at(bias.phi_dc)) / TWO_PI / 1e6:.2f} MHz per flux quantum")

phi = np.linspace(0.0, 1.0, 11)
print("\nflux (phi0)   readout pull (MHz)   storage pull (MHz)")
for p in phi:
    pa = (curve_a.omega_at(p) - curve_a.omega_at(0.5)) / TWO_PI / 1e6
    pb = (curve_b.omega_at(p) - curve_b.omega_at(0.5)) / TWO_PI / 1e6
    print(f"{p:11.1f}   {pa:18.3f}   {pb:18.3f}")

print("\npump power (dBm)   delta_phi (phi0)   g_P/2pi (MHz)")
for p_dbm in (-64.0, -58.0, -52.0, -46.0):
    delta_phi = pump_power_to_flux(p_dbm, DEFAULT_FLUX_CALIB)
    g = coupling_rate(curve_a, curve_b, replace(bias, delta_phi=delta_phi))
    print(f"{p_dbm:16.1f}   {delta_phi:16.4f}   {g / TWO_PI / 1e6:13.4f}")
