"""Chevron pattern: swap oscillations vs pump detuning.

Preparing the readout mode with one unit of energy and pulsing the pump
at a detuning D from the difference frequency makes the energy oscillate
at sqrt(D^2 + 4 g_P^2) for lossless modes -- fastest contrast on
resonance, shallower and faster off resonance. With the losses the rate
is W = |Im sqrt((c - iD)^2 - 4 g_P^2)|, c = (gamma_B - gamma_A)/2, a
little slower; the matrix pencil of ``oscillation_frequency`` reads W off
|a|^2 itself.
"""

import math

import numpy as np

from cavityswap import (ComplexAmplitudePair, ModeParams, PumpDrive,
                        SimConfig, integrate, mode_params_from_q,
                        oscillation_frequency, rabi_frequency, swap_frequency)

TWO_PI = 2.0 * math.pi

mode_a = mode_params_from_q(TWO_PI * 8.70e9, 900e3, 50e3)
mode_b = ModeParams(TWO_PI * 9.33e9, 1.0 / 14.9e-6, 0.0)
g_p = TWO_PI * 1.2e6
t_end = 6e-6

print("detuning (MHz)   extracted (MHz)   lossy W (MHz)   sqrt(D^2+4g^2) (MHz)")
for delta_mhz in np.linspace(-4.0, 4.0, 9):
    delta = TWO_PI * delta_mhz * 1e6
    pump = PumpDrive(g_p, delta)
    omega_fast = rabi_frequency(delta, g_p)
    cfg = SimConfig(TWO_PI / (800 * omega_fast), t_end, 0.0, 8)
    trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0),
                      (mode_a, mode_b), pump, None, cfg)
    # the last record may fall off the stride: the grid before it is uniform
    extracted = oscillation_frequency(trace.energy_a[:-1], float(trace.t[1] - trace.t[0]),
                                      omega_fast, 1e-6)
    lossy = swap_frequency((mode_a, mode_b), g_p, delta)
    print(f"{delta_mhz:+13.1f}   {extracted / TWO_PI / 1e6:15.6f}   "
          f"{lossy / TWO_PI / 1e6:13.6f}   {omega_fast / TWO_PI / 1e6:19.6f}")
