"""Normal-mode splitting of the readout cavity under a CW flux pump.

With the pump on at the difference frequency, the readout resonance
splits into a doublet separated by twice the parametric coupling rate.
Sweeping the pump detuning traces out the avoided crossing.
"""

import math

import numpy as np

from cavityswap import (ModeParams, PumpDrive, mode_params_from_q,
                        reflection_spectrum)

TWO_PI = 2.0 * math.pi

mode_a = mode_params_from_q(TWO_PI * 8.70e9, 900e3, 50e3)
mode_b = ModeParams(TWO_PI * 9.33e9, 1.0 / 14.9e-6, 0.0)
g_p = TWO_PI * 1.2e6

probe = mode_a.omega + np.linspace(-4e6, 4e6, 1601) * TWO_PI

print("pump detuning (MHz)   dip offsets (MHz)")
for delta_mhz in (-2.0, -1.0, 0.0, 1.0, 2.0):
    pump = PumpDrive(g_p, TWO_PI * delta_mhz * 1e6)
    mag = np.abs(reflection_spectrum(mode_a, mode_b, pump, probe))
    idx = np.where((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))[0] + 1
    offsets = (probe[idx] - mode_a.omega) / TWO_PI / 1e6
    print(f"{delta_mhz:+18.1f}   " + ", ".join(f"{o:+.3f}" for o in offsets))

pump = PumpDrive(g_p)
mag = np.abs(reflection_spectrum(mode_a, mode_b, pump, probe))
idx = np.where((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))[0] + 1
sep = abs(probe[idx[-1]] - probe[idx[0]]) / TWO_PI
print(f"\non-resonance splitting: {sep / 1e6:.3f} MHz "
      f"(2 g_P = {2 * g_p / TWO_PI / 1e6:.3f} MHz)")

try:
    import matplotlib.pyplot as plt
except ImportError:
    pass
else:
    plt.plot((probe - mode_a.omega) / TWO_PI / 1e6, mag)
    plt.xlabel("probe offset (MHz)")
    plt.ylabel("|reflection|")
    plt.title("normal-mode splitting at zero pump detuning")
    plt.savefig("splitting.png", dpi=120)
    print("wrote splitting.png")
