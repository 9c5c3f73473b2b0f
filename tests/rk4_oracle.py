"""Scalar RK4 of the coupled-mode equations, one step and one state at a
time: the oracle of the batched ``cavityswap.dynamics.integrate`` in the
rotating frame, and the lab-frame integrator that ``dynamics.lab_frame``
is checked against. Its `frame` argument picks the equations of the
``cavityswap.dynamics`` docstring; the package itself integrates only the
rotating-frame ones.
"""

import cmath
import math

import numpy as np

from cavityswap import dynamics


def oracle_input(drive, mode_a, frame):
    """The incident field a_in(t) of `drive` in `frame`, one time at a time."""
    shift = 0.0 if frame == "lab" else mode_a.omega

    def a_in(t):
        if drive is None or not drive.t_start <= t <= drive.t_stop:
            return 0j
        return drive.amp_in * cmath.exp(-1j * ((drive.omega_d - shift) * t + drive.phase))

    return a_in


def oracle_rhs(mode_a, mode_b, pump, drive, frame):
    """The coupled-mode right-hand side of the ``cavityswap.dynamics``
    docstring in `frame` ("lab" or "rotating"), one time and one state at
    a time."""
    na = -0.5 * mode_a.gamma_total - (1j * mode_a.omega if frame == "lab" else 0.0)
    nb = -0.5 * mode_b.gamma_total - (1j * mode_b.omega if frame == "lab" else 0.0)
    # the lab-frame carrier w_P = w_B - w_A + delta; the rotating frame sees delta
    wp = mode_b.omega - mode_a.omega + pump.delta if frame == "lab" else pump.delta
    sq = math.sqrt(mode_a.gamma_ext)
    a_in = oracle_input(drive, mode_a, frame)

    def rhs(t, a, b):
        coupling = -1j * float(pump(t)) * cmath.exp(1j * (wp * t + pump.phase))
        return na * a + coupling * b + sq * a_in(t), nb * b - coupling.conjugate() * a

    return rhs


def scalar_rk4(initial, modes, pump, drive, config, frame="rotating"):
    """Classic RK4 in `frame` on the steps and record grid ``integrate``
    uses under `config`. Returns the recorded a, b and a_out."""
    mode_a = modes[0]
    rhs = oracle_rhs(*modes, pump, drive, frame)
    a_in = oracle_input(drive, mode_a, frame)
    sq = math.sqrt(mode_a.gamma_ext)
    n, dt = dynamics._steps(config)
    a, b = complex(initial.a), complex(initial.b)
    rec_a, rec_b = [a], [b]
    rec_out = [a_in(config.t_start) - sq * a]
    for k in range(n):
        t = config.t_start + k * dt
        k1a, k1b = rhs(t, a, b)
        k2a, k2b = rhs(t + 0.5 * dt, a + 0.5 * dt * k1a, b + 0.5 * dt * k1b)
        k3a, k3b = rhs(t + 0.5 * dt, a + 0.5 * dt * k2a, b + 0.5 * dt * k2b)
        k4a, k4b = rhs(t + dt, a + dt * k3a, b + dt * k3b)
        a = a + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        if (k + 1) % config.record_stride == 0 or k + 1 == n:
            rec_a.append(a)
            rec_b.append(b)
            rec_out.append(a_in(config.t_start + (k + 1) * dt) - sq * a)
    return np.array(rec_a), np.array(rec_b), np.array(rec_out)
