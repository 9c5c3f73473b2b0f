"""Work counters computed arithmetically from runner configurations.

These repeat the step rules of the chevron and power_sweep runners (one
``integrate_checked`` per sweep point: a run at ``dt`` plus its check at
``dt/2``), so the RK4 work of a sweep is known before it runs. The
generator uses them to hold the work of a seeded workload constant, and
the pool workload reports them because the spans of pool workers are not
visible to the benchmark. They count work the runners' present step rule
implies; they are not gates.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

TWO_PI = 2.0 * math.pi


def integrate_steps(span: float, dt: float) -> int:
    """RK4 steps of one ``integrate`` call over `span` at requested `dt`."""
    return max(1, int(math.ceil(span / dt - 1e-12)))


def checked_steps(t_end: float, dt: float) -> tuple[int, int]:
    """(steps at dt, steps of the dt/2 check) for one ``integrate_checked``
    call from 0 to `t_end`."""
    n = integrate_steps(t_end, dt)
    return n, integrate_steps(t_end, 0.5 * (t_end / n))


class Work:
    """Integrate calls and RK4 steps, split into useful and check steps."""

    def __init__(self):
        self.calls = 0
        self.steps = 0
        self.check_steps = 0

    def add_checked(self, t_end, dt):
        coarse, fine = checked_steps(t_end, dt)
        self.calls += 2
        self.steps += coarse + fine
        self.check_steps += fine

    def as_dict(self) -> dict:
        return {"integrate_calls": self.calls, "rk4_steps": self.steps,
                "rhs_evals": 4 * self.steps}


def _gamma_a(cs, cfg) -> float:
    return cs.core.mode_params_from_q(
        cfg["freq_a"], cfg["q_int_a"], cfg["q_ext_a"]).gamma_total


def coupling_rate(cs, cfg, p_dbm) -> float:
    """g_P (rad/s) of a resolved config at pump power `p_dbm`."""
    fm = cs.fluxmap
    curve_a, curve_b, coupler = fm.calibrated_curves(
        omega_a=cfg["freq_a"], omega_b=cfg["freq_b"])
    delta_phi = fm.pump_power_to_flux(p_dbm, cfg["flux_calib"])
    return fm.coupling_rate(curve_a, curve_b, replace(coupler, delta_phi=delta_phi))


def chevron_work(cs, cfg) -> Work:
    """RK4 work of ``run_chevron`` on the resolved config `cfg`."""
    g = cfg["gp"] if cfg["gp"] > 0.0 else coupling_rate(cs, cfg, cfg["pump_power"])
    gamma_a = _gamma_a(cs, cfg)
    work = Work()
    for delta in np.linspace(-0.5, 0.5, cfg["delta_count"]) * cfg["delta_span"]:
        omega_fast = math.sqrt(delta * delta + 4.0 * g * g)
        dt = TWO_PI / (cfg["points_per_cycle"] * max(omega_fast, gamma_a))
        work.add_checked(cfg["t_end"], dt)
    return work


def power_sweep_work(cs, cfg) -> Work:
    """RK4 work of ``run_power_sweep`` on the resolved config `cfg`."""
    gamma_a = _gamma_a(cs, cfg)
    work = Work()
    for p in np.linspace(cfg["power_start"], cfg["power_stop"], cfg["power_count"]):
        g = coupling_rate(cs, cfg, p)
        if g == 0.0:
            continue
        t_end = cfg["n_cycles"] * TWO_PI / (2.0 * g)
        dt = TWO_PI / (cfg["points_per_cycle"] * max(2.0 * g, gamma_a))
        work.add_checked(t_end, dt)
    return work
