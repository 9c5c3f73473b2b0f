"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -v -s`` to see them).
Default-parameter runner results are shared through session fixtures so
the whole suite stays well inside the runtime budgets.
"""

import math

import numpy as np
import pytest

from cavityswap.core import (ComplexAmplitudePair, CouplerState, ModeParams,
                             PumpDrive, mode_params_from_q)
from cavityswap.dynamics import DriveTone, SimConfig, integrate
from cavityswap.experiments import (resolve_config, run_chevron,
                                    run_phase_sweep, run_power_sweep,
                                    run_splitting, run_store_retrieve)
from cavityswap.fluxmap import CouplerPullCurve, coupling_rate
from rk4_oracle import scalar_rk4

TWO_PI = 2.0 * math.pi

OMEGA_A = TWO_PI * 8.70e9
OMEGA_B = TWO_PI * 9.33e9
GP = TWO_PI * 1.2e6


def _report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def splitting_results(tmp_path_factory):
    return run_splitting(resolve_config("splitting"),
                         tmp_path_factory.mktemp("splitting"))


@pytest.fixture(scope="session")
def chevron_results(tmp_path_factory):
    return run_chevron(resolve_config("chevron"),
                       tmp_path_factory.mktemp("chevron"))


@pytest.fixture(scope="session")
def power_results(tmp_path_factory):
    return run_power_sweep(resolve_config("power_sweep"),
                           tmp_path_factory.mktemp("power"))


@pytest.fixture(scope="session")
def store_results(tmp_path_factory):
    return run_store_retrieve(resolve_config("store_retrieve"),
                              tmp_path_factory.mktemp("store"))


@pytest.fixture(scope="session")
def phase_results(tmp_path_factory):
    return run_phase_sweep(resolve_config("phase_sweep"),
                           tmp_path_factory.mktemp("phase"))


def test_criterion_1_normal_mode_splitting(splitting_results):
    sep = splitting_results["dip_separation_hz"]
    ok = abs(sep / 2.4e6 - 1.0) < 0.05 and splitting_results["dip_count"] == 2
    _report(1, "normal-mode splitting",
            ok, f"dip separation {sep / 1e6:.4f} MHz vs 2.4 MHz +/- 5%")


def test_criterion_2_lossless_full_swap():
    modes = (ModeParams(OMEGA_A), ModeParams(OMEGA_B))
    t_pi = math.pi / (2.0 * GP)
    pump = PumpDrive(GP)
    cfg = SimConfig(TWO_PI / (800 * 2 * GP), t_pi, 0.0, 10**9)
    trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes, pump,
                      None, cfg)
    transferred = abs(trace.b[-1]) ** 2
    ok = transferred >= 1.0 - 1e-9
    _report(2, "lossless full swap",
            ok, f"transferred fraction {transferred:.15f} >= 1 - 1e-9")


def _brute_force_trajectory(g, delta, t_end, n_steps):
    """Independent fine-step RK4 of the rotating-frame equations
    (plain numpy, no package code) for the chevron-law oracle."""
    dt = t_end / n_steps
    a, b = 1.0 + 0.0j, 0.0 + 0.0j
    ts = np.empty(n_steps + 1)
    ea = np.empty(n_steps + 1)
    ts[0], ea[0] = 0.0, 1.0

    def rhs(t, a, b):
        ph = np.exp(1j * delta * t)
        return -1j * g * ph * b, -1j * g * np.conj(ph) * a

    for k in range(n_steps):
        t = k * dt
        k1a, k1b = rhs(t, a, b)
        k2a, k2b = rhs(t + dt / 2, a + dt / 2 * k1a, b + dt / 2 * k1b)
        k3a, k3b = rhs(t + dt / 2, a + dt / 2 * k2a, b + dt / 2 * k2b)
        k4a, k4b = rhs(t + dt, a + dt * k3a, b + dt * k3b)
        a += dt / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
        b += dt / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
        ts[k + 1] = t + dt
        ea[k + 1] = abs(a) ** 2
    return ts, ea


def test_criterion_3_chevron_law(chevron_results):
    # oracle first: the energy oscillates at sqrt(delta^2 + 4 g^2), checked
    # against the closed form on brute-force lossless trajectories
    for delta in (0.0, TWO_PI * 2e6, TWO_PI * -3.5e6):
        omega = math.sqrt(delta**2 + 4.0 * GP**2)
        ts, ea = _brute_force_trajectory(GP, delta, 3.0 * TWO_PI / omega, 6000)
        closed_form = 1.0 - (4.0 * GP**2 / omega**2) * np.sin(0.5 * omega * ts) ** 2
        oracle_ok = np.max(np.abs(ea - closed_form)) < 1e-6
        assert oracle_ok, f"oracle rejects sqrt(D^2+4g^2) at delta={delta:.3e}"

    rms = chevron_results["model_rms_rel"]
    ridge = chevron_results["ridge_min_hz"]
    ok = rms < 0.02 and abs(ridge / 2.4e6 - 1.0) < 0.02
    _report(3, "chevron law", ok,
            f"oracle confirms sqrt(D^2+4g^2); fit RMS {rms:.2e} < 2%, "
            f"ridge minimum {ridge / 1e6:.4f} MHz")


def test_criterion_4_pump_linearity(power_results):
    r2 = power_results["r_squared"]
    ok = r2 > 0.999 and power_results["points_no_oscillation"] == 0
    _report(4, "pump linearity", ok, f"R^2 = {r2:.7f} > 0.999")


def test_criterion_5_storage_decay(store_results):
    tau = store_results["tau_s"]
    ok = abs(tau / 14.9e-6 - 1.0) < 0.01
    _report(5, "storage decay", ok,
            f"fitted tau {tau * 1e6:.4f} us vs 14.9 us +/- 1%")


def test_criterion_6_efficiency(store_results):
    eta = store_results["eta_shortest"]
    eta_prime = store_results["eta_prime"]
    ok = 0.65 <= eta <= 0.85 and eta_prime >= 0.99
    _report(6, "efficiency", ok,
            f"eta = {eta:.4f} in [0.65, 0.85], eta' = {eta_prime:.4f} >= 0.99")


def test_criterion_7_phase_control(phase_results):
    slope = phase_results["phase_slope"]
    spread = phase_results["iq_mag_rel_spread"]
    ok = abs(slope - 1.0) < 1e-6 and spread < 1e-9
    _report(7, "phase control", ok,
            f"slope {slope:.9f} = 1 +/- 1e-6, magnitude spread {spread:.2e} < 1e-9")


def test_criterion_8_conservation_and_convergence(
        chevron_results, power_results, store_results, phase_results):
    details = []

    # (a) lossless energy conservation over 100 us
    modes = (ModeParams(OMEGA_A), ModeParams(OMEGA_B))
    g = TWO_PI * 0.2e6
    pump = PumpDrive(g)
    cfg = SimConfig(TWO_PI / (800 * 2 * g), 100e-6, 0.0, 100)
    trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes, pump,
                      None, cfg)
    drift = float(np.max(np.abs(trace.energy_a + trace.energy_b - 1.0)))
    details.append(f"conservation drift {drift:.2e} < 1e-9")
    ok = drift < 1e-9

    # (b) input-output energy balance
    mode_a = mode_params_from_q(OMEGA_A, 900e3, 50e3)
    mode_b = ModeParams(OMEGA_B, 1.0 / 14.9e-6, 0.0)
    pump = PumpDrive(GP)
    drive = DriveTone(0.0, 1e3, 0.0, 5e-6)
    cfg = SimConfig(TWO_PI / (800 * 2 * GP), 5e-6)
    trace = integrate(ComplexAmplitudePair(0j, 0j, 0.0), (mode_a, mode_b),
                      pump, drive, cfg)
    a_in = np.where((trace.t >= 0.0) & (trace.t <= 5e-6), 1e3, 0.0)
    e_in = np.trapezoid(a_in**2, trace.t)
    e_out = np.trapezoid(np.abs(trace.a_out) ** 2, trace.t)
    dissipated = np.trapezoid(mode_a.gamma_int * trace.energy_a
                              + mode_b.gamma_total * trace.energy_b, trace.t)
    stored = (trace.energy_a[-1] + trace.energy_b[-1])
    balance = abs(stored - (e_in - e_out - dissipated)) / e_in
    details.append(f"IO balance {balance:.2e} < 1e-6")
    ok = ok and balance < 1e-6

    # (c) lab/rotating frame agreement on the scaled-frequency system
    sa = ModeParams(TWO_PI * 80e6)
    sb = ModeParams(TWO_PI * 143e6)
    gs = TWO_PI * 0.5e6
    spump = PumpDrive(gs, 0.0, 0.3)
    t_end = math.pi / (2.0 * gs)
    init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
    # the lab side is the scalar RK4 oracle: the package integrates only
    # in the rotating frame
    lab_a, lab_b, _ = scalar_rk4(init, (sa, sb), spump, None,
                                 SimConfig(TWO_PI / (100 * sb.omega), t_end, 0.0, 10**9),
                                 "lab")
    rot = integrate(init, (sa, sb), spump, None,
                    SimConfig(TWO_PI / (400 * 2 * gs), t_end, 0.0, 10**9))
    frame_diff = max(abs(abs(lab_a[-1]) - abs(rot.a[-1])),
                     abs(abs(lab_b[-1]) - abs(rot.b[-1])))
    details.append(f"frame agreement {frame_diff:.2e} < 1e-3")
    ok = ok and frame_diff < 1e-3

    # (d) half-step self-convergence on every defaulted integrating runner
    worst = max(chevron_results["convergence_rel_diff"],
                power_results["convergence_rel_diff"],
                store_results["convergence_rel_diff"],
                phase_results["convergence_rel_diff"])
    details.append(f"half-step self-convergence {worst:.2e} < 1e-8")
    ok = ok and worst < 1e-8

    _report(8, "conservation and convergence", ok, "; ".join(details))


def test_criterion_9_coupling_rate_closed_form():
    curve = CouplerPullCurve(OMEGA_A, 1e27, TWO_PI * 7.7e9)
    phi_dc = 0.31
    slope = abs(float(curve.slope_at(phi_dc)))

    # symmetric-slope closed form: g = (delta_phi/4)|slope| to 1e-12
    g = coupling_rate(curve, curve, CouplerState(phi_dc, 0.2))
    form_ok = abs(g / (0.05 * slope) - 1.0) < 1e-12

    # exact linearity in the pump flux amplitude
    g1 = coupling_rate(curve, curve, CouplerState(phi_dc, 0.1))
    g2 = coupling_rate(curve, curve, CouplerState(phi_dc, 0.2))
    linear_ok = g2 == 2.0 * g1

    ok = form_ok and linear_ok
    _report(9, "coupling-rate closed form", ok,
            "symmetric-slope form exact to 1e-12; linear in pump flux")
