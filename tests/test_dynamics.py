import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cavityswap import dynamics, textio
from cavityswap.core import (ComplexAmplitudePair, ModeParams, PumpDrive,
                             ValidationError, mode_params_from_q)
from cavityswap.dynamics import (ConvergenceError, DriveTone,
                                 IntegrationDivergedError, ResolutionError,
                                 SimConfig, SingularSteadyStateError,
                                 TraceRecord, check_half_step,
                                 half_step_config, integrate,
                                 integrate_checked, max_step, propagate_load,
                                 propagate_swap, rabi_frequency,
                                 record_times, reflection_spectrum)
from cavityswap.sequences import parse_sequence, run_sequence_checked
from rk4_oracle import oracle_rhs, scalar_rk4

TWO_PI = 2.0 * math.pi

OMEGA_A = TWO_PI * 8.7e9
OMEGA_B = TWO_PI * 9.33e9
GP = TWO_PI * 1.2e6


def _lossless_modes():
    return ModeParams(OMEGA_A), ModeParams(OMEGA_B)


def _default_modes():
    return (mode_params_from_q(OMEGA_A, 900e3, 50e3),
            ModeParams(OMEGA_B, 1.0 / 14.9e-6, 0.0))


def _pump(g=GP, delta=0.0, phi=0.0):
    return PumpDrive(g, delta, phi)


def _rotating_cfg(g, t_end, delta=0.0, ppc=400, stride=1):
    omega = math.sqrt(delta * delta + 4.0 * g * g)
    return SimConfig(TWO_PI / (ppc * omega), t_end, 0.0, stride)


def _oracle_final_state(modes, g, delta, phi, a0, b0, t):
    """Independent matrix-exponential solution of the rotating-frame system.

    Substituting u = a e^{-i delta t/2}, v = b e^{+i delta t/2} removes the
    time dependence, leaving a constant 2x2 generator solved with expm.
    """
    mode_a, mode_b = modes
    m = np.array([
        [-0.5j * delta - 0.5 * mode_a.gamma_total, -1j * g * np.exp(1j * phi)],
        [-1j * g * np.exp(-1j * phi), 0.5j * delta - 0.5 * mode_b.gamma_total],
    ])
    u, v = expm(m * t) @ np.array([a0, b0])
    return u * np.exp(0.5j * delta * t), v * np.exp(-0.5j * delta * t)


class TestResonantSwap:
    def test_matches_cosine_closed_form(self):
        modes = _lossless_modes()
        t_end = math.pi / GP  # one full return
        cfg = _rotating_cfg(GP, t_end, ppc=800)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                          _pump(), None, cfg)
        expected = np.cos(GP * trace.t) ** 2
        assert np.max(np.abs(trace.energy_a - expected)) < 1e-8
        assert np.max(np.abs(trace.energy_b - (1.0 - expected))) < 1e-8

    def test_full_swap_residual(self):
        modes = _lossless_modes()
        t_end = math.pi / (2.0 * GP)
        cfg = _rotating_cfg(GP, t_end, ppc=800, stride=10**9)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                          _pump(), None, cfg)
        assert abs(trace.a[-1]) ** 2 < 1e-9
        assert abs(trace.b[-1]) ** 2 > 1.0 - 1e-9


class TestDetunedSwap:
    @pytest.mark.parametrize("delta", [TWO_PI * -3e6, TWO_PI * 1.7e6])
    def test_lossless_closed_form(self, delta):
        modes = _lossless_modes()
        omega = rabi_frequency(delta, GP)
        t_end = 3.0 * TWO_PI / omega
        cfg = _rotating_cfg(GP, t_end, delta, ppc=800)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                          _pump(delta=delta), None, cfg)
        contrast = 4.0 * GP**2 / omega**2
        expected = 1.0 - contrast * np.sin(0.5 * omega * trace.t) ** 2
        assert np.max(np.abs(trace.energy_a - expected)) < 1e-7

    @pytest.mark.parametrize("delta,phi", [
        (0.0, 0.0), (TWO_PI * 2e6, 0.7), (TWO_PI * -1e6, 2.1),
    ])
    def test_lossy_final_state_matches_expm_oracle(self, delta, phi):
        modes = _default_modes()
        t_end = 1.3e-6
        cfg = _rotating_cfg(GP, t_end, delta, ppc=800, stride=10**9)
        trace = integrate(ComplexAmplitudePair(0.6 + 0.2j, 0.1j, 0.0), modes,
                          _pump(delta=delta, phi=phi), None, cfg)
        a_ref, b_ref = _oracle_final_state(modes, GP, delta, phi,
                                           0.6 + 0.2j, 0.1j, t_end)
        assert abs(trace.a[-1] - a_ref) < 1e-8
        assert abs(trace.b[-1] - b_ref) < 1e-8


class TestConservationLaws:
    def test_lossless_energy_conserved_over_100us(self):
        modes = _lossless_modes()
        g = TWO_PI * 0.2e6
        cfg = _rotating_cfg(g, 100e-6, ppc=800, stride=100)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                          _pump(g=g), None, cfg)
        total = trace.energy_a + trace.energy_b
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_input_output_energy_balance(self):
        mode_a, mode_b = _default_modes()
        drive = DriveTone(mode_a.omega, 1e3, 0.0, 0.0, 5e-6)
        cfg = _rotating_cfg(GP, 5e-6, ppc=800)
        trace = integrate(ComplexAmplitudePair(0j, 0j, 0.0),
                          (mode_a, mode_b), _pump(), drive, cfg)
        ea, eb = trace.energy_a, trace.energy_b
        a_in = np.where((trace.t >= 0.0) & (trace.t <= 5e-6), 1e3, 0.0)
        e_in = np.trapezoid(a_in**2, trace.t)
        e_out = np.trapezoid(np.abs(trace.a_out) ** 2, trace.t)
        dissipated = np.trapezoid(mode_a.gamma_int * ea
                                  + mode_b.gamma_total * eb, trace.t)
        stored = (ea[-1] + eb[-1]) - (ea[0] + eb[0])
        assert abs(stored - (e_in - e_out - dissipated)) / e_in < 1e-6

    def test_output_is_input_minus_leakage(self):
        mode_a, mode_b = _default_modes()
        cfg = _rotating_cfg(GP, 0.5e-6, ppc=400)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0),
                          (mode_a, mode_b), _pump(), None, cfg)
        # no input: a_out = -sqrt(gamma_ext) a
        assert np.allclose(trace.a_out,
                           -math.sqrt(mode_a.gamma_ext) * trace.a)


class TestFrameEquivalence:
    def test_envelopes_agree_on_scaled_system(self):
        # scaled-down carrier frequencies keep the lab-frame oracle affordable
        mode_a = ModeParams(TWO_PI * 80e6)
        mode_b = ModeParams(TWO_PI * 143e6)
        g = TWO_PI * 0.5e6
        pump = PumpDrive(g, 0.0, 0.3)
        t_end = math.pi / (2.0 * g)
        init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
        lab_a, lab_b, _ = scalar_rk4(
            init, (mode_a, mode_b), pump, None,
            SimConfig(TWO_PI / (100 * mode_b.omega), t_end, 0.0, 10**9), "lab")
        rot = integrate(init, (mode_a, mode_b), pump, None,
                        SimConfig(TWO_PI / (400 * 2 * g), t_end, 0.0, 10**9))
        assert abs(abs(lab_a[-1]) - abs(rot.a[-1])) < 1e-3
        assert abs(abs(lab_b[-1]) - abs(rot.b[-1])) < 1e-3


class TestIntegratorMechanics:
    def test_step_resolution_guard(self):
        modes = _default_modes()
        with pytest.raises(ResolutionError):
            integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes, _pump(),
                      None, SimConfig(1e-6, 1e-5))

    @pytest.mark.parametrize("call", ["integrate", "propagate_swap", "reflection_spectrum"])
    def test_mode_b_must_lie_above_mode_a(self, call):
        # the pump term e^{+i w_P t} is resonant only for w_B > w_A
        mode_a, mode_b = _default_modes()
        swapped = (ModeParams(OMEGA_B, mode_a.gamma_int, mode_a.gamma_ext),
                   ModeParams(OMEGA_A, mode_b.gamma_int))
        init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
        calls = {
            "integrate": lambda: integrate(init, swapped, _pump(), None,
                                           _rotating_cfg(GP, 1e-7)),
            "propagate_swap": lambda: propagate_swap(init, swapped, GP, 0.0, 0.0, [1e-7]),
            "reflection_spectrum": lambda: reflection_spectrum(
                *swapped, _pump(), np.array([OMEGA_A])),
        }
        with pytest.raises(ValidationError, match="must lie above"):
            calls[call]()

    def test_bit_reproducible(self):
        # a ramped pump and a drive over several blocks of steps
        modes = _default_modes()
        pump = PumpDrive(GP, 0.0, 0.4, 0.1e-6, 2e-6, 0.3e-6)
        drive = DriveTone(OMEGA_A + TWO_PI * 0.2e6, 1e3, 0.0, 0.5e-6, 1.5e-6)
        cfg = SimConfig(max_step(*modes, pump, drive, points_per_cycle=2000),
                        2.5e-6, 0.0, 3)
        init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
        t1 = integrate(init, modes, pump, drive, cfg)
        t2 = integrate(init, modes, pump, drive, cfg)
        assert dynamics._steps(cfg)[0] > 2 * dynamics._BLOCK
        for field in ("t", "a", "b", "a_out"):
            assert np.array_equal(getattr(t1, field), getattr(t2, field))

    def test_record_grid_and_final_point(self):
        modes = _default_modes()
        cfg = _rotating_cfg(GP, 1e-6, ppc=400, stride=7)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                          _pump(), None, cfg)
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(1e-6, rel=1e-12)
        dt = trace.t[1] - trace.t[0]
        assert np.allclose(np.diff(trace.t[:-1]), dt, rtol=1e-9)

    def test_convergence_check_reports_small_diff(self):
        modes = _default_modes()
        cfg = _rotating_cfg(GP, 1e-6, ppc=400)
        trace, rel = integrate_checked(ComplexAmplitudePair(1 + 0j, 0j, 0.0),
                                       modes, _pump(), None, cfg)
        assert rel < 1e-8
        assert trace.meta["convergence_rel_diff"] == rel

    def test_convergence_failure_raises(self):
        modes = _default_modes()
        cfg = SimConfig(TWO_PI / (55 * 2 * GP), 20e-6,
                        tolerance=1e-16)
        with pytest.raises(ConvergenceError) as exc:
            integrate_checked(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                              _pump(), None, cfg)
        assert exc.value.rel_diff > exc.value.tolerance

    def test_derivative_matches_hand_computed_rhs(self):
        mode_a, mode_b = _default_modes()
        state = ComplexAmplitudePair(0.3 + 0.1j, 0.2 - 0.4j, 0.0)
        rhs = oracle_rhs(mode_a, mode_b, _pump(phi=0.5), None, "rotating")
        da, db = rhs(0.0, state.a, state.b)
        expected_a = (-0.5 * mode_a.gamma_total * state.a
                      - 1j * GP * np.exp(0.5j) * state.b)
        expected_b = (-0.5 * mode_b.gamma_total * state.b
                      - 1j * GP * np.exp(-0.5j) * state.a)
        assert da == pytest.approx(expected_a, rel=1e-14)
        assert db == pytest.approx(expected_b, rel=1e-14)


def _final_states(a, b):
    """A two-point trace whose final state is (a, b)."""
    return TraceRecord(np.zeros(2), np.array([0j, a]), np.array([0j, b]), np.zeros(2, complex))


_HALF_STEP_SEQ = ("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
                  "mode B freq=9.33GHz t1=14.9us\n"
                  "seg load dur=2us nbar={nbar}\n"
                  "seg swap dur=0.2037us gp=1.2MHz\n"
                  "seg readout dur=2us\n")


class TestHalfStepCheck:
    def test_power_of_two_scaling_keeps_the_difference(self):
        # unscaled, the squares of the 2^-1000 states and of their difference underflow
        a, b = 0.6 - 0.3j, -0.2 + 0.7j
        da, db = 3e-11 + 1e-12j, -2e-11j
        rel = check_half_step(_final_states(a + da, b + db), _final_states(a, b), 1.0)
        assert 1e-11 < rel < 1e-10
        tiny = 2.0**-1000
        scaled = check_half_step(_final_states((a + da) * tiny, (b + db) * tiny),
                                 _final_states(a * tiny, b * tiny), 1.0)
        assert scaled == rel

    def test_zero_states_keep_the_floor(self):
        assert check_half_step(_final_states(0j, 0j), _final_states(0j, 0j), 1.0) == 0.0
        # a zero fine state divides by the floor 1e-300
        assert check_half_step(_final_states(1e-150j, 0j), _final_states(0j, 0j),
                               1e200) == pytest.approx(1e150)

    def test_subnormal_occupancy_sequence(self):
        # amplitudes near 1e-160 used to report a difference of exactly 0
        rels = [run_sequence_checked(parse_sequence(_HALF_STEP_SEQ.format(nbar=nbar)))[1]
                for nbar in ("1", "1e-320")]
        assert rels[0] > 1e-12
        assert rels[1] == pytest.approx(rels[0], rel=1e-3)


class TestBatchedRK4:
    """``integrate`` composes affine step maps in blocks; it must give the
    scalar RK4 solution up to rounding."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ramp=st.sampled_from([0.0, 0.2, 0.5]),
           driven=st.booleans(),
           steps=st.integers(1, 40),
           stride=st.integers(1, 9),
           t_start=st.floats(0.0, 2e-6),
           pulse=st.tuples(st.floats(-0.3, 1.3), st.floats(-0.3, 1.3)),
           window=st.tuples(st.floats(-0.3, 1.3), st.floats(-0.3, 1.3)),
           g=st.floats(0.5, 8.0), delta=st.floats(-3.0, 3.0), dw=st.floats(-3.0, 3.0),
           phases=st.tuples(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI)),
           a0=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
    @example(ramp=0.0, driven=True, steps=15, stride=4, t_start=0.0,
             pulse=(-0.1, 1.1), window=(0.25, 0.75), g=2.0, delta=0.0, dw=0.5,
             phases=(0.0, 0.0), a0=1 + 0j)
    def test_matches_scalar_rk4(self, ramp, driven, steps, stride, t_start,
                                pulse, window, g, delta, dw, phases, a0):
        # rates in MHz (angular); pulse and drive windows are fractions of
        # the run, so their edges fall inside it or beyond either end; a
        # block of 16 steps puts 15 and 17 on both sides of a block boundary
        modes = (ModeParams(TWO_PI * 80e6, 0.7e6, 1.3e6), ModeParams(TWO_PI * 143e6, 0.4e6))
        tone = DriveTone(modes[0].omega + dw * _MHZ, 2e3, phases[1])
        dt = max_step(*modes, PumpDrive(g * _MHZ, delta * _MHZ), tone)
        span = steps * dt
        lo, hi = sorted(pulse)
        lo, hi = t_start + lo * span, t_start + max(hi, lo + 0.05) * span
        pump = PumpDrive(g * _MHZ, delta * _MHZ, phases[0], lo, hi,
                         ramp * 0.5 * (hi - lo))
        on, off = sorted(window)
        drive = DriveTone(tone.omega_d, tone.amp_in, tone.phase, t_start + on * span,
                          t_start + max(off, on + 0.01) * span) if driven else None
        cfg = SimConfig(dt, t_start + span, t_start, stride)
        init = ComplexAmplitudePair(a0, 0.5j * a0, t_start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK", 16)
            trace = integrate(init, modes, pump, drive, cfg)
        a, b, a_out = scalar_rk4(init, modes, pump, drive, cfg)
        assert np.array_equal(trace.t, record_times(cfg))
        peak = float(np.max(np.hypot(np.abs(a), np.abs(b))))
        assert np.max(np.hypot(np.abs(a - trace.a), np.abs(b - trace.b))) < 1e-12 * peak
        assert np.max(np.abs(a_out - trace.a_out)) < 1e-12 * float(np.max(np.abs(a_out)))

    def test_matches_scalar_rk4_over_default_blocks(self):
        # a detuned lossy swap long enough for several full blocks
        modes = _default_modes()
        cfg = _rotating_cfg(GP, 2e-6, TWO_PI * 0.5e6, ppc=2000, stride=7)
        init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
        trace = integrate(init, modes, _pump(delta=TWO_PI * 0.5e6, phi=0.3), None, cfg)
        a, b, _ = scalar_rk4(init, modes, _pump(delta=TWO_PI * 0.5e6, phi=0.3), None, cfg)
        assert dynamics._steps(cfg)[0] > 2 * dynamics._BLOCK
        assert np.max(np.hypot(np.abs(a - trace.a), np.abs(b - trace.b))) < 1e-12


    @pytest.mark.parametrize("pump", [PumpDrive(0.0), PumpDrive(0.0, TWO_PI * 0.3e6, 0.7),
                                      PumpDrive(0.0, 0.0, 0.0, 1.1e-6, 1.3e-6, 0.05e-6)],
                             ids=["delay", "detuned", "ramped"])
    @pytest.mark.parametrize("driven", [False, True])
    def test_unpumped_maps_keep_their_bits(self, pump, driven):
        # g_P = 0 skips the pump phase; the maps are those of the coupling
        # formula -i g_P(t) e^{+-i(D t + phi_P)}, signed zeros included
        modes = _default_modes()
        t, dt = 1e-6 + np.arange(500) * 1e-9, 1e-9
        drive = DriveTone(OMEGA_A + 1e5, 1e3, 0.2, 1.05e-6, 1.4e-6) if driven else None
        na, nb = (complex(-0.5 * mode.gamma_total) for mode in modes)
        up, down, f = dynamics._rk4_coefficients(t, dt, modes[0], pump, drive)
        stages = t + np.array([0.0, 0.5 * dt, dt])[:, None]
        ph = np.exp(1j * (pump.delta * stages + pump.phase))
        g = -1j * pump(stages)
        assert not np.any(up) and not np.any(down)
        maps = dynamics._rk4_maps(na, nb, dt, up, down, f)
        formula = dynamics._rk4_maps(na, nb, dt, g * ph, g * ph.conj(), f)
        assert maps.tobytes() == formula.tobytes()


_SHARE_KINDS = ["rect", "detuned", "ramped", "delay", "readout", "load", "detuned_load",
                "inner", "inner_load"]


@st.composite
def _shared_map_runs(draw):
    """(modes, x0, segments) for ``rk4_run``: 1-4 segments from a start
    time that may be negative, each a resonant or detuned rect swap, a
    resonant ramped swap, a delay, a readout, a resonant or off-resonant
    driven load, or a resonant rect pulse or resonant tone inside its
    segment ("inner", "inner_load").
    Supports are padded like those of ``run_sequence``, or not at all."""
    modes = draw(st.sampled_from([_default_modes(), _lossless_modes(),
                                  (ModeParams(OMEGA_A, 1e6, 1e6), ModeParams(OMEGA_B, 1e6, 1e6))]))
    t = draw(st.floats(-3e-6, 1e-6))
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(_SHARE_KINDS))
        dur = draw(st.floats(0.05e-6, 0.4e-6))
        pad = draw(st.sampled_from([0.0, 1e-12])) * dur
        g, phase = draw(st.floats(0.5, 2.0)) * _MHZ, draw(st.floats(0.0, TWO_PI))
        pump, drive = PumpDrive(0.0), None
        if kind in ("rect", "detuned", "ramped"):
            delta = draw(st.floats(-0.3, 0.3)) * _MHZ if kind == "detuned" else 0.0
            ramp = 0.3 * dur if kind == "ramped" else 0.0
            pump = PumpDrive(g, delta, phase, t - pad, t + dur + pad, ramp)
        elif kind == "inner":
            pump = PumpDrive(g, 0.0, phase, t + 0.3 * dur, t + 0.6 * dur)
        elif kind in ("load", "detuned_load"):
            dw = draw(st.floats(-0.3, 0.3)) * _MHZ if kind == "detuned_load" else 0.0
            drive = DriveTone(OMEGA_A + dw, draw(st.floats(100.0, 2000.0)), phase,
                              t - pad, t + dur + pad)
        elif kind == "inner_load":
            drive = DriveTone(OMEGA_A, draw(st.floats(100.0, 2000.0)), phase,
                              t + 0.3 * dur, t + 0.6 * dur)
        dt = min(max_step(*modes, pump, drive, points_per_cycle=draw(st.integers(50, 100))),
                 dur / 8.0)
        n, dt = dynamics._steps(SimConfig(dt, t + dur, t))
        segments.append((pump, drive, t, n, dt))
        t += dur
    x0 = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
    return modes, (x0, 0.5j * x0), segments


def _as_bits(*arrays):
    return [np.ascontiguousarray(x).view(np.int64) for x in arrays]


class TestSharedMaps:
    """A segment's share of a block with constant stage coefficients builds
    one RK4 map and repeats it: every result keeps the bits of a map per
    step, signed zeros included."""

    @pytest.mark.parametrize("block", [None, 16])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(run=_shared_map_runs())
    def test_rk4_run_keeps_its_bits(self, run, block):
        modes, x0, segments = run
        record = np.arange(1, sum(seg[3] for seg in segments) + 1)
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(dynamics, "_BLOCK", block)
            shared = dynamics.rk4_run(x0, modes, segments, record)
            mp.setattr(dynamics, "_constant_share", lambda *args: False)
            per_step = dynamics.rk4_run(x0, modes, segments, record)
        assert np.array_equal(*_as_bits(shared, per_step))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(run=_shared_map_runs(), stride=st.integers(1, 5))
    def test_integrate_keeps_its_bits(self, run, stride):
        modes, (a0, b0), segments = run
        for pump, drive, t0, n, dt in segments:  # each segment on its own
            cfg = SimConfig(dt, t0 + n * dt, t0, stride)
            init = ComplexAmplitudePair(a0, b0, t0)
            shared = integrate(init, modes, pump, drive, cfg)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "_constant_share", lambda *args: False)
                per_step = integrate(init, modes, pump, drive, cfg)
            for name in ("t", "a", "b", "a_out"):
                assert np.array_equal(*_as_bits(getattr(shared, name),
                                                getattr(per_step, name)))

    def test_inner_pump_window_is_not_constant(self):
        # the pump is off at both ends of the run and on in between: equal
        # coefficients at the ends would have made the whole run uncoupled
        pump = PumpDrive(GP, t_start=1e-6, t_stop=2e-6)
        cfg = SimConfig(1e-9, 3e-6)
        init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
        shared = integrate(init, _default_modes(), pump, None, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_constant_share", lambda *args: False)
            per_step = integrate(init, _default_modes(), pump, None, cfg)
        assert np.array_equal(*_as_bits(shared.b, per_step.b))
        assert abs(shared.b[-1]) ** 2 == pytest.approx(0.14460090219672453, rel=1e-12)

    def test_constant_share_needs_the_whole_support(self):
        mode_a = _default_modes()[0]
        pump = PumpDrive(GP, t_start=1e-6, t_stop=2e-6)
        tone = DriveTone(OMEGA_A, 1e3, 0.0, 1e-6, 2e-6)
        share = dynamics._constant_share
        assert share(pump, None, mode_a, 1e-6, 2e-6)
        assert share(PumpDrive(0.0), tone, mode_a, 1e-6, 2e-6)
        assert not share(pump, None, mode_a, 0.0, 3e-6)
        assert not share(pump, None, mode_a, 1e-6, 2e-6 + 1e-21)
        assert not share(PumpDrive(0.0), tone, mode_a, 1e-6 - 1e-21, 2e-6)
        assert not share(PumpDrive(GP, 1.0), None, mode_a, 1e-6, 2e-6)
        assert not share(PumpDrive(GP, ramp=0.1e-6, t_start=0.0, t_stop=1e-6), None,
                         mode_a, 0.0, 1e-6)
        assert not share(PumpDrive(0.0), replace(tone, omega_d=OMEGA_A + 1.0), mode_a,
                         1e-6, 2e-6)
        assert share(PumpDrive(0.0), replace(tone, omega_d=OMEGA_A + 1.0, amp_in=0.0),
                     mode_a, 0.0, 3e-6)


class TestDivergence:
    def test_integrate_names_the_first_non_finite_record(self):
        # an overflowing drive switches on between steps 9 and 10: state 10,
        # recorded at t_start + 10 dt, is the first non-finite one
        mode_a, mode_b = _default_modes()
        dt = 1e-9
        drive = DriveTone(OMEGA_A, 1e308, 0.0, 0.5e-6 + 9.7 * dt)
        cfg = SimConfig(dt, 0.5e-6 + 30 * dt, 0.5e-6, 2)
        with pytest.raises(IntegrationDivergedError,
                           match=f"non-finite state at t={record_times(cfg)[5]:.6e} s"):
            integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.5e-6), (mode_a, mode_b),
                      _pump(0.0), drive, cfg)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_closed_forms_refuse_non_finite_amplitudes(self):
        modes = _default_modes()
        with pytest.raises(IntegrationDivergedError, match="exact load"):
            propagate_load(ComplexAmplitudePair(0j, 0j, 0.0), modes,
                           DriveTone(OMEGA_A, 1e308), [0.0, 1e-6])
        # |a| + |b| overflows a component a quarter of the way into the swap
        with pytest.raises(IntegrationDivergedError, match="exact swap"):
            propagate_swap(ComplexAmplitudePair(1.5e308 + 0j, 1.5e308j, 0.0),
                           _lossless_modes(), GP, 0.0, 0.0, [math.pi / (4.0 * GP)])


class TestRecordGrid:
    @pytest.mark.parametrize("stride", [1, 7, 64, 10**9])
    def test_record_times_are_the_integrate_grid(self, stride):
        cfg = SimConfig(3.3e-9, 1.7e-6, 0.2e-6, stride)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.2e-6),
                          _default_modes(), _pump(), None, cfg)
        assert np.array_equal(record_times(cfg), trace.t)

    def test_half_step_config_is_the_checked_grid(self):
        cfg = _rotating_cfg(GP, 1.3e-6, ppc=400, stride=5)
        trace, _ = integrate_checked(ComplexAmplitudePair(1 + 0j, 0j, 0.0),
                                     _default_modes(), _pump(), None, cfg)
        assert np.array_equal(record_times(half_step_config(cfg)), trace.t)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(1, 10**6), dt_exp=st.floats(-15.0, 0.0))
    @example(n=15360, dt_exp=math.log10(8e-6 / 15360))  # the default chevron row
    def test_span_of_n_steps_takes_n(self, n, dt_exp):
        # the rounding slack is relative: an absolute 1e-12 is below one ulp
        # of span/dt above about 4,500 steps, where N steps became N + 1
        dt = 10.0 ** dt_exp
        assert dynamics._steps(SimConfig(dt, n * dt))[0] == n


class TestStepBound:
    def test_longer_runs_are_refused_before_they_start(self):
        dt = 0.5 * max_step(*_default_modes(), _pump())
        cfg = SimConfig(dt, (dynamics.MAX_STEPS + 1) * dt)
        with pytest.raises(ValidationError, match=f"{dynamics.MAX_STEPS + 1} RK4 steps "
                                                  f"exceed the bound of {dynamics.MAX_STEPS}"):
            integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), _default_modes(), _pump(),
                      None, cfg)

    def test_the_bound_itself_runs(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
        dt = 0.5 * max_step(*_default_modes(), _pump())
        init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
        trace = integrate(init, _default_modes(), _pump(), None, SimConfig(dt, 100 * dt))
        assert trace.t.size == 101
        with pytest.raises(ValidationError, match="101 RK4 steps"):
            integrate(init, _default_modes(), _pump(), None, SimConfig(dt, 101 * dt))

    def test_record_grid_of_2_64_steps_is_refused(self):
        # numpy holds no step count of 2**64 or more in an integer type; a
        # sparse grid just below that bound still builds
        below = SimConfig(1.0, 1.8e19, 0.0, 2**53)
        assert dynamics._steps(below)[0] < 2**64
        t = record_times(below)
        assert t.dtype == float and t[-1] == pytest.approx(1.8e19, rel=1e-15)
        above = SimConfig(1.0, 3.7e19, 0.0, 2**53)
        n = dynamics._steps(above)[0]
        with pytest.raises(ValidationError, match=f"{n} steps on the record grid exceed "
                                                  f"the bound of {2**64 - 1} steps"):
            dynamics.exact_segment(ComplexAmplitudePair(1 + 0j, 0j, 0.0), _default_modes(),
                                   _pump(), None, above)


_MHZ = TWO_PI * 1e6


class TestExactPropagator:
    @settings(max_examples=25, deadline=None)
    @given(g=st.floats(0.2, 2.0), delta=st.floats(-4.0, 4.0),
           gamma_a=st.floats(0.0, 2.0), gamma_b=st.floats(0.0, 2.0),
           phi=st.floats(0.0, TWO_PI), t0=st.floats(0.05, 3.0),
           a0=st.complex_numbers(max_magnitude=2.0),
           b0=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
    def test_matches_fine_step_rk4(self, g, delta, gamma_a, gamma_b, phi, t0,
                                   a0, b0):
        # rates in MHz (angular), times in us; D of either sign, B initially
        # occupied, and a start time away from 0 so the pump phase matters
        g, delta = g * _MHZ, delta * _MHZ
        modes = (ModeParams(OMEGA_A, gamma_a * 1e6), ModeParams(OMEGA_B, gamma_b * 1e6))
        t0 *= 1e-6
        init = ComplexAmplitudePair(a0, b0, t0)
        fastest = max(rabi_frequency(delta, g), gamma_a * 1e6, gamma_b * 1e6)
        cfg = SimConfig(TWO_PI / (2000 * fastest), t0 + 0.6e-6, t0, 50)
        rk4 = integrate(init, modes, _pump(g, delta, phi), None, cfg)
        a, b = propagate_swap(init, modes, g, delta, phi, rk4.t)
        peak = max(abs(a0), abs(b0))
        assert np.max(np.hypot(np.abs(a - rk4.a), np.abs(b - rk4.b))) < 1e-8 * peak

    @pytest.mark.parametrize("g_mhz", [0.3, 1.2, 5.0])
    def test_lossless_full_swap(self, g_mhz):
        g = g_mhz * _MHZ
        a, b = propagate_swap(ComplexAmplitudePair(1 + 0j, 0j, 0.0),
                              _lossless_modes(), g, 0.0, 0.4, math.pi / (2.0 * g))
        assert abs(abs(b) ** 2 - 1.0) < 1e-12
        assert abs(a) ** 2 < 1e-12

    @pytest.mark.parametrize("delta", [TWO_PI * -3e6, 0.0, TWO_PI * 1.7e6])
    def test_detuned_lossless_closed_form(self, delta):
        w = math.sqrt(delta**2 + 4.0 * GP**2)
        t = np.linspace(0.0, 5.0 * TWO_PI / w, 2001)
        a, b = propagate_swap(ComplexAmplitudePair(1 + 0j, 0j, 0.0),
                              _lossless_modes(), GP, delta, 1.1, t)
        expected = 1.0 - (4.0 * GP**2 / w**2) * np.sin(0.5 * w * t) ** 2
        assert np.max(np.abs(np.abs(a) ** 2 - expected)) < 1e-12
        assert np.max(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0)) < 1e-12

    def test_critically_damped(self):
        # D = 0 and g = |g_A - g_B|/4 make s = 0 exactly, where
        # exp(M t) = e^{m t}(I + t N): a = e^{m t}(1 + (g_B - g_A) t/4)
        gamma_a, gamma_b = 4e6, 0.0
        g = abs(gamma_a - gamma_b) / 4.0
        modes = (ModeParams(OMEGA_A, gamma_a), ModeParams(OMEGA_B, gamma_b))
        t = np.linspace(0.0, 3e-6, 301)
        a, b = propagate_swap(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                              g, 0.0, 0.0, t)
        decay = np.exp(-0.25 * (gamma_a + gamma_b) * t)
        assert np.max(np.abs(a - decay * (1.0 + 0.25 * (gamma_b - gamma_a) * t))) < 1e-12
        assert np.max(np.abs(np.abs(b) - decay * g * t)) < 1e-12
        # continuous across s = 0, and agrees with RK4 there
        a_near, b_near = propagate_swap(ComplexAmplitudePair(1 + 0j, 0j, 0.0),
                                        modes, g * (1.0 + 1e-9), 0.0, 0.0, t)
        assert np.max(np.abs(a_near - a)) < 1e-8
        cfg = SimConfig(TWO_PI / (2000 * gamma_a), 3e-6, 0.0, 100)
        rk4 = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                        _pump(g), None, cfg)
        a, b = propagate_swap(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                              g, 0.0, 0.0, rk4.t)
        assert np.max(np.abs(a - rk4.a)) < 1e-10
        assert np.max(np.abs(b - rk4.b)) < 1e-10

    def test_long_overdamped_swap_does_not_overflow(self):
        # a weak pump on a lossy readout mode: |Re(s)| t reaches ~1250 by
        # 0.5 ms, where cosh(s t) overflows; the slow mode is still ~e^{-1}
        modes = (ModeParams(OMEGA_A, 1e7), ModeParams(OMEGA_B))
        g, delta = 1e5, TWO_PI * 1e4
        t = np.linspace(0.0, 5e-4, 11)
        a, b = propagate_swap(ComplexAmplitudePair(0.3 + 0j, 1 + 0j, 0.0), modes,
                              g, delta, 0.0, t)
        for k, tk in enumerate(t):
            a_ref, b_ref = _oracle_final_state(modes, g, delta, 0.0, 0.3, 1.0, tk)
            assert abs(a[k] - a_ref) < 1e-10 and abs(b[k] - b_ref) < 1e-10
        assert abs(b[-1]) > 0.1


_SQUARES = st.integers(1, 316).map(lambda r: r * r)
# (modes, g_P) of each physical case; a drawn g_P (MHz, angular) where None
_GRID_CASES = {
    "lossless": (_lossless_modes(), None),
    "equal_loss": ((ModeParams(OMEGA_A, 1e6, 1e6), ModeParams(OMEGA_B, 1e6, 1e6)), None),
    "default": (_default_modes(), None),
    # D = 0 and g_P = |g_A - g_B|/4: s = 0 exactly, and 1e-9 to either side
    "exceptional": ((ModeParams(OMEGA_A, 4e6), ModeParams(OMEGA_B)), 1e6),
    "exceptional+": ((ModeParams(OMEGA_A, 4e6), ModeParams(OMEGA_B)), 1e6 * (1.0 + 1e-9)),
    "exceptional-": ((ModeParams(OMEGA_A, 4e6), ModeParams(OMEGA_B)), 1e6 * (1.0 - 1e-9)),
    # a q = 30 readout mode: |Re s| tau passes 700 within a microsecond
    "overflow": ((mode_params_from_q(OMEGA_A, 60.0, 60.0), ModeParams(OMEGA_B, 1.0 / 14.9e-6)),
                 None),
}


class TestExactGrid:
    """``exact_segment`` tabulates the closed form on its record grid; the
    per-sample ``propagate_swap`` is its oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=st.sampled_from(sorted(_GRID_CASES)), stride=st.integers(1, 7),
           samples=st.one_of(st.integers(1, 10**5), _SQUARES, _SQUARES.map(lambda n: n + 1)),
           tail=st.integers(0, 6), span=st.floats(0.01, 5.0),
           g=st.one_of(st.just(0.0), st.floats(0.05, 3.0)), delta=st.floats(-4.0, 4.0),
           phi=st.floats(0.0, TWO_PI), t_start=st.floats(0.0, 3.0),
           lead=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
           a0=st.complex_numbers(max_magnitude=2.0),
           b0=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
    @example(case="exceptional", stride=3, samples=10**5, tail=2, span=3.0, g=1.0,
             delta=0.0, phi=0.3, t_start=0.0, lead=0.0, a0=1 + 0j, b0=0.5j)
    @example(case="exceptional+", stride=1, samples=10**4, tail=0, span=3.0, g=1.0,
             delta=0.0, phi=0.0, t_start=0.5, lead=0.2, a0=1 + 0j, b0=0.5j)
    @example(case="exceptional-", stride=2, samples=10**4 + 1, tail=1, span=3.0, g=1.0,
             delta=0.0, phi=0.0, t_start=0.5, lead=0.0, a0=1 + 0j, b0=0.5j)
    @example(case="overflow", stride=5, samples=40001, tail=3, span=200.0, g=0.0,
             delta=0.0, phi=0.0, t_start=1.0, lead=0.0, a0=1 + 0j, b0=0.8j)
    @example(case="overflow", stride=1, samples=10**5, tail=0, span=200.0, g=0.1,
             delta=0.3, phi=1.0, t_start=1.0, lead=0.5, a0=1 + 0j, b0=0.8j)
    @example(case="default", stride=7, samples=1, tail=0, span=0.3, g=0.0,
             delta=0.0, phi=0.0, t_start=0.0, lead=0.0, a0=1 + 0j, b0=0.8j)
    @example(case="default", stride=4, samples=1, tail=3, span=0.3, g=1.2,
             delta=0.7, phi=0.4, t_start=0.0, lead=0.0, a0=1 + 0j, b0=0.8j)
    def test_matches_propagate_swap(self, case, stride, samples, tail, span, g, delta,
                                    phi, t_start, lead, a0, b0):
        # rates in MHz (angular), times in us; `samples` on the stride, then
        # an off-stride last step where tail % stride != 0, from a state
        # taken `lead` before t_start
        modes, g_fixed = _GRID_CASES[case]
        if g_fixed is None:
            g, delta = g * _MHZ, delta * _MHZ
        else:
            g, delta = g_fixed, 0.0
        n = (samples - 1) * stride + tail % stride
        n = max(n, 1)
        t_start *= 1e-6
        dt = span * 1e-6 / n
        cfg = SimConfig(dt, t_start + n * dt, t_start, stride)
        assert dynamics._steps(cfg)[0] == n
        init = ComplexAmplitudePair(a0, b0, t_start - lead * 1e-6)
        trace = dynamics.exact_segment(init, modes, _pump(g, delta, phi), None, cfg)
        t = record_times(cfg)
        a, b = propagate_swap(init, modes, g, delta, phi, t)
        assert trace.t.tobytes() == t.tobytes()
        peak = np.max(np.hypot(np.abs(a), np.abs(b)))
        assert np.max(np.hypot(np.abs(trace.a - a), np.abs(trace.b - b))) <= 1e-12 * peak


class TestExactLoad:
    @settings(max_examples=25, deadline=None)
    @given(gamma_int=st.floats(0.0, 2.0), gamma_ext=st.floats(0.2, 3.0),
           gamma_b=st.floats(0.0, 2.0), dw=st.floats(-3.0, 3.0),
           amp=st.floats(100.0, 3000.0), phase=st.floats(0.0, TWO_PI),
           t0=st.floats(0.0, 3.0),
           a0=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
           b0=st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0))
    @example(gamma_int=0.0, gamma_ext=1.0, gamma_b=0.0, dw=0.0, amp=1000.0,
             phase=0.0, t0=0.0, a0=0j, b0=0j)                # resonant fill
    @example(gamma_int=0.0, gamma_ext=0.5, gamma_b=0.3, dw=-2.5, amp=800.0,
             phase=1.0, t0=1.3, a0=1 - 0.5j, b0=0.7j)        # detuned drive
    def test_matches_fine_step_rk4(self, gamma_int, gamma_ext, gamma_b, dw, amp,
                                   phase, t0, a0, b0):
        # rates in MHz (angular), times in us; the drive tone is offset by dw
        # from mode A, and both modes start occupied
        modes = (ModeParams(OMEGA_A, gamma_int * 1e6, gamma_ext * 1e6),
                 ModeParams(OMEGA_B, gamma_b * 1e6))
        drive = DriveTone(OMEGA_A + dw * _MHZ, amp, phase)
        t0 *= 1e-6
        init = ComplexAmplitudePair(a0, b0, t0)
        fastest = max(abs(dw) * _MHZ, (gamma_int + gamma_ext) * 1e6, gamma_b * 1e6)
        cfg = SimConfig(TWO_PI / (2000 * fastest), t0 + 1e-6, t0, 50)
        rk4 = integrate(init, modes, _pump(0.0), drive, cfg)
        a, b = propagate_load(init, modes, drive, rk4.t)
        peak = float(np.max(np.hypot(np.abs(a), np.abs(b))))
        assert np.max(np.hypot(np.abs(a - rk4.a), np.abs(b - rk4.b))) < 1e-8 * peak

    @pytest.mark.parametrize("gamma_int", [0.0, 2e4])
    def test_resonant_fill_from_vacuum(self, gamma_int):
        # a(T) = (2 sqrt(g_ext) amp / g_A)(1 - e^{-g_A T/2}), the fill rule
        # that sizes load segments
        mode_a = ModeParams(OMEGA_A, gamma_int, TWO_PI * 8.7e9 / 50e3)
        drive = DriveTone(OMEGA_A, 1500.0)
        t = np.linspace(0.0, 20e-6, 11)
        a, b = propagate_load(ComplexAmplitudePair(0j, 0j, 0.0),
                              (mode_a, ModeParams(OMEGA_B)), drive, t)
        ga = mode_a.gamma_total
        fill = 2.0 * math.sqrt(mode_a.gamma_ext) * 1500.0 / ga * (1.0 - np.exp(-0.5 * ga * t))
        assert np.max(np.abs(a - fill)) < 1e-12 * np.max(fill)
        assert np.all(b == 0.0)

    def test_drive_must_cover_the_sample_times(self):
        drive = DriveTone(OMEGA_A, 1e3, 0.0, 0.0, 1e-6)
        with pytest.raises(ValidationError):
            propagate_load(ComplexAmplitudePair(0j, 0j, 0.0), _default_modes(),
                           drive, [0.0, 2e-6])


class TestTraceRecord:
    def _trace(self):
        modes = _default_modes()
        cfg = _rotating_cfg(GP, 1e-6, ppc=400, stride=20)
        return integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                         _pump(), None, cfg)

    def test_csv_round_trip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = TraceRecord.from_csv(path)
        assert np.allclose(loaded.t, trace.t, rtol=1e-15)
        assert np.allclose(loaded.a, trace.a, rtol=1e-15)
        assert np.allclose(loaded.a_out, trace.a_out, rtol=1e-15)
        assert loaded.meta["frame"] == "rotating"
        assert loaded.meta == trace.meta
        # a checked sequence trace carries str, int and float metadata
        checked, _ = run_sequence_checked(parse_sequence(
            "mode A freq=8.7GHz q_ext=50e3\nmode B freq=9.33GHz\n"
            "seg load dur=1us nbar=2\nseg swap dur=0.2us gp=1.2MHz\n"))
        checked.to_csv(path)
        loaded = TraceRecord.from_csv(path)
        assert isinstance(loaded.meta["points_per_cycle"], int)
        assert loaded.meta == checked.meta

    def test_csv_cells_match_per_cell_formatting(self, tmp_path):
        special = np.array([0.1, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                            2.2e-308, 1e300, -1.0 / 3.0, 0.0])

        def cplx(re, im):
            z = np.empty(re.size, dtype=complex)
            z.real, z.imag = re, im
            return z

        trace = TraceRecord(special, cplx(special, special[::-1]),
                            cplx(-special, np.roll(special, 3)),
                            cplx(special[::-1], np.roll(special, -2)))
        trace.to_csv(tmp_path / "trace.csv")
        cols = [trace.t, trace.a.real, trace.a.imag, trace.b.real, trace.b.imag,
                trace.a_out.real, trace.a_out.imag]
        expected = "t_s,re_a,im_a,re_b,im_b,re_aout,im_aout\n" + "".join(
            ",".join(f"{c[k]:.17g}" for c in cols) + "\n" for k in range(special.size))
        assert (tmp_path / "trace.csv").read_text() == expected

    def test_window_selects_inclusive_range(self):
        trace = self._trace()
        sub = trace.window(0.2e-6, 0.6e-6)
        assert sub.t[0] >= 0.2e-6 - 1e-12
        assert sub.t[-1] <= 0.6e-6 + 1e-12
        assert sub.t.size > 2

    def test_empty_window_raises(self):
        trace = self._trace()
        with pytest.raises(ValidationError):
            trace.window(5e-6, 6e-6)


_AXIS_VALUES = np.array([2.5, -0.0, 1e-300, math.nan, 0.1, 3e17, -7.0])
_AXIS_INDEX = np.array([4, 0, 0, 5, 2, 2, 2, 1, 3, 0, 5, 4, 1, 6, 6, 0, 3])  # repeats, any order


def _csv_text(columns):
    """The CSV rows the writer lays out for `columns`, as str."""
    return b"".join(textio._csv_blocks(columns)).decode()


class TestAxisColumns:
    """A (values, index) column writes the cells of values[index]."""

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("place", [0, 1, 2])  # first, middle, last
    def test_rows_match_the_dense_column(self, monkeypatch, block, place):
        monkeypatch.setattr(textio, "_CSV_BLOCK", block)
        n = _AXIS_INDEX.size
        words = np.array([f"w{k}" for k in range(n)], dtype=object)
        floats = np.linspace(-1.0, 1.0, n)

        def rows(axis):
            columns = [words, floats]
            columns.insert(place, axis)
            return _csv_text(columns)

        dense = _AXIS_VALUES[_AXIS_INDEX]
        text = rows((_AXIS_VALUES, _AXIS_INDEX))
        assert text == rows(dense)
        cells = [list(words), _percent_g(floats)]
        cells.insert(place, _percent_g(dense))
        assert text == "".join(",".join(row) + "\n" for row in zip(*cells))

    def test_pair_columns_only(self):
        index = _AXIS_INDEX.astype(np.uint8)
        text = _csv_text([(_AXIS_VALUES, index), (_AXIS_VALUES[::-1], index)])
        assert text == "".join(f"{'%.17g' % _AXIS_VALUES[k]},{'%.17g' % _AXIS_VALUES[-1 - k]}\n"
                               for k in _AXIS_INDEX)

    def test_values_are_formatted_a_block_at_a_time(self, tmp_path, monkeypatch):
        # 100,000 axis values, about as many as a default chevron map has
        # rows: formatting them _CSV_BLOCK at a time writes the same bytes
        # with a working set of a few MB (all at once it peaked at 28 MB)
        values = np.concatenate((np.linspace(0.0, 1.0, 99_993) ** 3, _AXIS_VALUES))
        index = np.arange(values.size)[::-1]
        path = tmp_path / "axis.csv"
        tracemalloc.start()
        try:
            textio.write_csv(path, [], ["x"], [(values, index)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        text = path.read_bytes()
        assert text.decode().splitlines()[1:] == _percent_g(values[index])
        monkeypatch.setattr(textio, "_CSV_BLOCK", 100)
        textio.write_csv(path, [], ["x"], [(values, index)])
        assert path.read_bytes() == text

    @pytest.mark.parametrize("column,match", [
        ((_AXIS_VALUES, _AXIS_INDEX[:-1]), "equal lengths"),
        ((_AXIS_VALUES, _AXIS_INDEX.astype(float)), "integer array"),
        ((_AXIS_VALUES, _AXIS_INDEX - 1), "outside its 7 values"),
        ((_AXIS_VALUES[:-1], _AXIS_INDEX), "outside its 6 values"),
    ])
    def test_refused(self, column, match):
        with pytest.raises(ValidationError, match=match):
            list(textio._csv_blocks([np.zeros(_AXIS_INDEX.size), column]))


def _cells(values):
    """The float cells of `values` as the CSV writer lays them out."""
    return list(textio.format_cells(np.asarray(values, dtype=float)))


def _percent_g(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


class TestCsvCells:
    """The cell kernel against per-cell ``'%.17g' %``."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                    | st.integers(0, 2**64 - 1).map(
                        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))),
                    min_size=1, max_size=40))
    def test_any_float(self, values):
        # the second strategy draws bit patterns: every exponent is as likely
        assert _cells(values) == _percent_g(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
        values = np.concatenate((powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)))
        assert _cells(values) == _percent_g(values)
        assert _cells(-values) == _percent_g(-values)

    def test_quarter_ties_near_1e15(self):
        # x 10 has a fraction of exactly 1/2 for odd k: %.17g rounds half to even
        values = 1e15 + np.arange(-400, 401) / 4.0
        assert _cells(values) == _percent_g(values)
        # every other exact tie: x = j / 2^(n + 1), j odd, so |x| 10^n = j 5^n / 2,
        # with n = 16 - E from 1 to 24 (10^23 and 10^24 are not doubles)
        ties = [j / 2 ** (n + 1) for n in range(1, 25)
                for j in range(-(-2 * 10**16 // 5**n) | 1, 2 * 10**17 // 5**n, 2)[:400]]
        assert len(ties) > 8000
        assert _cells(ties) == _percent_g(ties)

    def test_digits_that_round_up_to_the_next_power(self):
        # the doubles within 8 ulps of 10^E, where the 17-digit integer of
        # |x| 10^(16 - E) can round up to 10^17 and log10 can miss E by one
        powers = np.array([float(f"1e{e}") for e in range(-300, 301)])
        values = np.concatenate([powers + k * np.spacing(powers) for k in range(-8, 9)])
        assert _cells(values) == _percent_g(values)
        assert _cells([99999999999999999.0, 1e23]) == ["1e+17", "9.9999999999999992e+22"]
        # the exact integer part of |x| 10^(16 - E), not the rounded double,
        # must lie in [10^16, 10^17): this one prints with its own exponent
        assert _cells([9.9999999999999995e-07]) == ["9.9999999999999995e-07"]

    def test_zeros_and_non_finite(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]
        assert _cells(values) == ["0", "-0", "inf", "-inf", "nan", "4.9406564584124654e-324",
                                  "-4.9406564584124654e-324"]

    def test_str_cells_keep_their_exact_text(self):
        words = np.array(["", "é", "☃ x", "a\x00", "\x00", "no_oscillation"], dtype=object)
        floats = np.array([1.5, -0.0, 1e-300, 2.0, math.nan, 0.1])
        rows = _csv_text([words, floats, words[::-1]])
        assert rows == "".join(f"{a},{'%.17g' % x},{b}\n"
                               for a, x, b in zip(words, floats, words[::-1]))
        # a column of empty cells only
        assert _csv_text([["", ""], [1.0, 2.0]]) == ",1\n,2\n"


class TestReflectionSpectrum:
    def test_pump_off_is_lorentzian(self):
        mode_a, mode_b = _default_modes()
        w = mode_a.omega + np.linspace(-1, 1, 101) * TWO_PI * 2e6
        pump = PumpDrive(0.0)
        gamma = reflection_spectrum(mode_a, mode_b, pump, w)
        expected = 1.0 - mode_a.gamma_ext / (
            1j * (mode_a.omega - w) + 0.5 * mode_a.gamma_total)
        assert np.allclose(gamma, expected, rtol=1e-12)

    def test_critical_coupling_null(self):
        mode_a = ModeParams(OMEGA_A, 1e5, 1e5)  # gamma_int == gamma_ext
        mode_b = ModeParams(OMEGA_B, 1.0 / 14.9e-6, 0.0)
        pump = PumpDrive(0.0)
        gamma = reflection_spectrum(mode_a, mode_b, pump,
                                    np.array([mode_a.omega]))
        assert abs(gamma[0]) < 1e-12

    def test_splitting_puts_dips_at_plus_minus_g(self):
        mode_a, mode_b = _default_modes()
        w = mode_a.omega + np.linspace(-1, 1, 4001) * TWO_PI * 3e6
        gamma = reflection_spectrum(mode_a, mode_b, _pump(), w)
        mag = np.abs(gamma)
        idx = np.where((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:]))[0] + 1
        assert idx.size == 2
        offsets = (w[idx] - mode_a.omega) / TWO_PI
        assert offsets[0] == pytest.approx(-1.2e6, rel=2e-2)
        assert offsets[1] == pytest.approx(1.2e6, rel=2e-2)

    @pytest.mark.parametrize("delta_mhz", [-3.0, -0.4, 0.0, 0.7, 2.5])
    def test_matches_the_lab_carrier_formula(self, delta_mhz):
        # the oracle: the converted-probe term written with the absolute
        # carrier w_P = w_B - w_A + delta, as w_B - w - w_P
        mode_a, mode_b = _default_modes()
        w = mode_a.omega + np.linspace(-1, 1, 801) * TWO_PI * 4e6
        delta = TWO_PI * delta_mhz * 1e6
        omega_p = mode_b.omega - mode_a.omega + delta
        chi_a_inv = 1j * (mode_a.omega - w) + 0.5 * mode_a.gamma_total
        chi_b_inv = 1j * (mode_b.omega - w - omega_p) + 0.5 * mode_b.gamma_total
        expected = 1.0 - mode_a.gamma_ext / (chi_a_inv + GP * GP / chi_b_inv)
        gamma = reflection_spectrum(mode_a, mode_b, _pump(delta=delta), w)
        assert np.max(np.abs(gamma - expected)) < 1e-11

    def test_requires_cw_pump(self):
        mode_a, mode_b = _default_modes()
        pulsed = PumpDrive(GP, t_start=0.0, t_stop=1e-6)
        with pytest.raises(ValidationError):
            reflection_spectrum(mode_a, mode_b, pulsed,
                                np.array([mode_a.omega]))

    def test_singular_lossless_resonance(self):
        mode_a, mode_b = _lossless_modes()
        pump = PumpDrive(0.0)
        with pytest.raises(SingularSteadyStateError):
            reflection_spectrum(mode_a, mode_b, pump, np.array([mode_a.omega]))


class TestRabiFrequency:
    def test_resonant_value_is_twice_the_coupling(self):
        assert rabi_frequency(0.0, GP) == 2.0 * GP

    def test_detuned_value(self):
        assert rabi_frequency(3.0, 2.0) == pytest.approx(5.0)
