import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityswap.core import (ComplexAmplitudePair, ModeParams, PumpDrive, RectPulse,
                             ValidationError, cw_envelope)
from cavityswap import sequences
from cavityswap.dynamics import ConvergenceError, DriveTone, SimConfig, integrate
from cavityswap.sequences import (CalibrationError, SequenceSemanticError,
                                  SequenceSyntaxError, calibrate_swap_time,
                                  demodulate, emit_sequence, parse_sequence,
                                  run_sequence, run_sequence_checked,
                                  without_swaps)

TWO_PI = 2.0 * math.pi

BASIC = """\
mode A freq=8.7GHz q_int=900e3 q_ext=50e3
mode B freq=9.33GHz t1=14.9us
seg load dur=20us nbar=10
seg swap dur=0.2037us gp=1.2MHz delta=0Hz phase=0deg
seg delay dur=2us
seg swap dur=0.2037us gp=1.2MHz delta=0Hz phase=90deg
seg readout dur=4us
"""


class TestParsing:
    def test_parses_the_basic_sequence(self):
        seq = parse_sequence(BASIC)
        assert [s.kind for s in seq.segments] == \
            ["load", "swap", "delay", "swap", "readout"]
        assert seq.mode_a.omega == pytest.approx(TWO_PI * 8.7e9)
        assert seq.mode_a.q_ext == pytest.approx(50e3, rel=1e-12)
        assert seq.mode_b.gamma_int == pytest.approx(1.0 / 14.9e-6, rel=1e-12)
        assert seq.mode_b.gamma_ext == 0.0
        assert seq.total_duration == pytest.approx(26.4074e-6, rel=1e-9)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + BASIC.replace("seg delay dur=2us",
                                              "seg delay dur=2us  # hold")
        assert parse_sequence(text).segments[2].duration == pytest.approx(2e-6)

    def test_windows_cover_the_timeline(self):
        seq = parse_sequence(BASIC)
        w = seq.windows()
        assert w[0][1] == 0.0
        for (_, _, end), (_, start, _) in zip(w, w[1:]):
            assert start == end
        assert w[-1][2] == pytest.approx(seq.total_duration)

    @pytest.mark.parametrize("line,err", [
        ("seg swap dur=0.6us gp=1.2MHz gp=2MHz", "duplicate key"),
        ("seg swap dur=0.6us coupling=1MHz", "unknown key"),
        ("seg swap dur=0.6us gp=1.2us", "requires a freq"),
        ("seg warmup dur=1us", "unknown segment kind"),
        ("seg swap gp=1.2MHz", "needs dur"),
        ("pulse swap dur=1us", "unknown directive"),
        ("seg load dur=1us nbar", "expected key=value"),
    ])
    def test_syntax_errors_carry_location(self, line, err):
        text = BASIC + line + "\n"
        with pytest.raises(SequenceSyntaxError, match=err) as exc:
            parse_sequence(text)
        assert exc.value.line == 8

    def test_syntax_error_points_at_the_repeated_token(self):
        text = BASIC + "seg swap dur=0.2us gp=1.2MHz delta=0Hz gp=1.2MHz\n"
        with pytest.raises(SequenceSyntaxError, match="duplicate key") as exc:
            parse_sequence(text)
        assert (exc.value.line, exc.value.col) == (8, 40)

    def test_mode_b_must_lie_above_mode_a(self):
        # the equations hold only for w_B > w_A: run anyway, this pi pulse
        # moves |b|^2 = 3.2e-6 instead of about 0.9
        with pytest.raises(ValidationError, match="must lie above"):
            parse_sequence("mode A freq=9.33GHz q_ext=50e3\n"
                           "mode B freq=8.7GHz\n"
                           "seg load dur=1us nbar=1\n"
                           "seg swap dur=0.2083us gp=1.2MHz\n")

    def test_missing_mode_rejected(self):
        text = "\n".join(BASIC.splitlines()[1:])
        with pytest.raises(SequenceSemanticError, match="mode A"):
            parse_sequence(text)

    def test_empty_sequence_rejected(self):
        with pytest.raises(SequenceSemanticError, match="empty"):
            parse_sequence("mode A freq=8.7GHz\nmode B freq=9.33GHz\n")

    def test_swap_needs_exactly_one_coupling_spec(self):
        bad = BASIC.replace("gp=1.2MHz delta=0Hz phase=0deg",
                            "gp=1.2MHz power=-52dBm")
        with pytest.raises(SequenceSemanticError, match="exactly one"):
            parse_sequence(bad)
        bad2 = BASIC.replace("gp=1.2MHz delta=0Hz phase=0deg", "delta=0Hz")
        with pytest.raises(SequenceSemanticError):
            parse_sequence(bad2)

    def test_load_needs_exactly_one_amplitude_spec(self):
        bad = BASIC.replace("seg load dur=20us nbar=10",
                            "seg load dur=20us nbar=10 amp=1e3")
        with pytest.raises(SequenceSemanticError, match="exactly one"):
            parse_sequence(bad)

    def test_loss_given_at_most_once(self):
        bad = BASIC.replace("t1=14.9us", "t1=14.9us q_int=1e6")
        with pytest.raises(SequenceSemanticError, match="more than once"):
            parse_sequence(bad)


class TestEmit:
    def test_parse_emit_is_a_fixed_point(self):
        seq = parse_sequence(BASIC)
        text1 = emit_sequence(seq)
        seq2 = parse_sequence(text1)
        assert emit_sequence(seq2) == text1
        assert seq2.total_duration == seq.total_duration
        assert [s.kind for s in seq2.segments] == [s.kind for s in seq.segments]

    def test_canonical_text_round_trips_byte_identically(self):
        canonical = emit_sequence(parse_sequence(BASIC))
        assert emit_sequence(parse_sequence(canonical)) == canonical


class TestExecution:
    def test_direct_load_sets_sqrt_nbar(self):
        seq = parse_sequence(BASIC)
        trace = run_sequence(seq)
        w = seq.windows()
        k = int(np.argmin(np.abs(trace.t - w[0][2])))
        assert abs(trace.a[k]) ** 2 == pytest.approx(10.0, rel=1e-12)
        assert trace.b[k] == 0.0

    def test_driven_load_reaches_target_occupancy(self):
        text = ("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
                "mode B freq=9.33GHz t1=14.9us\n"
                "seg load dur=20us nbar=10\n"
                "seg delay dur=0.1us\n")
        seq = parse_sequence(text)
        trace = run_sequence(seq, direct_load=False)
        w = seq.windows()
        k = int(np.argmin(np.abs(trace.t - w[0][2])))
        assert abs(trace.a[k]) ** 2 == pytest.approx(10.0, rel=1e-6)

    def test_swap_moves_energy_into_storage_mode(self):
        seq = parse_sequence(BASIC)
        trace = run_sequence(seq)
        w = seq.windows()
        k = int(np.argmin(np.abs(trace.t - w[1][2])))  # end of first swap
        assert trace.energy_b[k] > 0.9 * trace.energy_a[k + 1:].max()
        assert trace.energy_a[k] < 1e-4 * trace.energy_b[k]

    def test_global_clock_is_monotonic_and_complete(self):
        seq = parse_sequence(BASIC)
        trace = run_sequence(seq)
        assert np.all(np.diff(trace.t) > 0.0)
        assert trace.t[0] == 0.0
        assert trace.t[-1] == pytest.approx(seq.total_duration, rel=1e-12)
        assert trace.meta["seg1_kind"] == "swap"

    def test_pump_phase_rotates_retrieved_signal(self):
        seq0 = parse_sequence(BASIC.replace("phase=90deg", "phase=0deg"))
        seq90 = parse_sequence(BASIC)
        w = seq0.windows()
        window = (w[-1][1], w[-1][2])
        i0, q0, e0 = demodulate(run_sequence(seq0), seq0.mode_a.omega, window)
        i9, q9, e9 = demodulate(run_sequence(seq90), seq0.mode_a.omega, window)
        rotated = complex(i0, q0) * np.exp(1j * math.pi / 2.0)
        assert complex(i9, q9) == pytest.approx(rotated, rel=1e-6)
        assert e9 == pytest.approx(e0, rel=1e-6)

    def test_without_swaps_replaces_swaps_with_delays(self):
        seq = parse_sequence(BASIC)
        ref = without_swaps(seq)
        assert [s.kind for s in ref.segments] == \
            ["load", "delay", "delay", "delay", "readout"]
        assert ref.total_duration == seq.total_duration
        trace = run_sequence(ref)
        assert np.all(trace.energy_b < 1e-30)

    def test_checked_run_reports_convergence(self):
        seq = parse_sequence(BASIC)
        trace, rel = run_sequence_checked(seq)
        assert rel < 1e-8
        assert trace.meta["convergence_rel_diff"] == rel

    def test_driven_load_whose_last_stage_rounds_past_its_window(self):
        # the last RK4 stage of the final load lands a rounding error past
        # t_stop; an unpadded drive window dropped it (diff 1.5e-3)
        seq = parse_sequence(
            "mode A freq=8.7GHz q_ext=4.07e+04\n"
            "mode B freq=9.33GHz\n"
            "seg load dur=1.055us nbar=9.833\n"
            "seg swap dur=0.3955us gp=1.513MHz phase=189.3deg ramp=0.088us\n"
            "seg delay dur=1.621us\n"
            "seg load dur=0.5358us amp=854.2\n")
        _, rel = run_sequence_checked(seq)
        assert rel < 1e-6

    def test_checked_run_raises_on_impossible_tolerance(self):
        seq = parse_sequence(BASIC)
        with pytest.raises(ConvergenceError):
            run_sequence_checked(seq, tolerance=1e-18)

    def test_bit_reproducible(self):
        seq = parse_sequence(BASIC)
        t1 = run_sequence(seq)
        t2 = run_sequence(seq)
        assert np.array_equal(t1.a, t2.a) and np.array_equal(t1.b, t2.b)


    def test_checked_run_compares_the_closed_form_with_rk4(self, monkeypatch):
        seq = parse_sequence(BASIC)
        trace, rel = run_sequence_checked(seq)
        assert 0.0 < trace.meta["exact_rk4_max_diff"] < 1e-9
        exact = sequences.propagate_swap

        def off_by_1e_6(*args):
            a, b = exact(*args)
            return a * (1.0 + 1e-6), b

        monkeypatch.setattr(sequences, "propagate_swap", off_by_1e_6)
        with pytest.raises(ConvergenceError, match="exact-vs-RK4"):
            run_sequence_checked(seq, tolerance=1e-7)


@st.composite
def lossless_sequences(draw):
    """Sequence text with a lossless interior (A has external coupling
    only, B no loss): a leading direct load, then 1-4 rect or ramped swaps,
    delays and driven loads (resonant or detuned), then a readout."""
    lines = ["mode A freq=8.7GHz q_ext=50e3", "mode B freq=9.33GHz",
             f"seg load dur=1us nbar={draw(st.floats(0.5, 10.0)):.4g}"]
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["rect", "ramp", "delay", "load"]))
        dur = draw(st.floats(0.1, 0.5))
        if kind == "delay":
            lines.append(f"seg delay dur={dur:.4g}us")
        elif kind == "load":
            lines.append(f"seg load dur={dur:.4g}us amp={draw(st.floats(100.0, 2000.0)):.4g}"
                         f" freq={8.7e9 + draw(st.floats(-300e3, 300e3)):.10g}Hz")
        else:
            swap = (f"seg swap dur={dur:.4g}us gp={draw(st.floats(0.5, 2.0)):.4g}MHz"
                    f" delta={draw(st.floats(-300.0, 300.0)):.4g}kHz"
                    f" phase={draw(st.floats(0.0, 360.0)):.4g}deg")
            if kind == "ramp":
                swap += f" ramp={draw(st.floats(0.05, 0.45)) * dur:.4g}us"
            lines.append(swap)
    lines.append(f"seg readout dur={draw(st.floats(0.1, 0.5)):.4g}us")
    return "\n".join(lines) + "\n"


class TestClosedFormSequences:
    @settings(max_examples=30, deadline=None)
    @given(text=lossless_sequences())
    def test_port_energy_balance(self, text):
        # d(|a|^2 + |b|^2)/dt = |a_in|^2 - |a_out|^2 after the leading load,
        # integrated segment by segment (a_in jumps at load edges)
        seq = parse_sequence(text)
        trace = run_sequence(seq)
        mode_a = seq.mode_a
        sq = math.sqrt(mode_a.gamma_ext)
        eps = 1e-9 * seq.total_duration
        flux = 0.0
        for seg, (kind, t0, t1) in zip(seq.segments[1:], seq.windows()[1:]):
            sel = (trace.t >= t0 - eps) & (trace.t <= t1 + eps)
            t, a = trace.t[sel], trace.a[sel]
            a_in = 0.0
            if kind == "load":
                a_in = seg.get("amp") * np.exp(-1j * (seg.get("freq") - mode_a.omega) * t)
            a_out = a_in - sq * a
            flux += float(np.trapezoid(np.abs(a_in) ** 2 - np.abs(a_out) ** 2, t))
        energy = trace.energy_a + trace.energy_b
        k_lead = int(np.argmin(np.abs(trace.t - seq.windows()[0][2])))
        assert abs(energy[-1] - energy[k_lead] - flux) < 1e-4 * float(np.max(energy))

    @settings(max_examples=15, deadline=None)
    @given(text=lossless_sequences())
    def test_matches_the_all_rk4_path(self, text):
        seq = parse_sequence(text)
        exact = run_sequence(seq)
        rk4 = sequences._run_segments(seq, 400, exact=False)
        assert np.array_equal(exact.t, rk4.t)
        peak = float(np.max(np.hypot(np.abs(exact.a), np.abs(exact.b))))
        assert np.max(np.hypot(np.abs(exact.a - rk4.a), np.abs(exact.b - rk4.b))) < 1e-8 * peak
        assert np.max(np.abs(exact.a_out - rk4.a_out)) < 1e-8 * np.max(np.abs(rk4.a_out))


class TestLabFrame:
    def test_post_hoc_rotation_matches_lab_frame_rk4(self):
        # scaled-down carriers keep lab-frame RK4 affordable; it integrates
        # the lab-frame equations segment by segment, independently of the
        # rotating-frame run that the lab trace is rotated from. The carriers
        # do not complete whole cycles in any segment.
        seq = parse_sequence(
            "mode A freq=21.3MHz q_int=2e3 q_ext=1e3\n"
            "mode B freq=34.9MHz t1=5us\n"
            "seg load dur=0.5us amp=2e3\n"
            "seg swap dur=0.2us gp=1.2MHz delta=0.1MHz phase=30deg\n"
            "seg delay dur=0.3us\n"
            "seg swap dur=0.2us gp=1.2MHz phase=120deg\n")
        trace, _ = run_sequence_checked(seq, frame="lab", direct_load=False)
        assert trace.meta["frame"] == "lab"
        mode_a, mode_b = seq.mode_a, seq.mode_b
        diff = mode_b.omega - mode_a.omega
        state = ComplexAmplitudePair(0j, 0j, 0.0)
        ends = []
        for seg, (kind, t0, t1) in zip(seq.segments, seq.windows()):
            drive = DriveTone(mode_a.omega, 2e3) if kind == "load" else None
            pump = PumpDrive(diff + seg.get("delta"), seg.get("phase"),
                             cw_envelope(seg.get("gp")))
            cfg = SimConfig("lab", TWO_PI / (400 * mode_b.omega), t1, t0, 10**9)
            lab = integrate(state, (mode_a, mode_b), pump, drive, cfg)
            state = ComplexAmplitudePair(lab.a[-1], lab.b[-1], t1)
            k = int(np.argmin(np.abs(trace.t - t1)))
            assert trace.t[k] == pytest.approx(t1, rel=1e-12)
            ends.append((trace.a[k], trace.b[k], trace.a_out[k],
                         lab.a[-1], lab.b[-1], lab.a_out[-1]))
        a, b, a_out, lab_a, lab_b, lab_a_out = np.array(ends).T
        # lab-frame RK4 at 400 steps per carrier cycle is good to ~6e-8 here
        peak = float(np.max(np.hypot(np.abs(trace.a), np.abs(trace.b))))
        assert max(np.max(np.abs(a - lab_a)), np.max(np.abs(b - lab_b))) < 1e-6 * peak
        assert np.max(np.abs(a_out - lab_a_out)) < 1e-6 * np.max(np.abs(trace.a_out))

    def test_lab_frame_keeps_the_half_step_difference(self):
        seq = parse_sequence(BASIC)
        rot, rel_rot = run_sequence_checked(seq)
        lab, rel_lab = run_sequence_checked(seq, frame="lab")
        assert rel_lab == rel_rot
        assert np.array_equal(lab.t, rot.t)
        assert np.allclose(np.abs(lab.a), np.abs(rot.a), rtol=1e-12, atol=0.0)


class TestDemodulate:
    def test_energy_is_integrated_output_power(self):
        seq = parse_sequence(BASIC)
        trace = run_sequence(seq)
        w = seq.windows()
        _, _, energy = demodulate(trace, seq.mode_a.omega, (w[-1][1], w[-1][2]))
        sub = trace.window(w[-1][1], w[-1][2])
        assert energy == pytest.approx(
            float(np.trapezoid(np.abs(sub.a_out) ** 2, sub.t)), rel=1e-12)

    def test_empty_window_rejected(self):
        seq = parse_sequence(BASIC)
        trace = run_sequence(seq)
        with pytest.raises(Exception):
            demodulate(trace, seq.mode_a.omega, (1.0, 1.0))


class TestSwapCalibration:
    def test_lossless_calibration_recovers_pi_over_2g(self):
        modes = (ModeParams(TWO_PI * 8.7e9), ModeParams(TWO_PI * 9.33e9))
        g = TWO_PI * 1.2e6
        t_pi = math.pi / (2.0 * g)
        t_cal = calibrate_swap_time(modes, g, (0.5 * t_pi, 1.5 * t_pi))
        assert t_cal == pytest.approx(t_pi, rel=1e-6)

    def test_lossy_calibration_nulls_the_residual(self):
        modes = (ModeParams(TWO_PI * 8.7e9, 1e5, 1e6),
                 ModeParams(TWO_PI * 9.33e9, 1.0 / 14.9e-6, 0.0))
        g = TWO_PI * 1.2e6
        t_pi = math.pi / (2.0 * g)
        t_cal = calibrate_swap_time(modes, g, (0.5 * t_pi, 1.5 * t_pi))
        # verify with a direct simulation of the calibrated pulse
        pump = PumpDrive(modes[1].omega - modes[0].omega, 0.0, RectPulse(g))
        dt = TWO_PI / (800 * 2 * g)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes, pump,
                          None, SimConfig("rotating", dt, t_cal, 0.0, 10**9))
        assert abs(trace.a[-1]) ** 2 < 1e-10
        # losses shorten the optimal pulse below pi/(2g)
        assert t_cal < t_pi

    @pytest.mark.parametrize("delta", [0.0, TWO_PI * 0.3e6, TWO_PI * -0.5e6])
    def test_matches_rk4_residual_search(self, delta):
        modes = (ModeParams(TWO_PI * 8.7e9, 1e5, 1e6),
                 ModeParams(TWO_PI * 9.33e9, 1.0 / 14.9e-6, 0.0))
        g = TWO_PI * 1.2e6
        t_pi = math.pi / (2.0 * g)
        window = (0.25 * t_pi, 2.0 * t_pi)
        t_cal = calibrate_swap_time(modes, g, window, delta=delta)
        assert t_cal == pytest.approx(_rk4_swap_time(modes, g, window, delta), rel=1e-12)

    def test_window_excluding_minimum_raises(self):
        modes = (ModeParams(TWO_PI * 8.7e9), ModeParams(TWO_PI * 9.33e9))
        g = TWO_PI * 1.2e6
        t_pi = math.pi / (2.0 * g)
        with pytest.raises(CalibrationError):
            calibrate_swap_time(modes, g, (0.1 * t_pi, 0.5 * t_pi))


def _rk4_swap_time(modes, g_p, window, delta, points_per_cycle=800, time_tol=1e-13):
    """Golden-section search of the RK4-simulated residual |a(T)|^2: the
    oracle for the closed-form residual of calibrate_swap_time."""
    mode_a, mode_b = modes
    pump = PumpDrive(abs(mode_a.omega - mode_b.omega) + delta, 0.0, RectPulse(g_p))
    dt = TWO_PI / (points_per_cycle * math.sqrt(delta * delta + 4.0 * g_p * g_p))

    def residual(t_swap):
        cfg = SimConfig("rotating", dt, t_swap, 0.0, max(1, int(t_swap / dt)))
        trace = integrate(ComplexAmplitudePair(1.0 + 0.0j, 0.0j, 0.0), modes,
                          pump, None, cfg)
        return float(np.abs(trace.a[-1]) ** 2)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = window
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = residual(x1), residual(x2)
    while b - a > time_tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = residual(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = residual(x2)
    return 0.5 * (a + b)
