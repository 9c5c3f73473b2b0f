import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

from cavityswap.core import ComplexAmplitudePair, ModeParams, PumpDrive, ValidationError
from cavityswap import dynamics, fluxmap, sequences
from cavityswap.dynamics import (ConvergenceError, DriveTone, IntegrationDivergedError,
                                 SimConfig, integrate, lab_frame)
from cavityswap.sequences import (CalibrationError, SequenceSemanticError,
                                  SequenceSyntaxError, calibrate_swap_time,
                                  demodulate, emit_sequence, parse_sequence,
                                  run_sequence, run_sequence_checked)
from rk4_oracle import scalar_rk4

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

    @pytest.mark.parametrize("loss,err", [
        # each rate divides by its value; 1e-310 s gives an infinite rate
        ("t1=0us", "t1 must be positive"),
        ("q_int=0", "q_int must be positive"),
        ("q_int=-1e3", "q_int must be positive"),
        ("t1=1e-310s", "gamma_int must be non-negative and finite"),
        ("t1=14.9us q_ext=0", "q_ext must be positive"),
        ("t1=14.9us q_ext=1e-310", "gamma_ext must be non-negative and finite"),
    ])
    def test_loss_that_divides_by_zero_or_overflows_rejected(self, loss, err):
        with pytest.raises(ValidationError, match=err):
            parse_sequence(BASIC.replace("t1=14.9us", loss))


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
        # a load after the first segment drives the port
        text = ("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
                "mode B freq=9.33GHz t1=14.9us\n"
                "seg delay dur=0.1us\n"
                "seg load dur=20us nbar=10\n"
                "seg delay dur=0.1us\n")
        seq = parse_sequence(text)
        trace = run_sequence(seq)
        w = seq.windows()
        k = int(np.argmin(np.abs(trace.t - w[1][2])))
        assert abs(trace.a[k]) ** 2 == pytest.approx(10.0, rel=1e-6)

    @pytest.mark.parametrize("q_ext", ["1e15", "1e18", "1e19"])
    def test_driven_load_fills_a_weakly_coupled_mode(self, q_ext):
        # gamma_A T/2 is 3e-11 down to 3e-15 here: the fill must not cancel
        seq = parse_sequence(f"mode A freq=8.7GHz q_ext={q_ext}\n"
                             "mode B freq=9.33GHz\n"
                             "seg delay dur=1us\n"
                             "seg load dur=1us nbar=1\n")
        trace = run_sequence(seq)
        assert abs(trace.a[-1]) ** 2 == pytest.approx(1.0, rel=1e-12)

    def test_load_into_a_vanishing_external_rate_rejected(self):
        # gamma_ext = w_A / 1e300: the fill 2 sqrt(gamma_ext) (1 - e^{-gamma_A T/2}),
        # about 5e-145 times 3e-296, underflows to 0.0
        seq = parse_sequence("mode A freq=8.7GHz q_ext=1e300\n"
                             "mode B freq=9.33GHz\n"
                             "seg delay dur=1us\n"
                             "seg load dur=1us nbar=1\n")
        with pytest.raises(SequenceSemanticError, match="cannot fill mode A"):
            run_sequence(seq)

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
        exact = dynamics._swap_exp  # the closed form behind every exact swap

        def off_by_1e_6(*args):
            n11, ch, sh = exact(*args)
            return n11, ch * (1.0 + 1e-6), sh

        monkeypatch.setattr(dynamics, "_swap_exp", off_by_1e_6)
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
    @settings(max_examples=60, deadline=None)
    @given(text=lossless_sequences())
    def test_parse_emit_parse_is_a_fixed_point(self, text):
        seq = parse_sequence(text)
        emitted = emit_sequence(seq)
        again = parse_sequence(emitted)
        assert emit_sequence(again) == emitted
        # emit keeps 12 significant digits, so every value comes back to them
        pairs = [(seq.mode_specs[m], again.mode_specs[m]) for m in ("A", "B")]
        pairs += [(s1.params, s2.params) for s1, s2 in zip(seq.segments, again.segments)]
        assert [s.kind for s in again.segments] == [s.kind for s in seq.segments]
        for p1, p2 in pairs:
            assert list(p1) == list(p2)
            for key in p1:
                assert p2[key].kind == p1[key].kind
                assert p2[key].value == pytest.approx(p1[key].value, rel=1e-11, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(text=lossless_sequences())
    def test_port_energy_balance(self, text):
        # d(|a|^2 + |b|^2)/dt = |a_in|^2 - |a_out|^2 after the leading load,
        # integrated segment by segment (a_in jumps at load edges) with
        # Simpson's rule: the trapezoid's own error on these grids reaches
        # the 1e-4 bound
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
            flux += float(simpson(np.abs(a_in) ** 2 - np.abs(a_out) ** 2, x=t))
        energy = trace.energy_a + trace.energy_b
        k_lead = int(np.argmin(np.abs(trace.t - seq.windows()[0][2])))
        assert abs(energy[-1] - energy[k_lead] - flux) < 1e-4 * float(np.max(energy))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(text=lossless_sequences())
    def test_output_field_is_input_minus_leakage(self, text):
        # a_out = a_in - sqrt(gamma_ext) a at every sample; a sample on a
        # boundary belongs to the segment that ends there, and the leading
        # direct load has no incident field
        seq = parse_sequence(text)
        trace = run_sequence(seq)
        mode_a = seq.mode_a
        ends = np.array([w[2] for w in seq.windows()])
        owner = np.searchsorted(ends, trace.t - 1e-9 * seq.total_duration)
        a_in = np.zeros(trace.t.size, dtype=complex)
        for i, seg in enumerate(seq.segments):
            if seg.kind == "load" and "amp" in seg.params:
                t = trace.t[owner == i]
                a_in[owner == i] = seg.get("amp") * np.exp(
                    -1j * (seg.get("freq", mode_a.omega) - mode_a.omega) * t)
        expected = a_in - math.sqrt(mode_a.gamma_ext) * trace.a
        assert np.max(np.abs(trace.a_out - expected)) <= 1e-12 * np.max(np.abs(expected))

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


@st.composite
def oracle_sequences(draw):
    """Sequence text with lossy or lossless modes: a leading direct
    (``nbar=``) or driven (``amp=``) load, then 1-4 rect or ramped,
    resonant or detuned swaps, delays and driven loads, then a readout."""
    lossy = draw(st.booleans())
    lines = ["mode A freq=8.7GHz" + (" q_int=900e3" if lossy else "") + " q_ext=50e3",
             "mode B freq=9.33GHz" + (" t1=14.9us" if lossy else "")]
    if draw(st.booleans()):
        lines.append(f"seg load dur=1us nbar={draw(st.floats(0.5, 10.0)):.4g}")
    else:
        lines.append(f"seg load dur=0.5us amp={draw(st.floats(100.0, 2000.0)):.4g}")
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["rect", "ramp", "delay", "load"]))
        dur = draw(st.floats(0.05, 0.3))
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
    lines.append(f"seg readout dur={draw(st.floats(0.05, 0.3)):.4g}us")
    return "\n".join(lines) + "\n"


def _segment_problems(seq, points_per_cycle):
    """(pump, drive, SimConfig) of each segment of `seq` as the all-RK4
    path of ``run_sequence_checked`` sets them up, or None for a leading
    direct load."""
    modes = (seq.mode_a, seq.mode_b)
    out = []
    for i, (seg, (kind, t0, t1)) in enumerate(zip(seq.segments, seq.windows())):
        if i == 0 and kind == "load" and "nbar" in seg.params:
            out.append(None)
            continue
        pump = (sequences._segment_pump(seg, seq, t0, t1, fluxmap.DEFAULT_FLUX_CALIB)
                if kind == "swap" else PumpDrive(0.0))
        drive = sequences._load_drive(seg, seq.mode_a, t0, t1) if kind == "load" else None
        dt = min(dynamics.max_step(*modes, pump, drive, points_per_cycle=points_per_cycle),
                 seg.duration / 8.0)
        out.append((pump, drive, SimConfig(dt, t1, t0)))
    return out


def _scalar_chain(seq, points_per_cycle):
    """(t, a, b, a_out) of the scalar RK4 of ``rk4_oracle``, run segment by
    segment, each from the final state of the one before; a boundary
    sample belongs to the segment that ends there."""
    modes = (seq.mode_a, seq.mode_b)
    sq = math.sqrt(seq.mode_a.gamma_ext)
    state = ComplexAmplitudePair(0j, 0j, 0.0)
    parts = []
    for seg, (_, t0, t1), problem in zip(seq.segments, seq.windows(),
                                         _segment_problems(seq, points_per_cycle)):
        if problem is None:
            t = np.array([t0, t1])
            a = np.array([0j, math.sqrt(seg.get("nbar"))])
            b, a_out = np.zeros(2, complex), -sq * a
        else:
            pump, drive, cfg = problem
            t = dynamics.record_times(cfg)
            a, b, a_out = scalar_rk4(state, modes, pump, drive, cfg)
        state = ComplexAmplitudePair(a[-1], b[-1], t1)
        skip = 1 if parts else 0
        parts.append((t[skip:], a[skip:], b[skip:], a_out[skip:]))
    return [np.concatenate(col) for col in zip(*parts)]


class TestBatchedOracle:
    """The all-RK4 oracle of ``run_sequence_checked`` runs every segment in
    one ``rk4_run`` whose blocks cross segment boundaries: it must be the
    RK4 solution of the segments run one after the other."""

    @pytest.mark.parametrize("block", [None, 16])
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(text=oracle_sequences())
    def test_matches_a_per_segment_scalar_rk4_chain(self, text, block):
        seq = parse_sequence(text)
        sizes = []
        maps = dynamics._rk4_maps

        def sizing(na, nb, h, up, down, f):
            sizes.append(up.shape[-1])
            return maps(na, nb, h, up, down, f)

        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(dynamics, "_BLOCK", block)
            mp.setattr(dynamics, "_rk4_maps", sizing)
            rk4 = sequences._run_segments(seq, 400, exact=False)
        t, a, b, a_out = _scalar_chain(seq, 400)
        # one block of maps per _BLOCK steps, counted over the whole sequence
        steps = rk4.t.size - 1 - ("nbar" in seq.segments[0].params)
        limit = block or dynamics._BLOCK
        assert sizes == [limit] * (steps // limit) + ([steps % limit] if steps % limit else [])
        assert np.array_equal(rk4.t, t)
        peak = float(np.max(np.hypot(np.abs(a), np.abs(b))))
        assert np.max(np.hypot(np.abs(rk4.a - a), np.abs(rk4.b - b))) < 1e-12 * peak
        assert np.max(np.abs(rk4.a_out - a_out)) < 1e-12 * float(np.max(np.abs(a_out)))

    @pytest.mark.parametrize("text,steps", [
        # a driven load alone, long enough for three blocks of steps
        ("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\nmode B freq=9.33GHz t1=14.9us\n"
         "seg load dur=5us amp=800 freq=8.705GHz\n", 10000),
        # a direct load (no RK4), then a ramped detuned swap
        ("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\nmode B freq=9.33GHz t1=14.9us\n"
         "seg load dur=1us nbar=4\n"
         "seg swap dur=0.4us gp=1.2MHz delta=150kHz phase=30deg ramp=0.1us\n", 385),
    ])
    def test_one_segment_is_integrate_bit_for_bit(self, text, steps):
        seq = parse_sequence(text)
        rk4 = sequences._run_segments(seq, 400, exact=False)
        pump, drive, cfg = _segment_problems(seq, 400)[-1]
        k = -1 - dynamics._steps(cfg)[0]  # the sample the segment starts from
        start = ComplexAmplitudePair(rk4.a[k], rk4.b[k], cfg.t_start)
        ref = integrate(start, (seq.mode_a, seq.mode_b), pump, drive, cfg)
        n = ref.t.size
        for field in ("t", "a", "b", "a_out"):
            assert getattr(rk4, field)[-n:].tobytes() == getattr(ref, field).tobytes()
        assert n == steps + 1

    def test_step_bound_refuses_before_any_step(self, monkeypatch):
        # the first segment fits the bound, the swap does not
        seq = parse_sequence("mode A freq=8.7GHz q_ext=50e3\nmode B freq=9.33GHz\n"
                             "seg delay dur=0.1us\nseg swap dur=0.3us gp=1.2MHz\n")
        monkeypatch.setattr(dynamics, "MAX_STEPS", 100)
        monkeypatch.setattr(sequences, "rk4_run", None)  # any call fails
        monkeypatch.setattr(sequences, "integrate", None)
        with pytest.raises(ValidationError, match=r"\d+ RK4 steps exceed the bound of 100 "):
            run_sequence_checked(seq)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_load_names_the_first_non_finite_time(self):
        # f = sqrt(gamma_ext) amp overflows: the state after the first step
        # of the second load is the first non-finite one
        seq = parse_sequence("mode A freq=8.7GHz q_int=900e3 q_ext=50e3\n"
                             "mode B freq=9.33GHz t1=14.9us\n"
                             "seg load dur=1us nbar=4\nseg swap dur=0.2us gp=1.2MHz\n"
                             "seg load dur=0.5us amp=1e308\nseg readout dur=1us\n")
        cfg = _segment_problems(seq, 400)[2][2]
        first = dynamics.record_times(cfg)[1]
        with pytest.raises(IntegrationDivergedError, match=f"non-finite state at t={first:.6e} s"):
            run_sequence_checked(seq)


class TestLabFrame:
    def test_post_hoc_rotation_matches_lab_frame_rk4(self):
        # scaled-down carriers keep the scalar lab-frame RK4 oracle
        # affordable; it integrates the lab-frame equations segment by
        # segment, independently of the rotating-frame run that the lab
        # trace is rotated from. The carriers do not complete whole cycles
        # in any segment.
        seq = parse_sequence(
            "mode A freq=21.3MHz q_int=2e3 q_ext=1e3\n"
            "mode B freq=34.9MHz t1=5us\n"
            "seg load dur=0.5us amp=2e3\n"
            "seg swap dur=0.2us gp=1.2MHz delta=0.1MHz phase=30deg\n"
            "seg delay dur=0.3us\n"
            "seg swap dur=0.2us gp=1.2MHz phase=120deg\n")
        mode_a, mode_b = seq.mode_a, seq.mode_b
        trace = lab_frame(run_sequence_checked(seq)[0], mode_a, mode_b)
        assert trace.meta["frame"] == "lab"
        state = ComplexAmplitudePair(0j, 0j, 0.0)
        ends = []
        for seg, (kind, t0, t1) in zip(seq.segments, seq.windows()):
            drive = DriveTone(mode_a.omega, 2e3) if kind == "load" else None
            pump = PumpDrive(seg.get("gp"), seg.get("delta"), seg.get("phase"))
            cfg = SimConfig(TWO_PI / (400 * mode_b.omega), t1, t0, 10**9)
            lab_a, lab_b, lab_a_out = scalar_rk4(state, (mode_a, mode_b), pump, drive,
                                                 cfg, "lab")
            state = ComplexAmplitudePair(lab_a[-1], lab_b[-1], t1)
            k = int(np.argmin(np.abs(trace.t - t1)))
            assert trace.t[k] == pytest.approx(t1, rel=1e-12)
            ends.append((trace.a[k], trace.b[k], trace.a_out[k],
                         lab_a[-1], lab_b[-1], lab_a_out[-1]))
        a, b, a_out, lab_a, lab_b, lab_a_out = np.array(ends).T
        # lab-frame RK4 at 400 steps per carrier cycle is good to ~6e-8 here
        peak = float(np.max(np.hypot(np.abs(trace.a), np.abs(trace.b))))
        assert max(np.max(np.abs(a - lab_a)), np.max(np.abs(b - lab_b))) < 1e-6 * peak
        assert np.max(np.abs(a_out - lab_a_out)) < 1e-6 * np.max(np.abs(trace.a_out))


class TestDemodulate:
    def test_energy_is_integrated_output_power(self):
        seq = parse_sequence(BASIC)
        trace = run_sequence(seq)
        w = seq.windows()
        _, _, energy = demodulate(trace, seq.mode_a.omega, (w[-1][1], w[-1][2]))
        sub = trace.window(w[-1][1], w[-1][2])
        assert energy == pytest.approx(
            float(np.trapezoid(np.abs(sub.a_out) ** 2, sub.t)), rel=1e-12)

    @pytest.mark.parametrize("offset_mhz", [0.0, 0.3, -1.0])
    def test_rotating_and_lab_traces_agree_off_the_mode_frequency(self, offset_mhz):
        # the lab-frame twin is the same trace times e^{-i w_A t}
        seq = parse_sequence(BASIC)
        rot = run_sequence(seq)
        lab = lab_frame(rot, seq.mode_a, seq.mode_b)
        w = seq.windows()[-1]
        omega_ref = seq.mode_a.omega + TWO_PI * offset_mhz * 1e6
        i_rot, q_rot, e_rot = demodulate(rot, omega_ref, (w[1], w[2]))
        i_lab, q_lab, e_lab = demodulate(lab, omega_ref, (w[1], w[2]))
        assert abs(complex(i_rot, q_rot) - complex(i_lab, q_lab)) < \
            1e-9 * abs(complex(i_lab, q_lab))
        assert e_rot == pytest.approx(e_lab, rel=1e-12)

    def test_rotating_trace_needs_the_mode_frequency(self):
        seq = parse_sequence(BASIC)
        trace = run_sequence(seq)
        trace.meta.pop("omega_a")
        w = seq.windows()[-1]
        with pytest.raises(ValidationError, match="omega_a"):
            demodulate(trace, seq.mode_a.omega, (w[1], w[2]))

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
        t_cal = calibrate_swap_time(modes, g)
        assert t_cal == pytest.approx(t_pi, rel=1e-15)

    def test_lossy_calibration_nulls_the_residual(self):
        modes = (ModeParams(TWO_PI * 8.7e9, 1e5, 1e6),
                 ModeParams(TWO_PI * 9.33e9, 1.0 / 14.9e-6, 0.0))
        g = TWO_PI * 1.2e6
        t_pi = math.pi / (2.0 * g)
        t_cal = calibrate_swap_time(modes, g)
        # verify with a direct simulation of the calibrated pulse
        pump = PumpDrive(g)
        dt = TWO_PI / (800 * 2 * g)
        trace = integrate(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes, pump,
                          None, SimConfig(dt, t_cal, 0.0, 10**9))
        assert abs(trace.a[-1]) ** 2 < 1e-10
        # losses shorten the optimal pulse below pi/(2g)
        assert t_cal < t_pi

    def test_matches_rk4_residual_search(self):
        modes = (ModeParams(TWO_PI * 8.7e9, 1e5, 1e6),
                 ModeParams(TWO_PI * 9.33e9, 1.0 / 14.9e-6, 0.0))
        g = TWO_PI * 1.2e6
        t_pi = math.pi / (2.0 * g)
        t_cal = calibrate_swap_time(modes, g)
        # the oracle's own time tolerance
        assert t_cal == pytest.approx(
            _rk4_swap_time(modes, g, (0.25 * t_pi, 2.0 * t_pi)), abs=1e-13)

    @pytest.mark.parametrize("excess", [1.0, 1.5])
    def test_no_null_raises(self, excess):
        # gamma_B - gamma_A >= 4 g_P: a(t) decays without crossing zero
        g = TWO_PI * 1.2e6
        modes = (ModeParams(TWO_PI * 8.7e9, 1e5, 0.0),
                 ModeParams(TWO_PI * 9.33e9, 1e5 + excess * 4.0 * g, 0.0))
        with pytest.raises(CalibrationError, match="no pulse length nulls mode A"):
            calibrate_swap_time(modes, g)

    def test_critical_damping_nulls_at_one_over_d(self):
        g = TWO_PI * 1.2e6
        modes = (ModeParams(TWO_PI * 8.7e9, 4.0 * g, 0.0), ModeParams(TWO_PI * 9.33e9))
        t_cal = calibrate_swap_time(modes, g)
        assert t_cal == 1.0 / g
        a, _ = dynamics.propagate_swap(ComplexAmplitudePair(1 + 0j, 0j, 0.0), modes,
                                       g, 0.0, 0.0, t_cal)
        assert abs(a) ** 2 <= 1e-28

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(g_mhz=st.floats(1e-2, 1e2), x_a=st.floats(0.0, 10.0),
           v=st.floats(0.0, 1.0, exclude_max=True))
    def test_first_null_property(self, g_mhz, x_a, v):
        # loss rates in units of 4 g_P: x_a = gamma_A/(4 g_P) and
        # gamma_B - gamma_A < 4 g_P, on both sides of the critical point
        # x_a - x_b = 1 (overdamped with gamma_A above it)
        g = TWO_PI * 1e6 * g_mhz
        x_b = v * (x_a + 0.999)
        modes = (ModeParams(TWO_PI * 8.7e9, 4.0 * g * x_a, 0.0),
                 ModeParams(TWO_PI * 9.33e9, 4.0 * g * x_b, 0.0))
        t_cal = calibrate_swap_time(modes, g)
        init = ComplexAmplitudePair(1 + 0j, 0j, 0.0)
        a_end, _ = dynamics.propagate_swap(init, modes, g, 0.0, 0.0, t_cal)
        assert abs(a_end) ** 2 <= 1e-28
        # a(t) stays positive before t_cal, so t_cal is the first null
        a, _ = dynamics.propagate_swap(init, modes, g, 0.0, 0.0,
                                       np.linspace(0.0, t_cal, 201)[1:-1])
        assert np.all(a.real > 0.0)


def _rk4_swap_time(modes, g_p, window, points_per_cycle=800, time_tol=1e-13):
    """Golden-section search of the RK4-simulated residual |a(T)|^2 of a
    resonant pump over `window`: the oracle for the closed-form first null
    of calibrate_swap_time."""
    pump = PumpDrive(g_p)
    dt = TWO_PI / (points_per_cycle * 2.0 * g_p)

    def residual(t_swap):
        cfg = SimConfig(dt, t_swap, 0.0, max(1, int(t_swap / dt)))
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
