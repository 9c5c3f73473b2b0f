"""Metamorphic relations: two runs of the program whose results must relate
in a known way. They check sequences that no single closed form covers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityswap.experiments import (RUNNERS, _resolve_gp, _swap_energies, _swap_problem,
                                    resolve_config)
from cavityswap.sequences import parse_sequence, run_plan, run_sequence, run_sequence_checked

# a direct load leaves mode A at |a|^2 = 4, so every segment kind below
# acts on a nonzero state
_HEAD = "seg load dur=1us nbar=4\n"
_MODES = {
    "lossy": "mode A freq=8.7GHz q_int=900e3 q_ext=50e3\nmode B freq=9.33GHz t1=14.9us\n",
    "lossless": "mode A freq=8.7GHz q_ext=50e3\nmode B freq=9.33GHz\n",
}


@st.composite
def _segment_params(draw, kind):
    """The key = value text of one `kind` segment, without its duration."""
    if kind == "swap":
        return (f"gp={draw(st.floats(0.5, 2.0)):.4g}MHz"
                f" delta={draw(st.floats(-300.0, 300.0)):.4g}kHz"
                f" phase={draw(st.floats(0.0, 360.0)):.4g}deg")
    if kind == "load":
        return (f"amp={draw(st.floats(100.0, 2000.0)):.4g}"
                f" freq={8.7e9 + draw(st.floats(-300e3, 300e3)):.10g}Hz")
    return ""


class TestSegmentSplitting:
    """One segment and two segments of the same kind and parameters that
    cover its span end in the same state: the pump and the drive run on
    the global clock, so the split changes nothing but rounding."""

    @pytest.mark.parametrize("kind", ["delay", "swap", "load", "readout"])
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(data=st.data(), modes=st.sampled_from(sorted(_MODES)),
           first=st.integers(20, 300), second=st.integers(20, 300))
    def test_split_segment_ends_in_the_same_state(self, kind, data, modes, first, second):
        params = data.draw(_segment_params(kind))
        whole = parse_sequence(_MODES[modes] + _HEAD
                               + f"seg {kind} dur={first + second}ns {params}\n")
        split = parse_sequence(_MODES[modes] + _HEAD
                               + f"seg {kind} dur={first}ns {params}\n"
                               + f"seg {kind} dur={second}ns {params}\n")
        one, two = run_sequence(whole), run_sequence(split)
        assert two.t[-1] == pytest.approx(one.t[-1], rel=1e-15)
        peak = float(np.max(np.hypot(np.abs(one.a), np.abs(one.b))))
        assert math.hypot(abs(one.a[-1] - two.a[-1]), abs(one.b[-1] - two.b[-1])) < 1e-14 * peak
        run_sequence_checked(split)  # raises ConvergenceError if RK4 disagrees


class TestDetuningMirror:
    """Conjugating the coupled-mode equations and setting b -> -b turns a
    pump detuning +delta into -delta. From a real a(0) with no drive, the
    swap energies at the two detunings are then equal, and the chevron
    runner computes each |delta| once on the strength of it."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(q_int=st.floats(1e4, 1e7), q_ext=st.floats(1e3, 1e6), t1=st.floats(1.0, 100.0),
           nbar=st.floats(0.01, 100.0), power=st.floats(-60.0, -46.0),
           t_end=st.floats(0.5, 6.0), delta=st.floats(0.0, 5e3))
    def test_swap_energies_are_even_in_the_detuning(self, q_int, q_ext, t1, nbar, power,
                                                    t_end, delta):
        cfg = resolve_config("chevron", {
            "q_int_a": f"{q_int:.6g}", "q_ext_a": f"{q_ext:.6g}", "t1_b": f"{t1:.6g}us",
            "nbar": f"{nbar:.6g}", "pump_power": f"{power:.6g}dBm", "t_end": f"{t_end:.6g}us"})
        g, delta = _resolve_gp(cfg), 2.0 * math.pi * 1e3 * delta  # delta drawn in kHz
        plus, minus = (_swap_energies(run_plan(*_swap_problem(cfg, g, d, cfg["t_end"],
                                                              math.sqrt(cfg["nbar"]))))
                       for d in (delta, -delta))
        assert plus[1:] == minus[1:]  # dt and the least total energy
        assert np.array_equal(plus[0], minus[0])


class TestRetrievalStep:
    """store_retrieve and phase_sweep read every readout in closed form
    from a chain of closed-form segments, so the RK4 step, which only their
    oracle point and the trace of the dwell times use, changes no byte of
    their data."""

    @pytest.mark.parametrize("runner,small", [
        ("store_retrieve", {"delay_count": "4", "delay_stop": "16us"}),
        ("phase_sweep", {"phase_count": "8", "delay": "2us"}),
    ])
    def test_data_do_not_depend_on_the_step(self, tmp_path, runner, small):
        text = []
        for ppc in ("200", "400"):
            out = tmp_path / ppc
            RUNNERS[runner](resolve_config(runner, {**small, "points_per_cycle": ppc}), out)
            text.append((out / f"{runner}.csv").read_bytes())
        assert text[0] == text[1]
