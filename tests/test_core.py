import math

import numpy as np
import pytest

from cavityswap.core import (ComplexAmplitudePair, CouplerState, ModeParams,
                             PumpDrive, ValidationError, mode_params_from_q)
from cavityswap.dynamics import (SimConfig, exact_segment, propagate_swap,
                                 record_times)

TWO_PI = 2.0 * math.pi


class TestModeParams:
    def test_rates_and_derived_quantities(self):
        m = ModeParams(TWO_PI * 8.7e9, 1e5, 2e5)
        assert m.gamma_total == 3e5
        assert m.t1 == pytest.approx(1.0 / 3e5)
        assert m.q_int == pytest.approx(m.omega / 1e5)
        assert m.q_ext == pytest.approx(m.omega / 2e5)

    def test_lossless_mode(self):
        m = ModeParams(TWO_PI * 1e9)
        assert m.gamma_total == 0.0
        assert m.t1 == math.inf
        assert m.q_int == math.inf

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    def test_bad_frequency_rejected(self, omega):
        with pytest.raises(ValidationError):
            ModeParams(omega)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValidationError):
            ModeParams(1e9, gamma_int=-1.0)
        with pytest.raises(ValidationError):
            ModeParams(1e9, gamma_ext=-1.0)

    def test_from_q_inverts_q_properties(self):
        m = mode_params_from_q(TWO_PI * 8.7e9, 900e3, 50e3)
        assert m.q_int == pytest.approx(900e3, rel=1e-12)
        assert m.q_ext == pytest.approx(50e3, rel=1e-12)

    def test_from_q_infinite_q_is_lossless(self):
        m = mode_params_from_q(TWO_PI * 1e9, math.inf, math.inf)
        assert m.gamma_total == 0.0

    def test_from_q_rejects_non_positive_q(self):
        with pytest.raises(ValidationError):
            mode_params_from_q(TWO_PI * 1e9, 0.0, 50e3)


class TestCouplerState:
    def test_defaults(self):
        s = CouplerState(phi_dc=0.25)
        assert s.delta_phi == 0.0

    def test_negative_pump_amplitude_rejected(self):
        with pytest.raises(ValidationError):
            CouplerState(phi_dc=0.25, delta_phi=-0.1)


class TestRectPulse:
    """The envelope of a PumpDrive with ramp = 0: a closed-support rectangle."""

    def test_closed_interval_support(self):
        p = PumpDrive(2.0, t_start=1.0, t_stop=3.0)
        assert p(1.0) == 2.0  # both endpoints included
        assert p(3.0) == 2.0
        assert p(2.0) == 2.0
        assert p(0.999) == 0.0
        assert p(3.001) == 0.0

    def test_cw_envelope(self):
        p = PumpDrive(1.5)
        assert p.is_cw
        assert p(-1e9) == 1.5 and p(1e9) == 1.5
        assert not PumpDrive(1.0, t_start=0.0, t_stop=1.0).is_cw

    def test_max_amplitude(self):
        p = PumpDrive(0.7, t_start=0.0, t_stop=1.0)
        assert p.g == 0.7
        assert np.max(p(np.linspace(-1.0, 2.0, 31))) == 0.7

    def test_validation(self):
        with pytest.raises(ValidationError):
            PumpDrive(-1.0)
        with pytest.raises(ValidationError):
            PumpDrive(math.nan)
        with pytest.raises(ValidationError):
            PumpDrive(1.0, t_start=2.0, t_stop=1.0)


class TestRaisedCosinePulse:
    """The envelope of a PumpDrive with ramp > 0: raised-cosine edges."""

    def test_edges_and_plateau(self):
        p = PumpDrive(2.0, t_start=0.0, t_stop=10.0, ramp=2.0)
        assert p(0.0) == 0.0
        assert p(1.0) == pytest.approx(1.0)  # half-way up the ramp
        assert p(5.0) == 2.0
        assert p(9.0) == pytest.approx(1.0)
        assert p(10.0) == 0.0
        assert p(-0.1) == 0.0 and p(10.1) == 0.0

    def test_ramp_must_fit(self):
        with pytest.raises(ValidationError):
            PumpDrive(1.0, t_start=0.0, t_stop=1.0, ramp=0.6)
        with pytest.raises(ValidationError):
            PumpDrive(1.0, t_start=0.0, t_stop=1.0, ramp=-0.1)
        # ramp = 0 is the rectangle
        t = np.linspace(-0.5, 1.5, 41)
        assert np.array_equal(PumpDrive(1.0, t_start=0.0, t_stop=1.0, ramp=0.0)(t),
                              1.0 * ((0.0 <= t) & (t <= 1.0)))

    def test_never_cw(self):
        assert not PumpDrive(1.0, t_start=0.0, t_stop=1.0, ramp=0.1).is_cw


class TestPumpDrive:
    def test_non_finite_detuning_rejected(self):
        for delta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                PumpDrive(1.0, delta)
        assert PumpDrive(1.0, -50.0).delta == -50.0  # a signed offset

    def test_exact_segment_swaps_at_the_pump_detuning(self):
        """The pump's own delta is the detuning of the dynamics: the exact
        segment is propagate_swap at that delta, on the same times bit for
        bit and within 1e-12 of the peak amplitude (the segment tabulates
        the closed form, propagate_swap evaluates it at each time)."""
        modes = (mode_params_from_q(TWO_PI * 8.7e9, 900e3, 50e3),
                 ModeParams(TWO_PI * 9.33e9, 1.0 / 14.9e-6))
        pump = PumpDrive(TWO_PI * 1.2e6, TWO_PI * 0.7e6, 0.4)
        init = ComplexAmplitudePair(0.6 + 0.2j, 0.1j, 0.0)
        config = SimConfig(2e-9, 1e-6)
        trace = exact_segment(init, modes, pump, None, config)
        t = record_times(config)
        a, b = propagate_swap(init, modes, pump, t)
        assert trace.t.tobytes() == t.tobytes()
        peak = np.max(np.hypot(np.abs(a), np.abs(b)))
        assert np.max(np.hypot(np.abs(trace.a - a), np.abs(trace.b - b))) <= 1e-12 * peak


class TestComplexAmplitudePair:
    def test_holds_state(self):
        s = ComplexAmplitudePair(1 + 2j, 0.5j, 1e-6)
        assert s.a == 1 + 2j and s.b == 0.5j and s.t == 1e-6

    @pytest.mark.parametrize("a,b", [
        (complex("nan"), 0j), (0j, complex("inf")), (complex(0, math.inf), 0j),
    ])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(ValidationError):
            ComplexAmplitudePair(a, b, 0.0)
