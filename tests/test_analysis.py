import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityswap.analysis import (DegenerateFitError, NoOscillationError,
                                 dwell_times, fit_exponential_decay,
                                 fit_phase_slope, loss_corrected_efficiency,
                                 oscillation_frequency)
from cavityswap.core import ComplexAmplitudePair, ModeParams, ValidationError
from cavityswap.dynamics import (TraceRecord, propagate_swap, rabi_frequency,
                                 swap_frequency)

TWO_PI = 2.0 * math.pi


class TestOscillationFrequency:
    RATE = TWO_PI * 5e6  # bounds every frequency drawn here

    def _series(self, freq_hz, n=4096, fs=40e6, offset=3.0, amp=0.5, phase=1.0):
        t = np.arange(n) / fs
        return offset + amp * np.cos(TWO_PI * freq_hz * t + phase), 1.0 / fs

    def _frequency(self, series, dt):
        return oscillation_frequency(series, dt, self.RATE, 1e-6)

    @pytest.mark.parametrize("freq", [0.7e6, 1.3e6, 2.4e6, 4.9e6])
    def test_recovers_known_frequency(self, freq):
        s, dt = self._series(freq)
        assert self._frequency(s, dt) == pytest.approx(TWO_PI * freq, rel=1e-5)

    def test_ignores_linear_trend(self):
        s, dt = self._series(1.3e6)
        s = s + np.linspace(0.0, 5.0, s.size)
        assert self._frequency(s, dt) == pytest.approx(TWO_PI * 1.3e6, rel=1e-4)

    def test_power_of_two_scaling_is_bit_identical(self):
        s, dt = self._series(1.3e6)
        w = self._frequency(s, dt)
        for scale in (2.0, 0.25, 1024.0):
            assert self._frequency(s * scale, dt) == w

    def test_arbitrary_scaling_matches_tightly(self):
        s, dt = self._series(1.3e6)
        w = self._frequency(s, dt)
        assert self._frequency(s * 3.7, dt) == pytest.approx(w, rel=1e-12)
        assert self._frequency(s * 1e-9, dt) == pytest.approx(w, rel=1e-12)

    def test_constant_series_raises(self):
        with pytest.raises(NoOscillationError):
            self._frequency(np.full(64, 2.5), 1e-8)

    def test_pure_ramp_raises(self):
        with pytest.raises(NoOscillationError):
            self._frequency(np.linspace(0.0, 1.0, 64), 1e-8)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValidationError):
            self._frequency(np.ones(51), 1e-8)
        with pytest.raises(ValidationError):
            self._frequency(np.ones(64), 0.0)
        with pytest.raises(ValidationError):
            oscillation_frequency(np.ones(64), 1e-8, 0.0, 1e-6)

    @settings(max_examples=25, deadline=None)
    @given(freq=st.floats(min_value=0.5e6, max_value=5e6),
           phase=st.floats(min_value=0.0, max_value=6.28))
    def test_accuracy_property(self, freq, phase):
        s, dt = self._series(freq, phase=phase)
        assert self._frequency(s, dt) == pytest.approx(TWO_PI * freq, rel=1e-4)


def _swap_energy(modes, g_p, delta, dt, n):
    """|a|^2 at t = k dt, k < n, of the closed-form swap from a(0) = 1."""
    t = np.arange(n) * dt
    a, _ = propagate_swap(ComplexAmplitudePair(1.0, 0.0, 0.0), modes, g_p, delta, 0.0, t)
    return a.real ** 2 + a.imag ** 2


class TestSwapFrequencyPencil:
    """The pencil on |a|^2 of a lossy detuned swap against the closed form
    ``swap_frequency``. The window runs from under one cycle to many and
    the grid from 20 to 500 samples a cycle; the pencil resolves both, so
    a fixed stride, which aliases on the coarse grids, or a rank below the
    swap's four exponents fails it."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(g_mhz=st.floats(0.1, 5.0), detuning=st.floats(-4.0, 4.0),
           loss_a=st.floats(0.0, 0.3), loss_b=st.floats(0.0, 0.3),
           cycles=st.floats(0.2, 50.0), per_cycle=st.integers(20, 500))
    # 40 cycles at 20 samples a cycle and |D| = 3.5 g_P: a stride of 64
    # samples aliases there
    @example(g_mhz=1.2, detuning=3.5, loss_a=0.15, loss_b=0.01, cycles=40.0, per_cycle=20)
    # a third of a cycle of a lossy detuned swap
    @example(g_mhz=1.2, detuning=1.5, loss_a=0.3, loss_b=0.0, cycles=0.3, per_cycle=400)
    def test_matches_the_lossy_closed_form(self, g_mhz, detuning, loss_a, loss_b,
                                           cycles, per_cycle):
        # the detuning and both loss rates in units of g_P; the window and
        # the grid in cycles of the lossless rate, which bounds W
        g_p = TWO_PI * 1e6 * g_mhz
        delta = detuning * g_p
        modes = (ModeParams(TWO_PI * 8.7e9, loss_a * g_p, 0.0),
                 ModeParams(TWO_PI * 9.33e9, loss_b * g_p, 0.0))
        rate = rabi_frequency(delta, g_p)
        dt = TWO_PI / (per_cycle * rate)
        n = max(52, int(cycles * per_cycle))
        w = oscillation_frequency(_swap_energy(modes, g_p, delta, dt, n), dt, rate, 1e-6)
        # a window under one cycle leaves the two real exponents barely apart
        bound = 1e-9 if n >= per_cycle else 1e-4
        assert w == pytest.approx(float(swap_frequency(modes, g_p, delta)), rel=bound)

    def test_overdamped_swap_is_refused(self):
        # (gamma_B - gamma_A)^2 > 16 g_P^2 at zero detuning: three real exponents
        g_p = TWO_PI * 1e6
        modes = (ModeParams(TWO_PI * 8.7e9, 5.0 * g_p, 0.0),
                 ModeParams(TWO_PI * 9.33e9, 0.0, 0.0))
        assert swap_frequency(modes, g_p, 0.0) == 0.0
        dt = TWO_PI / (50 * rabi_frequency(0.0, g_p))
        with pytest.raises(NoOscillationError, match="all real"):
            oscillation_frequency(_swap_energy(modes, g_p, 0.0, dt, 500), dt,
                                  rabi_frequency(0.0, g_p), 1e-6)

    def test_single_decay_is_refused(self):
        with pytest.raises(NoOscillationError, match="1 exponents"):
            oscillation_frequency(np.exp(-np.arange(200) / 40.0), 1.0, 0.1, 1e-6)

    def test_a_series_no_sum_of_exponentials_is_refused(self):
        # a rectified sine kinks every half cycle: no thirteen exponents fit it
        t = np.arange(400)
        with pytest.raises(NoOscillationError, match="residual"):
            oscillation_frequency(np.abs(np.sin(TWO_PI * t / 97.0)), 1.0, 0.1, 1e-6)


class TestExponentialDecayFit:
    def test_recovers_exact_parameters(self):
        t = np.linspace(0.0, 60e-6, 24)
        y = 0.8 * np.exp(-t / 14.9e-6) + 0.02
        fit = fit_exponential_decay(t, y)
        assert fit.params["tau"] == pytest.approx(14.9e-6, rel=1e-9)
        assert fit.params["amplitude"] == pytest.approx(0.8, rel=1e-9)
        assert fit.params["offset"] == pytest.approx(0.02, abs=1e-9)
        assert fit.residual_rms < 1e-12

    @pytest.mark.parametrize("energy_scale", [1e-30, 1e-20, 1e-10, 1.0, 1e10, 1e20, 1e30])
    @pytest.mark.parametrize("time_scale", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3])
    def test_scale_free(self, energy_scale, time_scale):
        # the Jacobian's columns scale with the data's units; unnormalised,
        # lstsq's cutoff dropped the tau column away from unit scale
        t = np.linspace(0.0, 5.0, 6) * time_scale
        tau = 2.3 * time_scale
        y = energy_scale * (1.7 * np.exp(-t / tau) + 0.1)
        fit = fit_exponential_decay(t, y)
        assert fit.params["tau"] == pytest.approx(tau, rel=1e-9)
        assert fit.params["amplitude"] == pytest.approx(1.7 * energy_scale, rel=1e-9)
        assert fit.params["offset"] == pytest.approx(0.1 * energy_scale, rel=1e-9)
        assert fit.residual_rms < 1e-12 * energy_scale

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(amp_exp=st.floats(-6.0, 6.0), time_exp=st.floats(-9.0, 0.0),
           tau_span=st.floats(0.02, 5.0), start=st.floats(0.0, 0.5),
           n=st.integers(4, 40), offset=st.floats(0.0, 0.3))
    def test_noise_free_decays_are_recovered(self, amp_exp, time_exp, tau_span,
                                             start, n, offset):
        # noise-free A e^{-t/tau} + c, c from 0 to 0.3 of the decay's first
        # sample: a true offset of 0 fits to rounding level, and a tau well
        # below the sample spacing must not end in a wrong minimum
        span = 10.0 ** time_exp
        t = span * np.linspace(start, start + 1.0, n)
        tau = tau_span * span
        decay = 10.0 ** amp_exp * np.exp(-t / tau)
        y = decay + offset * decay[0]
        fit = fit_exponential_decay(t, y)
        assert fit.params["tau"] == pytest.approx(tau, rel=1e-9)
        assert abs(fit.params["offset"] - offset * decay[0]) <= 1e-9 * y[0]

    def test_fast_decay_with_offset(self):
        # fast against the sampling, with an offset: a local search started
        # from a log-linear fit ends in a wrong minimum (tau = 0.00149)
        t = np.linspace(0.0, 1.0, 8)
        fit = fit_exponential_decay(t, np.exp(-t / 0.05) + 0.1)
        assert fit.params["tau"] == pytest.approx(0.05, rel=1e-9)
        assert fit.params["offset"] == pytest.approx(0.1, rel=1e-9)

    @pytest.mark.parametrize("tau_span", [1e-3, 1e-4])
    def test_unresolved_fast_decay_is_degenerate(self, tau_span):
        # gone before the second of 12 samples: any faster rate fits as well
        t = np.linspace(0.0, 1.0, 12)
        with pytest.raises(DegenerateFitError, match="not resolved"):
            fit_exponential_decay(t, np.exp(-t / tau_span))

    @pytest.mark.parametrize("tau_span,rel", [(1e3, 1e-9), (1e6, 1e-3)])
    def test_slow_decay(self, tau_span, rel):
        # the curvature e^{-s/tau} carries over the span is 1/(2 tau^2): at
        # 1e6 spans that is 5e-13, and the least-squares tau itself lies
        # 8e-5 (12 points) and 2.7e-4 (40 points) from the true one
        for n in (12, 40):
            t = np.linspace(0.0, 1.0, n)
            fit = fit_exponential_decay(t, np.exp(-t / tau_span))
            assert fit.params["tau"] == pytest.approx(tau_span, rel=rel)

    def test_recovers_tau_with_noise(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 60e-6, 48)
        y = np.exp(-t / 14.9e-6) + 1e-4 * rng.standard_normal(t.size)
        y = np.abs(y)
        fit = fit_exponential_decay(t, y)
        assert fit.params["tau"] == pytest.approx(14.9e-6, rel=1e-3)

    def test_constant_data_is_degenerate(self):
        t = np.linspace(0.0, 1.0, 8)
        # a lossless storage mode's energies differ only in the last bits,
        # which the fit would otherwise read as a decay
        rounded = np.full(8, 7.44117808)
        rounded[0] = np.nextafter(np.nextafter(rounded[0], 8.0), 8.0)
        for y in (np.full(8, 0.3), np.zeros(8), rounded):
            with pytest.raises(DegenerateFitError, match="constant series"):
                fit_exponential_decay(t, y)

    def test_growing_data_is_degenerate(self):
        t = np.linspace(0.0, 1.0, 8)
        with pytest.raises(DegenerateFitError):
            fit_exponential_decay(t, np.exp(t))

    def test_overflowing_amplitude_is_degenerate(self):
        # the amplitude at t = 0 is e^2000 times the one at the first time
        t = np.linspace(1000, 1001, 12)
        with pytest.raises(DegenerateFitError, match="amplitude at t = 0 overflows"):
            fit_exponential_decay(t, np.exp(-(t - 1000) / 0.5))

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            fit_exponential_decay([0.0, 1.0], [1.0, 0.5])  # too few
        with pytest.raises(ValidationError):
            fit_exponential_decay([0.0, 1.0, 1.0, 2.0], [1, 2, 3, 4])
        with pytest.raises(ValidationError):
            fit_exponential_decay([0, 1, 2, 3], [1.0, 0.5, -0.1, 0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call,arg", [
    ("oscillation", 0), ("oscillation", 1), ("oscillation", 2), ("decay", 0), ("decay", 1),
    ("phase", 0), ("phase", 1)])
def test_non_finite_input_is_refused(call, arg, bad):
    t = np.linspace(0.0, 1.0, 32)
    t_long = np.arange(64) / 64
    fn, args = {
        "oscillation": (oscillation_frequency,
                        [1.0 + np.cos(TWO_PI * 4.0 * t_long), 1.0 / 64, TWO_PI * 8.0, 1e-6]),
        "decay": (fit_exponential_decay, [t, np.exp(-t)]),
        "phase": (fit_phase_slope, [TWO_PI * t, TWO_PI * t]),
    }[call]
    if np.ndim(args[arg]):
        args[arg] = args[arg].copy()
        args[arg][5] = bad
    else:
        args[arg] = bad
    with pytest.raises(ValidationError, match="must be finite"):
        fn(*args)


def _two_phase_trace(t_half=5e-6, n=2001):
    """Synthetic trace: all energy in mode a for t < t_half, then in mode b."""
    t = np.linspace(0.0, 2.0 * t_half, n)
    a = np.where(t < t_half, 1.0 + 0.0j, 0.0j)
    b = np.where(t < t_half, 0.0j, 1.0 + 0.0j)
    return TraceRecord(t, a, b, np.zeros(n, complex), {"frame": "rotating"})


class TestDwellTimes:
    def test_even_split(self):
        trace = _two_phase_trace()
        t_a, t_b = dwell_times(trace, (0.0, 10e-6))
        assert t_a == pytest.approx(5e-6, rel=1e-2)
        assert t_b == pytest.approx(5e-6, rel=1e-2)
        assert t_a + t_b == pytest.approx(10e-6, rel=1e-9)

    def test_zero_energy_window_is_degenerate(self):
        n = 101
        t = np.linspace(0.0, 1e-6, n)
        z = np.zeros(n, complex)
        trace = TraceRecord(t, z, z, z, {})
        with pytest.raises(DegenerateFitError):
            dwell_times(trace, (0.0, 1e-6))


class TestLossCorrectedEfficiency:
    def test_corrects_known_dissipation(self):
        t_a, t_b = dwell_times(_two_phase_trace(), (0.0, 10e-6))
        mode_a = ModeParams(TWO_PI * 8.7e9, 1e5, 0.0)
        mode_b = ModeParams(TWO_PI * 9.33e9, 2e4, 0.0)
        eta = 0.5
        expected = eta * math.exp(1e5 * 5e-6 + 2e4 * 5e-6)
        out = loss_corrected_efficiency(eta, t_a, t_b, mode_a, mode_b)
        assert out == pytest.approx(expected, rel=1e-2)

    def test_lossless_modes_leave_eta_unchanged(self):
        t_a, t_b = dwell_times(_two_phase_trace(), (0.0, 10e-6))
        mode_a = ModeParams(TWO_PI * 8.7e9)
        mode_b = ModeParams(TWO_PI * 9.33e9)
        assert loss_corrected_efficiency(0.7, t_a, t_b, mode_a,
                                         mode_b) == pytest.approx(0.7)

    def test_eta_domain(self):
        mode = ModeParams(TWO_PI * 8.7e9)
        with pytest.raises(ValidationError):
            loss_corrected_efficiency(0.0, 5e-6, 5e-6, mode, mode)
        with pytest.raises(ValidationError):
            loss_corrected_efficiency(1.5, 5e-6, 5e-6, mode, mode)


class TestPhaseSlopeFit:
    def test_recovers_unit_slope_through_wraps(self):
        x = np.linspace(0.0, TWO_PI, 16, endpoint=False)
        y = np.angle(np.exp(1j * (x + 0.3)))  # wrapped to (-pi, pi]
        fit = fit_phase_slope(x, y)
        assert fit.params["slope"] == pytest.approx(1.0, abs=1e-12)
        assert fit.residual_rms < 1e-12

    def test_recovers_negative_slope(self):
        x = np.linspace(0.0, 4.0, 20)
        y = np.angle(np.exp(1j * (-x + 1.0)))
        fit = fit_phase_slope(x, y)
        assert fit.params["slope"] == pytest.approx(-1.0, abs=1e-12)

    def test_sparse_sampling_rejected(self):
        # spacing >= pi cannot distinguish slope +1 from -1
        x = np.array([0.0, 3.5, 7.0])
        y = np.angle(np.exp(1j * x))
        with pytest.raises(ValidationError, match="sparse"):
            fit_phase_slope(x, y)

    def test_duplicate_phases_rejected(self):
        x = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError, match="distinct"):
            fit_phase_slope(x, x)

    def test_span_requirement(self):
        x = np.array([0.0, 0.5, 1.0])
        with pytest.raises(ValidationError):
            fit_phase_slope(x, x)
