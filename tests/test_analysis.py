import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityswap.analysis import (DegenerateFitError, NoOscillationError,
                                 dwell_times, fit_exponential_decay,
                                 fit_phase_slope, fft_length,
                                 loss_corrected_efficiency,
                                 oscillation_frequency)
from cavityswap.core import ModeParams, ValidationError
from cavityswap.dynamics import TraceRecord

TWO_PI = 2.0 * math.pi


class TestOscillationFrequency:
    def _series(self, freq_hz, n=4096, fs=40e6, offset=3.0, amp=0.5, phase=1.0):
        t = np.arange(n) / fs
        return offset + amp * np.cos(TWO_PI * freq_hz * t + phase), 1.0 / fs

    @pytest.mark.parametrize("freq", [0.7e6, 1.3e6, 2.4e6, 4.9e6])
    def test_recovers_known_frequency(self, freq):
        s, dt = self._series(freq)
        assert oscillation_frequency(s, dt) == pytest.approx(TWO_PI * freq,
                                                             rel=1e-5)

    def test_ignores_linear_trend(self):
        s, dt = self._series(1.3e6)
        s = s + np.linspace(0.0, 5.0, s.size)
        assert oscillation_frequency(s, dt) == pytest.approx(TWO_PI * 1.3e6,
                                                             rel=1e-4)

    def test_power_of_two_scaling_is_bit_identical(self):
        s, dt = self._series(1.3e6)
        w = oscillation_frequency(s, dt)
        for scale in (2.0, 0.25, 1024.0):
            assert oscillation_frequency(s * scale, dt) == w

    def test_arbitrary_scaling_matches_tightly(self):
        s, dt = self._series(1.3e6)
        w = oscillation_frequency(s, dt)
        assert oscillation_frequency(s * 3.7, dt) == pytest.approx(w, rel=1e-12)
        assert oscillation_frequency(s * 1e-9, dt) == pytest.approx(w, rel=1e-12)

    def test_constant_series_raises(self):
        with pytest.raises(NoOscillationError):
            oscillation_frequency(np.full(64, 2.5), 1e-8)

    def test_pure_ramp_raises(self):
        with pytest.raises(NoOscillationError):
            oscillation_frequency(np.linspace(0.0, 1.0, 64), 1e-8)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValidationError):
            oscillation_frequency(np.ones(8), 1e-8)
        with pytest.raises(ValidationError):
            oscillation_frequency(np.ones(64), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(freq=st.floats(min_value=0.5e6, max_value=5e6),
           phase=st.floats(min_value=0.0, max_value=6.28))
    def test_accuracy_property(self, freq, phase):
        s, dt = self._series(freq, phase=phase)
        assert oscillation_frequency(s, dt) == pytest.approx(TWO_PI * freq,
                                                             rel=1e-4)


def _oscillation_frequency_8n(series, dt):
    """The estimator as it was with the FFT zero-padded to exactly 8 n
    samples: the oracle of the smooth-length one."""
    x = np.asarray(series, dtype=float)
    n = x.size
    t = np.arange(n, dtype=float)
    x = x - np.polynomial.polynomial.polyval(t, np.polynomial.polynomial.polyfit(t, x, 1))
    x = x / np.max(np.abs(x))
    nfft = 8 * n
    mag = np.abs(np.fft.rfft(x * np.hanning(n), nfft))
    k = int(np.argmax(mag[1:-1])) + 1
    la, lb, lc = np.log(mag[k - 1]), np.log(mag[k]), np.log(mag[k + 1])
    denom = la - 2.0 * lb + lc
    shift = 0.0 if denom == 0.0 else 0.5 * (la - lc) / denom
    shift = min(max(shift, -0.5), 0.5)
    return TWO_PI * (k + shift) / (nfft * dt)


class TestFftLength:
    def test_smallest_5_smooth_length_by_brute_force(self):
        smooth = np.unique([2**i * 3**j * 5**k for i in range(18) for j in range(12)
                            for k in range(8)])
        n = np.arange(1, 10**5 + 1)
        expected = smooth[np.searchsorted(smooth, n)]
        assert [fft_length(m) for m in range(1, 10**5 + 1)] == expected.tolist()

    # chevron's default series (8n = 2^3 3^2 569), rk4_sweep's (2^4 2447),
    # power_sweep's (2^3 17 353)
    @pytest.mark.parametrize("n", [5121, 4894, 6001])
    def test_matches_the_8n_estimator(self, n):
        g = TWO_PI * 1.2e6
        dt = 8e-6 / 5120
        t = np.arange(n) * dt
        for delta in TWO_PI * np.linspace(-4e6, 4e6, 17):
            w = math.sqrt(delta**2 + 4.0 * g**2)
            # lossless occupancy of the readout mode under a detuned swap
            frac = 1.0 - (2.0 * g / w) ** 2 * np.sin(0.5 * w * t) ** 2
            assert oscillation_frequency(frac, dt) == pytest.approx(
                _oscillation_frequency_8n(frac, dt), rel=1e-5)


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
    ("oscillation", 0), ("oscillation", 1), ("decay", 0), ("decay", 1),
    ("phase", 0), ("phase", 1)])
def test_non_finite_input_is_refused(call, arg, bad):
    t = np.linspace(0.0, 1.0, 32)
    fn, args = {
        "oscillation": (oscillation_frequency, [np.cos(TWO_PI * 4.0 * t), 1.0 / 32]),
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
