import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityswap.core import CouplerState, ValidationError
from cavityswap.fluxmap import (DEFAULT_FLUX_CALIB, CouplerPullCurve,
                                DegenerateBiasWarning, calibrated_curves,
                                coupling_rate, flux_for_pump_power,
                                max_slope_bias, pump_power_to_flux)

TWO_PI = 2.0 * math.pi


def _default_curve(omega_bare=TWO_PI * 8.7e9):
    # pull strength sized for a few-MHz modulation depth
    return CouplerPullCurve(omega_bare, 1e27, TWO_PI * 7.7e9)


class TestCouplerPullCurve:
    def test_slope_matches_finite_difference(self):
        curve = _default_curve()
        h = 1e-7
        for phi in (0.05, 0.17, 0.33, 0.46, 0.71):
            fd = (curve.omega_at(phi + h) - curve.omega_at(phi - h)) / (2 * h)
            assert curve.slope_at(phi) == pytest.approx(fd, rel=1e-5)

    def test_periodic_in_one_flux_quantum(self):
        curve = _default_curve()
        for phi in (0.0, 0.123, 0.5, 0.87):
            assert curve.omega_at(phi) == pytest.approx(curve.omega_at(phi + 1.0),
                                                        rel=1e-14)

    def test_extrema_of_the_modulation(self):
        curve = _default_curve()
        phi = np.linspace(0.0, 1.0, 20001)
        om = curve.omega_at(phi)
        # strongest pull (smooth maximum) at phi=0, weakest (cusp) at phi=0.5
        k_max = phi[np.argmax(om)]
        assert min(abs(k_max), abs(k_max - 1.0)) < 1e-3
        assert phi[np.argmin(om)] == pytest.approx(0.5, abs=1e-3)

    def test_slope_vanishes_at_smooth_extremum_only(self):
        curve = _default_curve()
        assert curve.slope_at(0.0) == 0.0
        # the cusp at phi=0.5 keeps a finite one-sided slope that flips sign
        assert abs(curve.slope_at(0.499)) > 1e5
        assert np.sign(curve.slope_at(0.499)) == -np.sign(curve.slope_at(0.501))

    def test_coupler_must_sit_below_cavity(self):
        with pytest.raises(ValidationError):
            CouplerPullCurve(TWO_PI * 7e9, 1e27, TWO_PI * 7.7e9)

    def test_non_finite_flux_rejected(self):
        with pytest.raises(ValidationError):
            _default_curve().omega_at(math.nan)

    def test_vectorized_evaluation(self):
        curve = _default_curve()
        phi = np.array([0.1, 0.2, 0.3])
        assert curve.omega_at(phi).shape == (3,)
        assert curve.slope_at(phi).shape == (3,)


class TestCouplingRate:
    def test_symmetric_slope_closed_form(self):
        # with identical curves g_P = (delta_phi/4)*|slope| exactly
        curve = _default_curve()
        phi_dc = 0.31
        state = CouplerState(phi_dc=phi_dc, delta_phi=0.2)
        slope = abs(float(curve.slope_at(phi_dc)))
        g = coupling_rate(curve, curve, state)
        assert g == pytest.approx(0.05 * slope, rel=1e-12)

    def test_linear_in_pump_amplitude_exact(self):
        curve_a = _default_curve()
        curve_b = _default_curve(TWO_PI * 9.33e9)
        s1 = CouplerState(phi_dc=0.31, delta_phi=0.1)
        s2 = CouplerState(phi_dc=0.31, delta_phi=0.2)
        # doubling delta_phi is a power-of-two scaling: bitwise exact
        assert coupling_rate(curve_a, curve_b, s2) == \
            2.0 * coupling_rate(curve_a, curve_b, s1)

    def test_degenerate_bias_warns_and_returns_zero(self):
        curve = _default_curve()
        state = CouplerState(phi_dc=0.0, delta_phi=0.2)
        with pytest.warns(DegenerateBiasWarning):
            assert coupling_rate(curve, curve, state) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=0.01, max_value=5.0,
                           allow_nan=False, allow_infinity=False))
    def test_linearity_property(self, scale):
        curve = _default_curve()
        base = CouplerState(phi_dc=0.31, delta_phi=0.1)
        scaled = CouplerState(phi_dc=0.31, delta_phi=0.1 * scale)
        g1 = coupling_rate(curve, curve, base)
        assert coupling_rate(curve, curve, scaled) == pytest.approx(
            scale * g1, rel=1e-12)


class TestPumpPowerConversion:
    def test_reference_point(self):
        assert pump_power_to_flux(-52.0, DEFAULT_FLUX_CALIB) == \
            pytest.approx(0.2, rel=1e-12)

    def test_calibration_constant_value(self):
        # 0.2 / sqrt(10**-5.2)
        assert DEFAULT_FLUX_CALIB == pytest.approx(79.62143411069948, rel=1e-12)

    def test_twenty_db_is_factor_ten_in_amplitude(self):
        assert pump_power_to_flux(-32.0, DEFAULT_FLUX_CALIB) == \
            pytest.approx(2.0, rel=1e-12)

    def test_flux_for_pump_power_inverts(self):
        calib = flux_for_pump_power(0.37, -40.0)
        assert pump_power_to_flux(-40.0, calib) == pytest.approx(0.37, rel=1e-12)

    def test_non_positive_calibration_rejected(self):
        with pytest.raises(ValidationError):
            pump_power_to_flux(-52.0, 0.0)


class TestCalibratedCurves:
    def test_hits_the_coupling_target(self):
        curve_a, curve_b, state = calibrated_curves()
        g = coupling_rate(curve_a, curve_b, state)
        assert g == pytest.approx(TWO_PI * 1.2e6, rel=1e-9)

    def test_modulation_depth_of_readout_curve(self):
        curve_a, _, _ = calibrated_curves()
        phi = np.linspace(0.0, 1.0, 4001)
        om = curve_a.omega_at(phi)
        assert np.max(om) - np.min(om) == pytest.approx(TWO_PI * 4e6, rel=1e-9)

    def test_bias_sits_at_maximum_slope(self):
        curve_a, _, state = calibrated_curves()
        phi = np.linspace(0.0, 0.5, 2001)
        assert abs(float(curve_a.slope_at(state.phi_dc))) >= \
            np.max(np.abs(curve_a.slope_at(phi))) * (1.0 - 1e-9)


    @pytest.mark.parametrize("freq_a,freq_b", [(8.7e9, 9.33e9), (20e9, 30e9),
                                               (1e69, 2e69)])
    def test_coupling_target_to_rounding(self, freq_a, freq_b):
        curve_a, curve_b, state = calibrated_curves(TWO_PI * freq_a, TWO_PI * freq_b)
        g = coupling_rate(curve_a, curve_b, state)
        assert abs(g / (TWO_PI * 1.2e6) - 1.0) <= 1e-14


class TestMaxSlopeBias:
    def test_finds_the_argmax(self):
        curve = _default_curve()
        phi = max_slope_bias(curve)
        grid = np.linspace(0.0, 0.5, 4001)
        assert abs(float(curve.slope_at(phi))) >= \
            np.max(np.abs(curve.slope_at(grid))) * (1.0 - 1e-9)
