import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityswap.units import (Quantity, UnitError, format_quantity,
                              parse_quantity, si_to_unit)

TWO_PI = 2.0 * math.pi


class TestParseQuantity:
    @pytest.mark.parametrize("token,value,kind", [
        ("8.7GHz", TWO_PI * 8.7e9, "freq"),
        ("1.2MHz", TWO_PI * 1.2e6, "freq"),
        ("250kHz", TWO_PI * 250e3, "freq"),
        ("10Hz", TWO_PI * 10.0, "freq"),
        ("20us", 20e-6, "time"),
        ("3.5ns", 3.5e-9, "time"),
        ("0.6s", 0.6, "time"),
        ("90deg", math.pi / 2.0, "angle"),
        ("1.5rad", 1.5, "angle"),
        ("-52dBm", -52.0, "power_dbm"),
    ])
    def test_units_convert_to_internal(self, token, value, kind):
        q = parse_quantity(token)
        assert q.kind == kind
        assert q.value == pytest.approx(value, rel=1e-15)

    def test_bare_number_is_dimensionless(self):
        q = parse_quantity("900e3")
        assert q == Quantity(900e3, "", "dimensionless")

    def test_scientific_notation(self):
        assert parse_quantity("1e-3MHz").value == pytest.approx(TWO_PI * 1e3)
        assert parse_quantity("-2.5E+1Hz").value == pytest.approx(-TWO_PI * 25)

    @pytest.mark.parametrize("token", ["GHz", "1.2.3MHz", "", "abc", "1.2 MHz"])
    def test_malformed_tokens_raise(self, token):
        with pytest.raises(UnitError):
            parse_quantity(token)

    def test_unknown_unit_raises(self):
        with pytest.raises(UnitError, match="unknown unit"):
            parse_quantity("3mm")

    @pytest.mark.parametrize("token", ["1e999", "-1e999", "1e999us", "1e999MHz",
                                       "1e300GHz", "-1e300GHz", "1e400dBm"])
    def test_overflowing_numbers_raise(self, token):
        # inf as written, or once scaled to internal units
        with pytest.raises(UnitError, match="out of range"):
            parse_quantity(token)

    def test_largest_finite_values_parse(self):
        assert parse_quantity("1e308").value == 1e308
        assert parse_quantity("1e300MHz").value == pytest.approx(TWO_PI * 1e306)
        assert parse_quantity("1e-999us").value == 0.0

    def test_case_sensitive_units(self):
        # 'mhz' is not a unit; suffix matching must be exact
        with pytest.raises(UnitError):
            parse_quantity("1.2mhz")


class TestFormatting:
    def test_round_trip_canonical_token(self):
        q = parse_quantity("8.7GHz")
        assert q.render() == "8.7GHz"
        assert parse_quantity(q.render()) == q

    def test_of_takes_the_kind_from_the_unit(self):
        for value, unit, kind, token in [(TWO_PI * 8.7e9, "GHz", "freq", "8.7GHz"),
                                         (20e-6, "us", "time", "20us"),
                                         (900e3, "", "dimensionless", "900000")]:
            q = Quantity.of(value, unit)
            assert (q.value, q.kind, q.render()) == (value, kind, token)
        with pytest.raises(UnitError, match="unknown unit"):
            Quantity.of(1.0, "parsec")

    def test_si_to_unit_inverts_scale(self):
        assert si_to_unit(TWO_PI * 1.2e6, "MHz") == pytest.approx(1.2, rel=1e-15)
        assert si_to_unit(2e-6, "us") == pytest.approx(2.0, rel=1e-15)
        assert si_to_unit(3.5, "") == 3.5

    def test_format_quantity(self):
        assert format_quantity(20e-6, "us") == "20us"
        assert format_quantity(math.pi, "rad") == "3.14159265359rad"

    def test_unknown_unit_in_format(self):
        with pytest.raises(UnitError):
            format_quantity(1.0, "parsec")


@settings(max_examples=50, deadline=None)
@given(value=st.floats(min_value=1e-6, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
       unit=st.sampled_from(["GHz", "MHz", "kHz", "Hz", "us", "ns", "s",
                             "deg", "rad", "dBm"]))
def test_parse_format_round_trip(value, unit):
    token = f"{value!r}{unit}"
    q = parse_quantity(token)
    q2 = parse_quantity(q.render())
    assert q2.kind == q.kind
    assert q2.value == pytest.approx(q.value, rel=1e-11)
