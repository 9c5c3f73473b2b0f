"""Unit parsing and formatting for all text interfaces.

Everything inside the library is SI with *angular* frequencies (rad/s).
Files and CLI configs carry ordinary-frequency values with a mandatory
unit suffix (``freq=8.7GHz``, ``dur=0.6us``); the conversion to internal
units happens here, exactly once, at the boundary.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


class UnitError(ValueError):
    """Raised for malformed numeric tokens or unknown unit suffixes."""


# unit -> (kind, scale to internal units)
# frequency-like values become angular rad/s, times seconds, angles radians.
# dBm is kept as-is; the flux-coupling module owns the power conversion.
_UNITS = {
    "GHz": ("freq", TWO_PI * 1e9),
    "MHz": ("freq", TWO_PI * 1e6),
    "kHz": ("freq", TWO_PI * 1e3),
    "Hz": ("freq", TWO_PI),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "s": ("time", 1.0),
    "deg": ("angle", math.pi / 180.0),
    "rad": ("angle", 1.0),
    "dBm": ("power_dbm", 1.0),
}

_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


@dataclass(frozen=True)
class Quantity:
    """A parsed value: internal-unit magnitude plus the unit it was written in."""

    value: float  # internal units (rad/s, s, rad, dBm, or dimensionless)
    unit: str  # original unit suffix; "" for dimensionless
    kind: str  # freq | time | angle | power_dbm | dimensionless

    @classmethod
    def of(cls, value: float, unit: str) -> "Quantity":
        """The quantity of internal-unit `value` written in `unit` ("" for
        dimensionless); the kind follows from the unit."""
        if unit and unit not in _UNITS:
            raise UnitError(f"unknown unit {unit!r}")
        return cls(value, unit, _UNITS[unit][0] if unit else "dimensionless")

    def render(self) -> str:
        """Format back into the token form, in the original unit."""
        return format_quantity(self.value, self.unit)


def parse_quantity(token: str) -> Quantity:
    """Parse a ``<number><unit>`` token into internal units.

    A bare number (no suffix) is dimensionless. Raises UnitError on
    malformed numbers, unknown suffixes, and numbers that overflow to inf
    as written (``1e999``) or once scaled to internal units (``1e300GHz``).
    """
    m = _NUM_RE.match(token)
    if m is None or m.start() != 0:
        raise UnitError(f"malformed numeric value {token!r}")
    suffix = token[m.end():]
    if suffix == "":
        kind, scale = "dimensionless", 1.0
    elif suffix in _UNITS:
        kind, scale = _UNITS[suffix]
    else:
        raise UnitError(f"unknown unit {suffix!r} in {token!r}")
    value = float(m.group(0)) * scale
    if not math.isfinite(value):
        raise UnitError(f"numeric value {token!r} is out of range")
    return Quantity(value, suffix, kind)


def si_to_unit(value: float, unit: str) -> float:
    """Convert an internal-unit value back to the magnitude in `unit`."""
    if unit == "":
        return value
    if unit not in _UNITS:
        raise UnitError(f"unknown unit {unit!r}")
    return value / _UNITS[unit][1]


def format_quantity(value: float, unit: str) -> str:
    """Render an internal-unit value as a ``<number><unit>`` token."""
    return f"{si_to_unit(value, unit):.12g}{unit}"
