"""Shared domain types: cavity modes, coupler bias, the pump drive, field state.

Conventions used throughout the package:

* all frequencies and rates are angular (rad/s),
* flux is dimensionless, in units of the flux quantum,
* ``|a|**2`` is a mean photon number, so energy ratios are dimensionless.

All types are immutable value objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Raised when a physical parameter fails its domain constraints."""


@dataclass(frozen=True)
class ModeParams:
    """One cavity mode: natural frequency and dissipation rates (rad/s)."""

    omega: float
    gamma_int: float = 0.0
    gamma_ext: float = 0.0

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValidationError(f"omega must be positive and finite, got {self.omega}")
        for name, rate in (("gamma_int", self.gamma_int), ("gamma_ext", self.gamma_ext)):
            if not (rate >= 0.0 and math.isfinite(rate)):
                raise ValidationError(f"{name} must be non-negative and finite, got {rate}")

    @property
    def gamma_total(self) -> float:
        return self.gamma_int + self.gamma_ext

    @property
    def t1(self) -> float:
        """Energy decay time 1/gamma_total; inf for a lossless mode."""
        g = self.gamma_total
        return math.inf if g == 0.0 else 1.0 / g

    @property
    def q_int(self) -> float:
        return math.inf if self.gamma_int == 0.0 else self.omega / self.gamma_int

    @property
    def q_ext(self) -> float:
        return math.inf if self.gamma_ext == 0.0 else self.omega / self.gamma_ext


def mode_params_from_q(omega: float, q_int: float, q_ext: float) -> ModeParams:
    """Build ModeParams from quality factors; infinite Q maps to zero rate."""
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValidationError(f"omega must be positive and finite, got {omega}")
    for name, q in (("q_int", q_int), ("q_ext", q_ext)):
        if q != math.inf and not q > 0.0:
            raise ValidationError(f"{name} must be positive or infinite, got {q}")
    gamma_int = 0.0 if q_int == math.inf else omega / q_int
    gamma_ext = 0.0 if q_ext == math.inf else omega / q_ext
    return ModeParams(omega, gamma_int, gamma_ext)


@dataclass(frozen=True)
class CouplerState:
    """Flux bias of the coupling element, in units of the flux quantum.

    Flux values are interpreted modulo one flux quantum (the modulation
    curves are periodic with period 1).
    """

    phi_dc: float
    delta_phi: float = 0.0

    def __post_init__(self):
        if self.delta_phi < 0.0:
            raise ValidationError("pump flux amplitude delta_phi must be >= 0")


@dataclass(frozen=True)
class PumpDrive:
    """Flux pump in the rotating frame: peak coupling `g` (rad/s), detuning
    `delta` = w_P - (w_B - w_A) (rad/s), `phase`, and the envelope g_P(t).

    g_P is `g` on the closed interval [t_start, t_stop] and zero outside;
    `ramp` > 0 gives the pulse raised-cosine edges of that duration. The
    closed right end matters for fixed-step integration: a segment's final
    RK4 stage lands exactly on t_stop and must still see the pulse.
    """

    g: float
    delta: float = 0.0
    phase: float = 0.0
    t_start: float = -math.inf
    t_stop: float = math.inf
    ramp: float = 0.0

    def __post_init__(self):
        if not self.g >= 0.0:
            raise ValidationError(f"pump coupling g must be >= 0, got {self.g}")
        if not math.isfinite(self.delta):
            raise ValidationError(f"pump detuning must be finite, got {self.delta}")
        if not self.t_stop > self.t_start:
            raise ValidationError("pump support must be well-ordered")
        if not 0.0 <= self.ramp <= 0.5 * (self.t_stop - self.t_start):
            raise ValidationError("ramp must be >= 0 and fit inside the pulse")

    @property
    def is_cw(self) -> bool:
        return math.isinf(self.t_start) and math.isinf(self.t_stop)

    def __call__(self, t):
        """g_P at time `t`, a float or an array of times."""
        if self.ramp == 0.0:
            return self.g * ((self.t_start <= t) & (t <= self.t_stop))
        t = np.asarray(t, dtype=float)
        rise = t - self.t_start
        edge = np.where(rise < self.ramp, rise, self.t_stop - t)
        g = np.where(edge < self.ramp,
                     self.g * 0.5 * (1.0 - np.cos(np.pi * edge / self.ramp)),
                     self.g)
        return np.where((self.t_start <= t) & (t <= self.t_stop), g, 0.0)[()]


def check_mode_order(mode_a: ModeParams, mode_b: ModeParams) -> None:
    """Require the storage mode B to lie above the readout mode A.

    The coupled-mode equations couple a to b through e^{+i w_P t}, which is
    resonant only for w_B > w_A; under that order ``PumpDrive.delta`` is
    the signed offset the dynamics see. Raises ValidationError otherwise.
    """
    if not mode_b.omega > mode_a.omega:
        raise ValidationError(
            f"mode B ({mode_b.omega / (2.0 * math.pi):.12g} Hz) must lie above "
            f"mode A ({mode_a.omega / (2.0 * math.pi):.12g} Hz)")


@dataclass(frozen=True)
class ComplexAmplitudePair:
    """Complex field amplitudes of the two modes at time t; |a|^2, |b|^2 are
    mean photon numbers."""

    a: complex
    b: complex
    t: float

    def __post_init__(self):
        for name, z in (("a", self.a), ("b", self.b)):
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValidationError(f"non-finite amplitude {name}={z}")
