"""Thermal parameters of the two-mode bosonic oscillator.

Temperature enters every other module only through the quantities collected
in :class:`ThermalParams`: the Gibbs factors e^{-beta hbar omega_i}, the
hyperbolic mixing functions u_i = cosh(theta_i), v_i = sinh(theta_i), and the
partition function.  T = 0 is handled as an exact flag (Gibbs factors are
bit-exact zeros) rather than as a large beta, so the zero-temperature limit
is free of underflow artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["HBAR", "KB", "ThermalParams", "thermal_params", "gibbs_weight"]

# CODATA: reduced Planck constant (J s) and Boltzmann constant (J/K)
HBAR = 1.054571817e-34
KB = 1.380649e-23


@dataclass(frozen=True)
class ThermalParams:
    """Immutable thermal state of the two oscillator modes.

    `exp1`/`exp2` cache e^{-beta hbar omega_i}; all downstream thermal powers
    are taken from these cached values so the thermal tails stay numerically
    consistent across modules.  `one_minus_exp1/2` are computed with expm1 so
    they keep full relative accuracy in the high-temperature limit.
    """

    temperature: float        # kelvin; 0.0 is the exact zero-temperature flag
    omega1: float             # rad/s
    omega2: float             # rad/s
    beta: float               # 1/J; +inf at T = 0
    exp1: float               # e^{-beta hbar omega1}, exactly 0.0 at T = 0
    exp2: float
    one_minus_exp1: float
    one_minus_exp2: float
    u1: float
    v1: float
    u2: float
    v2: float
    z: float                  # partition function

    @property
    def is_zero_temperature(self) -> bool:
        return self.temperature == 0.0

    def exp_factor(self, mode: int) -> float:
        """Cached e^{-beta hbar omega_mode}."""
        if mode == 1:
            return self.exp1
        if mode == 2:
            return self.exp2
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")

    def one_minus_exp_factor(self, mode: int) -> float:
        if mode == 1:
            return self.one_minus_exp1
        if mode == 2:
            return self.one_minus_exp2
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")


def _uv(exp_factor: float, one_minus: float) -> tuple[float, float]:
    if exp_factor == 0.0:
        return 1.0, 0.0
    root = math.sqrt(one_minus)
    return 1.0 / root, math.sqrt(exp_factor) / root


def thermal_params(temperature: float, omega1: float, omega2: float | None = None) -> ThermalParams:
    """Build :class:`ThermalParams` from a temperature in kelvin and mode frequencies in rad/s.

    `omega2` defaults to `omega1`.  Negative temperatures and nonpositive
    frequencies are rejected, and so is a positive temperature so small that
    k_B T underflows to 0; `temperature == 0` selects the exact
    zero-temperature flag (u_i = 1, v_i = 0, z = 1).
    """
    if omega2 is None:
        omega2 = omega1
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ValueError(f"temperature must be finite and >= 0 kelvin, got {temperature!r}")
    for name, omega in (("omega1", omega1), ("omega2", omega2)):
        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError(f"{name} must be finite and > 0 rad/s, got {omega!r}")

    if temperature == 0.0:
        beta = math.inf
        exp1 = exp2 = 0.0
        om1 = om2 = 1.0
    else:
        kt = KB * temperature
        if kt == 0.0:
            raise ValueError(f"temperature {temperature!r} K is too small: k_B T underflows to 0; "
                             "use 0 for the zero-temperature limit")
        beta = 1.0 / kt
        exp1 = math.exp(-beta * HBAR * omega1)
        exp2 = math.exp(-beta * HBAR * omega2)
        # expm1 keeps 1 - e^{-x} accurate when x is small (hot modes)
        om1 = -math.expm1(-beta * HBAR * omega1)
        om2 = -math.expm1(-beta * HBAR * omega2)

    u1, v1 = _uv(exp1, om1)
    u2, v2 = _uv(exp2, om2)
    z = 1.0 / (om1 * om2)
    return ThermalParams(
        temperature=float(temperature),
        omega1=float(omega1),
        omega2=float(omega2),
        beta=beta,
        exp1=exp1,
        exp2=exp2,
        one_minus_exp1=om1,
        one_minus_exp2=om2,
        u1=u1,
        v1=v1,
        u2=u2,
        v2=v2,
        z=z,
    )


def gibbs_weight(params: ThermalParams, mode: int, n: int) -> float:
    """Occupation probability (1 - e^{-beta hbar omega}) e^{-n beta hbar omega} of level n."""
    if n < 0 or n != int(n):
        raise ValueError(f"level must be a nonnegative integer, got {n!r}")
    e = params.exp_factor(mode)
    if e == 0.0:
        return 1.0 if n == 0 else 0.0
    return params.one_minus_exp_factor(mode) * e ** int(n)
