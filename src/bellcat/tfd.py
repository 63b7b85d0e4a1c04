"""Thermal parameters of the two-mode bosonic oscillator.

Temperature enters every other module only through the quantities collected
in :class:`ThermalParams`: one :class:`ThermalMode` per oscillator, holding
its Gibbs factor e^{-beta hbar omega_i} and the hyperbolic mixing functions
u_i = cosh(theta_i), v_i = sinh(theta_i), and the partition function.  A
Bell-Cat state puts the amplitude alpha on mode 1 and k alpha on mode 2;
:func:`state_modes` makes that split for the production evaluator's per-mode
constants.  T = 0 is handled as an exact flag (Gibbs
factors are bit-exact zeros) rather than as a large beta, so the
zero-temperature limit is free of underflow artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import NonFiniteError
from .states import BellCatSpec

__all__ = ["HBAR", "KB", "ThermalMode", "ThermalParams", "thermal_params", "state_modes", "gibbs_weight",
           "effective_amplitude"]

# CODATA: reduced Planck constant (J s) and Boltzmann constant (J/K)
HBAR = 1.054571817e-34
KB = 1.380649e-23


class ThermalMode(NamedTuple):
    """Thermal quantities of one oscillator mode.

    All downstream thermal powers are taken from the cached `q`, so the
    thermal tails stay numerically consistent across modules.  `one_minus_q`
    is computed with expm1, so it keeps full relative accuracy in the
    high-temperature limit.
    """

    q: float                  # e^{-beta hbar omega}, exactly 0.0 at T = 0
    one_minus_q: float
    u: float                  # cosh(theta) = 1/sqrt(1 - q)
    v: float                  # sinh(theta) = sqrt(q/(1 - q))


@dataclass(frozen=True)
class ThermalParams:
    """Immutable thermal state of the two oscillator modes."""

    temperature: float        # kelvin; 0.0 is the exact zero-temperature flag
    omega1: float             # rad/s
    omega2: float             # rad/s
    modes: tuple[ThermalMode, ThermalMode]
    z: float                  # partition function

    @property
    def is_zero_temperature(self) -> bool:
        return self.temperature == 0.0


def thermal_params(temperature: float, omega1: float, omega2: float | None = None) -> ThermalParams:
    """Build :class:`ThermalParams` from a temperature in kelvin and mode frequencies in rad/s.

    `omega2` defaults to `omega1`.  Negative temperatures and nonpositive
    frequencies are rejected, and so is a positive temperature so small that
    k_B T underflows to 0; `temperature == 0` selects the exact
    zero-temperature flag (u_i = 1, v_i = 0, z = 1).  A temperature so high,
    or a frequency so low, that the partition function overflows (or
    1 - e^{-beta hbar omega} underflows to 0) raises NonFiniteError.
    """
    if omega2 is None:
        omega2 = omega1
    if not (math.isfinite(temperature) and temperature >= 0.0):
        raise ValueError(f"temperature must be finite and >= 0 kelvin, got {temperature!r}")
    for name, omega in (("omega1", omega1), ("omega2", omega2)):
        if not (math.isfinite(omega) and omega > 0.0):
            raise ValueError(f"{name} must be finite and > 0 rad/s, got {omega!r}")

    if temperature == 0.0:
        gibbs = [(0.0, 1.0), (0.0, 1.0)]
    else:
        kt = KB * temperature
        if kt == 0.0:
            raise ValueError(f"temperature {temperature!r} K is too small: k_B T underflows to 0; "
                             "use 0 for the zero-temperature limit")
        beta = 1.0 / kt
        # expm1 keeps 1 - e^{-x} accurate when x is small (hot modes)
        gibbs = [(math.exp(-beta * HBAR * omega), -math.expm1(-beta * HBAR * omega)) for omega in (omega1, omega2)]

    # (1/om1)(1/om2): the product om1 om2 underflows long before z overflows.  Each mode's
    # widening 1 + 2n = (1 + q)/(1 - q) is below 2z, so a finite 2z keeps it finite too
    (_, om1), (_, om2) = gibbs
    z = (1.0 / om1) * (1.0 / om2) if om1 > 0.0 and om2 > 0.0 else math.inf
    if not math.isfinite(2.0 * z):
        raise NonFiniteError(f"T = {temperature!r} K with omega = ({omega1!r}, {omega2!r}) rad/s is out of range: "
                             "1 - e^{-beta hbar omega} is too small for the partition function to be finite")
    modes = tuple(ThermalMode(q, om, 1.0 / math.sqrt(om), math.sqrt(q) / math.sqrt(om)) for q, om in gibbs)
    return ThermalParams(temperature=float(temperature), omega1=float(omega1), omega2=float(omega2),
                         modes=modes, z=z)


def state_modes(spec: BellCatSpec, params: ThermalParams) -> tuple[tuple[complex, ThermalMode], ...]:
    """The state's two modes as (amplitude, thermal mode) pairs: alpha on mode 1, k alpha on mode 2."""
    return (spec.alpha, params.modes[0]), (spec.k * spec.alpha, params.modes[1])


def gibbs_weight(mode: ThermalMode, n: int) -> float:
    """Occupation probability (1 - e^{-beta hbar omega}) e^{-n beta hbar omega} of the mode's level n."""
    if n < 0 or n != int(n):
        raise ValueError(f"level must be a nonnegative integer, got {n!r}")
    if mode.q == 0.0:
        return 1.0 if n == 0 else 0.0
    return mode.one_minus_q * mode.q ** int(n)


def effective_amplitude(spec: BellCatSpec, params: ThermalParams) -> float:
    """Thermally amplified coherent amplitude |alpha| max(u1, u2).

    The dressing construction displaces the Gibbs state by alpha u(beta), not
    alpha: the mean field of the thermal Bell-Cat grows as the temperature
    rises, and every cap/box policy must follow it.
    """
    return abs(spec.alpha) * max(mode.u for mode in params.modes)
