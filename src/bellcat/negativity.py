"""Negativity of the thermal Wigner function: delta and nu.

Production route: an exact reduction to two coordinates (notes/decisions.md,
section 8).  Scale each mode, zeta_i = z_i / sqrt(D_i) with D_i = 1 + 2 n_i,
and let P = (P1, P2) in C^2, with P_i = sqrt2 u_i gamma_i / sqrt(D_i) the scaled
lobes of `bellcat.wigner` (`state_constants`).  With a = |P|, c = sum_i 2 n_i |gamma_i|^2 / D_i,
y = a^2 - c = sum_i 2 |gamma_i|^2 / D_i (so a^2 + c = 4|alpha|^2), and s, t the
components of zeta along P and iP,

    W = e^{-|zeta|^2} [e^{-a^2} cosh(2 a s) + sigma e^{-c} cos(2 a t)] / (pi^2 D1 D2 N),

N = 1 + sigma e^{-4|alpha|^2}.  W is a plain Gaussian in the two directions
orthogonal to P and iP, so I_+- = (1/(pi N)) int ds dt max(+-F, 0) with
F = e^{-s^2-t^2} [...].  In the cancellation-free form

    F = e^{-c} e^{-s^2-t^2} [l(s) - m0 + 2 sin^2(a t + phi)],
    l(s) = e^{-y} 2 sinh^2(a s),   m0 = -expm1(-y),   phi = 0 (sigma = -1), pi/2 (sigma = +1),

W < 0 exactly where 2 sin^2(a t + phi) < m(s) = m0 - l(s): only for |s| < s*,
cosh(2 a s*) = e^y, and there on the intervals |t - t_j| < h(s) around
t_j = (j pi - phi)/a, with sin(a h) = sqrt(m/2).  On each interval
-F e^{c} e^{s^2} = e^{-t^2} 2 sin(a(h - u)) sin(a(h + u)), u = t - t_j, so the
intervals sum to one:

    g(s) = 2 int_0^h du 2 sin(a(h - u)) sin(a(h + u)) Theta(u),
    Theta(u) = sum_j e^{-(t_j + u)^2}.

Then I_- = (e^{-c}/(pi N)) 2 int_0^{s*} ds e^{-s^2} g(s), by Gauss-Legendre in
tau with s = s* - tau^2 (g rises as (s* - s)^{3/2}, which is analytic in tau)
and Gauss-Legendre in u on [0, h].  The tau-nodes are laid out from the edge,
tau = sqrt(s*) - r, and s is formed as r (2 sqrt(s*) - r), which stays exact
when s* ~ |alpha| is far beyond the reach.  The lobe term is carried as
e^{-y+2as} expm1(-2as)^2 / 2, so nothing overflows at |alpha| = 20 and small
|alpha| keeps full relative accuracy.

I_+ = I_- + (1/(pi N)) int ds dt F, and that total comes from the separable
form of F: the lobe term e^{-t^2} e^{-(|s|-a)^2} expm1(-2a|s|)^2 / 2 by
Gauss-Legendre, the constant -e^{-c} m0 and the fringe e^{-c} 2 sin^2(a t + phi)
in closed form,

    int dt e^{-t^2} 2 sin^2(a t + phi) = sqrt(pi) (1 + sigma e^{-a^2}).

N comes from the state, not from a and c, so the norm check I_+ - I_- = 1
tests the reduction.

delta is reported as 2 I_- / (I_+ - I_-), the negative volume of the
*unit-normalized* function; this keeps the identity nu = delta/(1+delta)
exact instead of drifting with the residual quadrature normalization error.

The tests check the rule against an independent one, `bellcat.plane`: W from
`wigner_values`, integrated over the plane spanned by P and iP with its sign
changes found numerically (notes/decisions.md, section 8).  That module
imports nothing from this one.  The `default_*` box and node policies below
size the 4D grids that the benchmark's reference values and acceptance
criterion 10 sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BellCatError, NonFiniteError, NormalizationError
from .states import BellCatSpec
from .tfd import KB, ThermalParams, effective_amplitude, thermal_params
from .wigner import state_constants

__all__ = [
    "NegativityResult",
    "SweepEntry",
    "default_half_width",
    "default_nodes",
    "default_inner_density",
    "integrate_negativity",
    "temperature_sweep",
]

# reach of the reduced Gaussian e^{-s^2-t^2} in s and t: e^{-49} = 5e-22 of its peak
_REACH = 7.0
# Gauss-Legendre nodes of the reduced rule: in tau (s = s* - tau^2), and in u per interval
_S_NODES = 64
_T_NODES = 16
# relative departure of I_+ - I_- from 1 that raises NormalizationError
_NORM_TOL = 0.01


@dataclass
class NegativityResult:
    """Negativity metrics and the quadrature metadata behind them.

    Every field is deterministic (no wall-clock time), so two calls on the
    same inputs compare equal.  `nodes` counts the Gauss-Legendre nodes in s
    (through tau, s = s* - tau^2), `inner_nodes` those in t per negative
    interval, and `half_width` is the phase-space reach of the reduced rule,
    sqrt2 |alpha| max(u1, u2) + 7 max(sqrt(D1), sqrt(D2)), which covers the
    lobes and their spread.
    """

    delta: float
    nu: float
    i_plus: float
    i_minus: float
    norm_check: float
    nodes: int
    inner_nodes: int
    half_width: float


# ---------------------------------------------------------------------------
# production: the reduced two-coordinate integral
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only since every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def _reduced_parameters(spec: BellCatSpec, params: ThermalParams) -> tuple[float, float, float]:
    """a = |P|, c and y = a^2 - c of the reduced form (module docstring)."""
    mode1, mode2 = state_constants(spec, params)
    return (math.hypot(mode1.p.real, mode1.p.imag, mode2.p.real, mode2.p.imag),
            mode1.c + mode2.c, mode1.y + mode2.y)


def _thermal_scale(params: ThermalParams) -> float:
    """sqrt((1+q)/(1-q)), the thermal widening of the vacuum Gaussian (1 at T=0), of the hotter mode.

    1 - q is the cached expm1 value, which stays positive where q itself rounds to 1.
    """
    one_minus_q = min(mode.one_minus_q for mode in params.modes)
    return math.sqrt((2.0 - one_minus_q) / one_minus_q)


def _theta(u: np.ndarray, sigma: int, a: float) -> np.ndarray:
    """Theta(u) = sum_j e^{-(t_j + u)^2} over the interval centres t_j = (j pi - phi)/a within the reach.

    The comb is summed over those centres, about 4.5 a of them, or through
    its Poisson dual, whose terms past k = _REACH/a add less than e^{-49}:

        Theta(u) = (a/sqrt(pi)) [1 + 2 sum_{k >= 1} e^{-a^2 k^2} cos(2k(a u - phi))],

    with cos(2k(a u - phi)) = (-1)^k cos(2 k a u) for phi = pi/2.  The dual
    takes one cos pass, which costs about six exp passes, and then the
    Chebyshev recurrence cos(2(k+1)x) = 2 cos(2x) cos(2kx) - cos(2(k-1)x); so
    it is used once it has at most half as many terms as the centres, from
    a of about 1.75, where its terms also cancel little.
    """
    phi = 0.0 if sigma < 0 else 0.5 * math.pi
    # 0 <= u < h < pi/(4a), so a centre with |t_j| > _REACH + pi/(4a) adds less than
    # e^{-49}; skipping those also keeps t_j^2 finite when a is tiny
    span = _REACH * a + 0.25 * math.pi
    first, last = math.ceil((phi - span) / math.pi), math.floor((phi + span) / math.pi)
    if 2.0 * _REACH / a > last - first + 1:
        centres = (np.arange(first, last + 1) * math.pi - phi) / a
        return np.exp(-np.add.outer(centres, u) ** 2).sum(axis=0)
    weights = 2.0 * np.exp(-(a * np.arange(1, math.ceil(_REACH / a) + 1)) ** 2)
    if sigma > 0:
        weights[::2] = -weights[::2]
    cos_1 = np.cos(2.0 * a * u)
    twice_cos_1 = 2.0 * cos_1
    total = 1.0 + weights[0] * cos_1
    previous, current = np.ones_like(u), cos_1
    for weight in weights[1:]:
        previous, current = current, twice_cos_1 * current - previous
        total += weight * current
    return a / math.sqrt(math.pi) * total


def _negative_volume(sigma: int, a: float, y: float, s_nodes: int, t_nodes: int) -> float:
    """int ds dt e^{-s^2-t^2} max(-[l(s) - m0 + 2 sin^2(a t + phi)], 0): I_- pi N e^{c}."""
    if not y > 0.0:
        return 0.0
    # cosh(2 a s*) = e^y; arccosh(e^y) = y + log1p(sqrt(1 - e^{-2y})) never overflows
    s_star = (y + math.log1p(math.sqrt(-math.expm1(-2.0 * y)))) / (2.0 * a)
    # tau = sqrt(s*) - r, with Gauss-Legendre in r from the edge: s = s* - tau^2 = r (2 sqrt(s*) - r)
    # keeps full precision where s* is so large that s* - tau^2 would cancel
    root = math.sqrt(s_star)
    r, w_r = _legendre(s_nodes, 0.0, min(s_star, _REACH) / (root + math.sqrt(max(0.0, s_star - _REACH))))
    tau = root - r
    s = r * (2.0 * root - r)
    # m = m0 - l(s), with l(s) = e^{-y} 2 sinh^2(a s) = e^{2as - y} expm1(-2as)^2 / 2 and 2as - y <= log 2
    m = -math.expm1(-y) - 0.5 * np.exp(2.0 * a * s - y) * np.expm1(-2.0 * a * s) ** 2
    h = np.arcsin(np.sqrt(0.5 * np.maximum(m, 0.0))) / a
    x, w_x = _legendre(t_nodes, 0.0, 1.0)
    ah = a * h[:, None]
    depth = 2.0 * np.sin(ah * (1.0 - x)) * np.sin(ah * (1.0 + x))
    g = 2.0 * h * ((depth * _theta(h[:, None] * x, sigma, a)) @ w_x)
    # both signs of s, and ds = 2 tau dr
    return float((4.0 * w_r * tau * np.exp(-s * s)) @ g)


def _total_volume(sigma: int, a: float, c: float, y: float, nodes: int) -> float:
    """int ds dt F over the plane: I_+ - I_- times pi N, from the separable form (lobe term by quadrature)."""
    # lobe term: int ds e^{-(|s|-a)^2} expm1(-2a|s|)^2 / 2 = int_{-a}^inf dv e^{-v^2} expm1(-2a(v + a))^2
    v, w_v = _legendre(nodes, max(-a, -_REACH), _REACH)
    lobe = float(w_v @ (np.exp(-v * v) * np.expm1(-2.0 * a * (v + a)) ** 2))
    # fringe term: int dt e^{-t^2} 2 sin^2(a t + phi) = sqrt(pi) (1 + sigma e^{-a^2}); cutting it
    # at the reach would change it by less than e^{-49}
    fringe = -math.expm1(-a * a) if sigma < 0 else 2.0 + math.expm1(-a * a)
    return math.sqrt(math.pi) * lobe + math.pi * math.exp(-c) * (fringe + math.expm1(-y))


def integrate_negativity(spec: BellCatSpec, params: ThermalParams) -> NegativityResult:
    """Integrate the negative and positive volumes of W in the reduced coordinates; report delta, nu.

    I_+ and I_- come from the two quadratures of the module docstring; the
    norm check I_+ - I_- must land within 1% of 1 or a NormalizationError is
    raised, and a non-finite volume raises NonFiniteError.  The rule is
    fixed, so results are bit-reproducible.
    """
    a, c, y = _reduced_parameters(spec, params)
    scale = 1.0 / (math.pi * spec.parity_overlap)
    i_minus = scale * math.exp(-c) * _negative_volume(spec.sigma, a, y, _S_NODES, _T_NODES)
    norm = scale * _total_volume(spec.sigma, a, c, y, _S_NODES)
    if not (math.isfinite(i_minus) and math.isfinite(norm)):
        raise NonFiniteError(f"reduced negativity volumes are not finite: I- = {i_minus}, I+ - I- = {norm}")
    half_width = math.sqrt(2.0) * effective_amplitude(spec, params) + _REACH * _thermal_scale(params)
    # the norm check is taken back out of I_+ = norm + I_-, which can differ from norm in the last
    # bit; delta and nu are formed from it
    i_plus = norm + i_minus
    norm_check = i_plus - i_minus
    if abs(norm_check - 1.0) > _NORM_TOL:
        raise NormalizationError(f"I+ - I- = {norm_check:.6f} deviates from 1 by more than 1%: "
                                 f"nodes={_S_NODES}, inner={_T_NODES}, half_width={half_width:.3f}")
    return NegativityResult(delta=2.0 * i_minus / norm_check, nu=2.0 * i_minus / (i_plus + i_minus),
                            i_plus=i_plus, i_minus=i_minus, norm_check=norm_check,
                            nodes=_S_NODES, inner_nodes=_T_NODES, half_width=half_width)


# ---------------------------------------------------------------------------
# default 4D box and node policies (the benchmark's reference values and criterion 10)
# ---------------------------------------------------------------------------


def _damped_fringe_frequency(spec: BellCatSpec, params: ThermalParams) -> float:
    """Fastest surviving oscillation 2 sqrt(2)|alpha|/u: coherences span 2 alpha/u."""
    return 2.0 * math.sqrt(2.0) * abs(spec.alpha) / max(mode.u for mode in params.modes)


def default_half_width(spec: BellCatSpec, params: ThermalParams) -> float:
    """Box half-width: lobes at sqrt(2)|alpha| u plus a thermally scaled pad."""
    pad = 7.0 * max(1.0, _thermal_scale(params) / 1.6)
    return math.sqrt(2.0) * effective_amplitude(spec, params) + pad


def default_nodes(spec: BellCatSpec, params: ThermalParams, half_width: float) -> int:
    """Outer Gauss-Legendre nodes: resolve the smoothed fringes and envelopes."""
    freq = _damped_fringe_frequency(spec, params) + 6.0 / _thermal_scale(params) + 2.0
    return max(48, math.ceil(0.5 * freq * half_width) + 16)


def default_inner_density(spec: BellCatSpec, params: ThermalParams) -> float:
    """Inner midpoint points per unit: ~10 per fringe wavelength plus an envelope floor."""
    return max(5.0, 1.6 * _damped_fringe_frequency(spec, params) + 5.0)


@dataclass
class SweepEntry:
    temperature: float
    result: NegativityResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def temperature_sweep(spec: BellCatSpec, temperatures, omega1: float,
                      omega2: float | None = None) -> list[SweepEntry]:
    """One independent negativity integration per temperature (ascending order required).

    Failures are attached to their entries and the sweep continues.  Before
    any integration, a negative temperature, or a positive one whose k_B T
    underflows to 0, raises ValueError.
    """
    temps = [float(T) for T in temperatures]
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise ValueError("temperatures must be strictly increasing")
    if any(T < 0 for T in temps):
        raise ValueError("temperatures must be >= 0")
    for T in temps:
        if T > 0.0 and KB * T == 0.0:
            raise ValueError(f"temperature {T!r} K is too small: k_B T underflows to 0; "
                             "use 0 for the zero-temperature limit")
    entries: list[SweepEntry] = []
    for T in temps:
        entry = SweepEntry(temperature=T)
        try:
            params = thermal_params(T, omega1, omega2)
            entry.result = integrate_negativity(spec, params)
        except BellCatError as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
        entries.append(entry)
    return entries
