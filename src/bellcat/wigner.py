"""Thermal Wigner function of the Bell-Cat states.

Production route: the closed Gaussian form (notes/decisions.md, section 2).
The dressing operator splits into two coherent branches,
f = C [E(g1) E(g2) + sigma E(-g1) E(-g2)] with E(g) = exp(g a^dag),
g1 = alpha/u1, g2 = k alpha/u2 and C^2 = e^{-2|alpha|^2} / (2 (1 + sigma e^{-4|alpha|^2})),
so rho = f rho_beta f^dag is a sum of four product terms (s, t = +-1).  Each
per-mode block E(s g) rho_beta E(t g)^dag is a Gaussian integral over the
Glauber-Sudarshan P-function of the Gibbs state (Cahill & Glauber,
Phys. Rev. 177, 1882 (1969)), closed-form at any temperature.  With n the
mode's thermal occupation, D = 1 + 2n, u = sqrt(1 + n), gamma = alpha for
mode 1 and k alpha for mode 2, z = x + i y, the scaled point zeta = z/sqrt(D)
and the scaled lobe P = sqrt2 u gamma / sqrt(D), the four terms sum to

    W = e^{-|zeta1|^2 - |zeta2|^2 - c} [e^{-y} cosh(A1 + A2) + sigma cos(B1 + B2)] / (pi^2 D1 D2 N),
    A_i + i B_i = 2 conj(P_i) zeta_i,   c = sum_i 2 n_i |gamma_i|^2 / D_i,
    y = sum_i 2 |gamma_i|^2 / D_i,      N = 1 + sigma e^{-4|alpha|^2}.

W is real, and the angle-sum identities make it a real rank-4 product of
per-mode rows.  With ch = e^{-y_i} cosh A_i, sh = e^{-y_i} sinh A_i,
co = cos B_i and si = sin B_i, each row scaled by e^{-|zeta_i|^2 - c_i},

    sigma = +1:  [ch, sh, co, si]_1 . [ch, sh, co, -si]_2,
    sigma = -1:  [ch - co, sh, co, si]_1 . [ch, sh, ch - co, si]_2.

The odd grouping keeps the small difference e^{-y} cosh A - cos B in one row,
formed without cancellation as e^{-y} 2 sinh^2(A/2) + 2 sin^2(B/2) + expm1(-y),
so the odd states keep full relative accuracy as |alpha| -> 0, where N is
about 4|alpha|^2.  Every exponent is <= 0 (the lobe rows are
e^{-|zeta_i -+ P_i|^2} times a factor of at most 1), so no table entry
overflows at any |alpha| or temperature.

The reference routes, the Laguerre series and the Fock-kernel oracle, are
`bellcat.series` and `bellcat.oracle`; this module imports neither.

Dimensionless coordinates throughout: x = q/b, y = p b/hbar with
b^2 = hbar/(m omega); the reported function is hbar^2 W, normalized so its
4D phase-space integral is 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, TruncationError
from .states import BellCatSpec
from .tfd import ThermalMode, ThermalParams, state_modes

__all__ = [
    "PhasePoint",
    "GridAxis",
    "SliceDescriptor",
    "WignerGrid",
    "wigner_point",
    "wigner_values",
    "wigner_grid",
    "ModeFactorization",
    "factorize",
]

_COORDS = ("x1", "y1", "x2", "y2")
# most points one slice may hold: a slice over one mode's two axes peaks at about 150 bytes per point
HARD_GRID_POINTS = 2**20


@dataclass(frozen=True)
class PhasePoint:
    """Dimensionless 4D phase-space coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in _COORDS:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class ModeConstants(NamedTuple):
    """Point-independent constants of one mode's rows (module docstring)."""

    d: float      # D = 1 + 2n
    p: complex    # P = sqrt2 u gamma / sqrt(D)
    c: float      # 2 n |gamma|^2 / D
    y: float      # 2 |gamma|^2 / D = |P|^2 - c


def mode_constants(gamma: complex, mode: ThermalMode) -> ModeConstants:
    """The constants of one mode with amplitude gamma (`bellcat.tfd.state_modes`)."""
    n = mode.q / mode.one_minus_q
    d = 1.0 + 2.0 * n
    modulus = abs(gamma)
    g2 = modulus * modulus
    return ModeConstants(d=d, p=math.sqrt(2.0 / (mode.one_minus_q * d)) * gamma, c=2.0 * n * g2 / d, y=2.0 * g2 / d)


def state_constants(spec: BellCatSpec, params: ThermalParams) -> tuple[ModeConstants, ModeConstants]:
    """:func:`mode_constants` of mode 1 (gamma = alpha) and of mode 2 (gamma = k alpha).

    Raises NonFiniteError where 4 |P|^2, with |P|^2 = |P1|^2 + |P2|^2, or c
    overflows: the tables and the reduced negativity form no exponent larger
    than those, so below that bound no evaluation overflows.
    """
    mode1, mode2 = (mode_constants(gamma, mode) for gamma, mode in state_modes(spec, params))
    lobe_sq = sum(m.p.real * m.p.real + m.p.imag * m.p.imag for m in (mode1, mode2))
    if not math.isfinite(4.0 * lobe_sq + mode1.c + mode2.c):
        raise NonFiniteError(f"|alpha| = {abs(spec.alpha):.3g} is out of range at T = {params.temperature:g} K: "
                             f"the scaled lobe |P|^2 = {lobe_sq:.3g} is too large to evaluate")
    return mode1, mode2


def _mode_tables(mode: ModeConstants, sigma: int, x: np.ndarray, y: np.ndarray, second: bool) -> np.ndarray:
    """The four real rows of one mode (module docstring), shape (4, P).

    Rows [ch, sh, co, si], each scaled by e^{-|zeta|^2 - c}; for sigma = +1
    mode 2 negates si, for sigma = -1 row 0 of mode 1 and row 2 of mode 2
    hold ch - co.
    """
    scale = 1.0 / math.sqrt(mode.d)
    zx, zy = scale * x, scale * y
    a = 2.0 * (mode.p.real * zx + mode.p.imag * zy)
    b = 2.0 * (mode.p.real * zy - mode.p.imag * zx)
    envelope = np.exp(-(zx * zx + zy * zy) - mode.c)
    # e^{-|zeta|^2 - c - y + |A|} = e^{-|zeta -+ P|^2}, from the difference: the sum cancels near a lobe
    side = np.copysign(1.0, a)
    lobe = np.exp(-((zx - side * mode.p.real) ** 2 + (zy - side * mode.p.imag) ** 2))
    half = np.expm1(-np.abs(a))                     # e^{-|A|} - 1
    fold = half * (2.0 + half)                      # e^{-2|A|} - 1
    rows = np.empty((4, x.size))
    rows[0] = lobe * (1.0 + 0.5 * fold)
    rows[1] = -0.5 * side * lobe * fold
    rows[2] = envelope * np.cos(b)
    rows[3] = envelope * np.sin(b)
    if sigma < 0:
        rows[2 if second else 0] = (0.5 * lobe * half * half
                                    + envelope * (2.0 * np.sin(0.5 * b) ** 2 + math.expm1(-mode.y)))
    elif second:
        rows[3] = -rows[3]
    return rows


@dataclass
class ModeFactorization:
    """Per-mode real rows of the Wigner function on a product point set.

    The value at (mode-1 point i, mode-2 point j) is the rank-4 sum
    sum_r m1[r, i] m2[r, j] (module docstring); m2 also carries the prefactor
    1 / (pi^2 D1 D2 (1 + sigma e^{-4|alpha|^2})).
    """

    m1: np.ndarray = field(repr=False)   # (4, P1)
    m2: np.ndarray = field(repr=False)   # (4, P2)

    def combine_block(self) -> np.ndarray:
        """W over (all mode-1 points) x (all mode-2 points): one real matrix product."""
        return np.matmul(self.m1.T, self.m2)

    def combine_paired(self) -> np.ndarray:
        """W at paired points (mode-1 point i with mode-2 point i)."""
        return np.einsum("rp,rp->p", self.m1, self.m2)


def factorize(spec: BellCatSpec, params: ThermalParams,
              mode1_points: tuple[np.ndarray, np.ndarray],
              mode2_points: tuple[np.ndarray, np.ndarray]) -> ModeFactorization:
    """Build the per-mode rows of the closed Gaussian form."""
    mode1, mode2 = state_constants(spec, params)
    x1, y1 = (np.asarray(v, dtype=float) for v in mode1_points)
    x2, y2 = (np.asarray(v, dtype=float) for v in mode2_points)
    # a square past the float range is inf, and e^{-inf} = 0 is exact; an inf - inf, only where
    # |P| |zeta| passes that range too, leaves a NaN that the callers' finite check reports
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = _mode_tables(mode1, spec.sigma, x1, y1, second=False)
        m2 = _mode_tables(mode2, spec.sigma, x2, y2, second=True)
    m2 *= 1.0 / (math.pi**2 * mode1.d * mode2.d * spec.parity_overlap)
    return ModeFactorization(m1=m1, m2=m2)


def _finite(values: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NonFiniteError(f"{context}: {bad} of {values.size} values are not finite")
    return values


def wigner_values(spec: BellCatSpec, params: ThermalParams,
                  x1, y1, x2, y2,
                  chi_mode: str = "kernel") -> np.ndarray:
    """Dimensionless thermal Wigner function at paired coordinate arrays.

    Any `chi_mode` other than the kernel convention is a series diagnostic
    and is evaluated by `bellcat.series.series_values` at its default caps.
    """
    if chi_mode != "kernel":
        # the one reference import of this module; it stays until the benchmark's
        # printed-convention control calls series_values itself
        from .series import series_values

        return series_values(spec, params, x1, y1, x2, y2, chi_mode=chi_mode)
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (x1, y1, x2, y2)]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("coordinate arrays must share one shape")
    fac = factorize(spec, params, (arrays[0], arrays[1]), (arrays[2], arrays[3]))
    return _finite(fac.combine_paired(), "wigner_values")


def wigner_point(spec: BellCatSpec, params: ThermalParams, pt: PhasePoint) -> float:
    """W at a single phase-space point."""
    return float(wigner_values(spec, params, pt.x1, pt.y1, pt.x2, pt.y2)[0])


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridAxis:
    name: str
    minimum: float
    maximum: float
    count: int

    def __post_init__(self):
        if self.name not in _COORDS:
            raise ValueError(f"axis name must be one of {_COORDS}, got {self.name!r}")
        if self.count < 2:
            raise ValueError("axis count must be >= 2")
        if not (self.maximum > self.minimum):
            raise ValueError("axis maximum must exceed minimum")
        if not math.isfinite(self.maximum - self.minimum):
            raise ValueError("axis span must be finite")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SliceDescriptor:
    """Which two of the four phase-space coordinates vary, and the fixed values of the rest."""

    axes: tuple[GridAxis, GridAxis]
    fixed: dict[str, float]

    def __post_init__(self):
        names = [a.name for a in self.axes]
        if len(set(names)) != 2:
            raise ValueError("slice axes must name two distinct coordinates")
        expected = set(_COORDS) - set(names)
        if set(self.fixed) != expected:
            raise ValueError(f"fixed coordinates must be exactly {sorted(expected)}")
        for name, value in self.fixed.items():
            if not math.isfinite(value):
                raise ValueError(f"fixed value for {name} must be finite")

    @classmethod
    def centered(cls, names: tuple[str, str], half_width: float, count: int,
                 fixed: dict[str, float] | None = None) -> "SliceDescriptor":
        axes = tuple(GridAxis(n, -half_width, half_width, count) for n in names)
        others = set(_COORDS) - set(names)
        base = {name: 0.0 for name in others}
        base.update(fixed or {})
        return cls(axes=axes, fixed=base)


@dataclass
class WignerGrid:
    """Real Wigner values on a 2D slice, values[i, j] at the i-th value of axis 0 and the j-th of axis 1."""

    slice_: SliceDescriptor
    values: np.ndarray = field(repr=False)

    def axis_values(self, index: int) -> np.ndarray:
        return self.slice_.axes[index].values()


def wigner_grid(spec: BellCatSpec, params: ThermalParams, slice_: SliceDescriptor) -> WignerGrid:
    """Evaluate the Wigner function over a 2D slice via the factorized contraction.

    Each mode's points are the product of its varying axes (none, one or
    both) with its fixed coordinates, so a slice whose axes split across the
    modes costs O(count1 + count2) table entries.  One rank-4 product forms
    the block, laid out as (mode-1 axes, mode-2 axes), and one transpose puts
    it in slice order.  A slice of more than `HARD_GRID_POINTS` points raises
    TruncationError before any table is built.
    """
    axes = slice_.axes
    if axes[0].count * axes[1].count > HARD_GRID_POINTS:
        raise TruncationError(f"a {axes[0].count} x {axes[1].count} slice is beyond the hard cap of "
                              f"{HARD_GRID_POINTS} points")
    order: list[int] = []     # slice axes in the block's layout
    points = []
    for coords in (("x1", "y1"), ("x2", "y2")):
        varying = [i for i, axis in enumerate(axes) if axis.name in coords]
        grids = np.meshgrid(*(axes[i].values() for i in varying), indexing="ij")
        at = {**slice_.fixed, **{axes[i].name: grid for i, grid in zip(varying, grids)}}
        points.append([v.ravel() for v in np.broadcast_arrays(*(at[c] for c in coords))])
        order += varying
    block = factorize(spec, params, *points).combine_block()
    block = block.reshape([axes[i].count for i in order]).transpose(np.argsort(order))
    return WignerGrid(slice_=slice_, values=_finite(np.ascontiguousarray(block), "wigner_grid"))
