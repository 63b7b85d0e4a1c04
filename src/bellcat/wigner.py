"""Thermal Wigner function of the Bell-Cat states.

Production route: the closed Gaussian form (notes/decisions.md, section 2).
The dressing operator splits into two coherent branches,
f = C [E(g1) E(g2) + sigma E(-g1) E(-g2)] with E(g) = exp(g a^dag),
g1 = alpha/u1, g2 = k alpha/u2 and C^2 = e^{-2|alpha|^2} / (2 (1 + sigma e^{-4|alpha|^2})),
so rho = f rho_beta f^dag is a sum of four product terms (s, t = +-1).  Each
per-mode block E(s g) rho_beta E(t g)^dag is a Gaussian integral over the
Glauber-Sudarshan P-function of the Gibbs state (Cahill & Glauber,
Phys. Rev. 177, 1882 (1969)), whose Wigner function W_B(z; s g, t g) is
closed-form: O(1) per point at any temperature.  With n the mode's thermal
occupation, D = 1 + 2n, u = sqrt(1 + n), w = sqrt2 u gamma (the thermal lobe;
gamma = alpha for mode 1, k alpha for mode 2) and z = x + i y,

    W_B(z; s g, t g) = e^{|alpha|^2} m_st(z) / (pi D),
    m_++(z) = exp(-|z - w|^2 / D),
    m_--(z) = exp(-|z + w|^2 / D),
    m_+-(z) = exp((-|z|^2 - 2 n |alpha|^2 + 2 i Im(w zbar)) / D) = conj(m_-+(z)).

The tables m_st hold half of C^2's e^{-2|alpha|^2} each, folded into the
exponent before `exp`, which leaves every exponent <= 0: no table entry
overflows at any |alpha| or temperature, and the prefactor that remains is
1 / (2 pi^2 D1 D2 (1 + sigma e^{-4|alpha|^2})).

Reference routes (tests and `bellcat validate` use them; production does not):

* the paper's Laguerre series, `bellcat.series`;
* the Fock-kernel oracle below: per-mode Fock kernels K(j, l; x, y) obtained
  by direct numerical integration of the Wigner transform with
  Hermite-function position wavefunctions, contracted against the
  operator-route density blocks.  The oracle never sees a Laguerre
  polynomial or a sign convention, so it arbitrates them.

Dimensionless coordinates throughout: x = q/b, y = p b/hbar with
b^2 = hbar/(m omega); the reported function is hbar^2 W, normalized so its
4D phase-space integral is 1.

`chi_mode` selects one of the series' conventions (see `bellcat.series`);
the Gaussian form is the kernel convention, so any other value routes an
evaluation to the series.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .density import effective_amplitude, mode_thermal_blocks, thermal_levels
from .errors import ImaginaryResidueError, NonFiniteError, QuadratureError
from .states import BellCatSpec
from .tfd import ThermalParams

__all__ = [
    "CHI_KERNEL",
    "CHI_PRINTED",
    "CHI_BROKEN",
    "PhasePoint",
    "GridAxis",
    "SliceDescriptor",
    "WignerGrid",
    "default_cat_cap",
    "effective_amplitude",
    "wigner_point",
    "wigner_values",
    "wigner_grid",
    "ModeFactorization",
    "factorize",
    "hermite_functions",
    "fock_wigner_kernels",
    "oracle_cutoff",
    "wigner_oracle_values",
    "closed_form_zero_temperature",
]

CHI_KERNEL = "kernel"
CHI_PRINTED = "printed"
CHI_BROKEN = "always-plus"

IMAG_RESIDUE_TOL = 1e-9
_COORDS = ("x1", "y1", "x2", "y2")
_MODE_OF = {"x1": 1, "y1": 1, "x2": 2, "y2": 2}


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


def default_cat_cap(spec: BellCatSpec, params: ThermalParams) -> int:
    """Fock reach of the coherent branches: ceil(a^2 + 8a + 10) at a = |alpha| u.

    The series caps its four coherent-branch indices here, and the oracle
    sizes its Fock cutoff from it.
    """
    a = effective_amplitude(spec, params)
    return math.ceil(a * a + 8.0 * a + 10.0)


# ---------------------------------------------------------------------------
# production path
# ---------------------------------------------------------------------------


def _mode_tables(gamma: complex, q: float, one_minus_q: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The branch tables m_st of one mode (module docstring), st = (+,+), (+,-), (-,+), (-,-).

    Shape (4, P); D = (1 + q)/(1 - q) and u = 1/sqrt(1 - q).
    """
    n = q / one_minus_q
    d = 1.0 + 2.0 * n
    w = math.sqrt(2.0) * gamma / math.sqrt(one_minus_q)
    m = np.empty((4, x.size), dtype=complex)
    m[0] = np.exp(-((x - w.real) ** 2 + (y - w.imag) ** 2) / d)
    m[3] = np.exp(-((x + w.real) ** 2 + (y + w.imag) ** 2) / d)
    m[1] = np.exp((-(x * x + y * y) - 2.0 * n * abs(gamma) ** 2 + 2j * (w.imag * x - w.real * y)) / d)
    m[2] = np.conj(m[1])
    return m


@dataclass
class ModeFactorization:
    """Per-mode factor tables of the Wigner function on a product point set.

    The Wigner values on {mode-1 points} x {mode-2 points} are
    prefactor * [(M1[0] M2[0] + M1[3] M2[3]) + sigma (M1[1] M2[1] + M1[2] M2[2])]
    with the Gaussian envelope already inside the tables.  Outer-product
    blocks are formed as one real rank-8 matrix product per part.
    """

    prefactor: float
    sigma: int
    m1: np.ndarray = field(repr=False)   # (4, P1) complex
    m2: np.ndarray = field(repr=False)   # (4, P2) complex

    @cached_property
    def _right(self) -> tuple[np.ndarray, np.ndarray]:
        """[Re b; Im b] and [Im b; -Re b], each (8, P2), for b the scaled mode-2 tables."""
        scale = self.prefactor * np.array([1.0, self.sigma, self.sigma, 1.0])
        b = self.m2 * scale[:, None]
        return np.concatenate([b.real, b.imag]), np.concatenate([b.imag, -b.real])

    def combine_block(self, rows: slice | None = None,
                      out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(real, imag) parts of the W block over (mode-1 rows) x (all mode-2 points).

        With a the mode-1 rows, Re W = [Re a, -Im a] @ [Re b; Im b] and
        Im W = [Re a, -Im a] @ [Im b; -Re b].  `out` takes two C-contiguous
        (rows, P2) buffers to write the parts into.
        """
        m1 = self.m1[:, rows] if rows is not None else self.m1
        left = np.concatenate([m1.real, -m1.imag]).T         # (P1, 8)
        right_re, right_im = self._right
        re_out, im_out = out if out is not None else (None, None)
        return np.matmul(left, right_re, out=re_out), np.matmul(left, right_im, out=im_out)

    def combine(self, rows: slice | None = None) -> np.ndarray:
        """Complex W block over (rows of mode 1) x (all of mode 2)."""
        w_re, w_im = self.combine_block(rows)
        return w_re + 1j * w_im

    def combine_paired(self) -> np.ndarray:
        """Complex W at paired points (mode-1 point i with mode-2 point i)."""
        even = self.m1[0] * self.m2[0] + self.m1[3] * self.m2[3]
        odd = self.m1[1] * self.m2[1] + self.m1[2] * self.m2[2]
        return self.prefactor * (even + self.sigma * odd)


def factorize(spec: BellCatSpec, params: ThermalParams,
              mode1_points: tuple[np.ndarray, np.ndarray],
              mode2_points: tuple[np.ndarray, np.ndarray]) -> ModeFactorization:
    """Build the per-mode branch tables of the closed Gaussian form."""
    x1, y1 = (np.asarray(v, dtype=float) for v in mode1_points)
    x2, y2 = (np.asarray(v, dtype=float) for v in mode2_points)
    m1 = _mode_tables(spec.alpha, params.exp1, params.one_minus_exp1, x1, y1)
    m2 = _mode_tables(spec.k * spec.alpha, params.exp2, params.one_minus_exp2, x2, y2)
    d1 = (1.0 + params.exp1) / params.one_minus_exp1
    d2 = (1.0 + params.exp2) / params.one_minus_exp2
    pref = 1.0 / (2.0 * math.pi**2 * d1 * d2 * spec.parity_overlap)
    return ModeFactorization(prefactor=pref, sigma=spec.sigma, m1=m1, m2=m2)


def _to_real(values: np.ndarray, context: str) -> tuple[np.ndarray, float]:
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NonFiniteError(f"{context}: {bad} of {values.size} values are not finite")
    max_resid = float(np.max(np.abs(values.imag), initial=0.0))
    if max_resid > IMAG_RESIDUE_TOL:
        # the global bound failed; apply the pointwise |im| <= tol (1 + |re|)
        resid = np.abs(values.imag)
        bound = IMAG_RESIDUE_TOL * (1.0 + np.abs(values.real))
        if np.any(resid > bound):
            worst = float(np.max(resid / bound))
            raise ImaginaryResidueError(
                f"{context}: imaginary residue exceeds {IMAG_RESIDUE_TOL:g}*(1+|re|) "
                f"by a factor {worst:.3g}; the term sum lost its Hermitian pairing"
            )
    return np.ascontiguousarray(values.real), max_resid


def wigner_values(spec: BellCatSpec, params: ThermalParams,
                  x1, y1, x2, y2,
                  chi_mode: str = CHI_KERNEL) -> np.ndarray:
    """Dimensionless thermal Wigner function at paired coordinate arrays.

    Any `chi_mode` other than the kernel convention is a series diagnostic
    and is evaluated by `bellcat.series.series_values` at its default caps.
    """
    if chi_mode != CHI_KERNEL:
        from .series import series_values

        return series_values(spec, params, x1, y1, x2, y2, chi_mode=chi_mode)
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (x1, y1, x2, y2)]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("coordinate arrays must share one shape")
    fac = factorize(spec, params, (arrays[0], arrays[1]), (arrays[2], arrays[3]))
    values, _ = _to_real(fac.combine_paired(), "wigner_values")
    return values


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
    """Real Wigner values on a 2D slice, plus evaluation metadata."""

    slice_: SliceDescriptor
    values: np.ndarray = field(repr=False)
    spec: BellCatSpec
    params: ThermalParams
    stats: dict

    def axis_values(self, index: int) -> np.ndarray:
        return self.slice_.axes[index].values()


def wigner_grid(spec: BellCatSpec, params: ThermalParams, slice_: SliceDescriptor) -> WignerGrid:
    """Evaluate the Wigner function over a 2D slice via the factorized contraction.

    The mode tables are built once per distinct per-mode point set, so a slice
    whose axes split across the two modes costs O(count1 + count2) mode sums
    followed by the two rank-8 real products of `combine_block`.
    """
    t0 = time.perf_counter()
    a0, a1 = slice_.axes
    v0, v1 = a0.values(), a1.values()
    fixed = slice_.fixed
    mode0, mode1_ = _MODE_OF[a0.name], _MODE_OF[a1.name]

    def fixed_pair(mode: int) -> tuple[float, float]:
        names = ("x1", "y1") if mode == 1 else ("x2", "y2")
        return fixed[names[0]], fixed[names[1]]

    if mode0 != mode1_:
        # axes split across the modes: outer product of two 1D tables
        pts = {mode0: _axis_points(a0.name, v0, fixed), mode1_: _axis_points(a1.name, v1, fixed)}
        fac = factorize(spec, params, pts[1], pts[2])
        w_complex = fac.combine() if mode0 == 1 else fac.combine().T
    else:
        # both axes live in one mode: that mode gets the full 2D point set
        grid0, grid1 = np.meshgrid(v0, v1, indexing="ij")
        pair = {a0.name: grid0.ravel(), a1.name: grid1.ravel()}
        names = ("x1", "y1") if mode0 == 1 else ("x2", "y2")
        varying = (pair.get(names[0], np.full(grid0.size, fixed.get(names[0], 0.0))),
                   pair.get(names[1], np.full(grid0.size, fixed.get(names[1], 0.0))))
        other_mode = 2 if mode0 == 1 else 1
        ox, oy = fixed_pair(other_mode)
        single = (np.array([ox]), np.array([oy]))
        if mode0 == 1:
            fac = factorize(spec, params, varying, single)
            w_complex = fac.combine()[:, 0].reshape(v0.size, v1.size)
        else:
            fac = factorize(spec, params, single, varying)
            w_complex = fac.combine()[0, :].reshape(v0.size, v1.size)

    values, max_resid = _to_real(w_complex, "wigner_grid")
    stats = {
        "max_imag_residue": max_resid,
        "n_points": int(values.size),
        "seconds": time.perf_counter() - t0,
    }
    return WignerGrid(slice_=slice_, values=values, spec=spec, params=params, stats=stats)


def _axis_points(name: str, values: np.ndarray, fixed: dict[str, float]):
    if name in ("x1", "x2"):
        other = "y1" if name == "x1" else "y2"
        return values, np.full(values.size, fixed[other])
    other = "x1" if name == "y1" else "x2"
    return np.full(values.size, fixed[other]), values


# ---------------------------------------------------------------------------
# Fock-kernel oracle
# ---------------------------------------------------------------------------


def hermite_functions(nmax: int, xi: np.ndarray) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_n(xi), n = 0..nmax.

    Two-term recurrence on the functions themselves (never the bare Hermite
    polynomials), so magnitudes stay bounded for n of a few hundred.
    """
    xi = np.asarray(xi, dtype=float)
    out = np.empty((nmax + 1,) + xi.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if nmax == 0:
        return out
    out[1] = math.sqrt(2.0) * xi * out[0]
    for n in range(1, nmax):
        out[n + 1] = (math.sqrt(2.0 / (n + 1)) * xi * out[n]
                      - math.sqrt(n / (n + 1)) * out[n - 1])
    return out


def fock_wigner_kernels(nmax: int, x: np.ndarray, y: np.ndarray,
                        tol: float = 1e-10, max_doublings: int = 8) -> np.ndarray:
    """Dimensionless one-mode Wigner kernels K[j, l](x, y) of |j><l|, j, l <= nmax.

    Direct trapezoid quadrature of
        K = (1/2 pi) int ds e^{i s y} psi_j(x - s/2) psi_l(x + s/2)
    refined by doubling until two successive refinements agree below `tol`.
    The refinements are nested: each doubling evaluates only the new
    midpoints and adds them to half the previous sum.  Each level runs over
    the nodes s >= 0 only; the nodes -s add the conjugate transpose.
    Returns shape (npoints, nmax+1, nmax+1).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must share a shape")
    turning = math.sqrt(2.0 * nmax + 1.0)
    half_range = 2.0 * (turning + float(np.max(np.abs(x), initial=0.0))) + 10.0
    freq = turning + float(np.max(np.abs(y), initial=0.0)) + 1.0
    npts = 256
    while npts < half_range * freq / math.pi * 1.3:
        npts *= 2

    # nodes s = step * k, k = -npts/2 .. npts/2, folded onto s >= 0: the node
    # s = 0 and the endpoint pair carry half of the trapezoid weight each
    step = 2.0 * half_range / npts
    weight = np.full(npts // 2 + 1, step)
    weight[0] *= 0.5
    weight[-1] *= 0.5
    prev = _kernel_sum(nmax, x, y, step * np.arange(npts // 2 + 1), weight)
    for _ in range(max_doublings):
        step *= 0.5
        midpoints = step * np.arange(1, npts, 2)
        current = 0.5 * prev + _kernel_sum(nmax, x, y, midpoints, np.full(npts // 2, step))
        if float(np.max(np.abs(current - prev))) < tol:
            return current
        prev = current
        npts *= 2
    raise QuadratureError(
        f"Fock kernel quadrature did not converge to {tol:g} by {npts} nodes"
    )


def _kernel_sum(nmax: int, x: np.ndarray, y: np.ndarray, s: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Quadrature sum of the kernel integrand over the nodes +-s (s >= 0) at each point (x, y).

    The (j, l) integrand at -s, psi_j(x + s/2) psi_l(x - s/2) e^{-i s y}, is
    the conjugate of the (l, j) integrand at s, so the sum is M + M^H with M
    the sum over the nodes s alone.
    """
    out = np.empty((x.size, nmax + 1, nmax + 1), dtype=complex)
    chunk = max(1, int(4e6 / ((nmax + 1) * s.size)))
    for lo in range(0, x.size, chunk):
        sl = slice(lo, min(lo + chunk, x.size))
        xs, ys = x[sl], y[sl]
        psi_ket = hermite_functions(nmax, xs[:, None] - 0.5 * s[None, :])
        psi_bra = hermite_functions(nmax, xs[:, None] + 0.5 * s[None, :])
        phase = np.exp(1j * s[None, :] * ys[:, None]) * weight[None, :]
        for b in range(xs.size):
            weighted = psi_ket[:, b, :] * phase[b][None, :]
            half = (weighted.real @ psi_bra[:, b, :].T
                    + 1j * (weighted.imag @ psi_bra[:, b, :].T)) / (2.0 * math.pi)
            out[lo + b] = half + half.conj().T
    return out


_ORACLE_MASS_EPSILON = 1e-9


def oracle_cutoff(spec: BellCatSpec, params: ThermalParams) -> int:
    """Per-mode Fock cutoff the oracle needs to hold ~1e-9 of the state's mass."""
    return default_cat_cap(spec, params) + thermal_levels(params, _ORACLE_MASS_EPSILON)


def wigner_oracle_values(spec: BellCatSpec, params: ThermalParams,
                         x1, y1, x2, y2,
                         cutoff: int | None = None,
                         kernel_tol: float = 1e-10,
                         kernels: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Oracle W values: quadrature kernels contracted with operator-route density blocks.

    `kernels` may carry precomputed (k1, k2) tables for these points (they
    depend only on the cutoff and the coordinates, so states sharing both can
    share them).
    """
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (x1, y1, x2, y2)]
    if cutoff is None:
        cutoff = oracle_cutoff(spec, params)
    weights, blocks1, blocks2 = mode_thermal_blocks(spec, params, cutoff)
    if kernels is not None:
        k1, k2 = kernels
        if k1.shape[1] != cutoff + 1:
            raise ValueError(f"precomputed kernels sized for nmax {k1.shape[1] - 1}, need {cutoff}")
    else:
        k1 = fock_wigner_kernels(cutoff, arrays[0], arrays[1], tol=kernel_tol)
        k2 = fock_wigner_kernels(cutoff, arrays[2], arrays[3], tol=kernel_tol)
    total = np.zeros(arrays[0].size, dtype=complex)
    for s in (0, 1):
        for t in (0, 1):
            c1 = np.einsum("pnm,nm->p", k1, blocks1[s][t])
            c2 = np.einsum("pnm,nm->p", k2, blocks2[s][t])
            total += weights[s, t] * c1 * c2
    values, _ = _to_real(total, "wigner_oracle")
    return values


# ---------------------------------------------------------------------------
# zero-temperature closed form (coherent-state algebra; independent of both paths)
# ---------------------------------------------------------------------------


def closed_form_zero_temperature(spec: BellCatSpec, x1, y1, x2, y2) -> np.ndarray:
    """W of the pure Bell-Cat state from the coherent cross-Wigner identity.

    W_{|u><w|}(x, y) = (1/pi) e^{-x^2-y^2} e^{-(|u|^2+|w|^2)/2}
                       exp(sqrt2 u zbar + sqrt2 conj(w) z - u conj(w)),
    z = x + i y.  Summing the four branch pairs of |psi><psi| gives the state.
    """
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (x1, y1, x2, y2)]
    z1 = arrays[0] + 1j * arrays[1]
    z2 = arrays[2] + 1j * arrays[3]
    alpha, k, sigma = spec.alpha, spec.k, spec.sigma
    norm_sq = 1.0 / (2.0 * spec.parity_overlap)

    def cross(u: complex, w: complex, z: np.ndarray) -> np.ndarray:
        return np.exp(math.sqrt(2.0) * u * np.conj(z) + math.sqrt(2.0) * np.conj(w) * z
                      - u * np.conj(w) - 0.5 * (abs(u) ** 2 + abs(w) ** 2))

    total = np.zeros(z1.shape, dtype=complex)
    for bra_sign in (1, -1):
        for ket_sign in (1, -1):
            weight = sigma ** ((ket_sign < 0) + (bra_sign < 0))
            total += weight * (cross(ket_sign * alpha, bra_sign * alpha, z1)
                               * cross(ket_sign * k * alpha, bra_sign * k * alpha, z2))
    envelope = np.exp(-(np.abs(z1) ** 2 + np.abs(z2) ** 2))
    values = norm_sq / math.pi**2 * envelope * total
    out, _ = _to_real(values, "closed_form_zero_temperature")
    return out
