"""Negativity of the thermal Wigner function: 4D quadrature, delta and nu metrics.

The absolute value in the negativity integrals kinks the integrand along the
nodal surfaces of W, which destroys the spectral accuracy a plain tensor
Gauss-Legendre rule would otherwise enjoy (a 48-node rule moves delta by
percents when refined).  The cure is to split the integral by mode: the
mode-1 plane, where max(+-W, 0) is applied, is integrated on a dense uniform
midpoint grid whose spacing resolves the interference fringes; what remains,

    G(x2, y2) = int dx1 dy1 max(+-W, 0),

is a smooth function of the mode-2 coordinates and is integrated with a
moderate Gauss-Legendre rule.  Both grids live on the padded box [-L, L]^2
with L following the thermally amplified lobes.

Orbit fold.  A map z -> g z applied to both modes at once leaves W unchanged
for
  * g = -1 (joint parity, every state: rho commutes with (-1)^(n1+n2));
  * g = complex conjugation, y -> -y, when alpha is real or imaginary (rho is
    real in the Fock basis, up to a passive quarter-turn of both modes);
  * g = reflection x <-> y when |Re alpha| = |Im alpha| (the same, after an
    eighth-turn).
The midpoint grid is built exactly antisymmetric and the Gauss-Legendre
nodes and weights are exactly symmetric, so every such g permutes each grid
and keeps its weights.  The weighted row total R(z1) = sum_j f(W(z1, z2_j)) w_j
of any f is therefore the same for all mode-1 points of one orbit
{g z1}: only one representative per orbit is evaluated, and its row total
is weighted by the orbit size.  This is an identity of the quadrature sum,
not an approximation: 4x fewer point pairs when alpha is real, imaginary or
diagonal, 2x otherwise.

Reduction.  Each block of representative rows is formed once, and one pass
yields the row sums of W (a matrix-vector product with the mode-2 weights,
which also carries any NaN or inf into the finite check) and of min(W, 0);
the negative volume is I_- = -sum min(W, 0) and the positive one is
I_+ = sum W + I_-.

delta is reported as 2 I_- / (I_+ - I_-), the negative volume of the
*unit-normalized* function; this keeps the identity nu = delta/(1+delta)
exact instead of drifting with the residual quadrature normalization error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BellCatError, ImaginaryResidueError, NonFiniteError, NormalizationError
from .states import BellCatSpec
from .tfd import ThermalParams, thermal_params
from .wigner import IMAG_RESIDUE_TOL, effective_amplitude, factorize

__all__ = [
    "QuadratureSpec",
    "NegativityResult",
    "SweepEntry",
    "default_half_width",
    "default_nodes",
    "default_inner_density",
    "integrate_negativity",
    "temperature_sweep",
]

# W values per block and part: 512 KiB of doubles, so that a block stays in cache
_BLOCK_VALUES = 1 << 16


def _orbit_representatives(n: int, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """One flat index per symmetry orbit of the n x n inner grid, and the orbit sizes.

    Point (i, j) sits at (x, y) = (inner[i], inner[j]), flat index i n + j.
    The group always holds joint parity; y -> -y (with x -> -x) when alpha is
    real or imaginary; x <-> y (with (x, y) -> (-y, -x)) when |Re alpha| =
    |Im alpha|.  Representatives are the smallest flat index of their orbit,
    in ascending order; sizes are floats, ready to weight row totals.
    """
    i, j = np.divmod(np.arange(n * n), n)
    ri, rj = n - 1 - i, n - 1 - j
    images = [(i, j), (ri, rj)]
    if alpha.real == 0.0 or alpha.imag == 0.0:
        images += [(i, rj), (ri, j)]
    elif abs(alpha.real) == abs(alpha.imag):
        images += [(j, i), (rj, ri)]
    canonical = np.min([a * n + b for a, b in images], axis=0)
    reps, sizes = np.unique(canonical, return_counts=True)
    return reps, sizes.astype(float)


@dataclass(frozen=True)
class QuadratureSpec:
    """Hybrid rule: dense uniform midpoint over mode 1, Gauss-Legendre over mode 2.

    `nodes` counts the Gauss-Legendre nodes per outer axis; `inner_density`
    is the midpoint-grid density (points per unit length) per inner axis.
    Fields left as None are resolved from the state and temperature at run
    time; explicit values are used as given (nodes must be >= 8).
    """

    nodes: int | None = None
    half_width: float | None = None
    inner_density: float | None = None

    def __post_init__(self):
        if self.nodes is not None and self.nodes < 8:
            raise ValueError("nodes must be >= 8")
        if self.half_width is not None and not (self.half_width > 0):
            raise ValueError("half_width must be positive")
        if self.inner_density is not None and not (self.inner_density > 0):
            raise ValueError("inner_density must be positive")


def _thermal_scale(params: ThermalParams) -> float:
    """sqrt((1+q)/(1-q)), the thermal widening of the vacuum Gaussian (1 at T=0)."""
    q = max(params.exp1, params.exp2)
    return math.sqrt((1.0 + q) / (1.0 - q))


def _damped_fringe_frequency(spec: BellCatSpec, params: ThermalParams) -> float:
    """Fastest surviving oscillation 2 sqrt(2)|alpha|/u: coherences span 2 alpha/u."""
    return 2.0 * math.sqrt(2.0) * abs(spec.alpha) / max(params.u1, params.u2)


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
class NegativityResult:
    """Negativity metrics and the quadrature metadata behind them."""

    delta: float
    nu: float
    i_plus: float
    i_minus: float
    norm_check: float
    nodes: int
    inner_nodes: int
    half_width: float
    max_imag_residue: float
    seconds: float


def integrate_negativity(spec: BellCatSpec, params: ThermalParams,
                         quad: QuadratureSpec | None = None) -> NegativityResult:
    """Integrate the Wigner function over the padded box and report delta, nu.

    I_+ and I_- accumulate the positive and negative volumes; the norm check
    I_+ - I_- must land within 1% of 1 or a NormalizationError is raised
    (insufficient box or nodes); a block with a non-finite value raises
    NonFiniteError, and one whose imaginary part breaks |im| <= 1e-9 (1 + |re|)
    at any point raises ImaginaryResidueError.  Mode-1 rows are the orbit
    representatives (module docstring); accumulation runs over blocks of a
    size fixed by the mode-2 grid, in index order, so results are
    bit-reproducible.
    """
    t0 = time.perf_counter()
    quad = quad or QuadratureSpec()
    half_width = quad.half_width if quad.half_width is not None else default_half_width(spec, params)
    minimum = math.sqrt(2.0) * abs(spec.alpha) + 4.0
    if half_width < minimum:
        raise ValueError(f"half_width {half_width:g} below the required sqrt(2)|alpha|+4 = {minimum:g}")
    nodes = quad.nodes if quad.nodes is not None else default_nodes(spec, params, half_width)
    density = quad.inner_density if quad.inner_density is not None else default_inner_density(spec, params)

    inner_nodes = math.ceil(2.0 * half_width * density)
    step = 2.0 * half_width / inner_nodes
    # exactly antisymmetric, so the symmetry maps permute the grid points
    inner = step * (np.arange(inner_nodes) - 0.5 * (inner_nodes - 1))
    w_inner = step * step

    t, w = np.polynomial.legendre.leggauss(nodes)
    outer = half_width * t
    scaled = half_width * w
    g2x, g2y = np.meshgrid(outer, outer, indexing="ij")
    w_outer = np.multiply.outer(scaled, scaled).ravel()

    reps, multiplicity = _orbit_representatives(inner_nodes, spec.alpha)
    ix, iy = np.divmod(reps, inner_nodes)
    fac = factorize(spec, params, (inner[ix], inner[iy]), (g2x.ravel(), g2y.ravel()))
    n1 = reps.size
    n2 = g2x.size
    chunk = max(1, _BLOCK_VALUES // n2)
    buf_re = np.empty((min(chunk, n1), n2))
    buf_im = np.empty_like(buf_re)
    total = 0.0       # sum of W over the grid, orbit-weighted
    negative = 0.0    # sum of min(W, 0)
    max_resid = 0.0
    for lo in range(0, n1, chunk):
        hi = min(lo + chunk, n1)
        w_re, w_im = fac.combine_block(slice(lo, hi), out=(buf_re[:hi - lo], buf_im[:hi - lo]))
        block_resid = max(float(w_im.max()), -float(w_im.min()))
        # NaN and inf propagate into the extremes of Im W and the row sums of Re W
        row_sums = w_re @ w_outer
        if not (math.isfinite(block_resid) and np.all(np.isfinite(row_sums))):
            raise NonFiniteError(f"negativity integrand has non-finite values in orbit rows {lo}..{hi - 1}")
        if block_resid > IMAG_RESIDUE_TOL:
            # pointwise bound |im| <= tol (1 + |re|)
            if np.any(np.abs(w_im) > IMAG_RESIDUE_TOL * (1.0 + np.abs(w_re))):
                raise ImaginaryResidueError("negativity integrand lost its Hermitian pairing")
        max_resid = max(max_resid, block_resid)
        row_negative = np.minimum(w_re, 0.0, out=w_re) @ w_outer
        total += float(multiplicity[lo:hi] @ row_sums)
        negative += float(multiplicity[lo:hi] @ row_negative)

    i_minus = -negative * w_inner
    i_plus = total * w_inner + i_minus

    norm_check = i_plus - i_minus
    if abs(norm_check - 1.0) > 0.01:
        raise NormalizationError(
            f"I+ - I- = {norm_check:.6f} deviates from 1 by more than 1%: "
            f"nodes={nodes}, inner={inner_nodes}, half_width={half_width:.3f}"
        )
    delta = 2.0 * i_minus / norm_check
    nu = 2.0 * i_minus / (i_plus + i_minus)
    return NegativityResult(
        delta=delta,
        nu=nu,
        i_plus=i_plus,
        i_minus=i_minus,
        norm_check=norm_check,
        nodes=nodes,
        inner_nodes=inner_nodes,
        half_width=half_width,
        max_imag_residue=max_resid,
        seconds=time.perf_counter() - t0,
    )


@dataclass
class SweepEntry:
    temperature: float
    result: NegativityResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def temperature_sweep(spec: BellCatSpec, temperatures, omega1: float, omega2: float | None = None,
                      quad: QuadratureSpec | None = None) -> list[SweepEntry]:
    """One independent negativity integration per temperature (ascending order required).

    Failures are attached to their entries and the sweep continues.
    """
    temps = [float(T) for T in temperatures]
    if any(b <= a for a, b in zip(temps, temps[1:])):
        raise ValueError("temperatures must be strictly increasing")
    if any(T < 0 for T in temps):
        raise ValueError("temperatures must be >= 0")
    entries: list[SweepEntry] = []
    for T in temps:
        entry = SweepEntry(temperature=T)
        try:
            params = thermal_params(T, omega1, omega2)
            entry.result = integrate_negativity(spec, params, quad=quad)
        except BellCatError as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
        entries.append(entry)
    return entries
