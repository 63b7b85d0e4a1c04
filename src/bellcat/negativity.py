"""Negativity of the thermal Wigner function: delta and nu.

Production route: an exact reduction to two coordinates (notes/decisions.md,
section 8).  Scale each mode, zeta_i = z_i / sqrt(D_i) with D_i = 1 + 2 n_i,
and let P = (w1/sqrt(D1), w2/sqrt(D2)) in C^2, with w_i = sqrt2 u_i gamma_i the
thermal lobes of `bellcat.wigner`.  With a = |P|, c = sum_i 2 n_i |gamma_i|^2 / D_i,
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
and Gauss-Legendre in u on [0, h].  The lobe term is carried as
e^{-y+2as} expm1(-2as)^2 / 2, so nothing overflows at |alpha| = 20 and small
|alpha| keeps full relative accuracy.

I_+ = I_- + (1/(pi N)) int ds dt F, and that total is a quadrature too, of the
separable form of F: the lobe term as e^{-t^2} e^{-(|s|-a)^2} expm1(-2a|s|)^2 / 2,
the constant -e^{-c} m0 and the fringe e^{-c} 2 sin^2(a t + phi).  N comes from
the state, not from a and c, so the norm check I_+ - I_- = 1 tests the
reduction.

Reference route: `integrate_negativity_grid`, the 4D hybrid rule.  The
absolute value in the negativity integrals kinks the integrand along the
nodal surfaces of W, which destroys the spectral accuracy a plain tensor
Gauss-Legendre rule would otherwise enjoy.  The hybrid rule splits the
integral by mode: the mode-1 plane, where max(+-W, 0) is applied, is
integrated on a dense uniform midpoint grid whose spacing resolves the
interference fringes; what remains,

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

Both routes report delta as 2 I_- / (I_+ - I_-), the negative volume of the
*unit-normalized* function; this keeps the identity nu = delta/(1+delta)
exact instead of drifting with the residual quadrature normalization error.
"""

from __future__ import annotations

import functools
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
    "integrate_negativity_grid",
    "temperature_sweep",
]

# reach of the reduced Gaussian e^{-s^2-t^2} in s and t: e^{-49} = 5e-22 of its peak
_REACH = 7.0
# Gauss-Legendre nodes of the reduced rule: in tau (s = s* - tau^2), and in u per interval
_S_NODES = 64
_T_NODES = 16
# relative departure of I_+ - I_- from 1 that raises NormalizationError
_NORM_TOL = 0.01
# W values per block and part of the grid rule: 512 KiB of doubles, so that a block stays in cache
_BLOCK_VALUES = 1 << 16


@dataclass
class NegativityResult:
    """Negativity metrics and the quadrature metadata behind them.

    For `integrate_negativity`, `nodes` counts the Gauss-Legendre nodes in s
    (through tau, s = s* - tau^2), `inner_nodes` those in t per negative
    interval, and `half_width` is the
    phase-space reach of the reduced rule, sqrt2 |alpha| max(u1, u2) +
    7 max(sqrt(D1), sqrt(D2)), which covers the lobes and their spread.  For
    `integrate_negativity_grid` they are the outer nodes per axis, the inner
    midpoints per axis and the box half-width.
    """

    delta: float
    nu: float
    i_plus: float
    i_minus: float
    norm_check: float
    nodes: int
    inner_nodes: int
    half_width: float
    seconds: float


def _finish(i_plus: float, i_minus: float, nodes: int, inner_nodes: int, half_width: float,
            t0: float) -> NegativityResult:
    """Apply the 1% norm gate and form delta and nu from the two volumes."""
    norm_check = i_plus - i_minus
    if abs(norm_check - 1.0) > _NORM_TOL:
        raise NormalizationError(
            f"I+ - I- = {norm_check:.6f} deviates from 1 by more than 1%: "
            f"nodes={nodes}, inner={inner_nodes}, half_width={half_width:.3f}"
        )
    return NegativityResult(
        delta=2.0 * i_minus / norm_check,
        nu=2.0 * i_minus / (i_plus + i_minus),
        i_plus=i_plus,
        i_minus=i_minus,
        norm_check=norm_check,
        nodes=nodes,
        inner_nodes=inner_nodes,
        half_width=half_width,
        seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# production: the reduced two-coordinate integral
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi]."""
    x, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def _reduced_parameters(spec: BellCatSpec, params: ThermalParams) -> tuple[float, float, float]:
    """a = |P|, c and y = a^2 - c of the reduced form (module docstring)."""
    a2 = c = y = 0.0
    for gamma, q, one_minus_q in ((spec.alpha, params.exp1, params.one_minus_exp1),
                                  (spec.k * spec.alpha, params.exp2, params.one_minus_exp2)):
        n = q / one_minus_q
        d = 1.0 + 2.0 * n
        g2 = abs(gamma) ** 2
        a2 += 2.0 * g2 / (one_minus_q * d)     # |w|^2 / D with w = sqrt2 gamma / sqrt(1 - q)
        c += 2.0 * n * g2 / d
        y += 2.0 * g2 / d
    return math.sqrt(a2), c, y


def _theta(u: np.ndarray, sigma: int, a: float) -> np.ndarray:
    """Theta(u) = sum_j e^{-(t_j + u)^2} over the interval centres t_j = (j pi - phi)/a within the reach."""
    phi = 0.0 if sigma < 0 else 0.5 * math.pi
    reach = math.ceil(_REACH * a / math.pi) + 2
    out = np.zeros_like(u)
    for j in range(-reach, reach + 1):
        out += np.exp(-((j * math.pi - phi) / a + u) ** 2)
    return out


def _negative_volume(sigma: int, a: float, y: float, s_nodes: int, t_nodes: int) -> float:
    """int ds dt e^{-s^2-t^2} max(-[l(s) - m0 + 2 sin^2(a t + phi)], 0): I_- pi N e^{c}."""
    if not y > 0.0:
        return 0.0
    # cosh(2 a s*) = e^y; arccosh(e^y) = y + log1p(sqrt(1 - e^{-2y})) never overflows
    s_star = (y + math.log1p(math.sqrt(-math.expm1(-2.0 * y)))) / (2.0 * a)
    tau, w_tau = _legendre(s_nodes, math.sqrt(max(0.0, s_star - _REACH)), math.sqrt(s_star))
    s = s_star - tau * tau
    # m = m0 - l(s), with l(s) = e^{-y} 2 sinh^2(a s) = e^{2as - y} expm1(-2as)^2 / 2 and 2as - y <= log 2
    m = -math.expm1(-y) - 0.5 * np.exp(2.0 * a * s - y) * np.expm1(-2.0 * a * s) ** 2
    h = np.arcsin(np.sqrt(0.5 * np.maximum(m, 0.0))) / a
    x, w_x = _legendre(t_nodes, 0.0, 1.0)
    ah = a * h[:, None]
    depth = 2.0 * np.sin(ah * (1.0 - x)) * np.sin(ah * (1.0 + x))
    g = 2.0 * h * ((depth * _theta(h[:, None] * x, sigma, a)) @ w_x)
    # both signs of s, and ds = 2 tau dtau
    return float((4.0 * w_tau * tau * np.exp(-s * s)) @ g)


def _total_volume(sigma: int, a: float, c: float, y: float, nodes: int) -> float:
    """int ds dt F over the plane: I_+ - I_- times pi N, by quadrature of the separable form."""
    # lobe term: int ds e^{-(|s|-a)^2} expm1(-2a|s|)^2 / 2 = int_{-a}^inf dv e^{-v^2} expm1(-2a(v + a))^2
    v, w_v = _legendre(nodes, max(-a, -_REACH), _REACH)
    lobe = float(w_v @ (np.exp(-v * v) * np.expm1(-2.0 * a * (v + a)) ** 2))
    # fringe term: int dt e^{-t^2} 2 sin^2(a t + phi), even in t; oscillates with frequency 2a
    t, w_t = _legendre(nodes + math.ceil(a * _REACH), 0.0, _REACH)
    wave = np.sin(a * t) if sigma < 0 else np.cos(a * t)
    fringe = 4.0 * float(w_t @ (np.exp(-t * t) * wave * wave))
    root_pi = math.sqrt(math.pi)
    return root_pi * lobe + math.exp(-c) * (root_pi * fringe + math.pi * math.expm1(-y))


def integrate_negativity(spec: BellCatSpec, params: ThermalParams) -> NegativityResult:
    """Integrate the negative and positive volumes of W in the reduced coordinates; report delta, nu.

    I_+ and I_- come from the two quadratures of the module docstring; the
    norm check I_+ - I_- must land within 1% of 1 or a NormalizationError is
    raised, and a non-finite volume raises NonFiniteError.  The rule is
    fixed, so results are bit-reproducible.
    """
    t0 = time.perf_counter()
    a, c, y = _reduced_parameters(spec, params)
    scale = 1.0 / (math.pi * spec.parity_overlap)
    i_minus = scale * math.exp(-c) * _negative_volume(spec.sigma, a, y, _S_NODES, _T_NODES)
    norm = scale * _total_volume(spec.sigma, a, c, y, _S_NODES)
    if not (math.isfinite(i_minus) and math.isfinite(norm)):
        raise NonFiniteError(f"reduced negativity volumes are not finite: I- = {i_minus}, I+ - I- = {norm}")
    half_width = math.sqrt(2.0) * effective_amplitude(spec, params) + _REACH * _thermal_scale(params)
    return _finish(norm + i_minus, i_minus, _S_NODES, _T_NODES, half_width, t0)


# ---------------------------------------------------------------------------
# reference: the 4D hybrid rule
# ---------------------------------------------------------------------------


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


def integrate_negativity_grid(spec: BellCatSpec, params: ThermalParams,
                              quad: QuadratureSpec | None = None) -> NegativityResult:
    """Reference: integrate W on the 4D hybrid rule over the padded box and report delta, nu.

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
        row_negative = np.minimum(w_re, 0.0, out=w_re) @ w_outer
        total += float(multiplicity[lo:hi] @ row_sums)
        negative += float(multiplicity[lo:hi] @ row_negative)

    i_minus = -negative * w_inner
    i_plus = total * w_inner + i_minus
    return _finish(i_plus, i_minus, nodes, inner_nodes, half_width, t0)


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
            entry.result = integrate_negativity(spec, params)
        except BellCatError as exc:
            entry.error = f"{type(exc).__name__}: {exc}"
        entries.append(entry)
    return entries
