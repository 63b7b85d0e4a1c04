"""The paper's Laguerre series for the thermal Wigner function: the reference formula.

The production evaluator (`bellcat.wigner`) uses the closed Gaussian form of
the same function.  This module keeps the paper's route, a closed-form series
over the six summation indices of the thermal density elements, so that tests
and `bellcat validate` can check the two against each other and against the
Fock-kernel oracle.  Nothing on the production path calls it.

The parity brackets split the sum into four sign branches (s, t), under which
it factorizes per mode; for each mode the thermal excitation sum is
contracted with the band coefficients *before* any phase-space point is
touched, leaving a dense (order, degree) x (degree, point) contraction
against an envelope-scaled Laguerre table.  The Gaussian envelope is absorbed
into the Laguerre recurrence; the thermal weights (n+n1)!/n1! q^n1 are not,
and overflow at a few kelvin for |alpha| >= 2, where the tail guard and the
finite-value check raise instead of returning NaN.

Convention note: the series' chi factors follow the kernel actually produced
by the Wigner transform, chi = x - i y when the ket index exceeds the bra
index (and the sign factor (-1)^{thermal + min(ket, bra)}).  Evaluating with
`chi_mode="printed"` instead reproduces the variant that equals the kernel
form at spatially reflected points (x_i -> -x_i); `chi_mode="always-plus"` is
a deliberately broken convention kept as a negative control: it destroys the
Hermitian pairing of the terms and trips the imaginary-residue guard.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .density import thermal_levels
from .errors import TruncationError
from .special_fn import laguerre_envelope_table, log_factorial_table
from .states import BellCatSpec
from .tfd import ThermalParams
from .wigner import CHI_BROKEN, CHI_KERNEL, CHI_PRINTED, ModeFactorization, _to_real, default_cat_cap

__all__ = [
    "HARD_THERMAL_CAP",
    "TruncationConfig",
    "default_thermal_cap",
    "series_factorize",
    "series_values",
]

HARD_THERMAL_CAP = 2000
_CHI_MODES = (CHI_KERNEL, CHI_PRINTED, CHI_BROKEN)


def default_thermal_cap(params: ThermalParams, epsilon: float) -> int:
    """Thermal index cap with geometric tail <= epsilon (`thermal_levels`), at least 1."""
    cap = max(1, thermal_levels(params, epsilon))
    if cap > HARD_THERMAL_CAP:
        raise TruncationError(
            f"thermal tail needs {cap} levels to reach {epsilon:g}, beyond the hard cap {HARD_THERMAL_CAP}"
        )
    return cap


@dataclass(frozen=True)
class TruncationConfig:
    """Per-index series cutoffs and tail tolerance.

    Caps left as None are resolved from the state and thermal parameters at
    evaluation time (cat_cap from the thermally amplified amplitude, thermal
    cap from the Gibbs tail at `epsilon`).
    """

    cat_cap: int | None = None
    thermal_cap: int | None = None
    epsilon: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1e-3):
            raise ValueError("epsilon must lie in (0, 1e-3]")
        for name in ("cat_cap", "thermal_cap"):
            cap = getattr(self, name)
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be >= 1")

    def resolve(self, spec: BellCatSpec, params: ThermalParams) -> "TruncationConfig":
        cat = self.cat_cap if self.cat_cap is not None else default_cat_cap(spec, params)
        thermal = self.thermal_cap if self.thermal_cap is not None else default_thermal_cap(params, self.epsilon)
        return TruncationConfig(cat_cap=cat, thermal_cap=thermal, epsilon=self.epsilon)


def _mode_h_tables(gamma: complex, q: float, one_minus_q: float, cat_cap: int, thermal_cap: int):
    """Point-independent contraction tables for one mode.

    Returns (h_ket, h_bra, ring_ket, ring_bra): h_ket[st, d, N] multiplies
    chi_ket^d L^d_N and h_bra the conjugate-direction powers; the ring tables
    are the same contraction restricted to the outermost coherent band
    (max(ket, bra) index == cat_cap), whose signed contribution serves as the
    truncation-tail estimate.
    """
    lf = log_factorial_table(cat_cap + thermal_cap)
    n = np.arange(cat_cap + 1)

    log_scale = math.log(abs(gamma)) + 0.5 * math.log(one_minus_q)
    log_mag = log_scale * (n[:, None] + n[None, :]) - lf[: cat_cap + 1][:, None] - lf[: cat_cap + 1][None, :]
    phi = cmath.phase(gamma)
    base = np.exp(log_mag) * np.exp(1j * phi * (n[:, None] - n[None, :]))

    # thermal weights (-1)^{j0+n1} q^{n1} (n1+j0)!/n1! laid out per j0
    n1 = np.arange(thermal_cap + 1)
    if q > 0.0:
        log_t = n1[None, :] * math.log(q) + lf[n[:, None] + n1[None, :]] - lf[n1][None, :]
        therm = np.exp(log_t)
    else:
        therm = np.zeros((cat_cap + 1, thermal_cap + 1))
        therm[:, 0] = np.exp(lf[: cat_cap + 1])
    therm *= np.where((n[:, None] + n1[None, :]) % 2 == 0, 1.0, -1.0)

    # shifted thermal matrix shift[j0, N] = therm[j0, N - j0]: band j0 starts at column j0
    nmax = cat_cap + thermal_cap
    shift = np.zeros((cat_cap + 1, nmax + 1))
    shift[n[:, None], n[:, None] + n1[None, :]] = therm

    sign = np.where(n % 2 == 0, 1.0, -1.0)
    signed = np.stack([base,
                       base * sign[None, :],
                       base * sign[:, None],
                       base * sign[:, None] * sign[None, :]])   # st = (0,0), (0,1), (1,0), (1,1)

    # band d of the ket table takes element (j0 + d, j0) of each branch, the bra table (j0, j0 + d);
    # d_ket[st, d, j0] and d_bra[st, d, j0] hold them, zero past the last band
    d, j0 = np.indices((cat_cap + 1, cat_cap + 1))
    inside = d + j0 <= cat_cap
    far = np.minimum(d + j0, cat_cap)
    d_ket = np.where(inside, signed[:, far, j0], 0.0)
    d_bra = np.where(inside & (d >= 1), signed[:, j0, far], 0.0)
    h_ket = d_ket @ shift
    h_bra = d_bra @ shift

    # the ring tables keep the outermost band's term, j0 = cat_cap - d, of each table
    j_ring = cat_cap - n
    ring_ket = signed[:, cat_cap, j_ring][:, :, None] * shift[j_ring][None, :, :]
    ring_bra = signed[:, j_ring, cat_cap][:, :, None] * shift[j_ring][None, :, :]
    ring_bra[:, 0] = 0.0
    return h_ket, h_bra, ring_ket, ring_bra


def _chi_bases(x: np.ndarray, y: np.ndarray, chi_mode: str) -> tuple[np.ndarray, np.ndarray]:
    root2 = math.sqrt(2.0)
    minus = root2 * (x - 1j * y)
    plus = root2 * (x + 1j * y)
    if chi_mode == CHI_KERNEL:
        return minus, plus
    if chi_mode == CHI_PRINTED:
        return -plus, -minus
    if chi_mode == CHI_BROKEN:
        return plus, plus
    raise ValueError(f"unknown chi_mode {chi_mode!r}; expected one of {_CHI_MODES}")


def _powers(base: np.ndarray, dmax: int) -> np.ndarray:
    out = np.empty((dmax + 1,) + base.shape, dtype=complex)
    out[0] = 1.0
    for d in range(1, dmax + 1):
        out[d] = out[d - 1] * base
    return out


def _mode_factors(gamma: complex, q: float, one_minus_q: float, trunc: TruncationConfig,
                  x: np.ndarray, y: np.ndarray, chi_mode: str):
    """Envelope-absorbed factor sums M[st, p] for one mode, plus the ring estimate.

    The ring estimate is the magnitude of the outermost coherent band's signed
    contribution, sampled on a strided subset of the points; it is the
    standard last-retained-term proxy for the series tail.
    """
    cat_cap, thermal_cap = trunc.cat_cap, trunc.thermal_cap
    h_ket, h_bra, ring_ket, ring_bra = _mode_h_tables(gamma, q, one_minus_q, cat_cap, thermal_cap)
    # one batched real GEMM per chunk: the re/im planes of both tables stack
    # into (D+1, 16, N+1) against the Laguerre block (D+1, N+1, p)
    def stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            np.concatenate([a.real, a.imag, b.real, b.imag], axis=0).transpose(1, 0, 2))

    stacked_main = stack(h_ket, h_bra)
    stacked_ring = stack(ring_ket, ring_bra)
    npts = x.size
    m = np.empty((4, npts), dtype=complex)
    ring_max = 0.0

    def unpack(flat: np.ndarray, base: int) -> np.ndarray:
        return (flat[:, base : base + 4] + 1j * flat[:, base + 4 : base + 8]).transpose(1, 0, 2)

    # chunk so the Laguerre table stays ~200 MB
    nmax = cat_cap + thermal_cap
    chunk = max(32, int(2.5e7 / ((cat_cap + 1) * (nmax + 1))))
    for lo in range(0, npts, chunk):
        sl = slice(lo, min(lo + chunk, npts))
        xs, ys = x[sl], y[sl]
        w = 2.0 * (xs * xs + ys * ys)
        lag = laguerre_envelope_table(nmax, cat_cap, w)      # (d, N, p), includes e^{-w/2}
        ket_base, bra_base = _chi_bases(xs, ys, chi_mode)
        pow_ket = _powers(ket_base, cat_cap)
        pow_bra = _powers(bra_base, cat_cap)
        flat = np.matmul(stacked_main, lag)                  # (D+1, 16, p)
        m[:, sl] = (np.einsum("sdp,dp->sp", unpack(flat, 0), pow_ket)
                    + np.einsum("sdp,dp->sp", unpack(flat, 8), pow_bra))
        # tail proxy on a strided subsample of the chunk
        sub = slice(0, xs.size, max(1, xs.size // 32))
        flat_ring = np.matmul(stacked_ring, lag[:, :, sub])
        ring = (np.einsum("sdp,dp->sp", unpack(flat_ring, 0), pow_ket[:, sub])
                + np.einsum("sdp,dp->sp", unpack(flat_ring, 8), pow_bra[:, sub]))
        ring_max = max(ring_max, float(np.max(np.abs(ring), initial=0.0)))
    return m, ring_max


def _prefactor(spec: BellCatSpec, params: ThermalParams) -> float:
    return (params.one_minus_exp1 * params.one_minus_exp2 * math.exp(-2.0 * abs(spec.alpha) ** 2)
            / (2.0 * math.pi**2 * spec.parity_overlap))


def series_factorize(spec: BellCatSpec, params: ThermalParams,
                     mode1_points: tuple[np.ndarray, np.ndarray],
                     mode2_points: tuple[np.ndarray, np.ndarray],
                     trunc: TruncationConfig | None = None,
                     chi_mode: str = CHI_KERNEL) -> ModeFactorization:
    """Per-mode factor tables of the thermal Wigner series, after the tail check.

    The tail check compares the outermost coherent band's contribution with
    the tolerance: a conservative overestimate of the mass the caps left
    out.  A bound above 100 epsilon, or one that is not a number because the
    thermal weights overflowed, raises TruncationError.
    """
    trunc = (trunc or TruncationConfig()).resolve(spec, params)
    x1, y1 = (np.asarray(v, dtype=float) for v in mode1_points)
    x2, y2 = (np.asarray(v, dtype=float) for v in mode2_points)
    m1, ring1 = _mode_factors(spec.alpha, params.exp1, params.one_minus_exp1, trunc, x1, y1, chi_mode)
    gamma2 = spec.k * spec.alpha
    m2, ring2 = _mode_factors(gamma2, params.exp2, params.one_minus_exp2, trunc, x2, y2, chi_mode)
    pref = _prefactor(spec, params)
    scale1 = float(np.max(np.sum(np.abs(m1), axis=0))) if m1.size else 0.0
    scale2 = float(np.max(np.sum(np.abs(m2), axis=0))) if m2.size else 0.0
    ring_bound = pref * (ring1 * scale2 + scale1 * ring2)
    if not ring_bound <= 100.0 * trunc.epsilon:
        raise TruncationError(
            f"outermost-band bound {ring_bound:.3e} exceeds the tail tolerance "
            f"{trunc.epsilon:g} (caps {trunc.cat_cap}/{trunc.thermal_cap})"
        )
    return ModeFactorization(prefactor=pref, sigma=spec.sigma, m1=m1, m2=m2)


def series_values(spec: BellCatSpec, params: ThermalParams,
                  x1, y1, x2, y2,
                  trunc: TruncationConfig | None = None,
                  chi_mode: str = CHI_KERNEL) -> np.ndarray:
    """The series' thermal Wigner function at paired coordinate arrays."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (x1, y1, x2, y2)]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("coordinate arrays must share one shape")
    fac = series_factorize(spec, params, (arrays[0], arrays[1]), (arrays[2], arrays[3]),
                           trunc=trunc, chi_mode=chi_mode)
    values, _ = _to_real(fac.combine_paired(), "series_values")
    return values
