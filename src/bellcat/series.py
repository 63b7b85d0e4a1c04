"""The paper's Laguerre series for the thermal Wigner function: the reference formula.

The production evaluator (`bellcat.wigner`) uses the closed Gaussian form of
the same function.  This module keeps the paper's route, a closed-form series
over the six summation indices of the thermal density elements, so that tests
and `bellcat validate` can check the two against each other and against the
Fock-kernel oracle (`bellcat.oracle`).  Nothing on the production path calls
it.  The coherent cap policy `default_cat_cap` and the imaginary-residue
guard `_to_real` live here and serve the oracle too, which imports them.

The parity brackets split the sum into four sign branches (s, t), under which
it factorizes per mode; for each mode the thermal excitation sum is
contracted with the band coefficients *before* any phase-space point is
touched, leaving a dense (order, degree) x (degree, point) contraction
against an envelope-scaled Laguerre table.  The Gaussian envelope is absorbed
into the Laguerre recurrence.  The thermal weights (n+n1)!/n1! q^n1 of each
band are divided by their largest, which the band's coherent factors carry in
log space, so no thermal weight exceeds 1 at any temperature.

`series_values_many` evaluates a list of states that share one alpha at one
point set: it resolves the caps once, builds each mode's contraction tables
once at +alpha and its Laguerre table and chi powers once, and gives a
k = -1 state mode 2's factor sums with their branches relabelled (the
identity in `bellcat.density`).  `series_values` is its one-state call.  The caps are
two keyword arguments; left as None, they are resolved from |alpha| and the
thermal tail at `TAIL_EPSILON`.  `convention_diagnostics` evaluates the
chi-convention variants below for `bellcat validate` from one such set of
tables: the Laguerre table does not change under x -> -x, so only the
chi-power contraction runs once per variant.

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

import numpy as np

from .density import HARD_THERMAL_CAP, per_mode, shared_alpha, thermal_levels
from .errors import CutoffError, ImaginaryResidueError, NonFiniteError, TruncationError
from .special_fn import laguerre_envelope_table, log_factorial_table
from .states import BellCatSpec, checked_cutoff
from .tfd import ThermalMode, ThermalParams, effective_amplitude

__all__ = [
    "CHI_KERNEL",
    "CHI_PRINTED",
    "CHI_BROKEN",
    "TAIL_EPSILON",
    "default_cat_cap",
    "default_thermal_cap",
    "series_values",
    "series_values_many",
    "convention_diagnostics",
]

CHI_KERNEL = "kernel"
CHI_PRINTED = "printed"
CHI_BROKEN = "always-plus"
_CHI_MODES = (CHI_KERNEL, CHI_PRINTED, CHI_BROKEN)

IMAG_RESIDUE_TOL = 1e-9
# tail tolerance of the thermal cap; the tail check admits up to 100 times this
TAIL_EPSILON = 1e-10


def default_cat_cap(spec: BellCatSpec, params: ThermalParams) -> int:
    """Fock reach of the coherent branches: ceil(a^2 + 8a + 10) at a = |alpha| u.

    The series caps its four coherent-branch indices here, and the oracle
    sizes its Fock cutoff from it.  The cap passes `checked_cutoff` first.
    """
    a = effective_amplitude(spec, params)
    return checked_cutoff(a * a + 8.0 * a + 10.0, "coherent-branch cap")


def default_thermal_cap(params: ThermalParams) -> int:
    """Thermal index cap with geometric tail <= `TAIL_EPSILON`, at least 1; `thermal_levels` enforces the hard cap."""
    return max(1, thermal_levels(params, TAIL_EPSILON))


def _to_real(values: np.ndarray, context: str) -> np.ndarray:
    """Real part of a complex term sum, after the finite check and the imaginary-residue guard."""
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
    return np.ascontiguousarray(values.real)


def _mode_h_tables(gamma: complex, mode: ThermalMode, cat_cap: int, thermal_cap: int):
    """Point-independent contraction tables for one mode with amplitude gamma.

    Returns (h_ket, h_bra, ring_ket, ring_bra): h_ket[st, d, N] multiplies
    chi_ket^d L^d_N and h_bra the conjugate-direction powers; the ring tables
    are the same contraction restricted to the outermost coherent band
    (max(ket, bra) index == cat_cap), whose signed contribution serves as the
    truncation-tail estimate.
    """
    q, one_minus_q = mode.q, mode.one_minus_q
    lf = log_factorial_table(cat_cap + thermal_cap)
    n = np.arange(cat_cap + 1)

    # thermal weights (-1)^{j0+n1} q^{n1} (n1+j0)!/n1! laid out per j0, each row divided by its
    # largest, e^{peak[j0]}; at q = 0 only the n1 = 0 term is left
    n1 = np.arange(thermal_cap + 1)
    log_q = math.log(q) if q > 0.0 else -math.inf
    log_power = np.concatenate(([0.0], n1[1:] * log_q))
    log_t = log_power[None, :] + lf[n[:, None] + n1[None, :]] - lf[n1][None, :]
    peak = log_t.max(axis=1)
    therm = np.exp(log_t - peak[:, None])
    therm *= np.where((n[:, None] + n1[None, :]) % 2 == 0, 1.0, -1.0)

    # coherent factors of element (ket, bra); every product below pairs one with the thermal row
    # j0 = min(ket, bra), so that row's e^{peak[j0]} moves into the element
    log_scale = math.log(abs(gamma)) + 0.5 * math.log(one_minus_q)
    log_mag = log_scale * (n[:, None] + n[None, :]) - lf[: cat_cap + 1][:, None] - lf[: cat_cap + 1][None, :]
    phi = cmath.phase(gamma)
    base = np.exp(log_mag + peak[np.minimum.outer(n, n)]) * np.exp(1j * phi * (n[:, None] - n[None, :]))

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


def _coordinate_arrays(x1, y1, x2, y2) -> list[np.ndarray]:
    """The four coordinates as float arrays of at least one dimension; they must share one shape."""
    arrays = [np.atleast_1d(np.asarray(v, dtype=float)) for v in (x1, y1, x2, y2)]
    if len({a.shape for a in arrays}) != 1:
        raise ValueError("coordinate arrays must share one shape")
    return arrays


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


def _stacked_tables(gamma: complex, mode: ThermalMode, cat_cap: int, thermal_cap: int):
    """`_mode_h_tables` laid out for one batched real GEMM each: the main and the ring stack.

    The re/im planes of the ket and bra tables stack into (D+1, 16, N+1),
    against the Laguerre block (D+1, N+1, p).
    """
    def stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            np.concatenate([a.real, a.imag, b.real, b.imag], axis=0).transpose(1, 0, 2))

    h_ket, h_bra, ring_ket, ring_bra = _mode_h_tables(gamma, mode, cat_cap, thermal_cap)
    return stack(h_ket, h_bra), stack(ring_ket, ring_bra)


def _mode_factors(tables: tuple, cat_cap: int, thermal_cap: int, x: np.ndarray, y: np.ndarray, variants: list):
    """[factor sums M[st, p], ring estimate] of one mode's `_stacked_tables` per variant (chi_mode, sign, count).

    A variant contracts the chi powers of `chi_mode` at (sign x, y) on the
    first `count` points with the Laguerre GEMMs, which all variants share.
    The ring estimate is the magnitude of the outermost coherent band's
    signed contribution, sampled on a strided subset of the points; it is the
    standard last-retained-term proxy for the series tail.
    """
    stacked_main, stacked_ring = tables
    npts = x.size
    out = [[np.empty((4, min(count, npts)), dtype=complex), 0.0] for _, _, count in variants]

    def contract(flat: np.ndarray, pow_ket: np.ndarray, pow_bra: np.ndarray) -> np.ndarray:
        ket, bra = ((flat[:, b : b + 4] + 1j * flat[:, b + 4 : b + 8]).transpose(1, 0, 2) for b in (0, 8))
        return np.einsum("sdp,dp->sp", ket, pow_ket) + np.einsum("sdp,dp->sp", bra, pow_bra)

    # chunk so the Laguerre table stays ~200 MB
    nmax = cat_cap + thermal_cap
    chunk = max(32, int(2.5e7 / ((cat_cap + 1) * (nmax + 1))))
    for lo in range(0, npts, chunk):
        hi = min(lo + chunk, npts)
        xs, ys = x[lo:hi], y[lo:hi]
        w = 2.0 * (xs * xs + ys * ys)
        try:
            with np.errstate(over="raise"):
                # (d, N, p) view of a degree-major buffer, includes e^{-w/2}; matmul reads it in place
                lag = laguerre_envelope_table(nmax, cat_cap, w)
        except FloatingPointError:
            raise TruncationError(f"the Laguerre table overflows the float range at degree {nmax} "
                                  f"(caps {cat_cap}/{thermal_cap})") from None
        flat = np.matmul(stacked_main, lag)                      # (D+1, 16, p)
        flat_ring = {}                                           # ring GEMM per variant chunk length
        for i, (chi_mode, sign, count) in enumerate(variants):
            k = min(hi, count) - lo
            if k <= 0:
                continue
            pow_ket, pow_bra = (_powers(base, cat_cap) for base in _chi_bases(sign * xs[:k], ys[:k], chi_mode))
            out[i][0][:, lo : lo + k] = contract(flat[:, :, :k], pow_ket, pow_bra)
            # tail proxy on a strided subsample of the variant's points in the chunk
            sub = slice(0, k, max(1, k // 32))
            if k not in flat_ring:
                flat_ring[k] = np.matmul(stacked_ring, lag[:, :, sub])
            ring = contract(flat_ring[k], pow_ket[:, sub], pow_bra[:, sub])
            out[i][1] = max(out[i][1], float(np.max(np.abs(ring), initial=0.0)))
    return out


def _prefactor(spec: BellCatSpec, params: ThermalParams) -> float:
    mode1, mode2 = params.modes
    return (mode1.one_minus_q * mode2.one_minus_q * math.exp(-2.0 * abs(spec.alpha) ** 2)
            / (2.0 * math.pi**2 * spec.parity_overlap))


def _series(specs: list[BellCatSpec], params: ThermalParams, arrays: list[np.ndarray],
            cat_cap: int | None, thermal_cap: int | None, variants: list):
    """Yield each variant's values of the states (see `_mode_factors`), from one set of tables."""
    alpha = shared_alpha(specs)
    # the thermal cap first: past both hard caps, its error is the one raised
    thermal = (checked_cutoff(thermal_cap, "thermal cap", HARD_THERMAL_CAP) if thermal_cap is not None
               else default_thermal_cap(params))
    cat = checked_cutoff(cat_cap, "coherent-branch cap") if cat_cap is not None else default_cat_cap(specs[0], params)
    tables = per_mode(lambda mode: _stacked_tables(alpha, mode, cat, thermal), params)
    for (m1, ring1), (m2, ring2) in zip(*(_mode_factors(table, cat, thermal, x, y, variants)
                                          for table, (x, y) in zip(tables, (arrays[:2], arrays[2:])))):
        scale1, scale2 = (float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0 for m in (m1, m2))
        values = []
        for spec in specs:
            pref = _prefactor(spec, params)
            ring_bound = pref * (ring1 * scale2 + scale1 * ring2)
            if not ring_bound <= 100.0 * TAIL_EPSILON:
                raise TruncationError(
                    f"outermost-band bound {ring_bound:.3e} exceeds the tail tolerance "
                    f"{TAIL_EPSILON:g} (caps {cat}/{thermal})"
                )
            # branch order st = (+,+), (+,-), (-,+), (-,-); the mixed ones carry sigma.  At k = -1,
            # mode 2's amplitude is -alpha, whose branch st is branch 3 - st at +alpha
            n2 = m2 if spec.k > 0 else m2[::-1]
            paired = pref * (m1[0] * n2[0] + m1[3] * n2[3] + spec.sigma * (m1[1] * n2[1] + m1[2] * n2[2]))
            values.append(_to_real(paired, "series_values"))
        yield values


def series_values_many(specs: list[BellCatSpec], params: ThermalParams,
                       x1, y1, x2, y2,
                       cat_cap: int | None = None, thermal_cap: int | None = None,
                       chi_mode: str = CHI_KERNEL) -> list[np.ndarray]:
    """The series' thermal Wigner function of each state at paired coordinate arrays the states share.

    The states share one alpha (`bellcat.density.shared_alpha`); an empty
    list gives [].  A cap left as None is resolved once: `default_cat_cap`
    and `default_thermal_cap`.  A cap below 1 raises CutoffError, a
    ValueError; an explicit cap passes `checked_cutoff`, the thermal one
    against `HARD_THERMAL_CAP`, before any table is built.  The per-mode
    factor tables pass a tail check first: the outermost coherent band's
    contribution, a conservative overestimate of the mass the caps left out,
    against `TAIL_EPSILON`.  A bound above 100 `TAIL_EPSILON`, or one that is
    not a number, raises TruncationError, as does a Laguerre table past the
    float range.  The four branch products are then summed as complex
    numbers, and the imaginary-residue guard checks that they pair up.
    """
    for name, cap in (("cat_cap", cat_cap), ("thermal_cap", thermal_cap)):
        if cap is not None and cap < 1:
            raise CutoffError(f"{name} must be >= 1")
    arrays = _coordinate_arrays(x1, y1, x2, y2)
    if not specs:
        return []
    return next(_series(specs, params, arrays, cat_cap, thermal_cap, [(chi_mode, 1.0, arrays[0].size)]))


def series_values(spec: BellCatSpec, params: ThermalParams,
                  x1, y1, x2, y2,
                  cat_cap: int | None = None, thermal_cap: int | None = None,
                  chi_mode: str = CHI_KERNEL) -> np.ndarray:
    """:func:`series_values_many` of one state."""
    return series_values_many([spec], params, x1, y1, x2, y2, cat_cap, thermal_cap, chi_mode)[0]


def convention_diagnostics(spec: BellCatSpec, params: ThermalParams, x1, y1, x2, y2):
    """`bellcat validate`'s chi-convention diagnostics of one state, from one set of tables.

    (printed, reflected, broken): `series_values` with `CHI_PRINTED`, `series_values` at (-x1, y1, -x2, y2),
    and the ImaginaryResidueError `CHI_BROKEN` raises on the first ten points, or None.
    """
    arrays = _coordinate_arrays(x1, y1, x2, y2)
    values = _series([spec], params, arrays, None, None,
                     [(CHI_PRINTED, 1.0, arrays[0].size), (CHI_KERNEL, -1.0, arrays[0].size), (CHI_BROKEN, 1.0, 10)])
    (printed,), (reflected,) = next(values), next(values)
    try:
        next(values)
    except ImaginaryResidueError as exc:
        return printed, reflected, exc
    return printed, reflected, None
