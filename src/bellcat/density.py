"""Thermal density operator of the Bell-Cat states over a truncated two-mode Fock basis.

Two independent constructions of the same operator are provided and
cross-validated in the test suite and by `bellcat validate`:

* :func:`build_density_operator` -- operator route.  The dressing operator

      f = N e^{-|alpha|^2} sum_{n,m} alpha^{n+m} k^m [1 + sigma (-1)^{n+m}]
          (a1^dag)^n (a2^dag)^m / (n! m! u1^n u2^m)

  splits over the two parity branches into products of per-mode creation
  exponentials, f = C [E(g1) x E(g2) + sigma E(-g1) x E(-g2)] with
  E(g) = e^{g a^dag}, and the Gibbs matrix rho_beta is a product of per-mode
  diagonals, so f rho_beta f^dag is a sum of four Kronecker products of the
  per-mode blocks E(+-g) rho_beta E(+-g)^dag (:func:`mode_thermal_blocks`).

* :func:`build_density_matrix` -- direct route.  Each element is the finite
  sum over shared thermal excitations (n1, n2) of the explicit coefficient
  formula, assembled from log-factorials.

Both are formed one mode-1 row at a time by a row kernel per route
(:func:`_operator_row`, :func:`_direct_row`), with each element rounded as
in the whole-matrix expression sum(w * np.kron(A, B)).  A row is laid out
with the even-parity indices first (:func:`_parity_order`), so the operator
route forms only its (+,+) and (+,-) products, on the half of the row that
the parity selection rule allows, and writes exact zeros on the other half.
:func:`route_gap` compares the two routes element by element through the
same kernels, without forming either matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError, TruncationError
from .special_fn import log_factorial_table
from .states import BellCatSpec, bellcat_normalization
from .tfd import ThermalParams, gibbs_weight

__all__ = [
    "TruncatedDensity",
    "build_density_operator",
    "build_density_matrix",
    "route_gap",
    "mode_thermal_blocks",
    "thermal_levels",
]

TRACE_DEFICIT_LIMIT = 0.01
HARD_THERMAL_CAP = 2000


@dataclass(frozen=True)
class TruncatedDensity:
    """Hermitian density matrix on the (cutoff+1)^2-dimensional truncated space.

    Rows/columns are flattened two-mode indices N1*(cutoff+1) + N2.  The trace
    deficit 1 - tr(rho) reports the thermal/coherent mass lost to truncation.
    """

    cutoff: int
    matrix: np.ndarray = field(repr=False)
    trace_deficit: float

    def __post_init__(self):
        self.matrix.flags.writeable = False


def thermal_levels(params: ThermalParams, epsilon: float) -> int:
    """Levels needed before the per-mode Gibbs tail drops below `epsilon`.

    The geometric tail above level N is e^{-(N+1) beta hbar omega}/(1 - q), so
    N = ceil(ln(1/(epsilon (1-q)))/(beta hbar omega)) guarantees tail <= epsilon.
    Past `HARD_THERMAL_CAP` levels, or where q rounds to 1, raises TruncationError:
    both reference routes hold tables of that many levels.
    """
    if params.is_zero_temperature:
        return 0
    levels = 0
    for mode in (1, 2):
        q = params.exp_factor(mode)
        if q == 0.0:
            continue  # Gibbs factor underflowed: the mode is effectively frozen
        rate = -math.log(q)
        need = math.ceil(math.log(1.0 / (epsilon * params.one_minus_exp_factor(mode))) / rate) if rate else math.inf
        if need > HARD_THERMAL_CAP:
            raise TruncationError(f"thermal tail needs {need} levels to reach {epsilon:g}, "
                                  f"beyond the hard cap {HARD_THERMAL_CAP}")
        levels = max(levels, need)
    return levels


def _exp_creation(coefficient: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(+-coefficient * a^dag) on the truncated space, with a^dag |n> = sqrt(n+1) |n+1>.

    The shift matrix is nilpotent, so the exponential series terminates and
    is exact: entry (i, j) is g^{i-j} sqrt(i!/j!) / (i-j)! for i >= j, filled
    from log-factorials.  E(-g) is E(g) with the sign (-1)^{i-j}, bit for bit,
    so the parity images of the operator build cancel exactly.
    """
    i, j = np.indices((cutoff + 1, cutoff + 1))
    k = np.maximum(i - j, 0)
    lf = log_factorial_table(cutoff)
    log_mag = k * math.log(abs(coefficient)) + 0.5 * (lf[i] - lf[j]) - lf[k]
    plus = np.where(i >= j, np.exp(log_mag + 1j * cmath.phase(coefficient) * k), 0.0)
    return plus, np.where(k % 2 == 0, plus, -plus)


def _parity_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The builders' row layout: mode-1 columns j and flattened mode-2 indices k*n + l, even ones first.

    j_order lists the (n + 1) // 2 even j before the odd ones, and kl_order
    the (n*n + 1) // 2 indices k*n + l with k + l even before the others.  In
    a row laid out as [j_order, kl_order], the elements of mode-1 row i with
    i + j + k + l even fill two rectangles, (j = i mod 2, k + l even) and
    (j != i mod 2, k + l odd), and the odd ones fill the other two.
    """
    kl = np.arange(n * n)
    kl_even = (kl // n + kl % n) % 2 == 0
    return np.r_[0:n:2, 1:n:2], np.concatenate([kl[kl_even], kl[~kl_even]])


def _operator_row(terms, i: int, row: np.ndarray, scratch: np.ndarray) -> None:
    """Operator-route mode-1 row i in the parity layout (:func:`_parity_order`), from two of its four terms.

    `terms` holds the (+,+) and (+,-) terms (w, A[:, j_order], B.flat[kl_order]).
    The (-,-) and (-,+) terms are their parity images bit for bit: the same
    weight, and blocks equal to (-1)^(i+j) times these.  So the sum in the
    order ((t++ + t--) + t+-) + t-+ is (2 t++ + t+-) + t+- on the elements
    with i + j + k + l even and exactly 0 on the odd ones; each t is
    w * (A[i, j] * B[k, l]), rounded as in sum(w * np.kron(A, B)).
    `scratch` is a flat buffer of (n + 1) n^2 elements.
    """
    (w0, a0, b0), (w1, a1, b1) = terms
    n = row.shape[0]
    first, second = slice(0, (n + 1) // 2), slice((n + 1) // 2, n)
    same, other = (first, second) if i % 2 == 0 else (second, first)
    even, odd = slice(0, (n * n + 1) // 2), slice((n * n + 1) // 2, n * n)
    row[same, odd] = 0.0
    row[other, even] = 0.0
    # each rectangle is summed in two contiguous pieces of `scratch`, where the
    # elementwise passes run about twice as fast as on the strided view
    for rows, cols in ((same, even), (other, odd)):
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        size = shape[0] * shape[1]
        total, term = scratch[:size].reshape(shape), scratch[size:2 * size].reshape(shape)
        np.multiply(a0[i, rows][:, None], b0[None, cols], out=total)
        total *= w0
        total += total
        np.multiply(a1[i, rows][:, None], b1[None, cols], out=term)
        term *= w1
        total += term
        total += term
        row[rows, cols] = total


def _direct_row(terms, i: int, row: np.ndarray, scratch: np.ndarray) -> None:
    """Direct-route mode-1 row i in the parity layout: A[i, j] * B[k, l] summed over the terms in order.

    `terms` holds (A[:, j_order], B.flat[kl_order]) pairs whose +-1 branch
    weight is already in A, which is exact, so each product equals
    w * (A[i, j] * B[k, l]) of the whole-matrix expression.  `scratch` is a
    flat buffer of at least n^3 elements.
    """
    scratch = scratch[:row.size].reshape(row.shape)
    for index, (a, b) in enumerate(terms):
        dest = row if index == 0 else scratch
        np.multiply(a[i][:, None], b[None, :], out=dest)
        if index:
            row += scratch


def _kron_sum(row_kernel, terms, n: int) -> np.ndarray:
    """The (n*n, n*n) matrix of a row kernel, one mode-1 row i at a time.

    Each row is formed in the parity layout and gathered into a (n, n, n, n)
    buffer indexed [i, k, j, l], element (i*n + k, j*n + l) of the matrix.
    """
    j_pos, kl_pos = map(np.argsort, _parity_order(n))
    # element (i*n + k, j*n + l) sits at row[j_pos[j], kl_pos[k*n + l]] of row i
    gather = j_pos[None, :, None] * (n * n) + kl_pos.reshape(n, 1, n)
    out = np.empty((n, n, n, n), dtype=complex)
    row, scratch = np.empty((n, n * n), dtype=complex), np.empty((n + 1) * n * n, dtype=complex)
    for i in range(n):
        row_kernel(terms, i, row, scratch)
        np.take(row, gather, out=out[i])
    return out.reshape(n * n, n * n)


def _trace_deficit(trace: complex, cutoff: int, enforce_trace_limit: bool) -> float:
    deficit = 1.0 - float(np.real(trace))
    if enforce_trace_limit and deficit > TRACE_DEFICIT_LIMIT:
        raise CutoffError(
            f"trace deficit {deficit:.3e} exceeds {TRACE_DEFICIT_LIMIT}; "
            f"cutoff {cutoff} is too small for these parameters"
        )
    return deficit


def _finish(matrix: np.ndarray, cutoff: int, enforce_trace_limit: bool) -> TruncatedDensity:
    return TruncatedDensity(cutoff=cutoff, matrix=matrix,
                            trace_deficit=_trace_deficit(np.trace(matrix), cutoff, enforce_trace_limit))


def build_density_operator(spec: BellCatSpec, params: ThermalParams, cutoff: int,
                           enforce_trace_limit: bool = True) -> TruncatedDensity:
    """Operator-route density matrix f rho_beta f^dag, as the sum of its four mode-block products.

    Each branch is added right after its parity image, (+,+) with (-,-) and
    (+,-) with (-,+): the two agree bit for bit up to the sign (-1)^(N - Nbar)
    of the total excitation difference, so the elements the parity selection
    rule forbids cancel to exact zeros (:func:`_operator_row` writes them as
    such and forms the images' sums from the (+,+) and (+,-) products).

    `enforce_trace_limit=False` skips the 1% trace-deficit gate; the two build
    routes stay entrywise exact at any cutoff, so formula cross-checks may
    run on deliberately small spaces.
    """
    return _finish(_kron_sum(_operator_row, _operator_terms(spec, params, cutoff), cutoff + 1),
                   cutoff, enforce_trace_limit)


def _operator_terms(spec: BellCatSpec, params: ThermalParams, cutoff: int) -> list:
    """The (+,+) and (+,-) Kronecker terms (w, A, B) of the operator route, in the parity layout."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    weights, blocks1, blocks2 = mode_thermal_blocks(spec, params, cutoff)
    j_order, kl_order = _parity_order(cutoff + 1)
    return [(weights[0, t], np.take(blocks1[0][t], j_order, axis=1), blocks2[0][t].ravel()[kl_order])
            for t in (0, 1)]


def _direct_mode_factor(gamma: complex, q: float, one_minus_q: float, sign_ket: int,
                        sign_bra: int, cutoff: int) -> np.ndarray:
    """Mode factor R[N, Nbar] of the direct element formula for one parity branch.

    R[N, Nbar] = sum_{n1 <= min(N, Nbar)} q^n1 / n1! * g_ket^{N-n1}
                 conj(g_bra)^{Nbar-n1} (1-q)^{(N+Nbar-2 n1)/2}
                 sqrt(N! Nbar!) / ((N-n1)! (Nbar-n1)!)

    assembled in log-magnitude + phase form as R = U_ket diag(w) U_bra^dag.
    """
    lf = log_factorial_table(cutoff)
    n_idx = np.arange(cutoff + 1)
    excess = n_idx[:, None] - n_idx[None, :]                  # N - n1
    mag = abs(gamma)
    log_scale = math.log(mag) + 0.5 * math.log(one_minus_q) if mag > 0 else -math.inf
    with np.errstate(invalid="ignore"):
        log_u = np.where(excess >= 0,
                         excess * log_scale - lf[np.maximum(excess, 0)] + 0.5 * lf[:, None],
                         -math.inf)
    u_base = np.exp(log_u)
    phase = cmath.phase(gamma)

    def branch(sign: int) -> np.ndarray:
        ang = phase if sign > 0 else phase + math.pi
        return u_base * np.exp(1j * ang * np.maximum(excess, 0))

    if q > 0.0:
        w = np.exp(n_idx * math.log(q) - lf)
    else:
        w = np.zeros(cutoff + 1)
        w[0] = 1.0
    u_ket = branch(sign_ket)
    u_bra = branch(sign_bra)
    return (u_ket * w[None, :]) @ u_bra.conj().T


def build_density_matrix(spec: BellCatSpec, params: ThermalParams, cutoff: int,
                         enforce_trace_limit: bool = True) -> TruncatedDensity:
    """Direct-route density matrix from the explicit element formula.

    The parity brackets are expanded over their four sign branches; each branch
    factorizes into per-mode matrices that are assembled in log space and
    combined as Kronecker products.  For a fixed matrix element all index sums
    are finite, so the result is exact at any cutoff.
    """
    terms, pref = _direct_terms(spec, params, cutoff)
    rho = _kron_sum(_direct_row, terms, cutoff + 1)
    rho *= pref
    return _finish(rho, cutoff, enforce_trace_limit)


def _direct_terms(spec: BellCatSpec, params: ThermalParams, cutoff: int) -> tuple[list, float]:
    """(w R1, R2) Kronecker terms of the direct route in the parity layout, one per sign branch, and the prefactor."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    a2 = abs(spec.alpha) ** 2
    q1, q2 = params.exp1, params.exp2
    om1, om2 = params.one_minus_exp1, params.one_minus_exp2
    pref = math.exp(-2.0 * a2) * om1 * om2 / (2.0 * spec.parity_overlap)

    g1, g2 = spec.alpha, spec.k * spec.alpha
    j_order, kl_order = _parity_order(cutoff + 1)
    terms = []
    for s in (0, 1):
        for t in (0, 1):
            # u_i^{-(n+nbar)} in the printed formula equals (1-q_i)^{(n+nbar)/2}
            r1 = np.take(_direct_mode_factor(g1, q1, om1, 1 - 2 * s, 1 - 2 * t, cutoff), j_order, axis=1)
            r2 = _direct_mode_factor(g2, q2, om2, 1 - 2 * s, 1 - 2 * t, cutoff).ravel()[kl_order]
            terms.append((r1 if spec.sigma ** (s + t) > 0 else -r1, r2))
    return terms, pref


def route_gap(spec: BellCatSpec, params: ThermalParams, cutoff: int,
              enforce_trace_limit: bool = True) -> float:
    """max |operator route - direct route| over all elements, without forming either matrix.

    Both routes are streamed one mode-1 row at a time through the builders'
    row kernels (:func:`_operator_row`, :func:`_direct_row`), so every
    element, each trace and hence the result equal those of the two built
    matrices bit for bit; only two rows are held at once.  With
    `enforce_trace_limit` the trace-deficit gate raises `CutoffError` exactly
    where :func:`build_density_operator` or :func:`build_density_matrix` would.
    """
    op_terms = _operator_terms(spec, params, cutoff)
    di_terms, pref = _direct_terms(spec, params, cutoff)
    n = cutoff + 1
    op_row, di_row = np.empty((n, n * n), dtype=complex), np.empty((n, n * n), dtype=complex)
    scratch = np.empty((n + 1) * n * n, dtype=complex)
    magnitude = np.empty((n, n * n))
    op_diag, di_diag = np.empty((n, n), dtype=complex), np.empty((n, n), dtype=complex)
    row_max = np.empty(n)
    # diagonal element i*n + k of the whole matrix sits at [j_pos[i], diagonal[k]] of row i
    j_pos, kl_pos = map(np.argsort, _parity_order(n))
    diagonal = kl_pos[np.arange(n) * (n + 1)]
    for i in range(n):
        _operator_row(op_terms, i, op_row, scratch)
        _direct_row(di_terms, i, di_row, scratch)
        di_row *= pref
        op_diag[i] = op_row[j_pos[i], diagonal]
        di_diag[i] = di_row[j_pos[i], diagonal]
        np.subtract(op_row, di_row, out=op_row)
        np.abs(op_row, out=magnitude)
        row_max[i] = magnitude.max()
    _trace_deficit(op_diag.sum(), cutoff, enforce_trace_limit)
    _trace_deficit(di_diag.sum(), cutoff, enforce_trace_limit)
    return float(row_max.max())


def mode_thermal_blocks(spec: BellCatSpec, params: ThermalParams, cutoff: int):
    """Per-mode factor matrices of the density operator, for mode-factorized contractions.

    Returns (weights, blocks1, blocks2) with rho = sum_{s,t} weights[s,t] *
    kron(blocks1[s][t], blocks2[s][t]) and the blocks of the operator route,
    B_i(s,t) = E((-1)^s g_i) rho_beta,i E((-1)^t g_i)^dag.
    """
    g1, g2 = spec.alpha / params.u1, spec.k * spec.alpha / params.u2   # displacements of the dressing
    c = bellcat_normalization(spec.alpha, spec.sigma) * math.exp(-abs(spec.alpha) ** 2)
    w1 = np.array([gibbs_weight(params, 1, n) for n in range(cutoff + 1)])
    w2 = np.array([gibbs_weight(params, 2, n) for n in range(cutoff + 1)])
    e1 = _exp_creation(g1, cutoff)
    e2 = _exp_creation(g2, cutoff)
    weights = np.empty((2, 2))
    blocks1 = [[None, None], [None, None]]
    blocks2 = [[None, None], [None, None]]
    for s in (0, 1):
        for t in (0, 1):
            weights[s, t] = c * c * spec.sigma ** (s + t)
            blocks1[s][t] = (e1[s] * w1[None, :]) @ e1[t].conj().T
            blocks2[s][t] = (e2[s] * w2[None, :]) @ e2[t].conj().T
    return weights, blocks1, blocks2
