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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError
from .special_fn import log_factorial_table
from .states import BellCatSpec, bellcat_normalization
from .tfd import ThermalParams, gibbs_weight

__all__ = [
    "TruncatedDensity",
    "build_density_operator",
    "build_density_matrix",
    "mode_thermal_blocks",
    "effective_amplitude",
    "thermal_levels",
]

TRACE_DEFICIT_LIMIT = 0.01


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


def effective_amplitude(spec: BellCatSpec, params: ThermalParams) -> float:
    """Thermally amplified coherent amplitude |alpha| max(u1, u2).

    The dressing construction displaces the Gibbs state by alpha u(beta), not
    alpha: the mean field of the thermal Bell-Cat grows as the temperature
    rises, and every cap/box policy must follow it.
    """
    return abs(spec.alpha) * max(params.u1, params.u2)


def thermal_levels(params: ThermalParams, epsilon: float) -> int:
    """Levels needed before the per-mode Gibbs tail drops below `epsilon`.

    The geometric tail above level N is e^{-(N+1) beta hbar omega}/(1 - q), so
    N = ceil(ln(1/(epsilon (1-q)))/(beta hbar omega)) guarantees tail <= epsilon.
    """
    if params.is_zero_temperature:
        return 0
    levels = 0
    for mode in (1, 2):
        q = params.exp_factor(mode)
        if q == 0.0:
            continue  # Gibbs factor underflowed: the mode is effectively frozen
        need = math.ceil(math.log(1.0 / (epsilon * params.one_minus_exp_factor(mode))) / -math.log(q))
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


def _kron_sum(terms) -> np.ndarray:
    """sum_k w_k * kron(A_k, B_k) over (w_k, A_k, B_k) terms of (n, n) blocks, in term order.

    Written one mode-1 row i at a time into a (n, n, n, n) buffer indexed
    [i, k, j, l] (row i*n + k, column j*n + l), so each row's products and
    sums stay in cache.  Every element is rounded as in the whole-matrix
    expression: w_k * (A_k[i, j] * B_k[k, l]), added in term order.
    """
    n = terms[0][1].shape[0]
    out = np.empty((n, n, n, n), dtype=complex)
    term = np.empty((n, n, n), dtype=complex)
    for i in range(n):
        row = out[i]
        for index, (w, a, b) in enumerate(terms):
            dest = row if index == 0 else term
            np.multiply(a[i][None, :, None], b[:, None, :], out=dest)
            dest *= w
            if index:
                row += term
    return out.reshape(n * n, n * n)


def _finish(matrix: np.ndarray, cutoff: int, enforce_trace_limit: bool) -> TruncatedDensity:
    trace = float(np.real(np.trace(matrix)))
    deficit = 1.0 - trace
    if enforce_trace_limit and deficit > TRACE_DEFICIT_LIMIT:
        raise CutoffError(
            f"trace deficit {deficit:.3e} exceeds {TRACE_DEFICIT_LIMIT}; "
            f"cutoff {cutoff} is too small for these parameters"
        )
    return TruncatedDensity(cutoff=cutoff, matrix=matrix, trace_deficit=deficit)


def build_density_operator(spec: BellCatSpec, params: ThermalParams, cutoff: int,
                           enforce_trace_limit: bool = True) -> TruncatedDensity:
    """Operator-route density matrix f rho_beta f^dag, as the sum of its four mode-block products.

    Each branch is added right after its parity image, (+,+) with (-,-) and
    (+,-) with (-,+): the two agree bit for bit up to the sign (-1)^(N - Nbar)
    of the total excitation difference, so the elements the parity selection
    rule forbids cancel to exact zeros.

    `enforce_trace_limit=False` skips the 1% trace-deficit gate; the two build
    routes stay entrywise exact at any cutoff, so formula cross-checks may
    run on deliberately small spaces.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    weights, blocks1, blocks2 = mode_thermal_blocks(spec, params, cutoff)
    rho = _kron_sum([(weights[s, t], blocks1[s][t], blocks2[s][t])
                     for s, t in ((0, 0), (1, 1), (0, 1), (1, 0))])
    return _finish(rho, cutoff, enforce_trace_limit)


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
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    a2 = abs(spec.alpha) ** 2
    q1, q2 = params.exp1, params.exp2
    om1, om2 = params.one_minus_exp1, params.one_minus_exp2
    pref = math.exp(-2.0 * a2) * om1 * om2 / (2.0 * spec.parity_overlap)

    g1, g2 = spec.alpha, spec.k * spec.alpha
    # u_i^{-(n+nbar)} in the printed formula equals (1-q_i)^{(n+nbar)/2}
    rho = _kron_sum([(spec.sigma ** (s + t),
                      _direct_mode_factor(g1, q1, om1, 1 - 2 * s, 1 - 2 * t, cutoff),
                      _direct_mode_factor(g2, q2, om2, 1 - 2 * s, 1 - 2 * t, cutoff))
                     for s in (0, 1) for t in (0, 1)])
    rho *= pref
    return _finish(rho, cutoff, enforce_trace_limit)


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
