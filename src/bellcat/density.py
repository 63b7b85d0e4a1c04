"""Thermal density operator of the Bell-Cat states over a truncated two-mode Fock basis, by per-mode factors.

The density operator is a sum of four Kronecker products of per-mode
matrices, one per parity branch (s, t), and two independent constructions
give those factors:

* operator route (:func:`mode_blocks`).  The dressing operator

      f = N e^{-|alpha|^2} sum_{n,m} alpha^{n+m} k^m [1 + sigma (-1)^{n+m}]
          (a1^dag)^n (a2^dag)^m / (n! m! u1^n u2^m)

  splits over the two parity branches into products of per-mode creation
  exponentials, f = C [E(g1) x E(g2) + sigma E(-g1) x E(-g2)] with
  E(g) = e^{g a^dag}, and the Gibbs matrix rho_beta is a product of per-mode
  diagonals, so f rho_beta f^dag = sum_{s,t} w_st B1(s,t) x B2(s,t) with
  B_i(s,t) = E(+-g_i) rho_beta,i E(+-g_i)^dag.

* direct route (:func:`_direct_mode_factors`).  Each element is the finite
  sum over shared thermal excitations (n1, n2) of the explicit coefficient
  formula; expanding its parity brackets over the four sign branches
  factorizes it into per-mode matrices R_i(s,t) (:func:`_direct_mode_factor`),
  assembled from log-factorials, so rho = sum_{s,t} w'_st Q1(s,t) x Q2(s,t)
  with Q_i = (1 - q_i) R_i: the printed prefactor
  e^{-2|alpha|^2} (1-q1)(1-q2) / (2 P) split into a weight
  w'_st = sigma^{s+t} e^{-2|alpha|^2} / (2 P) (:func:`_direct_weights`) and
  one (1 - q_i) per mode.

The four states at one alpha differ only in k, the sign of mode 2's
amplitude, and in sigma.  E(-g) = (-1)^{i-j} E(g), and every per-mode table
of the reference routes gains that sign, (-1)^{ket-bra}, at -gamma, as it
does when both branch signs flip: the table at -gamma is the one at +gamma
with its parity branches relabelled (s, t) -> (1 - s, 1 - t), under which
sigma^{s+t} is unchanged.  So each reference route takes states that share
one alpha (:func:`shared_alpha`), builds each mode's tables once at +alpha
(:func:`per_mode`), and relabels mode 2's branches for a k = -1 state.

Nothing here forms the (cutoff+1)^2-dimensional matrix.  :func:`route_gaps`
compares the two routes on their factors for a list of states: the largest
|entry| of a Kronecker product is the product of the factors' largest
|entries|, which bounds the two-mode max |operator - direct| from per-mode
matrices alone, and tr(A x B) = tr A tr B gives each route's trace.  Its
cutoff, like the thermal level count of :func:`thermal_levels`, passes
`bellcat.states.checked_cutoff` first.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import CutoffError
from .special_fn import log_factorial_table
from .states import BellCatSpec, bellcat_normalization, checked_cutoff
from .tfd import ThermalMode, ThermalParams, gibbs_weight

__all__ = [
    "route_gaps",
    "branch_weights",
    "mode_blocks",
    "per_mode",
    "shared_alpha",
    "thermal_levels",
]

TRACE_DEFICIT_LIMIT = 0.01
HARD_THERMAL_CAP = 2000
_BRANCHES = ((0, 0), (1, 1), (0, 1), (1, 0))


def thermal_levels(params: ThermalParams, epsilon: float) -> int:
    """Levels needed before the per-mode Gibbs tail drops below `epsilon`.

    The geometric tail above level N is e^{-(N+1) beta hbar omega}/(1 - q), so
    N = ceil(ln(1/(epsilon (1-q)))/(beta hbar omega)) guarantees tail <= epsilon.
    N passes `checked_cutoff` against `HARD_THERMAL_CAP`: past it, or where q
    rounds to 1, it raises TruncationError, since both reference routes hold
    tables of that many levels.
    """
    if params.is_zero_temperature:
        return 0
    levels = 0
    for mode in params.modes:
        if mode.q == 0.0:
            continue  # Gibbs factor underflowed: the mode is effectively frozen
        rate = -math.log(mode.q)
        need = math.log(1.0 / (epsilon * mode.one_minus_q)) / rate if rate else math.inf
        levels = max(levels, checked_cutoff(need, "thermal cap", HARD_THERMAL_CAP))
    return levels


def _exp_creation(coefficient: complex, cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """exp(+-coefficient * a^dag) on the truncated space, with a^dag |n> = sqrt(n+1) |n+1>.

    The shift matrix is nilpotent, so the exponential series terminates and
    is exact: entry (i, j) is g^{i-j} sqrt(i!/j!) / (i-j)! for i >= j, filled
    from log-factorials.  E(-g) is E(g) with the sign (-1)^{i-j}, bit for bit,
    so the parity images of the operator route cancel exactly.
    """
    i, j = np.indices((cutoff + 1, cutoff + 1))
    k = np.maximum(i - j, 0)
    lf = log_factorial_table(cutoff)
    log_mag = k * math.log(abs(coefficient)) + 0.5 * (lf[i] - lf[j]) - lf[k]
    plus = np.where(i >= j, np.exp(log_mag + 1j * cmath.phase(coefficient) * k), 0.0)
    return plus, np.where(k % 2 == 0, plus, -plus)


def _trace_deficit(trace: complex, cutoff: int, enforce_trace_limit: bool) -> float:
    deficit = 1.0 - float(np.real(trace))
    if enforce_trace_limit and deficit > TRACE_DEFICIT_LIMIT:
        raise CutoffError(
            f"trace deficit {deficit:.3e} exceeds {TRACE_DEFICIT_LIMIT}; "
            f"cutoff {cutoff} is too small for these parameters"
        )
    return deficit


def _direct_mode_factor(gamma: complex, q: float, one_minus_q: float, sign_ket: int,
                        sign_bra: int, cutoff: int) -> np.ndarray:
    """Mode factor R[N, Nbar] of the direct element formula for one parity branch.

    R[N, Nbar] = sum_{n1 <= min(N, Nbar)} q^n1 / n1! * g_ket^{N-n1}
                 conj(g_bra)^{Nbar-n1} (1-q)^{(N+Nbar-2 n1)/2}
                 sqrt(N! Nbar!) / ((N-n1)! (Nbar-n1)!)

    assembled in log-magnitude + phase form as R = U_ket U_bra^dag, each side
    carrying sqrt(q^n1 / n1!) in its log-magnitude: sqrt(N!) alone passes the
    float range from N = 301, and the weight brings each entry back inside it.
    At q = 0 only n1 = 0 remains.
    """
    lf = log_factorial_table(cutoff)
    n_idx = np.arange(cutoff + 1)
    excess = n_idx[:, None] - n_idx[None, :]                  # N - n1
    mag = abs(gamma)
    log_scale = math.log(mag) + 0.5 * math.log(one_minus_q) if mag > 0 else -math.inf
    log_weight = 0.5 * (n_idx * math.log(q) - lf) if q > 0.0 else np.where(n_idx == 0, 0.0, -math.inf)
    with np.errstate(invalid="ignore"):
        log_u = np.where(excess >= 0,
                         excess * log_scale - lf[np.maximum(excess, 0)] + 0.5 * lf[:, None] + log_weight[None, :],
                         -math.inf)
    u_base = np.exp(log_u)
    phase = cmath.phase(gamma)

    def branch(sign: int) -> np.ndarray:
        ang = phase if sign > 0 else phase + math.pi
        return u_base * np.exp(1j * ang * np.maximum(excess, 0))

    return branch(sign_ket) @ branch(sign_bra).conj().T


def _direct_weights(spec: BellCatSpec) -> np.ndarray:
    """Branch weights sigma^{s+t} e^{-2|alpha|^2} / (2P) of the direct route."""
    weight = math.exp(-2.0 * abs(spec.alpha) ** 2) / (2.0 * spec.parity_overlap)
    weights = np.empty((2, 2))
    for s, t in _BRANCHES:
        weights[s, t] = spec.sigma ** (s + t) * weight
    return weights


def _direct_mode_factors(gamma: complex, mode: ThermalMode, cutoff: int):
    """Direct-route factors Q(s,t) = (1 - q) R(s,t) of one mode with amplitude gamma, as [s][t]."""
    # u^{-(n+nbar)} in the printed formula equals (1-q)^{(n+nbar)/2}
    return [[mode.one_minus_q * _direct_mode_factor(gamma, mode.q, mode.one_minus_q, 1 - 2 * s, 1 - 2 * t, cutoff)
             for t in (0, 1)] for s in (0, 1)]


def shared_alpha(specs: list[BellCatSpec]) -> complex:
    """The alpha all of a non-empty list of states share, else ValueError; -1 - 0j and -1 + 0j differ in phase."""
    alpha = specs[0].alpha
    if any(spec.alpha != alpha or cmath.phase(spec.alpha) != cmath.phase(alpha) for spec in specs):
        raise ValueError("the states of one reference-route call must share one alpha")
    return alpha


def per_mode(build, params: ThermalParams) -> tuple:
    """build(mode) for each of the two thermal modes, called once where the two are equal."""
    first = build(params.modes[0])
    return first, first if params.modes[1] == params.modes[0] else build(params.modes[1])


def _largest(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix)))


def route_gaps(specs: list[BellCatSpec], params: ThermalParams, cutoff: int,
               enforce_trace_limit: bool = True) -> list[float]:
    """Upper bound on max |operator route - direct route| over the two-mode elements of each state, from per-mode factors.

    With B_i the operator route's blocks, Q_i the direct route's factors and
    w, w' the two routes' weights, each branch differs by
    (w - w') B1 x B2 + w' (B1 - Q1) x B2 + w' Q1 x (B2 - Q2), and the largest
    |entry| of a Kronecker product is the product of its factors' largest
    |entries|; the bound sums those over the four branches.  With
    `enforce_trace_limit` the 1% trace-deficit gate raises `CutoffError`
    where either route's trace, sum w tr(A) tr(B), falls short; without
    it, both routes are exact on the truncated space, so formula checks
    may run at any cutoff up to `HARD_FOCK_CUTOFF`, which `checked_cutoff`
    enforces first.

    The states share one alpha, so each mode's factors, their traces and
    their largest |entries| are built once, at +alpha.  Branch (1 - s, 1 - t)
    is the parity image of (s, t), with the same diagonal and moduli, so a
    k = -1 state reads mode 2's numbers unrelabelled.  An empty list gives [].
    """
    cutoff = checked_cutoff(cutoff, "density cutoff")
    if not specs:
        return []
    alpha = shared_alpha(specs)

    def mode_numbers(mode: ThermalMode) -> list:
        """Per branch [s][t]: tr B, tr Q, max |B|, max |Q| and max |B - Q| of one mode at +alpha."""
        blocks = mode_blocks(alpha, mode, cutoff)
        factors = _direct_mode_factors(alpha, mode, cutoff)
        return [[(np.trace(b), np.trace(q), _largest(b), _largest(q), _largest(b - q))
                 for b, q in zip(blocks[s], factors[s])] for s in (0, 1)]

    m1, m2 = per_mode(mode_numbers, params)
    gaps = []
    for spec in specs:
        w, w_direct = branch_weights(spec), _direct_weights(spec)
        for route, weights in enumerate((w, w_direct)):
            trace = sum(weights[s, t] * m1[s][t][route] * m2[s][t][route] for s, t in _BRANCHES)
            _trace_deficit(trace, cutoff, enforce_trace_limit)
        bound = 0.0
        for s, t in _BRANCHES:
            _, _, b1, q1, d1 = m1[s][t]
            _, _, b2, _, d2 = m2[s][t]
            bound += (abs(w[s, t] - w_direct[s, t]) * b1 * b2
                      + abs(w_direct[s, t]) * (d1 * b2 + q1 * d2))
        gaps.append(bound)
    return gaps


def branch_weights(spec: BellCatSpec) -> np.ndarray:
    """Branch weights C^2 sigma^{s+t} of the operator route, C = N e^{-|alpha|^2}."""
    c = bellcat_normalization(spec.alpha, spec.sigma) * math.exp(-abs(spec.alpha) ** 2)
    weights = np.empty((2, 2))
    for s in (0, 1):
        for t in (0, 1):
            weights[s, t] = c * c * spec.sigma ** (s + t)
    return weights


def mode_blocks(gamma: complex, mode: ThermalMode, cutoff: int):
    """Operator-route blocks B(s,t) = E((-1)^s g) rho_beta E((-1)^t g)^dag of one mode, as [s][t].

    g = gamma / u is the mode's dressing displacement, gamma its amplitude
    (alpha for mode 1, k alpha for mode 2).
    """
    g = gamma / mode.u
    w = np.array([gibbs_weight(mode, n) for n in range(cutoff + 1)])
    e = _exp_creation(g, cutoff)
    return [[(e[s] * w[None, :]) @ e[t].conj().T for t in (0, 1)] for s in (0, 1)]

