"""The Fock-kernel oracle and the zero-temperature closed form: reference routes.

The oracle evaluates W from per-mode Fock kernels K(j, l; x, y), obtained by
direct numerical integration of the Wigner transform with Hermite-function
position wavefunctions (one trapezoid level, whose step and range a bound on
the Hermite tail fixes before any table is built), contracted against the
operator-route density blocks (`bellcat.density.mode_blocks`).  It never sees
a Laguerre polynomial or a sign convention, so it arbitrates them.  The
zero-temperature closed form sums the coherent cross-Wigner functions of the
pure state.  Both sum complex terms, so they check that the imaginary part
cancels (`ImaginaryResidueError`).

`wigner_oracle_values_many` evaluates a list of states that share one alpha at
one point set: it computes the Fock kernels once per mode point set, and each
mode's blocks and their contractions once, at +alpha, and combines them with
each state's branch weights, mode 2's relabelled at k = -1 (the identity in
`bellcat.density`).  The cutoff passes `bellcat.states.checked_cutoff` before
any table is built.

Tests and `bellcat validate` compare these with the production Gaussian form
(`bellcat.wigner`) and the Laguerre series (`bellcat.series`), whose cap
policy `default_cat_cap` sizes the oracle's cutoff.  Nothing on the
production path calls them.
"""

from __future__ import annotations

import math

import numpy as np

from .density import branch_weights, mode_blocks, per_mode, shared_alpha, thermal_levels
from .errors import QuadratureError
from .series import _coordinate_arrays, _to_real, default_cat_cap
from .states import BellCatSpec, checked_cutoff
from .tfd import ThermalParams

__all__ = [
    "hermite_functions",
    "fock_wigner_kernels",
    "oracle_cutoff",
    "wigner_oracle_values_many",
    "closed_form_zero_temperature",
]

# tolerance of the kernel quadrature, and its cap on (nmax + 1) x s-nodes (`fock_wigner_kernels`)
_KERNEL_TOL = 1e-10
_KERNEL_WORK_CAP = 2**18


def hermite_functions(nmax: int, xi: np.ndarray) -> np.ndarray:
    """Normalized oscillator eigenfunctions psi_n(xi), n = 0..nmax.

    Two-term recurrence on the functions themselves (never the bare Hermite
    polynomials), so magnitudes stay bounded for n of a few hundred.  Shape
    (nmax+1,) + xi.shape; each step writes its row in place.  nmax passes
    `checked_cutoff` first.
    """
    nmax = checked_cutoff(nmax, "oracle cutoff")
    xi = np.asarray(xi, dtype=float)
    out = np.empty((nmax + 1,) + xi.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xi * xi)
    if nmax == 0:
        return out
    out[1] = math.sqrt(2.0) * xi * out[0]
    # psi_{n+1} = (c xi) psi_n - d psi_{n-1}, in that order, on flat rows (a 0-d xi gives rows of one)
    rows, flat = out.reshape(nmax + 1, xi.size), xi.reshape(xi.size)
    lag = np.empty_like(flat)
    for n in range(1, nmax):
        np.multiply(math.sqrt(2.0 / (n + 1)), flat, out=rows[n + 1])
        rows[n + 1] *= rows[n]
        np.multiply(math.sqrt(n / (n + 1)), rows[n - 1], out=lag)
        rows[n + 1] -= lag
    return out


def fock_wigner_kernels(nmax: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dimensionless one-mode Wigner kernels K[j, l](x, y) of |j><l|, j, l <= nmax.

    One trapezoid level of K = (1/2 pi) int ds e^{i s y} psi_j(x - s/2) psi_l(x + s/2),
    its step and range sized before any table by a bound on the Hermite functions'
    tail past the turning point sqrt(2 nmax + 1), so that aliasing and range cut
    each stay below `_KERNEL_TOL` / 2 (notes/decisions.md, section 10).
    The rule runs over the nodes s >= 0 only; the nodes -s add the conjugate
    transpose.  Returns shape (npoints, nmax+1, nmax+1).  nmax passes
    `checked_cutoff` first; a non-finite coordinate raises ValueError, and
    (nmax + 1) x s-nodes past `_KERNEL_WORK_CAP` raises `QuadratureError`.
    """
    nmax = checked_cutoff(nmax, "oracle cutoff")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must share a shape")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("oracle coordinates must be finite")
    # each |psi_n| falls past the turning point, so `sup` is the sup over n <= nmax and v >= u
    turning = math.sqrt(2.0 * nmax + 1.0)
    u = turning + 0.05 * np.arange(1, 201)   # out to turning + 10, where both bounds always pass
    sup = np.max(np.abs(hermite_functions(nmax, u)), axis=0)
    kappa = np.sqrt(u * u - turning * turning)
    # aliasing, the kernel at momentum y -+ 2 pi k / step, needs 2 pi / step - |y| past `reach`
    aliasing = 4.0 / math.pi * sup / np.sqrt(2.0 * kappa) / -np.expm1(-kappa * u)
    reach = float(u[np.argmax(aliasing <= 0.5 * _KERNEL_TOL)])
    step = 2.0 * math.pi / (reach + float(np.max(np.abs(y), initial=0.0)))
    # the range cut, |s| > half_range, leaves one factor at |x -+ s/2| >= half_range / 2
    half_range = 2.0 * float(u[np.argmax(sup / math.pi * (step + 2.0 / kappa) <= 0.5 * _KERNEL_TOL)])
    nodes = np.ceil(half_range / step) + 1.0   # s = step * k, k = 0 .. nodes - 1
    if (nmax + 1) * nodes > _KERNEL_WORK_CAP:
        raise QuadratureError(f"Fock kernel quadrature needs (nmax + 1) x s-nodes = {nmax + 1} x {nodes:.0f}, "
                              f"past the cap {_KERNEL_WORK_CAP}")
    # k = -npos .. npos folded onto s >= 0: s = 0 and the endpoint pair carry half weight each
    npos = int(nodes) - 1
    step = half_range / npos
    weight = np.full(npos + 1, step)
    weight[[0, -1]] *= 0.5
    return _kernel_sum(nmax, x, y, step * np.arange(npos + 1), weight)


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
        # ket and bra tables from one recurrence over the stacked arguments x -+ s/2
        psi_ket, psi_bra = hermite_functions(
            nmax, np.stack([xs[:, None] - 0.5 * s[None, :], xs[:, None] + 0.5 * s[None, :]]),
        ).transpose(1, 0, 2, 3)
        phase = np.exp(1j * s[None, :] * ys[:, None]) * weight[None, :]
        for b in range(xs.size):
            weighted = psi_ket[:, b, :] * phase[b][None, :]
            half = (weighted.real @ psi_bra[:, b, :].T
                    + 1j * (weighted.imag @ psi_bra[:, b, :].T)) / (2.0 * math.pi)
            out[lo + b] = half + half.conj().T
    return out


_ORACLE_MASS_EPSILON = 1e-9


def oracle_cutoff(spec: BellCatSpec, params: ThermalParams) -> int:
    """Per-mode Fock cutoff the oracle needs to hold ~1e-9 of the state's mass, through `checked_cutoff`."""
    # the thermal levels first: past both hard caps, theirs is the error raised, as in the series
    levels = thermal_levels(params, _ORACLE_MASS_EPSILON)
    return checked_cutoff(default_cat_cap(spec, params) + levels, "oracle cutoff")


def wigner_oracle_values_many(specs: list[BellCatSpec], params: ThermalParams,
                              x1, y1, x2, y2, cutoff: int | None = None) -> list[np.ndarray]:
    """Oracle W values of each state: quadrature kernels contracted with operator-route density blocks.

    The states share the points and one alpha (`bellcat.density.shared_alpha`);
    an empty list gives [].  A cutoff left as None is `oracle_cutoff`, which
    depends on alpha only through |alpha|.  The cutoff passes
    `checked_cutoff` before any table is built.
    """
    arrays = _coordinate_arrays(x1, y1, x2, y2)
    if not specs:
        return []
    alpha = shared_alpha(specs)
    nmax = oracle_cutoff(specs[0], params) if cutoff is None else checked_cutoff(cutoff, "oracle cutoff")
    blocks = per_mode(lambda mode: mode_blocks(alpha, mode, nmax), params)
    # branch contractions [s][t] of each mode's blocks with the kernels at that mode's points
    c1, c2_plus = ([[np.einsum("pnm,nm->p", kernels, block) for block in row] for row in mode]
                   for mode, kernels in zip(blocks, (fock_wigner_kernels(nmax, *arrays[:2]),
                                                     fock_wigner_kernels(nmax, *arrays[2:]))))
    values = []
    for spec in specs:
        # at k = -1 mode 2's amplitude is -alpha, whose branch (s, t) is (1 - s, 1 - t) at +alpha
        c2 = c2_plus if spec.k > 0 else [row[::-1] for row in c2_plus[::-1]]
        weights = branch_weights(spec)
        total = sum(weights[s, t] * c1[s][t] * c2[s][t] for s in (0, 1) for t in (0, 1))
        values.append(_to_real(total, "wigner_oracle"))
    return values


def closed_form_zero_temperature(spec: BellCatSpec, x1, y1, x2, y2) -> np.ndarray:
    """W of the pure Bell-Cat state from the coherent cross-Wigner identity.

    W_{|u><w|}(x, y) = (1/pi) e^{-x^2-y^2} e^{-(|u|^2+|w|^2)/2}
                       exp(sqrt2 u zbar + sqrt2 conj(w) z - u conj(w)),
    z = x + i y.  Summing the four branch pairs of |psi><psi| gives the state.
    """
    arrays = _coordinate_arrays(x1, y1, x2, y2)
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
    return _to_real(values, "closed_form_zero_temperature")
