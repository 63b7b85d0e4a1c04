"""Independent evaluator of the thermal Bell-Cat Wigner function.

Implements the Gaussian (Glauber-Sudarshan P-representation) closed form of
`notes/decisions.md` section 2 and the origin formula of section 3 from the
physical constants up.  It imports nothing from `bellcat`, so a fault in the
package's series, caps or thermal parameters cannot hide here.

With n the thermal occupation of a mode, u = sqrt(1 + n), g1 = alpha/u1,
g2 = k alpha/u2, C^2 = e^{-2|alpha|^2} / (2 (1 + sigma e^{-4|alpha|^2})) and
z = x + i y, one mode's block for ket amplitude g and bra amplitude g' is

    W_B(z; g, g') = exp(-|z|^2 + sqrt2 g zbar + sqrt2 gbar' z - g gbar'
                        + (sqrt2 zbar - gbar')(sqrt2 z - g) n/(1+2n)) / (pi (1+2n))

and W = C^2 sum_{s,t} sigma^{[s<0]+[t<0]} W_B1(z1; s g1, t g1) W_B2(z2; s g2, t g2).
Every exponent, with log C^2 folded in, is summed before `exp`, so no
intermediate overflows.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018: reduced Planck constant (J s), Boltzmann constant (J/K)
HBAR = 1.054571817e-34
KB = 1.380649e-23
FREQ_HZ = 5.5e9

# label -> (k, sigma), the README's |alpha, k alpha> + sigma |-alpha, -k alpha>
STATES = {
    "phi-plus": (+1, +1),
    "phi-minus": (+1, -1),
    "psi-plus": (-1, +1),
    "psi-minus": (-1, -1),
}

# branch order (s, t) = (+,+), (+,-), (-,+), (-,-)
_BRANCH_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def occupation(temperature: float, freq_hz: float = FREQ_HZ) -> float:
    """Mean thermal occupation 1/(e^{hbar omega / k_B T} - 1) of one mode."""
    if temperature == 0.0:
        return 0.0
    x = HBAR * 2.0 * math.pi * freq_hz / (KB * temperature)
    return 1.0 / math.expm1(x)


class ThermalBellCat:
    """Closed-form W of one Bell-Cat state at one temperature; mode 2 defaults to mode 1's frequency."""

    def __init__(self, label: str, alpha: complex, temperature: float,
                 freq1_hz: float = FREQ_HZ, freq2_hz: float | None = None):
        self.k, self.sigma = STATES[label]
        self.alpha = complex(alpha)
        self.n = (occupation(temperature, freq1_hz),
                  occupation(temperature, freq1_hz if freq2_hz is None else freq2_hz))
        a2 = abs(self.alpha) ** 2
        self.log_c2 = -2.0 * a2 - math.log(2.0 * (1.0 + self.sigma * math.exp(-4.0 * a2)))
        self.g = (self.alpha / math.sqrt(1.0 + self.n[0]), self.k * self.alpha / math.sqrt(1.0 + self.n[1]))

    def mode_tables(self, mode: int, x, y) -> np.ndarray:
        """log of C W_B per branch: shape (4, npoints), with half of log C^2 in each mode."""
        z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
        zc = np.conj(z)
        n = self.n[mode - 1]
        r2 = math.sqrt(2.0)
        g = self.g[mode - 1]
        out = np.empty((4,) + z.shape, dtype=complex)
        base = -np.abs(z) ** 2 - math.log(math.pi * (1.0 + 2.0 * n)) + 0.5 * self.log_c2
        for i, (s, t) in enumerate(_BRANCH_SIGNS):
            gk, gb = s * g, t * g
            thermal = (r2 * zc - np.conj(gb)) * (r2 * z - gk) * (n / (1.0 + 2.0 * n))
            out[i] = base + r2 * gk * zc + r2 * np.conj(gb) * z - gk * np.conj(gb) + thermal
        return out

    def branch_weights(self) -> np.ndarray:
        return np.array([1.0, self.sigma, self.sigma, 1.0])

    def values(self, x1, y1, x2, y2) -> np.ndarray:
        """W at paired coordinates (real part; the imaginary part cancels between branches)."""
        l1 = self.mode_tables(1, x1, y1)
        l2 = self.mode_tables(2, x2, y2)
        total = np.tensordot(self.branch_weights(), np.exp(l1 + l2), axes=1)
        return total.real

    def origin(self) -> float:
        """Section 3: pi^2 W(0) = (e^{-a r} + sigma e^{a r}) / [(1+2n1)(1+2n2)(e^{2a} + sigma e^{-2a})],
        with a = |alpha|^2 and r = 1/(1+2n1) + 1/(1+2n2)."""
        a = abs(self.alpha) ** 2
        d1, d2 = 1.0 + 2.0 * self.n[0], 1.0 + 2.0 * self.n[1]
        r = 1.0 / d1 + 1.0 / d2
        num = math.exp(-a * r) + self.sigma * math.exp(a * r)
        den = d1 * d2 * (math.exp(2.0 * a) + self.sigma * math.exp(-2.0 * a))
        return num / den / math.pi**2


def hybrid_grid(half_width: float, inner_nodes: int, nodes: int):
    """The hybrid rule: midpoint grid over mode 1, tensor Gauss-Legendre over mode 2.

    Returns (inner 1D nodes, inner weight per 2D point, outer 1D nodes, outer 1D weights).
    """
    step = 2.0 * half_width / inner_nodes
    inner = -half_width + step * (np.arange(inner_nodes) + 0.5)
    t, w = np.polynomial.legendre.leggauss(nodes)
    return inner, step * step, half_width * t, half_width * w


def integrate(state: ThermalBellCat, half_width: float, inner_nodes: int, nodes: int,
              chunk: int = 256) -> dict:
    """I_+, I_-, nu of the closed form on the hybrid rule, in float64 throughout."""
    inner, w_inner, outer, w_outer1 = hybrid_grid(half_width, inner_nodes, nodes)
    g1x, g1y = np.meshgrid(inner, inner, indexing="ij")
    g2x, g2y = np.meshgrid(outer, outer, indexing="ij")
    w_outer = np.multiply.outer(w_outer1, w_outer1).ravel()
    m1 = np.exp(state.mode_tables(1, g1x.ravel(), g1y.ravel()))                # (4, P1)
    m2 = np.exp(state.mode_tables(2, g2x.ravel(), g2y.ravel()))                # (4, P2)
    m2 = m2 * state.branch_weights()[:, None]
    a_re, a_im = np.ascontiguousarray(m1.real.T), np.ascontiguousarray(m1.imag.T)
    b_re, b_im = np.ascontiguousarray(m2.real), np.ascontiguousarray(m2.imag)
    col_plus = np.zeros(m2.shape[1])
    col_minus = np.zeros(m2.shape[1])
    for lo in range(0, a_re.shape[0], chunk):
        w = a_re[lo:lo + chunk] @ b_re - a_im[lo:lo + chunk] @ b_im
        col_plus += np.maximum(w, 0.0).sum(axis=0)
        col_minus += np.maximum(-w, 0.0).sum(axis=0)
    i_plus = float(col_plus @ w_outer) * w_inner
    i_minus = float(col_minus @ w_outer) * w_inner
    return {"i_plus": i_plus, "i_minus": i_minus, "nu": 2.0 * i_minus / (i_plus + i_minus)}
