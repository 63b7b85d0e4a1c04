"""The four Bell-Cat states: labels, normalizations, overlaps, Fock expansion.

A Bell-Cat state is a two-mode entangled superposition of opposite-phase
coherent states,

    |psi_{k,sigma}> = N_sigma [ |alpha, k alpha> + sigma |-alpha, -k alpha> ],

with k = +1 selecting the Phi pair and k = -1 the Psi pair, and sigma = +-1
the superposition parity.  Expanded over the two-mode number basis the
coefficients carry the parity selection rule: c(n, m) vanishes unless
(-1)^(n+m) = sigma.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStateError
from .special_fn import log_factorial_table

__all__ = [
    "BellCatSpec",
    "FockCoefficients",
    "STATE_LABELS",
    "bellcat_normalization",
    "coherent_overlap_sq",
    "fock_coefficients",
    "parity_overlap",
]

# label -> (k, sigma)
STATE_LABELS: dict[str, tuple[int, int]] = {
    "phi-plus": (+1, +1),
    "phi-minus": (+1, -1),
    "psi-plus": (-1, +1),
    "psi-minus": (-1, -1),
}


@dataclass(frozen=True)
class BellCatSpec:
    """Which of the four Bell-Cat states: amplitude alpha, branch k, parity sigma."""

    alpha: complex
    k: int
    sigma: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.k not in (+1, -1):
            raise ValueError(f"k must be +1 or -1, got {self.k!r}")
        if self.sigma not in (+1, -1):
            raise ValueError(f"sigma must be +1 or -1, got {self.sigma!r}")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError("alpha must be finite")
        if abs(self.alpha) == 0.0:
            # alpha = 0 with sigma = -1 is the null vector; with sigma = +1 the
            # state degenerates to the two-mode vacuum.  Both are rejected here
            # so that a constructed spec always names a genuine superposition.
            raise DegenerateStateError("alpha = 0 does not define a Bell-Cat state")
        if self.parity_overlap == 0.0:
            # an odd state whose |alpha|^2 underflows to 0 is the null vector in floating point
            raise DegenerateStateError(
                f"odd Bell-Cat state with |alpha| = {abs(self.alpha):.3g} is the null vector: "
                f"|alpha|^2 underflows to 0"
            )

    @property
    def label(self) -> str:
        for name, (k, sigma) in STATE_LABELS.items():
            if (k, sigma) == (self.k, self.sigma):
                return name
        raise AssertionError("unreachable")

    @classmethod
    def from_label(cls, label: str, alpha: complex) -> "BellCatSpec":
        try:
            k, sigma = STATE_LABELS[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}; expected one of {sorted(STATE_LABELS)}") from None
        return cls(alpha=alpha, k=k, sigma=sigma)

    @property
    def parity_overlap(self) -> float:
        """1 + sigma e^{-4|alpha|^2} of this state (module function `parity_overlap`)."""
        return parity_overlap(self.alpha, self.sigma)

    def flipped_mode2(self) -> "BellCatSpec":
        """The partner state with the mode-2 sign reversed (Phi <-> Psi)."""
        return BellCatSpec(alpha=self.alpha, k=-self.k, sigma=self.sigma)


def parity_overlap(alpha: complex, sigma: int) -> float:
    """1 + sigma e^{-4|alpha|^2}, without cancellation when sigma = -1 and |alpha| is small."""
    a2 = abs(complex(alpha)) ** 2
    return 1.0 + math.exp(-4.0 * a2) if sigma > 0 else -math.expm1(-4.0 * a2)


def bellcat_normalization(alpha: complex, sigma: int) -> float:
    """Two-mode Bell-Cat normalization [2(1 + sigma e^{-4|alpha|^2})]^{-1/2}."""
    if sigma not in (+1, -1):
        raise ValueError(f"sigma must be +1 or -1, got {sigma!r}")
    overlap = parity_overlap(alpha, sigma)
    if overlap == 0.0:
        raise DegenerateStateError("odd Bell-Cat state with alpha = 0 is the null vector")
    return 1.0 / math.sqrt(2.0 * overlap)


def coherent_overlap_sq(alpha: complex) -> float:
    """|<alpha|-alpha>|^2 = e^{-4|alpha|^2}; ~1.13e-7 already at |alpha| = 2."""
    return math.exp(-4.0 * abs(complex(alpha)) ** 2)


@dataclass(frozen=True)
class FockCoefficients:
    """Truncated two-mode number-basis expansion of a normalized Bell-Cat state."""

    cutoff: int
    table: np.ndarray = field(repr=False)   # complex, shape (cutoff+1, cutoff+1)
    norm_deficit: float                     # 1 - sum |c|^2 over the retained block

    def __post_init__(self):
        self.table.flags.writeable = False

    def coefficient(self, n: int, m: int) -> complex:
        return complex(self.table[n, m])


def fock_coefficients(spec: BellCatSpec, cutoff: int) -> FockCoefficients:
    """Coefficients c(n,m) = N e^{-|alpha|^2} alpha^{n+m} k^m [1 + sigma (-1)^{n+m}] / sqrt(n! m!).

    Assembled in log-magnitude + phase form; the truncated-norm deficit of the
    retained (cutoff+1)^2 block is reported alongside.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    norm = bellcat_normalization(spec.alpha, spec.sigma)
    a_abs = abs(spec.alpha)
    a_phase = cmath.phase(spec.alpha)
    lf = log_factorial_table(cutoff)

    idx = np.arange(cutoff + 1)
    total = idx[:, None] + idx[None, :]                      # n + m
    log_mag = total * math.log(a_abs) - 0.5 * (lf[:, None] + lf[None, :]) - a_abs**2
    phase = np.exp(1j * a_phase * total)
    ksign = np.where(idx[None, :] % 2 == 0, 1.0, float(spec.k))
    parity = 1.0 + spec.sigma * np.where(total % 2 == 0, 1.0, -1.0)
    table = norm * np.exp(log_mag) * phase * ksign * parity
    deficit = 1.0 - float(np.sum(np.abs(table) ** 2))
    return FockCoefficients(cutoff=cutoff, table=table, norm_deficit=deficit)
