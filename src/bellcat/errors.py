"""Exceptions shared across the package."""


class BellCatError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateStateError(BellCatError):
    """The requested superposition is the null vector, or too close to it to evaluate.

    sigma = -1 with alpha = 0, or with |alpha|^2 subnormal or 0 in floating point.
    """


class CutoffError(BellCatError, ValueError):
    """A Fock-space cutoff is negative, or too small for the requested accuracy; also a ValueError."""


class TruncationError(BellCatError):
    """A series tail bound exceeds the configured tolerance, or a size passes its hard cap."""


class ImaginaryResidueError(BellCatError):
    """The complex term sum of a Wigner evaluation failed to cancel to a real value.

    This signals an implementation or convention fault, not a numerical issue:
    Hermiticity of the density operator forces the sum to be real.
    """


class NonFiniteError(BellCatError):
    """An evaluation produced NaN or infinite values (an overflow inside a route)."""


class QuadratureError(BellCatError):
    """A numerical integral's rule is too large to build: the Fock-kernel oracle's node count past its cap."""


class NormalizationError(BellCatError):
    """The integrated Wigner function is not unit-normalized within tolerance."""
