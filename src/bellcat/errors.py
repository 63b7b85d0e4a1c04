"""Exceptions shared across the package."""


class BellCatError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateStateError(BellCatError):
    """The requested superposition is the null vector (sigma = -1 with alpha = 0)."""


class CutoffError(BellCatError):
    """A Fock-space cutoff is too small for the requested accuracy."""


class TruncationError(BellCatError):
    """A series tail bound exceeds the configured tolerance."""


class ImaginaryResidueError(BellCatError):
    """The complex term sum of a Wigner evaluation failed to cancel to a real value.

    This signals an implementation or convention fault, not a numerical issue:
    Hermiticity of the density operator forces the sum to be real.
    """


class NonFiniteError(BellCatError):
    """An evaluation produced NaN or infinite values (an overflow inside a route)."""


class QuadratureError(BellCatError):
    """A numerical integral did not converge to the requested tolerance."""


class NormalizationError(BellCatError):
    """The integrated Wigner function is not unit-normalized within tolerance."""
