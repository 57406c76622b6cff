"""Exception types raised by the library."""

from __future__ import annotations


class AbscompatError(Exception):
    """Base class for all library errors."""


class NotHermitian(AbscompatError):
    """Input expected to be Hermitian is not, beyond the tolerance."""


class NumericalFailure(AbscompatError):
    """An underlying decomposition (eigh/SVD) failed to converge."""


class ShapeMismatch(AbscompatError):
    """Operands live in different algebras (or matrices of unequal size)."""


class NotContraction(AbscompatError):
    """Operand lies outside the closed unit ball beyond the tolerance."""


class NotInUnitInterval(AbscompatError):
    """Operand is not a positive contraction (0 <= a <= 1) within tolerance."""


class LengthMismatch(AbscompatError):
    """Function-pair arguments have different lengths."""


class EndpointAmbiguity(AbscompatError):
    """An eigenvalue sits within tolerance of a spectral-interval endpoint
    and snapping was disabled."""


class ShapeIncompatible(AbscompatError):
    """A map builder received block shapes that cannot be wired together."""


class NotUnitary(AbscompatError):
    """A builder argument expected to be unitary is not, within tolerance."""


class GeneratorExhausted(AbscompatError):
    """A compatible-pair stream ended early: ``_RETRIES`` rejected draws in a
    row, or its one strategy does not support the requested shape."""


class NotTripleHom(AbscompatError):
    """Classification was requested for a map that is not a triple
    homomorphism at the given tolerance."""


class AmbiguousBlock(AbscompatError):
    """A block's multiplicativity and anti-multiplicativity defects both
    exceed tolerance; the map is not a clean triple homomorphism."""


class CrossCheckMismatch(UserWarning):
    """The commutative characterization disagreed with the defining identity
    evaluated on diagonal matrices."""
