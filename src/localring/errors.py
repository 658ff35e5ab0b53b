"""Exception hierarchy shared across the library."""


class LocalRingError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LocalRingError):
    """Operands live in different ambient dimensions."""


class FormMismatch(LocalRingError):
    """Certified operands carry incompatible linear forms."""


class PrecisionShortfall(LocalRingError):
    """An operation was asked for more precision than its inputs certify."""


class ZeroUpToPrecision(LocalRingError):
    """No certified initial exponent: the series is zero up to its bound."""


class SingularMatrix(LocalRingError):
    """Coordinate-change matrix is not invertible over the rationals."""


class PresentationError(LocalRingError):
    """Invalid ideal presentation (dimension clash, zero generator, ...)."""


class UnverifiedBasis(LocalRingError):
    """A certified standard basis was required but `verified` is false."""


class MissingAxisVertex(LocalRingError):
    """Expected a staircase vertex on a coordinate axis and found none."""


class TrivialEvaluation(LocalRingError):
    """Every generator dies under evaluation: I(0) trivial at this precision."""


class NotRegular(LocalRingError):
    """Series is not regular in the distinguished variable at this precision.

    Callers should apply a linear change of coordinates and retry.
    """


class InvariantViolation(LocalRingError):
    """An internal invariant of an algorithm failed; this is a bug."""


class BudgetExceeded(LocalRingError):
    """A retry or completion budget ran out before the computation settled."""


class ParseError(LocalRingError):
    """Syntax error in the expression language, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
