"""Exception types shared across the library."""


class HoloflowError(Exception):
    """Base class for every error raised by this package."""


class ParseError(HoloflowError):
    """Malformed symbol, domain, space, or config text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = "%s at position %d" % (message, position)
        super().__init__(message)
        self.position = position


class DomainError(HoloflowError):
    """A point was required to lie in an open domain but does not."""


class PoleError(HoloflowError):
    """Evaluation hit a denominator below the pole threshold."""


class BadParameter(HoloflowError):
    """An argument violates a documented precondition."""


class DegreeMismatch(HoloflowError):
    """Series operands of different truncation degrees."""


class ToleranceError(HoloflowError):
    """An iterative search failed to converge from every seed."""


class HerglotzError(HoloflowError):
    """A sampled nonnegative-real-part check found a negative value."""


class EscapeError(HoloflowError):
    """A flow left its domain where the operation needs it to stay."""


class NonFiniteError(HoloflowError):
    """A computed value left the finite floating-point range."""


class StiffnessError(HoloflowError):
    """Step size underflow far from the domain boundary."""
