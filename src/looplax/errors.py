"""Exception types shared across the package.

Every error raised by looplax derives from :class:`LoopLaxError`, so callers
(and the CLI) can distinguish library failures from programming mistakes.
"""


class LoopLaxError(Exception):
    """Base class for all looplax errors."""


class ResourceExceeded(LoopLaxError):
    """An operation would exceed the configured term/size cap."""


class UnboundDerivative(LoopLaxError):
    """A derivative indeterminate has no binding and no base binding."""


class WindowUnderflow(LoopLaxError):
    """A power was requested that the input windows cannot determine."""


class NotStrictlyNegative(LoopLaxError):
    """exp input must contain only strictly negative powers."""


class NotUnipotent(LoopLaxError):
    """log input must be Id plus strictly negative powers."""


class SingularLeading(LoopLaxError):
    """The leading coefficient of a series is not invertible."""


class NotCommuting(LoopLaxError):
    """Frame basis matrices do not commute."""


class NotTraceless(LoopLaxError):
    """A matrix that must be traceless is not."""


class DependentBasis(LoopLaxError):
    """Frame basis matrices are linearly dependent."""


class ShapeViolation(LoopLaxError):
    """A deformation series violates the shape required by its kind."""


class IndexOutOfRange(LoopLaxError):
    """A flow index lies outside the range allowed by the hierarchy kind."""


class AliasingDetected(LoopLaxError):
    """Fourier truncation left too much mass at the boundary frequencies."""


class BigCellViolation(LoopLaxError):
    """The loop admits no Birkhoff factorization at working precision."""


class FlowSupportViolation(LoopLaxError):
    """Flow parameters violate the support required by a reduction."""
