"""Exception hierarchy shared across the package.

Everything derives from FrameScopeError so callers can catch one base; the
leaves additionally subclass ValueError/RuntimeError so plain-numpy code that
expects standard exceptions keeps working.
"""


class FrameScopeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(FrameScopeError, ValueError):
    """Operand shapes are incompatible; message names both shapes."""


class ArgumentError(FrameScopeError, ValueError):
    """A scalar argument is out of its documented range."""


class UnsupportedUpsampleError(FrameScopeError, ValueError):
    """Adaptive pooling was asked to produce a larger grid than its input."""


class FormatError(FrameScopeError, ValueError):
    """Base class for tensor-container parsing failures."""


class BadMagicError(FormatError):
    """File does not start with the MVGF magic bytes."""


class TruncatedPayloadError(FormatError):
    """File ends before the header-declared payload is complete."""


class DimensionOverflowError(FormatError):
    """Header declares dimensions whose product cannot be a real tensor."""


class NonFiniteValueError(FormatError):
    """Payload holds NaN or infinite values."""
