"""Exception types shared across the package."""

from __future__ import annotations


class GadetError(Exception):
    """Base class for every error this package raises deliberately."""


class SignatureMismatchError(GadetError):
    """Operands belong to different algebras G(p, q)."""


class ParseError(GadetError):
    """A multivector expression could not be parsed.

    ``position`` is the 0-based offset of the offending token, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NotInvertibleError(GadetError):
    """Inverse requested for a multivector whose determinant is zero."""

    def __init__(self, det):
        super().__init__(f"multivector is not invertible (Det = {det})")
        self.det = det


class NotGenericError(GadetError):
    """An ordered solution set has a non-invertible Vandermonde element v_k."""

    def __init__(self, k: int, det=None):
        super().__init__(f"solution set is not generic: v_{k} is not invertible")
        self.k = k
        self.det = det


class ConsistencyError(GadetError):
    """An internal cross-check failed: a result that must be scalar or real
    is not, or independent computation routes disagree."""


class FloatRangeError(GadetError):
    """A value lies outside the double-precision range: a float-backend
    result overflowed to inf or became nan, or an exact value is too large
    to convert to float."""


class NonConvergenceError(GadetError):
    """The eigenvalue iteration did not converge within its cap."""
