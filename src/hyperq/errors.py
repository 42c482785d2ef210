"""Error types shared across the package.

Every domain error carries a stable name (the class name) so the CLI can
report it and exit with code 1; file syntax problems raise ParseError,
which the CLI maps to exit code 2.
"""

from __future__ import annotations


class HyperqError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ConjugateMismatch(HyperqError):
    """An entry is not the conjugate of its mirror entry (a missing mirror reads as 0)."""


class NonRealDiagonal(HyperqError):
    """A diagonal coefficient has a nonzero imaginary part."""


class DimensionMismatch(HyperqError):
    """Matrix or form dimensions are inconsistent."""


class NotAdmissible(HyperqError):
    """A polynomial is not divisible by the signed linear form s."""


class NoPivotMonomial(HyperqError):
    """No monomial of the required sign is free of the elimination variable."""


class NotReached(HyperqError):
    """Search ended without reaching the requested signature."""


class IndexOutOfRange(HyperqError):
    """A component index does not exist."""


class NoNegativeComponent(HyperqError):
    """A denominator was requested but the map has no negative component."""


class NotVanishing(HyperqError):
    """A form does not vanish on the required quadric."""


class ParseError(HyperqError):
    """A data file could not be parsed; carries file name and line number."""

    def __init__(self, filename: str, lineno: int, message: str):
        super().__init__(f"{filename}:{lineno}: {message}")
        self.filename = filename
        self.lineno = lineno
        self.message = message
