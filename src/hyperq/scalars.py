"""Exact complex rational scalars.

A GaussianRational is a complex number whose real and imaginary parts are
Python Fractions: the value that enters and leaves the package.  Inside it,
every computation runs on Gaussian integers held as (re, im) int pairs, so
the class has no arithmetic.  No floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]

_ZERO = Fraction(0)


class _Record:
    """Base of the package's immutable value types: a subclass names its fields in `_fields` and stores
    them with object.__setattr__; equality, hashing, repr and __match_args__ follow from them."""

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, _):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re: Rat = 0, im: Rat = 0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, *_):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def coerce(x: "GaussianRational | Rat") -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == _ZERO and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GR_ZERO = GaussianRational(0)


def gr(re: Rat = 0, im: Rat = 0) -> GaussianRational:
    """Shorthand for GaussianRational(re, im)."""
    return GaussianRational(re, im)
