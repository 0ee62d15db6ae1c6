"""Exact scalar arithmetic over prime fields GF(p) and the rationals.

Every scalar carries its field, values are kept canonical (GF(p)
representatives in [0, p), rationals in lowest terms with positive
denominator), and all operations are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Union

MAX_MODULUS = 2**31

# ``int()`` alone would also take "1_0", non-ASCII digits and inner spaces
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?", re.ASCII)


class FieldMismatchError(ValueError):
    """Two scalars from different fields were combined."""


class ScalarParseError(ValueError):
    """Malformed scalar literal."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, init=False)
class Field:
    """GF(p) when ``modulus`` is a prime, the rationals when it is None.

    Fields are interned: ``Field(p)`` returns the one instance for ``p``,
    so equal fields are identical and a modulus is validated only once."""

    modulus: Optional[int] = None

    def __new__(cls, modulus: Optional[int] = None) -> "Field":
        p = modulus
        if p is not None and type(p) is not int:
            raise ValueError(f"modulus must be an int, got {p!r}")
        field = _FIELDS.get(p)
        if field is None:
            if p is not None:
                if not (2 <= p < MAX_MODULUS):
                    raise ValueError(f"modulus must be in [2, 2^31), got {p}")
                if not _is_prime(p):
                    raise ValueError(f"modulus must be prime, got {p}")
            field = object.__new__(cls)
            object.__setattr__(field, "modulus", p)
            _FIELDS[p] = field
        return field

    def __reduce__(self):
        return Field, (self.modulus,)

    def canon(self, value: Union[int, Fraction, str, "Scalar"]) -> Union[int, Fraction]:
        """The raw canonical value of an int, Fraction, literal string or
        Scalar in this field: an int in [0, p), or a Fraction in lowest terms."""
        p = self.modulus
        t = type(value)
        if t is int:
            return Fraction(value) if p is None else value % p
        if t is Fraction and p is None:
            return value
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(f"scalar from {value.field} used in {self}")
            return value.value
        if isinstance(value, str):
            return self.parse_value(value)
        if p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError("fractional value in a prime field")
            value = value.numerator
        return value % p

    def scalar(self, value: Union[int, Fraction, str, "Scalar"]) -> "Scalar":
        """Coerce an int, Fraction, literal string or Scalar into this field."""
        if type(value) is Scalar and value.field is self:
            return value
        return Scalar(self, self.canon(value))

    def parse_value(self, text: str) -> Union[int, Fraction]:
        """The raw canonical value of a literal: an ASCII signed integer, or
        over the rationals also ``a/b`` with an ASCII unsigned denominator."""
        lit = _LITERAL.fullmatch(text)
        if lit is None:
            raise ScalarParseError(f"malformed scalar literal {text!r}")
        num, den = lit.group(1, 2)
        if den is None:
            return self.canon(int(num))
        if self.modulus is not None:
            raise ScalarParseError(f"fraction syntax {text!r} not allowed in GF({self.modulus})")
        if int(den) == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, self.canon(0))

    @property
    def one(self) -> "Scalar":
        return Scalar(self, self.canon(1))

    def __repr__(self) -> str:
        return f"GF({self.modulus})" if self.modulus is not None else "QQ"


_FIELDS: Dict[Optional[int], Field] = {}


def GF(p: int) -> Field:
    return Field(p)


QQ = Field(None)


@dataclass(frozen=True)
class Scalar:
    """A field element in canonical form; immutable and hashable."""

    field: Field
    value: Union[int, Fraction]

    def _check(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field is not self.field:
            raise FieldMismatchError(f"cannot mix {self.field} and {other.field}")

    def __add__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self.field.scalar(self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self.field.scalar(self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self.field.scalar(self.value * other.value)

    def __neg__(self) -> "Scalar":
        return self.field.scalar(-self.value)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "Scalar":
        if not self:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        p = self.field.modulus
        if p is not None:
            return Scalar(self.field, pow(self.value, p - 2, p))
        return Scalar(self.field, 1 / self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"{self.field!r}:{self.value}"
