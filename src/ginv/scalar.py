"""Exact arithmetic in Q(i), the field of Gaussian rationals.

A value is a pair of ``fractions.Fraction`` (real and imaginary part).
A Fraction is always stored reduced with a positive denominator, so scalar
equality is structural.  ``SUBSTRATE`` names that rational type for
benchmark run records.

The text form of a scalar is fixed by one grammar, shared with the matrix
document format of :mod:`ginv.cli`:

    scalar := real | imag | real sign uimag
    real   := rat
    imag   := ['-'] urat 'i' | ['-'] 'i'        (bare 'i' on input only)
    uimag  := urat 'i'
    rat    := ['-'] urat
    urat   := digits ['/' nonzero-digits]

A digit run on input holds at most 4300 digits, CPython's default bound
on int-from-text conversion; output is not bounded.

Canonical output is reduced, omits a denominator of 1 and a zero imaginary
part, renders zero as "0", and always writes the imaginary coefficient
explicitly ("1+1i", "-2/3i").
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import Union

from .errors import ParseError

SUBSTRATE = "fractions.Fraction"

_MAX_DIGITS = 4300

_Q_ZERO = Fraction(0)
_RATIONAL = (int, Fraction)

RationalLike = Union[int, Fraction]
ScalarLike = Union["GaussianRational", int, Fraction]


class GaussianRational:
    """An element of Q(i), immutable by convention and always reduced."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _raw(cls, re, im) -> "GaussianRational":
        # internal fast path: arguments are already Fractions
        z = object.__new__(cls)
        z.re = re
        z.im = im
        return z

    # -- field operations -------------------------------------------------

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return GaussianRational._raw(self.re * other.re, _Q_ZERO)
        return GaussianRational._raw(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero in Q(i)")
            return GaussianRational._raw(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return GaussianRational._raw(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational._raw(-self.re, -self.im)

    def __pos__(self) -> "GaussianRational":
        return self

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self.re, -self.im)

    def __str__(self) -> str:
        return scalar_format(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce(value: ScalarLike) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _RATIONAL):
        return GaussianRational._raw(Fraction(value), _Q_ZERO)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


# -- parsing ---------------------------------------------------------------


def scalar_parse(token: str) -> GaussianRational:
    """Parse one scalar token; raise ParseError with a character offset."""
    if not isinstance(token, str):
        raise ParseError("scalar token must be text")
    if token == "":
        raise ParseError("empty scalar token", offset=0)

    pos = 0
    negative = token.startswith("-")
    if negative:
        pos = 1

    # bare imaginary unit: 'i' or '-i'
    if pos < len(token) and token[pos] == "i":
        if pos + 1 != len(token):
            raise ParseError("trailing characters after 'i'", offset=pos + 1)
        return GaussianRational(0, -1 if negative else 1)

    first, pos = _parse_urat(token, pos)
    if negative:
        first = -first

    if pos == len(token):
        return GaussianRational(first)

    if token[pos] == "i":
        if pos + 1 != len(token):
            raise ParseError("trailing characters after 'i'", offset=pos + 1)
        return GaussianRational(0, first)

    if token[pos] in "+-":
        sign = 1 if token[pos] == "+" else -1
        pos += 1
        mag, pos = _parse_urat(token, pos)
        if pos == len(token) or token[pos] != "i":
            raise ParseError("expected 'i' to close the imaginary part", offset=pos)
        if pos + 1 != len(token):
            raise ParseError("trailing characters after 'i'", offset=pos + 1)
        return GaussianRational(first, sign * mag)

    raise ParseError(f"unexpected character {token[pos]!r}", offset=pos)


def _digit_run(token: str, start: int) -> int:
    """End of the digit run that begins at ``start``, bounded in length."""
    pos = start
    while pos < len(token) and token[pos].isdigit():
        pos += 1
    if pos - start > _MAX_DIGITS:
        raise ParseError(f"digit run longer than {_MAX_DIGITS} digits", offset=start)
    return pos


def _parse_urat(token: str, start: int):
    pos = _digit_run(token, start)
    if pos == start:
        got = token[pos] if pos < len(token) else "end of token"
        raise ParseError(f"expected digits, got {got!r}", offset=pos)
    numerator = int(token[start:pos])
    if pos < len(token) and token[pos] == "/":
        dstart = pos + 1
        pos = _digit_run(token, dstart)
        if pos == dstart:
            raise ParseError("expected digits after '/'", offset=pos)
        denominator = int(token[dstart:pos])
        if denominator == 0:
            raise ParseError("zero denominator", offset=dstart)
        return Fraction(numerator, denominator), pos
    return Fraction(numerator), pos


# -- formatting ------------------------------------------------------------


def scalar_format(z: ScalarLike) -> str:
    """Canonical text for a scalar; inverse of scalar_parse on its output."""
    z = _coerce(z)
    if z is None:
        raise TypeError("operand must be a Gaussian rational")
    if not z.im:
        return _rational_text(z.re)
    if not z.re:
        return f"{_rational_text(z.im)}i"
    sign = "+" if z.im > 0 else "-"
    return f"{_rational_text(z.re)}{sign}{_rational_text(abs(z.im))}i"


def _rational_text(q) -> str:
    # Decimal writes an int of any length exactly; str(int) stops at the
    # interpreter's process-global int-to-text digit limit
    num, den = Decimal(q.numerator), q.denominator
    return str(num) if den == 1 else f"{num}/{Decimal(den)}"
