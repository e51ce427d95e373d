"""Exact dyadic rational arithmetic.

All angular quantities in this package are stored in units of pi, so the
circle is R/2Z and dyadic rationals num/2^exp are closed under every
operation we need.  A point of the circle, such as a chord end, is an
integer numerator mod 2^(k+1) at a scale 2^k (`band.Obj.ends_at`).

Reduced form: every value is stored with an odd numerator unless its
exponent is zero (and zero itself is 0/2^0), so equal values have equal
(num, exp) and hash alike.  `Dyadic.__init__` restores the invariant by
stripping the trailing zero bits of the numerator in one shift, and an
odd numerator costs a single parity test.  A sum or difference of two
reduced values with unequal exponents is already reduced: aligned at the
larger exponent, one numerator is odd and the shifted other is even, so
the result is odd.  Only equal exponents (odd + odd) can carry factors of
two.  Comparisons align the numerators by a shift and allocate nothing.
"""

from __future__ import annotations

from .errors import ParseError


class Dyadic:
    """num / 2^exp with arbitrary-precision numerator, reduced."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp > 0:
            if not num & 1:
                if num:
                    tz = (num & -num).bit_length() - 1
                    if tz > exp:
                        tz = exp
                    num >>= tz
                    exp -= tz
                else:
                    exp = 0
        elif exp:
            raise ValueError("exponent must be nonnegative")
        _set_num(self, num)
        _set_exp(self, exp)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        d = self.exp - other.exp
        if d == 0:
            return Dyadic(self.num + other.num, self.exp)
        if d > 0:
            return Dyadic(self.num + (other.num << d), self.exp)
        return Dyadic((self.num << -d) + other.num, other.exp)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        d = self.exp - other.exp
        if d == 0:
            return Dyadic(self.num - other.num, self.exp)
        if d > 0:
            return Dyadic(self.num - (other.num << d), self.exp)
        return Dyadic((self.num << -d) - other.num, other.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Dyadic) and self.num == other.num and self.exp == other.exp

    # Order by numerators aligned at the larger exponent.
    def __lt__(self, other: "Dyadic") -> bool:
        d = self.exp - other.exp
        if d >= 0:
            return self.num < other.num << d
        return self.num << -d < other.num

    def __le__(self, other: "Dyadic") -> bool:
        d = self.exp - other.exp
        if d >= 0:
            return self.num <= other.num << d
        return self.num << -d <= other.num

    def __gt__(self, other: "Dyadic") -> bool:
        d = self.exp - other.exp
        if d >= 0:
            return self.num > other.num << d
        return self.num << -d > other.num

    def __ge__(self, other: "Dyadic") -> bool:
        d = self.exp - other.exp
        if d >= 0:
            return self.num >= other.num << d
        return self.num << -d >= other.num

    def __hash__(self):
        return hash((self.num, self.exp))

    # -- conversions --------------------------------------------------------

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/{1 << self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self})"


# Slot setters, bypassing the __setattr__ that makes instances immutable.
_set_num = Dyadic.num.__set__
_set_exp = Dyadic.exp.__set__


def decimal(num: int, exp: int) -> str:
    """The decimal expansion of num/10^exp, without trailing zeros; num/2^exp
    is decimal(num * 5^exp, exp)."""
    sign = "-" if num < 0 else ""
    s = str(abs(num)).rjust(exp + 1, "0")
    if exp == 0:
        return sign + s
    whole, frac = s[:-exp], s[-exp:].rstrip("0")
    return sign + whole + ("." + frac if frac else "")


ONE = Dyadic(1)


def parse_dyadic(text: str) -> Dyadic:
    """Parse "num/den" with den a power of two, or a bare integer, in ASCII."""
    s = text.strip()
    try:
        if "_" in s or not s.isascii():  # int() alone reads 1_0 as 10, and other digits
            raise ValueError(s)
        if "/" in s:
            num_s, den_s = s.split("/")
            num, den = int(num_s), int(den_s)
            if den <= 0 or den & (den - 1):
                raise ParseError(f"denominator of {text!r} is not a power of two")
            return Dyadic(num, den.bit_length() - 1)
        return Dyadic(int(s))
    except ValueError as exc:
        raise ParseError(f"not a dyadic rational: {text!r}") from exc


def reduced_exp(num: int, e: int) -> int:
    """The exponent of num/2^e in reduced form."""
    return e - min((num & -num).bit_length() - 1, e) if num else 0
