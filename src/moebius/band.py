"""Geometry of indecomposable objects on the open Moebius band.

An isomorphism class is a point of {(x, y) : |y - x| < 1} modulo the glide
identification (x, y) ~ (y+1, x+1), in units of pi.  The canonical
representative has delta = y - x in [0, 1); the glide negates delta, so a
class with delta > 0 has exactly two representative families, the canonical
one and its flip, each defined up to simultaneous translation by 2.
"""

from __future__ import annotations

import re

from .dyadic import Dyadic, CircleAngle, ONE, TWO, parse_dyadic
from .errors import BandBoundary, NotBasicAligned, ParseError

Rep = tuple[Dyadic, Dyadic]


class Obj:
    """Canonical form of an indecomposable: first coordinate and delta = y - x."""

    __slots__ = ("x", "delta")

    def __init__(self, x: Dyadic, delta: Dyadic):
        # 0 <= delta < 1 and 0 <= x < (2 if delta > 0 else 1), on numerators
        if not 0 <= delta.num < 1 << delta.exp:
            raise ValueError("delta out of canonical range")
        if not 0 <= x.num < (2 if delta.num else 1) << x.exp:
            raise ValueError("x out of canonical range")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "delta", delta)

    def __setattr__(self, name, value):
        raise AttributeError("Obj is immutable")

    @property
    def y(self) -> Dyadic:
        return self.x + self.delta

    def reps(self) -> tuple[Rep, Rep]:
        """Canonical representative and its flip (each modulo translation by 2)."""
        x = self.x
        y = x + self.delta
        return ((x, y), (y + ONE, x + ONE))

    def max_exp(self) -> int:
        # equals max(x.exp, y.exp): y = x + delta has exponent max(x.exp,
        # delta.exp) when those differ, and no more than it when they agree
        return max(self.x.exp, self.delta.exp)

    def sort_key(self):
        return (self.x.num, self.x.exp, self.delta.num, self.delta.exp)

    def __eq__(self, other) -> bool:
        return isinstance(other, Obj) and self.x == other.x and self.delta == other.delta

    def __hash__(self):
        return hash((self.x, self.delta))

    def __str__(self) -> str:
        return f"M({self.x},{self.y})"

    def __repr__(self) -> str:
        return f"Obj({self.x}, delta={self.delta})"


def normal_form(x: Dyadic, y: Dyadic) -> Obj:
    """Canonicalize a coordinate pair, flipping if y - x < 0."""
    delta = y - x
    if delta.num < 0:
        x, delta = y + ONE, -delta
    if delta >= ONE:
        raise BandBoundary(f"({x}, {y}) lies outside the open band")
    # translate x into [0, 1) when delta = 0, else into [0, 2)
    period = 2 if delta.num else 1
    return Obj(Dyadic(x.num % (period << x.exp), x.exp), delta)


def obj_from_ends(e1: CircleAngle, e2: CircleAngle) -> Obj:
    """The unique class whose ends are the two given (distinct) circle points."""
    if e1 == e2:
        raise BandBoundary("ends must be distinct")
    from .dyadic import lift_into_window

    y = lift_into_window(CircleAngle(e2.v - ONE), e1.v - ONE)
    return normal_form(e1.v, y)


def ends(obj: Obj) -> frozenset[CircleAngle]:
    """The pair {x, y+1} on the circle; flip-invariant."""
    return frozenset((CircleAngle(obj.x), CircleAngle(obj.y + ONE)))


def mesh(objs) -> Dyadic:
    """Smallest positive circular gap among all ends; 1 for the empty set."""
    values = sorted({e.v for obj in objs for e in ends(obj)})
    if len(values) < 2:
        return ONE
    gaps = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    gaps.append(values[0] + TWO - values[-1])
    return min(gaps)


def hom_c_configs(src: Obj, dst: Obj) -> list[tuple[Rep, Rep]]:
    """All aligned representative pairs ((a,b),(x,y)) witnessing Hom(src, dst) != 0.

    A pair witnesses a nonzero morphism when y-1 < a <= x and x-1 < b <= y;
    for each of the 2x2 representative families there is at most one
    translation placing a in the half-open window (y-1, x].  The window
    test runs on integer numerators at the common scale 2^e.
    """
    e = max(src.max_exp(), dst.max_exp())
    one, period = 1 << e, 2 << e

    def scaled(rep: Rep) -> tuple[int, int]:
        return (rep[0].num << (e - rep[0].exp), rep[1].num << (e - rep[1].exp))

    dst_reps = [(rep, scaled(rep)) for rep in dst.reps()]
    out = []
    for (a0, b0) in map(scaled, src.reps()):
        for rep, (x, y) in dst_reps:
            shift = (x - a0) // period * period
            a, b = a0 + shift, b0 + shift
            if y - one < a and x - one < b <= y:
                out.append(((Dyadic(a, e), Dyadic(b, e)), rep))
    return out


def hom_c_dim(src: Obj, dst: Obj) -> int:
    """dim Hom in the ambient triangulated category: 0 or 1."""
    return 1 if hom_c_configs(src, dst) else 0


def compatible(a: Obj, b: Obj) -> bool:
    """True when the two classes can live in a common cluster."""
    return a == b or hom_c_dim(a, b) == 0 or hom_c_dim(b, a) == 0


def triangle_complete(src: Obj, dst: Obj, kind: str) -> tuple[Obj, Obj]:
    """Complete a basic map along the up-right-up ("positive") or
    right-up-right ("negative") distinguished-triangle family.

    Returns the remaining two cone objects as iso classes; the fourth is
    always isomorphic to src since the shift acts trivially on classes.
    """
    if kind not in ("positive", "negative"):
        raise ValueError(f"unknown triangle kind {kind!r}")
    for (a0, b0) in src.reps():
        for (x, y) in dst.reps():
            if kind == "positive":
                # src=(x, b), dst=(x, z) with b < z: third (b+1, z), fourth (b+1, x+1)
                diff = x - a0
                if diff.exp == 0 and diff.num % 2 == 0:
                    b = b0 + diff
                    if b < y and abs_lt_one(y - (b + ONE)) and abs_lt_one(b - x):
                        return (normal_form(b + ONE, y), normal_form(b + ONE, x + ONE))
            else:
                # src=(a, y), dst=(w, y) with a < w: third (w, a+1), fourth (y+1, a+1)
                diff = y - b0
                if diff.exp == 0 and diff.num % 2 == 0:
                    a = a0 + diff
                    if a < x and abs_lt_one((a + ONE) - x) and abs_lt_one(y - a):
                        return (normal_form(x, a + ONE), normal_form(y + ONE, a + ONE))
    raise NotBasicAligned(f"no {kind} triangle on a basic map {src} -> {dst}")


def abs_lt_one(d: Dyadic) -> bool:
    return -ONE < d < ONE


class Rect:
    """Axis-aligned rectangle of real lifts with per-edge openness flags."""

    __slots__ = ("x_lo", "x_hi", "y_lo", "y_hi", "open_x_lo", "open_x_hi", "open_y_lo", "open_y_hi")

    def __init__(self, x_lo, x_hi, y_lo, y_hi,
                 open_x_lo=False, open_x_hi=False, open_y_lo=False, open_y_hi=False):
        object.__setattr__(self, "x_lo", x_lo)
        object.__setattr__(self, "x_hi", x_hi)
        object.__setattr__(self, "y_lo", y_lo)
        object.__setattr__(self, "y_hi", y_hi)
        object.__setattr__(self, "open_x_lo", open_x_lo)
        object.__setattr__(self, "open_x_hi", open_x_hi)
        object.__setattr__(self, "open_y_lo", open_y_lo)
        object.__setattr__(self, "open_y_hi", open_y_hi)

    def __setattr__(self, name, value):
        raise AttributeError("Rect is immutable")

    @classmethod
    def closed(cls, x_lo, x_hi, y_lo, y_hi) -> "Rect":
        return cls(x_lo, x_hi, y_lo, y_hi)

    @classmethod
    def open(cls, x_lo, x_hi, y_lo, y_hi) -> "Rect":
        return cls(x_lo, x_hi, y_lo, y_hi, True, True, True, True)

    def _key(self):
        return (self.x_lo, self.x_hi, self.y_lo, self.y_hi,
                self.open_x_lo, self.open_x_hi, self.open_y_lo, self.open_y_hi)

    def __eq__(self, other) -> bool:
        return isinstance(other, Rect) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def max_exp(self) -> int:
        return max(self.x_lo.exp, self.x_hi.exp, self.y_lo.exp, self.y_hi.exp)

    def __repr__(self) -> str:
        lb = "(" if self.open_x_lo else "["
        rb = ")" if self.open_x_hi else "]"
        bb = "(" if self.open_y_lo else "["
        tb = ")" if self.open_y_hi else "]"
        return f"Rect{lb}{self.x_lo},{self.x_hi}{rb}x{bb}{self.y_lo},{self.y_hi}{tb}"


_OBJ_RE = re.compile(r"^\s*M\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)\s*$")


def parse_obj(text: str) -> Obj:
    """Parse "M(x,y)" accepting any representative, and normalize."""
    m = _OBJ_RE.match(text)
    if not m:
        raise ParseError(f"not an object: {text!r}")
    return normal_form(parse_dyadic(m.group(1)), parse_dyadic(m.group(2)))
