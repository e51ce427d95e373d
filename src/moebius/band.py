"""Geometry of indecomposable objects on the open Moebius band.

An isomorphism class is a point of {(x, y) : |y - x| < 1} modulo the glide
identification (x, y) ~ (y+1, x+1), in units of pi.  The canonical
representative has delta = y - x in [0, 1); the glide negates delta, so a
class with delta > 0 has exactly two representative families, the canonical
one and its flip, each defined up to simultaneous translation by 2.

An `Obj` is the tuple (xn, dn, e) of integers: the numerators of x and
delta at the least scale 2^e making both integral, so equal classes are
equal tuples and hash alike.  Its `Dyadic` coordinates are built on demand;
the hom and composite tests read its representatives as numerators at a
common scale (`Obj.reps_at`) and build no `Dyadic`.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .dyadic import Dyadic, parse_dyadic, reduced_exp
from .errors import BandBoundary, NotBasicAligned, ParseError

Rep = tuple[Dyadic, Dyadic]
IntRep = tuple[int, int]


class Obj(namedtuple("Obj", "xn dn e")):
    """Canonical form of an indecomposable: x = xn/2^e and delta = dn/2^e,
    reduced.  A tuple of its three numerators, so it equals and hashes as
    (xn, dn, e)."""

    __slots__ = ()

    def __new__(cls, x: Dyadic, delta: Dyadic):
        e = max(x.exp, delta.exp)
        xn, dn = x.num << (e - x.exp), delta.num << (e - delta.exp)
        if not 0 <= dn < 1 << e:
            raise ValueError("delta out of canonical range")
        if not 0 <= xn < (2 if dn else 1) << e:
            raise ValueError("x out of canonical range")
        return _reduced(xn, dn, e)

    @property
    def x(self) -> Dyadic:
        return Dyadic(self.xn, self.e)

    @property
    def delta(self) -> Dyadic:
        return Dyadic(self.dn, self.e)

    @property
    def y(self) -> Dyadic:
        return Dyadic(self.xn + self.dn, self.e)

    def reps_at(self, k: int) -> tuple[IntRep, IntRep]:
        """Canonical representative and its flip (each modulo translation by
        2), as numerators at the scale 2^k, k >= e."""
        s = k - self.e
        x, y, one = self.xn << s, (self.xn + self.dn) << s, 1 << k
        return ((x, y), (y + one, x + one))

    def ends_at(self, k: int) -> IntRep:
        """The chord's ends x and y + 1 in increasing order, as numerators
        mod 2^(k+1) at the scale 2^k, k >= e; distinct, as y - x < 1."""
        s = k - self.e
        a, b = self.xn << s, (((self.xn + self.dn) << s) + (1 << k)) % (2 << k)
        return (a, b) if a < b else (b, a)

    def max_exp(self) -> int:
        return self.e  # = max(x.exp, y.exp): x or y has exponent e

    def sort_key(self):
        x, delta = self.x, self.delta
        return (x.num, x.exp, delta.num, delta.exp)

    def __str__(self) -> str:
        return f"M({self.x},{self.y})"

    def __repr__(self) -> str:
        return f"Obj({self.x}, delta={self.delta})"


def _reduced(xn: int, dn: int, e: int) -> Obj:
    """The `Obj` of canonical numerators at the scale 2^e, reduced."""
    r = reduced_exp(xn | dn, e)
    return tuple.__new__(Obj, (xn >> (e - r), dn >> (e - r), r))


def normal_form(x, y, e: int | None = None) -> Obj:
    """Canonicalize a coordinate pair, flipping if y - x < 0.  The pair is two
    `Dyadic`s or, with e given, their integer numerators at the scale 2^e."""
    if e is None:
        e = max(x.exp, y.exp)
        x, y = x.num << (e - x.exp), y.num << (e - y.exp)
    one = 1 << e
    d = y - x
    if d < 0:
        x, d = y + one, -d
    if d >= one:
        raise BandBoundary(f"({Dyadic(x, e)}, {Dyadic(y, e)}) lies outside the open band")
    # translate x into [0, 1) when delta = 0, else into [0, 2)
    return _reduced(x % ((2 if d else 1) << e), d, e)


def obj_from_ends(a, b, k: int | None = None) -> Obj:
    """The class whose chord joins the ends a and b, distinct mod 2: two
    `Dyadic`s, any lifts, or, with k given, their integer numerators at the
    scale 2^k.  It is (a, y) with y + 1 the lift of b in (a, a + 2)."""
    if k is None:
        k = max(a.exp, b.exp)
        a, b = a.num << (k - a.exp), b.num << (k - b.exp)
    gap = (b - a) % (2 << k)
    if not gap:
        raise BandBoundary(f"ends {Dyadic(a, k)} and {Dyadic(b, k)} are equal mod 2")
    return normal_form(a, a - (1 << k) + gap, k)


def mirror(x: Obj) -> Obj:
    """The image of x under the reflection t -> -t of the circle R/2Z: the
    chord whose ends are the negatives of the ends of x.

    The reflection maps the dyadic triangulation to itself, sending T(n, m)
    to T(n, 2^(n+1) - m + 1), and reverses the orientation of every
    triangle, so it reverses every irreducible map.  It is therefore a
    duality sigma of C_pi that fixes add T: sigma sigma = id,
    support(sigma x) = sigma support(x), dim Hom(x, y) = dim Hom(sigma y,
    sigma x), and a duality takes kernels to cokernels, coker f =
    sigma ker(sigma f) (`quotient._cokernel_rep`)."""
    k = x.e
    a, b = x.ends_at(k)
    return obj_from_ends(-a % (2 << k), -b % (2 << k), k)


def ends(obj: Obj) -> frozenset[Dyadic]:
    """The pair {x, y+1} on the circle, each in [0, 2); flip-invariant."""
    return frozenset(Dyadic(a, obj.e) for a in obj.ends_at(obj.e))


def hom_c_configs(src: Obj, dst: Obj) -> list[tuple[IntRep, IntRep]]:
    """All aligned representative pairs ((a,b),(x,y)) witnessing Hom(src, dst) != 0,
    as numerators at the scale 2^e, e = max(src.e, dst.e).

    A pair witnesses a nonzero morphism when y-1 < a <= x and x-1 < b <= y;
    for each of the 2x2 representative families there is at most one
    translation placing a in the half-open window (y-1, x].
    """
    e = max(src.e, dst.e)
    one, period = 1 << e, 2 << e
    # `reps_at(e)` of both sides, inline
    s, t = e - src.e, e - dst.e
    p, q = src.xn << s, (src.xn + src.dn) << s
    u, v = dst.xn << t, (dst.xn + dst.dn) << t
    dst_reps = ((u, v), (v + one, u + one))
    out = []
    for (a0, b0) in ((p, q), (q + one, p + one)):
        for (x, y) in dst_reps:
            shift = (x - a0) // period * period
            a, b = a0 + shift, b0 + shift
            if y - one < a and x - one < b <= y:
                out.append(((a, b), (x, y)))
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
    e = max(src.e, dst.e)
    one, period = 1 << e, 2 << e
    for (a0, b0) in src.reps_at(e):
        for (x, y) in dst.reps_at(e):
            diff = x - a0 if kind == "positive" else y - b0
            if diff % period:
                continue
            a, b = a0 + diff, b0 + diff
            if kind == "positive":
                # src=(x, b), dst=(x, z) with b < z: third (b+1, z), fourth (b+1, x+1)
                if b < y and abs(y - b - one) < one and abs(b - x) < one:
                    return (normal_form(b + one, y, e), normal_form(b + one, x + one, e))
            # src=(a, y), dst=(w, y) with a < w: third (w, a+1), fourth (y+1, a+1)
            elif a < x and abs(a + one - x) < one and abs(y - a) < one:
                return (normal_form(x, a + one, e), normal_form(y + one, a + one, e))
    raise NotBasicAligned(f"no {kind} triangle on a basic map {src} -> {dst}")


class Rect(namedtuple("Rect", "x_lo x_hi y_lo y_hi open_x_lo open_x_hi open_y_lo open_y_hi",
                      defaults=(False,) * 4)):
    """Axis-aligned rectangle of real lifts (`Dyadic` edges) with per-edge
    openness flags; equal and hashed by its edges and flags."""

    __slots__ = ()

    @classmethod
    def open(cls, x_lo, x_hi, y_lo, y_hi) -> "Rect":
        return cls(x_lo, x_hi, y_lo, y_hi, True, True, True, True)

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
