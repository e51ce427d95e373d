"""Dictionary between quotient-category objects and string modules, the
simple objects, digit-encoded walk tails, and the truncated ray functors.

An object off the cluster corresponds to the word on its support: the
cluster chords its chord crosses, in order (`cluster.crossing_path`), with
letters oriented as the quiver (`cluster.arrow_dir`).  The inverse reads,
at each end of a word, the triangle that the word does not use there; the
object's chord joins the apexes of those two end triangles, each in closed
form on integers (`_end_apex`), and is checked to cross the word.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .dyadic import Dyadic
from .band import Obj, Rep, normal_form, obj_from_ends
from .cluster import (ClusterPt, member, object_of, crossing_path, attach, in_neighbors,
                      triangle)
from .strings import StringWord, word
from .errors import InCluster, InvalidWord, NoMorphism, Unreachable, AllOnesTail


@lru_cache(maxsize=8192)
def obj_to_string(x: Obj) -> StringWord:
    """Word on the support of x, ordered along its chord."""
    path = crossing_path(x)
    if not path:
        raise InCluster(f"{x} lies in the standard cluster")
    return StringWord(path)


@lru_cache(maxsize=8192)
def string_to_obj(w: StringWord) -> Obj:
    """The object whose support word is w: the chord joining the apexes of
    its two end triangles, the triangles at its ends that w does not use,
    at the scale 2^k, k one past the deepest vertex (`_end_apex`)."""
    if w.marked:
        raise InvalidWord("ray-marked words do not name finite objects")
    verts = w.verts
    first, last = verts[0], verts[-1]
    k = 1 + max(verts).n  # points sort by depth first
    if len(verts) == 1:  # one vertex: the triangle below it, then the one above
        x = obj_from_ends(_end_apex(first, False, k), _end_apex(first, True, k), k)
    else:  # a letter in the triangle below an end, named as the end, leaves the one above
        x = obj_from_ends(_end_apex(first, triangle(first, verts[1]) == first, k),
                          _end_apex(last, triangle(last, verts[-2]) == last, k), k)
    # a valid unmarked word is fixed by its vertices, read in either direction
    if verts not in (path := crossing_path(x), path[::-1]):
        raise AssertionError(f"the chord between the end apexes of {w} does not carry it")
    return x


def _end_apex(v: ClusterPt, above: bool, k: int) -> int:
    """The apex of the triangle above or below v = T(n, m), its corner off
    the chord of v, as a numerator mod 2^(k+1) at the scale 2^k, k > n.
    Below, the two children split the arc ((m-1)/2^n, m/2^n) at
    (2m-1)/2^(n+1).  Above, the parent's arc is the arcs of v and its
    sibling joined, and the apex is its end off v: (m+1)/2^n for odd m, the
    first child, and (m-2)/2^n for even m.  T(0,0) has T(1,1) and T(1,2)
    above it, which meet at 1/2."""
    n, m = v
    if not above:
        return ((2 * m - 1) << (k - n - 1)) % (2 << k)
    if not n:
        return 1 << (k - 1)
    return ((m + 1 if m & 1 else m - 2) << (k - n)) % (2 << k)


def simple_object(v: ClusterPt) -> Obj:
    return string_to_obj(word([v]))


def transport_mor(src: Obj, dst: Obj, scalar) -> tuple[StringWord, StringWord, object]:
    """Basic quotient morphism to basic graph map, preserving the scalar."""
    from .walk import hom_ct_dim
    if hom_ct_dim(src, dst) != 1:
        raise NoMorphism(f"no basic morphism {src} -> {dst}")
    return (obj_to_string(src), obj_to_string(dst), scalar)


def transport_mor_inverse(w1: StringWord, w2: StringWord, scalar) -> tuple[Obj, Obj, object]:
    from .strings import hom_dim_strings
    if hom_dim_strings(w1, w2) != 1:
        raise NoMorphism(f"no basic morphism {w1} -> {w2}")
    return (string_to_obj(w1), string_to_obj(w2), scalar)


# -- digit encoding of tails --------------------------------------------------

class DigitPrefix(namedtuple("DigitPrefix", "base digits")):
    """Truncated binary tail at a base vertex: digit 1 steps to the upper
    child (second coordinate grows), digit 0 to the left child.  It equals
    and hashes as the tuple (base, digits)."""

    __slots__ = ()

    def __new__(cls, base: ClusterPt, digits: tuple[int, ...]):
        if digits.count(0) + digits.count(1) != len(digits):
            raise ValueError("digits must be 0 or 1")
        return tuple.__new__(cls, (base, digits))

    def all_ones(self) -> bool:
        return bool(self.digits) and all(d == 1 for d in self.digits)

    def __str__(self) -> str:
        return f"{self.base}:{''.join(str(d) for d in self.digits)}"


def _binary(digits) -> int:
    """The digit string read as a binary integer."""
    d = 0
    for b in digits:
        d = 2 * d + b
    return d


def _digit_point(base: Obj, m: int, d: int) -> tuple[int, int, ClusterPt]:
    """The numerators of `digits_to_coords` at the scale 2^(e+m), for m
    digits of binary value d below the base object, and the cluster point
    they name."""
    k = base.e + m
    theta = (1 << base.e) - base.dn  # a + 1 - b
    bm = ((base.xn + base.dn) << m) + theta * d
    am = bm - (1 << k) + theta
    pt = member(normal_form(am, bm, k))
    if pt is None:
        raise AssertionError("digit walk left the cluster")
    return am, bm, pt


def digits_to_coords(p: DigitPrefix) -> Rep:
    """Coordinates (a_m, b_m) of the vertex reached from the base:
    b_m = b + sum d_i theta/2^i and a_m = b_m - 1 + theta/2^m.

    The sum is theta * D / 2^m with D the digit string read as a binary
    integer, so at the scale 2^(e+m), 2^e that of the base, b_m takes one
    multiplication of numerators instead of m additions."""
    base = object_of(p.base)  # its representative (a, b) = (base.x, base.y)
    m = len(p.digits)
    am, bm, _ = _digit_point(base, m, _binary(p.digits))
    k = base.e + m
    return (Dyadic(am, k), Dyadic(bm, k))


def _tree_vertex(v: ClusterPt, k: int, d: int) -> ClusterPt:
    """The vertex k digits with binary value d reach from v on the digit
    tree: digit b steps from (n, m) to the child (n + 1, 2m - 1 + b), so
    (n + k, 2^k m - 2^k + 1 + d)."""
    return ClusterPt(v.n + k, ((v.m - 1) << k) + 1 + d)


def digit_vertex(p: DigitPrefix) -> ClusterPt:
    """The vertex reached from the base on the digit tree (`_tree_vertex`)."""
    return _tree_vertex(p.base, len(p.digits), _binary(p.digits))


def coords_to_digits(v: ClusterPt, w: ClusterPt, bound: int) -> DigitPrefix:
    """The unique prefix of length <= bound walking from v to w: its length
    is k = depth(w) - depth(v) and its digits D = w.m - 2^k v.m + 2^k - 1,
    taken mod 2^(depth(w) + 1), which must lie below 2^k."""
    k = w.n - v.n
    if not 0 <= k <= bound:
        raise Unreachable(f"{w} not within {bound} digit steps of {v}")
    d = (w.m - ((v.m - 1) << k) - 1) % (1 << (w.n + 1))
    if d >= 1 << k:
        raise Unreachable(f"{w} is not on the digit tree below {v}")
    # the k bits of d, most significant first; they are 0s and 1s, so the
    # prefix needs no validation
    p = tuple.__new__(DigitPrefix, (v, tuple([d >> i & 1 for i in range(k - 1, -1, -1)])))
    if _tree_vertex(v, k, d) != w:
        raise AssertionError("digit prefix does not reach its target")
    return p


def tail_case(first: DigitPrefix, second: DigitPrefix, swapped: bool = False) -> str:
    """Region tag of a truncated tail pair based at a common vertex.

    Tags: case1 at the depth-zero base; otherwise case2/case3 by whether
    the mirror tail starts horizontally or vertically, and case4/case5 for
    the same configurations with the coordinate roles swapped.
    """
    if first.base != second.base:
        raise ValueError("tail pair must share its base vertex")
    if first.all_ones() or second.all_ones():
        raise AllOnesTail("tails that are eventually all ones are excluded")
    if first.base.n == 0:
        return "case1"
    if not second.digits:
        raise ValueError("mirror tail needs at least one digit")
    horizontal_first = second.digits[0] == 1
    if not swapped:
        return "case2" if horizontal_first else "case3"
    return "case4" if horizontal_first else "case5"


# -- truncated ray functors ---------------------------------------------------

def g_extend(w: StringWord, k: int) -> StringWord:
    """Attach the outward vertex at each end and extend it by k outward ray
    steps; the truncation points are marked."""
    if w.marked:
        raise InvalidWord("word already carries ray markers")
    left, right = attach(w.verts)
    verts = (left, *w.verts, right)
    for _ in range(k):
        left, right = attach(verts, in_neighbors)
        verts = (left, *verts, right)
    return StringWord(verts, lmark=True, rmark=True)


def f_strip(w: StringWord) -> StringWord | None:
    """Delete every vertex with a directed path inside the word to a marked
    end; identity on unmarked words, None when nothing survives.  Those
    vertices are two runs: from a marked left end, every vertex up to the
    first letter that points right, and from a marked right end, every
    vertex after the last letter that points left."""
    if not w.marked:
        return w
    n, directs = len(w.verts), w.directs
    lo = next((i + 1 for i, d in enumerate(directs) if d), n) if w.lmark else 0
    hi = next((i + 1 for i in reversed(range(n - 1)) if not directs[i]), 0) if w.rmark else n
    if lo >= hi:
        return None
    return StringWord(w.verts[lo:hi])
