"""The standard cluster: chord combinatorics, enumeration, mutation.

The cluster point (n, m) has band coordinates (m/2^n, 1 + (m-1)/2^n); its
ends are the adjacent dyadic circle points (m-1)/2^n and m/2^n, so the
cluster is dual to the dyadic triangulation of the disk.  (0, 1) names the
same chord as (0, 0) and is normalized away.  A `ClusterPt` is its (n, m)
pair: it equals, hashes and sorts as the plain tuple, which every layer
above keys its data by.

At a scale 2^k, k >= n, the ends are the integer numerators lo = (m-1) d
and lo + d mod 2^(k+1), d = 2^(k-n) (`chord_at`).  So a chord is standard when, in one
order (lo, hi) of its ends, d = (hi - lo) mod 2^(k+1) is a power of two
dividing lo, and it is then T(k - log2 d, lo/d + 1).  `mutate` reads every
chord this way.  `crossing_path` reads the cluster chords that a chord
crosses off the binary digits of its ends: the arcs strictly around an end
are the blocks of its digit prefixes, one per depth, and they nest, so the
crossed ones are a suffix of that chain.  It starts at the highest digit
where the two ends differ, or below it while the other end is the arc's far
end.  A chord of depth n >= 1 has one such arc, so only T(0,0), whose arcs
are the two halves of the circle, can be listed from both ends.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .dyadic import Dyadic, reduced_exp
from .band import Obj, Rect, Rep, normal_form, obj_from_ends
from .errors import (MAX_POINT_DEPTH, MAX_SCAN_DEPTH, NotInCluster, UnboundedRect, DepthLimit, ParseError,
                     InvalidWord)


class ClusterPt(namedtuple("ClusterPt", "n m")):
    """Vertex (n, m) of the standard cluster, canonicalized: m is taken mod
    2^(n+1) and T(0,1) becomes T(0,0).  The point is its (n, m) pair:
    equality with a plain pair is intended, and it hashes and sorts as
    that tuple does.  The 1,021 points of depth <= 8 are shared: a fixed
    table (about 80 KiB, never grown) holds one instance of each, so the
    walks and supports of a process keep no copies of them: without it
    (only depth 0 shared), the `queries` benchmark read `peak_rss_mb` 51.0
    against 45.4 MB, past its 10 % bound, and `wall_s` 10 % higher, in 4
    of 4 pairs.  Deeper points are built per call, as a table of every
    depth would grow with them."""

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        if 0 <= n <= _SHARED_DEPTH:
            return _SHARED[n][m & ((2 << n) - 1)]
        if n < 0:
            raise ValueError("depth must be nonnegative")
        return tuple.__new__(cls, (n, m % (2 << n)))

    def __str__(self) -> str:
        return f"T({self.n},{self.m})"

    __repr__ = __str__


_SHARED_DEPTH = 8
_T00 = tuple.__new__(ClusterPt, (0, 0))  # also T(0,1)
_SHARED = ((_T00, _T00), *(tuple(tuple.__new__(ClusterPt, (n, m)) for m in range(2 << n))
                           for n in range(1, _SHARED_DEPTH + 1)))

Triangle = tuple[ClusterPt, ClusterPt, ClusterPt]


def depth(v: ClusterPt) -> int:
    return v.n


@lru_cache(maxsize=4096)
def object_of(v: ClusterPt) -> Obj:
    return normal_form(v.m, (1 << v.n) + v.m - 1, v.n)


def chord_at(v: ClusterPt, k: int) -> tuple[int, int]:
    """The ends (m-1)/2^n and m/2^n of v, in that order, as numerators mod
    2^(k+1) at the scale 2^k, k >= n."""
    s = k - v.n
    return (((v.m - 1) << s) % (2 << k), v.m << s)


def chord(v: ClusterPt) -> tuple[Dyadic, Dyadic]:
    """Endpoints ((m-1)/2^n, m/2^n) on the circle, each in [0, 2)."""
    return tuple(Dyadic(a, v.n) for a in chord_at(v, v.n))


def member(x: Obj) -> ClusterPt | None:
    """The cluster point with the same iso class, if any.

    T(n, m) has canonical coordinates x = m/2^n and delta = 1 - 1/2^n, so at
    the scale 2^e of x, 2^e - dn = 2^(e-n) is a power of two dividing xn.
    At n = 0 (delta = 0) the canonical x lies in [0, 1), so only
    M(0, 0) = T(0, 0) passes.
    """
    u = (1 << x.e) - x.dn
    if not u & (u - 1) and not x.xn & (u - 1):
        shift = u.bit_length() - 1
        return ClusterPt(x.e - shift, x.xn >> shift)
    return None


def _cycle_above(n: int, m: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The a and the c of the 3-cycle (a, T(n, m), c) of the triangle above
    T(n, m), as (n, m) pairs: its sibling and its parent, in an order that
    depends on which child of the parent it is."""
    if not n:
        return ((1, 1), (1, 2))
    if m & 1:  # T(n, m) precedes its sibling (n, m+1) under its parent
        return ((n, m + 1), (n - 1, (m + 1) >> 1))
    return ((n - 1, m >> 1), (n, m - 1))


def neighbors(v: ClusterPt) -> tuple[Triangle, Triangle]:
    """The two triangles adjacent to chord(v), as directed 3-cycles (a, v, c)
    meaning irreducible maps a -> v -> c -> a: the triangle below v first,
    then the one above (`triangle`).  Below v, its two children split its
    arc at the midpoint, and the triangle cycles (n+1, 2m-1) -> v ->
    (n+1, 2m); above it, the orientation depends on which child of its
    parent v is."""
    (a1, a2), (c1, c2) = in_neighbors(v), out_neighbors(v)
    return ((a1, v, c1), (a2, v, c2))


def in_neighbors(v: ClusterPt) -> tuple[ClusterPt, ClusterPt]:
    """The a of the two cycles (a, v, c) of `neighbors`, below v then above."""
    n, m = v
    return (ClusterPt(n + 1, 2 * m - 1), ClusterPt(*_cycle_above(n, m)[0]))


def out_neighbors(v: ClusterPt) -> tuple[ClusterPt, ClusterPt]:
    """The c of the two cycles (a, v, c) of `neighbors`, below v then above."""
    n, m = v
    return (ClusterPt(n + 1, 2 * m), ClusterPt(*_cycle_above(n, m)[1]))


def _triangle_above(v: ClusterPt) -> tuple[int, int]:
    return (v.n - 1, (v.m + 1) >> 1 & ((1 << v.n) - 1)) if v.n else (0, 1)


def triangle(u: ClusterPt, v: ClusterPt) -> tuple[int, int] | None:
    """The triangle that two distinct points share, or None: two points
    share at most one.  A triangle is a node of the dual tree, named by
    integers: T(n, m) borders the triangle below it, named (n, m), and the
    one above it, named (n-1, ceil(m/2) mod 2^n) for n >= 1 and (0, 1) for
    T(0,0).  So the triangle below v is named as v is, and two distinct
    points share a triangle when it lies above one and below the other (a
    child and its parent) or above both (siblings)."""
    if u == v:
        return None
    above = _triangle_above(u)
    if above == v or above == _triangle_above(v):
        return above
    return tuple(u) if _triangle_above(v) == u else None


def arrow_dir(u: ClusterPt, v: ClusterPt) -> bool:
    """Whether the quiver arrow between two points of one triangle runs
    u -> v: the cycles of `neighbors` reversed, parent -> odd child, even
    child -> parent and odd sibling -> even sibling."""
    if u.n == v.n:
        return bool(u.m & 1)
    return bool(v.m & 1) if u.n < v.n else not u.m & 1


def attach(path, nbrs=out_neighbors) -> tuple[ClusterPt, ClusterPt]:
    """The neighbours in nbrs(v), `out_neighbors` or `in_neighbors`, of the
    two ends v of a path, each on the side of the triangle that the path
    does not use at v: with `out_neighbors` the attach vertices of a word or
    of a crossed path, with `in_neighbors` the next steps of two rays.  Both
    list the triangle below v first, and that triangle is named as v is
    (`triangle`).  A one-vertex path takes one triangle at each end, the one
    below first."""
    if len(path) == 1:
        return nbrs(path[0])
    ends = []
    for v, prev in ((path[0], path[1]), (path[-1], path[-2])):
        tri = triangle(v, prev)
        if tri is None:
            raise InvalidWord(f"no arrow between {v} and {prev}")
        ends.append(nbrs(v)[tri == v])
    return tuple(ends)


def crossing_path(x: Obj) -> tuple[ClusterPt, ...]:
    """The cluster points whose chords cross the chord of x, from its end x
    to its end y + 1: a path in the dual tree of triangles, in the order of
    the walk of x, and empty on the cluster.

    At the scale 2^k, k = x.e, T(n, m) with arc ((m-1)d, md), d = 2^(k-n),
    is crossed when one end lies strictly inside its arc and the other
    outside the closed arc, mod 2^(k+1) as end 0 is end 2.  An end p lies
    strictly inside one arc at each depth n below its reduced exponent r,
    [lo, lo + d] with lo = p >> (k-n) << (k-n), of T(n, (p >> (k-n)) + 1).
    The arcs nest, so the depths crossed at p are a run n0..r-1.  Where
    d > 2^s, s the highest digit on which the ends differ, the other end q
    shares p's block [lo, lo + d) and is inside; where d <= 2^s it is outside
    unless it is the far end lo + d, which it stays down each 1 digit of p
    below s.  Only T(0,0), whose arcs are the two halves of the circle, can
    be listed by both ends."""
    k, mask = x.e, (2 << x.e) - 1
    p, q = x.xn, (x.xn + x.dn + (1 << k)) & mask
    s = (p ^ q).bit_length() - 1  # the ends differ, as dn < 2^k
    near, far = [], []
    for a, b, run in ((p, q, near), (q, p, far)):
        t = s if b != ((a >> s) + 1 << s) & mask else (~a & (1 << s) - 1).bit_length() - 1
        for n in range(k - t, reduced_exp(a, k)):
            m = (a >> (k - n)) + 1 & (2 << n) - 1
            run.append(_SHARED[n][m] if n <= _SHARED_DEPTH else tuple.__new__(ClusterPt, (n, m)))
    if near and far and near[0] == far[0]:  # T(0,0)
        del far[0]
    return (*reversed(near), *far)


# -- enumeration ------------------------------------------------------------

def _box(rect: Rect, k: int) -> tuple[int, int, int, int]:
    """The edges of rect as integer numerators at the scale 2^(k+1), each open
    edge moved one unit inward.  Points of the 1/2^k grid have even numerators,
    so against the odd moved edges the closed comparisons are the strict ones."""
    s = k + 1
    return ((rect.x_lo.num << (s - rect.x_lo.exp)) + rect.open_x_lo,
            (rect.x_hi.num << (s - rect.x_hi.exp)) - rect.open_x_hi,
            (rect.y_lo.num << (s - rect.y_lo.exp)) + rect.open_y_lo,
            (rect.y_hi.num << (s - rect.y_hi.exp)) - rect.open_y_hi)


def _t_range(box: tuple[int, int, int, int], step: int, d: int) -> tuple[int, int]:
    """The range (t_min, t_max) of the t with (t step, t step + d) in a closed
    box of numerators, empty when t_min > t_max: on the line y = x + d the
    y-bounds become the x-bounds y - d."""
    x_lo, x_hi, y_lo, y_hi = box
    return -(-max(x_lo, y_lo - d) // step), min(x_hi, y_hi - d) // step


def _level_hits(rect: Rect, n: int):
    """Cluster points of depth n with a representative in rect, with that rep."""
    k = max(n, rect.max_exp())
    box, step = _box(rect, k), 2 << (k - n)  # 1/2^n at the scale 2^(k+1) of the box
    delta = (1 << n) - 1  # numerator of 1 - 1/2^n at scale 2^n
    hits = []
    for sign in (1, -1):
        t_min, t_max = _t_range(box, step, sign * ((2 << k) - step))
        for t in range(t_min, t_max + 1):
            m = (t if sign > 0 else t + 1) % (2 << n)
            hits.append((ClusterPt(n, m), (Dyadic(t, n), Dyadic(t + sign * delta, n))))
    return hits


def box_meets_cluster(x_lo: int, x_hi: int, y_lo: int, y_hi: int, e: int) -> bool:
    """Whether some cluster point has a representative in the closed box
    [x_lo, x_hi] x [y_lo, y_hi] of numerators at the scale 2^e.

    Depth k = e' + 1 settles it, e' the finest reduced edge exponent: a box
    that meets the cluster deeper meets it at depth e', since the lines
    y - x = +-(1 - 1/2^e') cross it in closed segments with ends on the
    1/2^e' grid.  The depth-n representatives lie on y - x = +-(2^s - 2^j),
    j = s - n, at the scale 2^s, s = e + 1 >= k, so only the depths whose
    lines cross the box's range of y - x are tried.  Builds no points."""
    k = reduced_exp(x_lo | x_hi | y_lo | y_hi, e) + 1
    s, one = e + 1, 2 << e
    x_lo, x_hi, y_lo, y_hi = x_lo << 1, x_hi << 1, y_lo << 1, y_hi << 1
    for sign in (1, -1):
        lo, hi = (y_lo - x_hi, y_hi - x_lo) if sign > 0 else (x_lo - y_hi, x_hi - y_lo)
        # the j with one - hi <= 2^j <= one - lo and s - k <= j <= s
        j_lo = max((one - hi - 1).bit_length() if hi < one else 0, s - k)
        j_hi = min((one - lo).bit_length() - 1, s) if lo < one else -1
        for j in range(j_lo, j_hi + 1):
            # `_t_range` of the box, step 2^j, on the line y = x + d
            d = sign * (one - (1 << j))
            if -(-max(x_lo, y_lo - d) >> j) <= min(x_hi, y_hi - d) >> j:
                return True
    return False


@lru_cache(maxsize=4096)
def enum_in_rect_with_reps(rect: Rect) -> tuple[tuple[ClusterPt, Rep], ...]:
    """All cluster points having a representative in rect, with those reps.

    Complete for rectangles whose closure stays off the band boundary lines
    except in finitely-populated corner configurations; one probe level past
    the dyadic stabilization depth detects the infinite cases exactly.
    """
    if rect.x_lo > rect.x_hi or rect.y_lo > rect.y_hi:
        return ()
    e = rect.max_exp()
    if e + 2 > MAX_SCAN_DEPTH:
        raise DepthLimit(f"rectangle needs scan depth {e + 2} > {MAX_SCAN_DEPTH}")
    found: dict[ClusterPt, Rep] = {}
    for n in range(e + 2):
        for pt, rep in _level_hits(rect, n):
            found.setdefault(pt, rep)
    if _level_hits(rect, e + 2):
        raise UnboundedRect(f"{rect!r} meets the band boundary in infinitely many cluster points")
    return tuple(sorted(found.items()))  # keys are distinct: sorted by point


def enum_in_rect(rect: Rect) -> frozenset[ClusterPt]:
    return frozenset(pt for pt, _ in enum_in_rect_with_reps(rect))


# -- mutation ---------------------------------------------------------------

class ClusterOverlay(namedtuple("ClusterOverlay", "removed added")):
    """A cluster reached from the standard one by finitely many flips,
    stored as the symmetric difference.  It equals and hashes as the tuple
    (removed, added) of frozensets."""

    __slots__ = ()

    def __new__(cls, removed: frozenset[ClusterPt] = frozenset(), added: frozenset[Obj] = frozenset()):
        return tuple.__new__(cls, (frozenset(removed), frozenset(added)))

    def __repr__(self) -> str:
        return f"ClusterOverlay(removed={set(self.removed)!r}, added={set(self.added)!r})"

    def contains_obj(self, x: Obj) -> bool:
        if x in self.added:
            return True
        v = member(x)
        return v is not None and v not in self.removed


STANDARD = ClusterOverlay()


def _has_chord(a: int, b: int, k: int, added: set, removed: frozenset[ClusterPt]) -> bool:
    """Whether the chord joining the distinct ends a, b (numerators mod
    2^(k+1)) is in the cluster: added, or standard and not removed."""
    if (min(a, b), max(a, b)) in added:
        return True
    for lo, hi in ((a, b), (b, a)):
        d = (hi - lo) % (2 << k)
        if not d & (d - 1) and not lo % d:
            return ClusterPt(k + 1 - d.bit_length(), lo // d + 1) not in removed
    return False


def mutate(overlay: ClusterOverlay, x: Obj) -> tuple[ClusterOverlay, Obj]:
    """Flip the chord of x inside the cluster; returns the new overlay and x*.

    As for a diagonal of a polygon, x* joins the apexes r, s of the two
    triangles on either side of the chord {p, q} of x.  Each apex is an end
    of a chord already named: of a triangle `neighbors(member(x))` when x is
    standard, of `chord_at(w, k)` for w in `overlay.removed`, or of an object in
    `overlay.added`.  For the face (p, q, s) on one side:

    1. if {p, s} or {q, s} is added, s is an end of an added chord;
    2. if both are standard and {p, q} is standard, (p, q, s) is a standard
       triangle, so s is an apex of `neighbors(member(x))`;
    3. if both are standard and {p, q} is added, some standard chord crosses
       {p, q}, the standard triangulation being maximal.  It enters the face
       across {p, q} and cannot cross the face's standard sides, so it ends
       at s; crossing an overlay chord, it lies in `overlay.removed`.

    Ends are numerators at the scale 2^k of the finest depth or exponent
    named (`Obj.ends_at`, `chord_at`), as in the module docstring.
    """
    if not overlay.contains_obj(x):
        raise NotInCluster(f"{x} is not in the cluster")
    v, removed = member(x), overlay.removed
    named = list(removed) + ([w for tri in neighbors(v) for w in tri] if v is not None else [])
    k = max([x.e, *(w.n for w in named), *(obj.e for obj in overlay.added)])
    period = 2 << k
    added = {obj.ends_at(k) for obj in overlay.added}
    candidates = {a for pair in added for a in pair}
    candidates.update(a for w in named for a in chord_at(w, k))
    p, q = x.ends_at(k)
    apexes = ([], [])  # in the open arc from p to q, and in the one from q to p
    for s in candidates - {p, q}:
        if _has_chord(p, s, k, added, removed) and _has_chord(q, s, k, added, removed):
            apexes[(s - p) % period > q - p].append(s)
    for found in apexes:
        if len(found) != 1:
            raise AssertionError("triangulation apex not unique at {%s,%s}: %s" % (
                Dyadic(p, k), Dyadic(q, k), sorted(str(Dyadic(u, k)) for u in found)))
    (r,), (s,) = apexes
    x_star = obj_from_ends(r, s, k)
    # x leaves and x* joins: toggle each as a point in `removed`, else in `added`
    v_star = member(x_star)
    removed = removed ^ {w for w in (v, v_star) if w is not None}
    added = overlay.added ^ {obj for obj, w in ((x, v), (x_star, v_star)) if w is None}
    return (ClusterOverlay(removed, added), x_star)


_PT_RE = re.compile(r"^\s*T\(\s*([0-9]+)\s*,\s*(-?[0-9]+)\s*\)\s*$")


def parse_cluster_pt(text: str) -> ClusterPt:
    m = _PT_RE.match(text)
    if not m:
        raise ParseError(f"not a cluster point: {text!r}")
    try:
        n, mm = int(m.group(1)), int(m.group(2))
    except ValueError as exc:  # more digits than Python reads
        raise ParseError(f"index out of range in {text!r}") from exc
    if n > MAX_POINT_DEPTH:
        raise ParseError(f"depth past {MAX_POINT_DEPTH} in {text!r}")
    if mm < 0 or mm.bit_length() > n + 1:
        raise ParseError(f"index out of range in {text!r}")
    return ClusterPt(n, mm)
