"""The standard cluster: chord combinatorics, enumeration, mutation.

The cluster point (n, m) has band coordinates (m/2^n, 1 + (m-1)/2^n); its
ends are the adjacent dyadic circle points (m-1)/2^n and m/2^n, so the
cluster is dual to the dyadic triangulation of the disk.  (0, 1) names the
same chord as (0, 0) and is normalized away.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache

from .dyadic import Dyadic, CircleAngle, ZERO, ONE
from .band import Obj, Rect, Rep, normal_form, obj_from_ends, ends
from .errors import NotInCluster, UnboundedRect, DepthLimit, ParseError


def _max_depth() -> int:
    raw = os.environ.get("MOEBIUS_MAX_DEPTH", "16")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"MOEBIUS_MAX_DEPTH must be an integer, got {raw!r}") from None


class ClusterPt:
    """Vertex (n, m) of the standard cluster, canonicalized."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        if n < 0:
            raise ValueError("depth must be nonnegative")
        m %= 1 << (n + 1)
        if n == 0 and m == 1:
            m = 0
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("ClusterPt is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, ClusterPt) and self.n == other.n and self.m == other.m

    def __hash__(self):
        return hash((self.n, self.m))

    def __lt__(self, other: "ClusterPt") -> bool:
        return (self.n, self.m) < (other.n, other.m)

    def __str__(self) -> str:
        return f"T({self.n},{self.m})"

    __repr__ = __str__


Triangle = tuple[ClusterPt, ClusterPt, ClusterPt]


def depth(v: ClusterPt) -> int:
    return v.n


@lru_cache(maxsize=None)
def object_of(v: ClusterPt) -> Obj:
    return normal_form(Dyadic(v.m, v.n), ONE + Dyadic(v.m - 1, v.n))


def chord(v: ClusterPt) -> tuple[CircleAngle, CircleAngle]:
    """Endpoints ((m-1)/2^n, m/2^n) on the circle."""
    return (CircleAngle(Dyadic(v.m - 1, v.n)), CircleAngle(Dyadic(v.m, v.n)))


def member(x: Obj) -> ClusterPt | None:
    """The cluster point with the same iso class, if any.

    T(n, m) has canonical coordinates x = m/2^n and delta = 1 - 1/2^n, so
    membership is read off the numerators.  At n = 0 (delta = 0) the
    canonical x lies in [0, 1), so x.exp <= 0 leaves only M(0, 0) = T(0, 0).
    """
    d, x0 = x.delta, x.x
    n = d.exp
    if d.num == (1 << n) - 1 and x0.exp <= n:
        return ClusterPt(n, x0.num << (n - x0.exp))
    return None


def children(v: ClusterPt) -> tuple[ClusterPt, ClusterPt]:
    """The two chords splitting the arc of v at its midpoint."""
    return (ClusterPt(v.n + 1, 2 * v.m - 1), ClusterPt(v.n + 1, 2 * v.m))


def parent_and_sibling(v: ClusterPt) -> tuple[ClusterPt, ClusterPt]:
    if v.n == 0:
        raise ValueError("depth-0 chord has no parent")
    if v.m % 2 == 0:
        return (ClusterPt(v.n - 1, v.m // 2), ClusterPt(v.n, v.m - 1))
    return (ClusterPt(v.n - 1, (v.m + 1) // 2), ClusterPt(v.n, v.m + 1))


@lru_cache(maxsize=None)
def neighbors(v: ClusterPt) -> tuple[Triangle, Triangle]:
    """The two triangles adjacent to chord(v), as directed 3-cycles (a, v, c)
    meaning irreducible maps a -> v -> c -> a.

    The child triangle cycles child(2m-1) -> v -> child(2m); on the other
    side the orientation depends on which child of its parent v is.
    """
    c1, c2 = children(v)
    child_tri = (c1, v, c2)
    if v.n == 0:
        u1, u2 = ClusterPt(1, 1), ClusterPt(1, 2)
        other_tri = (u1, v, u2)
    else:
        p, s = parent_and_sibling(v)
        other_tri = (p, v, s) if v.m % 2 == 0 else (s, v, p)
    return (child_tri, other_tri)


def in_neighbors(v: ClusterPt) -> tuple[ClusterPt, ClusterPt]:
    t1, t2 = neighbors(v)
    return (t1[0], t2[0])


def out_neighbors(v: ClusterPt) -> tuple[ClusterPt, ClusterPt]:
    t1, t2 = neighbors(v)
    return (t1[2], t2[2])


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


def _t_ranges(box: tuple[int, int, int, int], k: int, n: int) -> tuple[tuple[int, int], ...]:
    """The ranges (t_min, t_max) of the depth-n representatives in a box from
    `_box(rect, k)`, k >= n: first (t/2^n, t/2^n + delta), then
    (t/2^n, t/2^n - delta), with delta = 1 - 1/2^n.  A range with
    t_min > t_max is empty."""
    x_lo, x_hi, y_lo, y_hi = box
    step = 2 << (k - n)  # 1/2^n at scale 2^(k+1)
    delta = (2 << k) - step
    # on the line y = x + d the y-bounds become the x-bounds y - d
    return ((-(-max(x_lo, y_lo - delta) // step), min(x_hi, y_hi - delta) // step),
            (-(-max(x_lo, y_lo + delta) // step), min(x_hi, y_hi + delta) // step))


def _level_hits(rect: Rect, n: int):
    """Cluster points of depth n with a representative in rect, with that rep."""
    k = max(n, rect.max_exp())
    delta = (1 << n) - 1  # numerator of 1 - 1/2^n at scale 2^n
    hits = []
    for sign, (t_min, t_max) in zip((1, -1), _t_ranges(_box(rect, k), k, n)):
        for t in range(t_min, t_max + 1):
            m = (t if sign > 0 else t + 1) % (2 << n)
            hits.append((ClusterPt(n, m), (Dyadic(t, n), Dyadic(t + sign * delta, n))))
    return hits


def meets_cluster(rect: Rect) -> bool:
    """Whether some cluster point has a representative in rect.

    Scans depths 0..k on integer numerators and stops at the first nonempty
    range.  With e the finest edge exponent, k = e + 1 settles a closed
    rectangle: one that meets the cluster deeper meets it at depth e, since
    the lines y - x = +-(1 - 1/2^e) cross it in closed segments with ends on
    the 1/2^e grid.  An open edge needs the probe depth k = e + 2 of
    `enum_in_rect_with_reps`.  Builds no points and caches nothing.
    """
    k = rect.max_exp() + 1 + (rect.open_x_lo or rect.open_x_hi or rect.open_y_lo or rect.open_y_hi)
    box = _box(rect, k)
    for n in range(k + 1):
        for t_min, t_max in _t_ranges(box, k, n):
            if t_min <= t_max:
                return True
    return False


@lru_cache(maxsize=None)
def enum_in_rect_with_reps(rect: Rect) -> tuple[tuple[ClusterPt, Rep], ...]:
    """All cluster points having a representative in rect, with those reps.

    Complete for rectangles whose closure stays off the band boundary lines
    except in finitely-populated corner configurations; one probe level past
    the dyadic stabilization depth detects the infinite cases exactly.
    """
    if rect.x_lo > rect.x_hi or rect.y_lo > rect.y_hi:
        return ()
    e = rect.max_exp()
    if e + 2 > _max_depth():
        raise DepthLimit(f"rectangle needs scan depth {e + 2} > MOEBIUS_MAX_DEPTH")
    found: dict[ClusterPt, Rep] = {}
    for n in range(e + 2):
        for pt, rep in _level_hits(rect, n):
            found.setdefault(pt, rep)
    if _level_hits(rect, e + 2):
        raise UnboundedRect(f"{rect!r} meets the band boundary in infinitely many cluster points")
    return tuple(sorted(found.items(), key=lambda kv: (kv[0].n, kv[0].m)))


def enum_in_rect(rect: Rect) -> frozenset[ClusterPt]:
    return frozenset(pt for pt, _ in enum_in_rect_with_reps(rect))


# -- mutation ---------------------------------------------------------------

class ClusterOverlay:
    """A cluster reached from the standard one by finitely many flips,
    stored as the symmetric difference."""

    __slots__ = ("removed", "added")

    def __init__(self, removed: frozenset[ClusterPt] = frozenset(),
                 added: frozenset[Obj] = frozenset()):
        object.__setattr__(self, "removed", frozenset(removed))
        object.__setattr__(self, "added", frozenset(added))

    def __setattr__(self, name, value):
        raise AttributeError("ClusterOverlay is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClusterOverlay)
                and self.removed == other.removed and self.added == other.added)

    def __hash__(self):
        return hash((self.removed, self.added))

    def __repr__(self) -> str:
        return f"ClusterOverlay(removed={set(self.removed)!r}, added={set(self.added)!r})"

    def contains_obj(self, x: Obj) -> bool:
        if x in self.added:
            return True
        v = member(x)
        return v is not None and v not in self.removed

    def has_chord(self, a: CircleAngle, b: CircleAngle) -> bool:
        if a == b:
            return False
        return self.contains_obj(obj_from_ends(a, b))


STANDARD = ClusterOverlay()


def _apex(overlay: ClusterOverlay, p: CircleAngle, q: CircleAngle, side: int,
          candidates: set[CircleAngle]) -> CircleAngle:
    """The one candidate s in the open arc on the given side with {p,s} and
    {q,s} chords."""
    arc = (lambda s: ZERO < p.gap_to(s) < p.gap_to(q)) if side == 0 else \
          (lambda s: p.gap_to(q) < p.gap_to(s))
    found = {s for s in candidates
             if s not in (p, q) and arc(s)
             and overlay.has_chord(p, s) and overlay.has_chord(q, s)}
    if len(found) != 1:
        raise AssertionError(f"triangulation apex not unique at {{{p},{q}}}: {sorted(str(u) for u in found)}")
    return next(iter(found))


def mutate(overlay: ClusterOverlay, x: Obj) -> tuple[ClusterOverlay, Obj]:
    """Flip the chord of x inside the cluster; returns the new overlay and x*.

    As for a diagonal of a polygon, x* joins the apexes r, s of the two
    triangles on either side of the chord {p, q} of x.  Each apex is an end
    of a chord already named: of a triangle `neighbors(member(x))` when x is
    standard, of `chord(w)` for w in `overlay.removed`, or of an object in
    `overlay.added`.  For the face (p, q, s) on one side:

    1. if {p, s} or {q, s} is added, s is an end of an added chord;
    2. if both are standard and {p, q} is standard, (p, q, s) is a standard
       triangle, so s is an apex of `neighbors(member(x))`;
    3. if both are standard and {p, q} is added, some standard chord crosses
       {p, q}, the standard triangulation being maximal.  It enters the face
       across {p, q} and cannot cross the face's standard sides, so it ends
       at s; crossing an overlay chord, it lies in `overlay.removed`.
    """
    if not overlay.contains_obj(x):
        raise NotInCluster(f"{x} is not in the cluster")
    v = member(x)
    named = [chord(w) for w in overlay.removed]
    if v is not None:
        named.extend(chord(w) for tri in neighbors(v) for w in tri)
    named.extend(ends(obj) for obj in overlay.added)
    candidates = {a for pair in named for a in pair}
    p, q = sorted(ends(x), key=lambda a: a.v)
    r = _apex(overlay, p, q, 0, candidates)
    s = _apex(overlay, p, q, 1, candidates)
    x_star = obj_from_ends(r, s)
    removed, added = set(overlay.removed), set(overlay.added)
    if x in added:
        added.remove(x)
    else:
        removed.add(v)
    v_star = member(x_star)
    if v_star is not None and v_star in removed:
        removed.remove(v_star)
    else:
        added.add(x_star)
    return (ClusterOverlay(frozenset(removed), frozenset(added)), x_star)


_PT_RE = re.compile(r"^\s*T\(\s*(\d+)\s*,\s*(-?\d+)\s*\)\s*$")


def parse_cluster_pt(text: str) -> ClusterPt:
    m = _PT_RE.match(text)
    if not m:
        raise ParseError(f"not a cluster point: {text!r}")
    n, mm = int(m.group(1)), int(m.group(2))
    if not (0 <= mm < (1 << (n + 1))):
        raise ParseError(f"index out of range in {text!r}")
    return ClusterPt(n, mm)
