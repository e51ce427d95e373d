"""Minimal walks, approximations, supports and quotient-category Homs,
all relative to the standard cluster.

The walk attached to an object M(x, y) lives in the closed rectangle whose
lower-right and upper-left corners are the maximal cluster representatives
(x, b) and (a, y); it visits every cluster point of the rectangle, moving
up or left with arrows pointing up and right.  Sinks are the upper-right
corners of the zig-zag (including both endpoints), sources the lower-left
ones, and everything else is a through vertex.

Walks are stepped from the lower-right corner, not scanned.  At the scale
2^K, K one past the finest exponent of the two corners, the cluster
representatives on the vertical line x' = P are (P, P -+ (2^K - 2^j)) for
0 <= j <= K - n0, where 2^n0 is the denominator of P (depth K - j; j = K is
T(0,0) on the diagonal), and likewise (Q -+ (2^K - 2^j), Q) on the
horizontal line y' = Q.  The nearest one above or to the left is therefore
a `bit_length` away, and each step goes up when that stays below the top
edge and left otherwise.

A `Walk` keeps what the stepper computes: the cluster points, their
representatives as integer numerator pairs at the scale 2^k, the steps and
the roles.  `Dyadic` representatives are built only when a caller asks for
them (`vertices`, `sinks`, `sources`, `to_json`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dyadic import Dyadic, ONE, floor_div2
from .band import Obj, Rect, Rep, normal_form, hom_c_configs
from .cluster import ClusterPt, member, object_of, meets_cluster
from .errors import InCluster

SINK = "sink"
SOURCE = "source"
THROUGH = "through"


@dataclass(frozen=True)
class WalkVertex:
    pt: ClusterPt
    rep: Rep
    role: str


# the role of a vertex by the steps before and after it ("-" at an end), any
# other pair being a sink: arrows point up and right, so a vertical step
# enters the upper vertex and a horizontal step the right one
_ROLE = {"vv": THROUGH, "hh": THROUGH, "hv": SOURCE, "h-": SOURCE, "-v": SOURCE}


@dataclass(frozen=True, slots=True, eq=False)
class Walk:
    pts: tuple[ClusterPt, ...]
    nums: tuple[tuple[int, int], ...]  # the representatives, numerators at scale 2^k
    k: int
    steps: tuple[str, ...]  # "h" or "v", between consecutive vertices
    roles: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    def _vertex(self, i: int) -> WalkVertex:
        p, q = self.nums[i]
        return WalkVertex(self.pts[i], (Dyadic(p, self.k), Dyadic(q, self.k)), self.roles[i])

    @property
    def vertices(self) -> tuple[WalkVertex, ...]:
        return tuple(map(self._vertex, range(len(self.pts))))

    def points(self) -> tuple[ClusterPt, ...]:
        return self.pts

    def role_of(self, pt: ClusterPt) -> str | None:
        return self.roles[self.pts.index(pt)] if pt in self.pts else None

    def sinks(self) -> tuple[WalkVertex, ...]:
        return tuple(self._vertex(i) for i, r in enumerate(self.roles) if r == SINK)

    def sources(self) -> tuple[WalkVertex, ...]:
        return tuple(self._vertex(i) for i, r in enumerate(self.roles) if r == SOURCE)

    def to_json(self) -> list[dict]:
        return [{"pt": [v.pt.n, v.pt.m], "rep": [str(v.rep[0]), str(v.rep[1])], "role": v.role}
                for v in self.vertices]


@dataclass(frozen=True)
class Approximation:
    """Sources and sinks of the walk: 0 -> (+)sources -> (+)sinks -> X -> 0."""
    sources: tuple[ClusterPt, ...]
    sinks: tuple[ClusterPt, ...]
    source_reps: tuple[Rep, ...]
    sink_reps: tuple[Rep, ...]


@lru_cache(maxsize=None)
def support(x: Obj) -> frozenset[ClusterPt]:
    """Cluster points in the open rectangle (y-1, x) x (x-1, y): the interior
    of the walk of x, and empty on the cluster."""
    if member(x) is not None:
        return frozenset()
    return frozenset(walk_of(x).pts[1:-1])


def _delta(n: int) -> Dyadic:
    return ONE - Dyadic(1, n)


def _largest_level_below(gap: Dyadic) -> int:
    """Largest n with 1 - 1/2^n < 1 - gap ... i.e. 1/2^n > gap, for gap = 1 - delta."""
    g, h = gap.num, gap.exp
    return h - g.bit_length()


def _lower_endpoint(x: Dyadic, y: Dyadic) -> Rep:
    """Maximal b < y with (x, b) a cluster representative."""
    delta = y - x
    if delta.num > 0:
        n_star = _largest_level_below(ONE - delta)
        if n_star >= x.exp:
            return (x, x + _delta(n_star))
    n_b = x.exp if delta.num > 0 else max(x.exp, 1)
    return (x, x - _delta(n_b))


def _upper_endpoint(x: Dyadic, y: Dyadic) -> Rep:
    """Maximal a < x with (a, y) a cluster representative."""
    delta = y - x
    one_minus = ONE - delta
    if one_minus.num == 1:
        n0 = one_minus.exp + 1
    else:
        n0 = one_minus.exp - one_minus.num.bit_length() + 1
    n_z = max(n0, y.exp)
    return (y - _delta(n_z), y)


def _offset_above(d: int, line: int, k: int) -> int | None:
    """Smallest offset c > d among -(2^k - 2^j), then +(2^k - 2^j), for
    0 <= j <= j_max: the cluster representatives on the line through the
    coordinate `line`, 2^j_max being the largest power of two <= 2^k dividing it."""
    j_max = min((line & -line).bit_length() - 1, k) if line else k
    one = 1 << k
    j = (d + one).bit_length()  # least 2^j > d + 2^k
    if j <= j_max:
        return (1 << j) - one
    s = one - d
    if s < 2:
        return None
    return one - (1 << min(j_max, (s - 1).bit_length() - 1))  # greatest 2^j < 2^k - d


def _point_at(p: int, q: int, k: int) -> ClusterPt:
    """The cluster point with the representative (p, q) at scale 2^k."""
    d = q - p
    j = ((1 << k) - abs(d)).bit_length() - 1  # |d| = 2^k - 2^j at depth k - j
    t = p >> j
    return ClusterPt(k - j, t if d >= 0 else t + 1)


def _walk_between(lower: Rep, upper: Rep) -> Walk:
    """The walk from the lower-right representative to the upper-left one."""
    k = 1 + max(lower[0].exp, lower[1].exp, upper[0].exp, upper[1].exp)
    (p, q), (left, top) = ((x.num << (k - x.exp), y.num << (k - y.exp)) for x, y in (lower, upper))
    return _walk_at(p, q, left, top, k)


def _walk_at(p: int, q: int, left: int, top: int, k: int) -> Walk:
    """The walk from the lower-right representative (p, q) to the upper-left
    one (left, top), stepped on integer numerators at the scale 2^k."""
    reps, steps = [(p, q)], []
    while p != left or q != top:
        c = _offset_above(q - p, p, k)
        if c is not None and p + c <= top:
            q = p + c
            steps.append("v")
        else:
            # the nearest rep to the left on y' = q: offset -c with c the
            # least offset above q - p, the offset set being symmetric
            c = _offset_above(q - p, q, k)
            if c is None or q - c < left:
                raise AssertionError(f"walk to ({Dyadic(left, k)}, {Dyadic(top, k)}) is stuck "
                                     f"at ({Dyadic(p, k)}, {Dyadic(q, k)})")
            p = q - c
            steps.append("h")
        reps.append((p, q))
    pts = tuple(_point_at(p, q, k) for p, q in reps)
    if len(set(pts)) != len(pts):
        raise AssertionError("walk visits an object twice")
    around = ("-", *steps, "-")
    roles = tuple(_ROLE.get(b + a, SINK) for b, a in zip(around, around[1:]))
    return Walk(pts, tuple(reps), k, tuple(steps), roles)


@lru_cache(maxsize=None)
def walk_of(x: Obj) -> Walk:
    """The finite walk attached to a dyadic object off the cluster."""
    if member(x) is not None:
        raise InCluster(f"{x} lies in the standard cluster")
    return _walk_between(_lower_endpoint(x.x, x.y), _upper_endpoint(x.x, x.y))


def minimal_walk(v: ClusterPt, w: ClusterPt) -> Walk:
    """The unique minimal walk between two cluster points, from the first pair
    of representatives, one translated by a multiple of 2, spanning a rectangle
    from its lower-right corner to its upper-left one.  The window search runs
    on integer numerators at the scale 2^(1 + max depth)."""
    k = 1 + max(v.n, w.n)
    period = 2 << k

    def scaled_reps(pt: ClusterPt) -> tuple[tuple[int, int], tuple[int, int]]:
        # object_of(T(n, m)).reps(): (m, m - 1 + 2^n) / 2^n, then its flip
        m, one, s = pt.m, 1 << pt.n, k - pt.n
        return ((m << s, (m - 1 + one) << s), ((m - 1 + 2 * one) << s, (m + one) << s))

    scaled_v, scaled_w = scaled_reps(v), scaled_reps(w)
    for lr_reps, ul_reps in ((scaled_v, scaled_w), (scaled_w, scaled_v)):
        for lx, ly in lr_reps:
            for ux, uy in ul_reps:
                shift = (lx - ux) // period * period  # lx - 2 < ux + shift <= lx
                if uy + shift >= ly:
                    return _walk_at(lx, ly, ux + shift, uy + shift, k)
    raise AssertionError(f"no common walk window for {v}, {w}")


@lru_cache(maxsize=None)
def approximation(x: Obj) -> Approximation:
    walk = walk_of(x)
    src = walk.sources()
    snk = walk.sinks()
    return Approximation(tuple(v.pt for v in src), tuple(v.pt for v in snk),
                         tuple(v.rep for v in src), tuple(v.rep for v in snk))


# -- Homs in the quotient ----------------------------------------------------

@lru_cache(maxsize=None)
def hom_ct_dim(src: Obj, dst: Obj) -> int:
    """dim Hom in the quotient by the cluster: 0 or 1.

    Nonzero iff some representative pair admits a basic map whose closed
    factoring rectangle avoids the cluster.
    """
    for (a, b), (x, y) in hom_c_configs(src, dst):
        if not meets_cluster(Rect.closed(a, x, b, y)):
            return 1
    return 0


@lru_cache(maxsize=None)
def compose_basic_nonzero(x: Obj, y: Obj, z: Obj) -> bool:
    """Whether the composite of basic maps x -> y -> z is nonzero in the quotient:
    whether y has a representative ry with rx <= ry <= rz in both coordinates
    for some basic rx -> rz whose closed rectangle avoids the cluster.

    With rx = (a, b), ry = (p, q) and rz = (c, d), such a chain gives
    d - 1 < a <= p <= c and c - 1 < b <= q <= d, so rx -> ry and ry -> rz are
    basic; conversely aligned basics rx -> ry -> rz form a chain, and their
    composite is basic when rx -> rz is.  Translating or flipping a whole
    chain changes nothing, and the rectangle is narrower than 2, so the
    translate of ry with c - 2 < p <= c is the only candidate.
    """
    y_reps = y.reps()
    for (a, b), (c, d) in hom_c_configs(x, z):
        for p, q in y_reps:
            shift = Dyadic(2 * floor_div2(c - p))
            if a <= p + shift and b <= q + shift <= d:
                if not meets_cluster(Rect.closed(a, c, b, d)):
                    return True
    return False


# -- infinitesimal translates -------------------------------------------------

def concrete_epsilon(objs) -> Dyadic:
    """1/2^K with K two past the finest coordinate exponent; below this
    resolution every translate-limit in this module has stabilized."""
    k = 2 + max((o.max_exp() for o in objs), default=0)
    return Dyadic(1, k)


def shifted(s: ClusterPt, dx: Dyadic, dy: Dyadic) -> Obj:
    x, y = object_of(s).reps()[0]
    return normal_form(x + dx, y + dy)


@dataclass(frozen=True)
class TauDims:
    tau_inv: int
    tau: int
    rad: int
    hom0: int
    hom0_T1: int

    @property
    def alternating_sum(self) -> int:
        return self.hom0_T1 - self.tau_inv + self.rad - self.hom0


def tau_dims(s: ClusterPt, x: Obj) -> TauDims:
    """Hom dimensions of the infinitesimal translates of s against x,
    read off the walk of x."""
    pt = member(x)
    if pt is not None:
        return TauDims(0, 0, 0, int(pt == s), 0)
    walk = walk_of(x)
    role = walk.role_of(s)
    if role is None:
        return TauDims(0, 0, 0, 0, 0)
    endpoint = s in (walk.pts[0], walk.pts[-1])
    in_support = not endpoint
    if role == SOURCE:
        rad = 0
    elif role == SINK and not endpoint:
        rad = 2
    else:
        rad = 1
    hom0 = int(role == SINK)
    hom0_t1 = int(role == SOURCE)
    return TauDims(int(in_support), int(in_support), rad, hom0, hom0_t1)


def factors_through_sink(s: ClusterPt, x: Obj) -> bool:
    """Every ambient-category map s -> x factors through a sink of the walk:
    verified by exhibiting an aligned chain s-rep <= sink-rep <= x-rep,
    on integer numerators at one scale."""
    walk, s_obj = walk_of(x), object_of(s)
    k = max(walk.k, s_obj.max_exp(), x.max_exp())
    up = k - walk.k
    sinks = [(p << up, q << up) for (p, q), role in zip(walk.nums, walk.roles) if role == SINK]
    for rs, rx in hom_c_configs(s_obj, x):
        a, b, xx, yy = (d.num << (k - d.exp) for d in (*rs, *rx))
        if any(a <= bx <= xx and b <= by <= yy for bx, by in sinks):
            return True
    return False
