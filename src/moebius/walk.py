"""Walks, approximations, supports and quotient-category Homs, all
relative to the standard cluster.

The walk attached to an object M(x, y) lives in the closed rectangle whose
lower-right and upper-left corners are the maximal cluster representatives
(x, b) and (a, y); it visits every cluster point of the rectangle, moving
up or left with arrows pointing up and right.  Sinks are the upper-right
corners of the zig-zag (including both endpoints), sources the lower-left
ones, and everything else is a through vertex.

The walk is read off the chords that x crosses, not stepped.  Its
interior is the support, the path that `cluster.crossing_path` reads off
the binary digits of the chord's two ends, in its order, and its two ends
are the attach vertices of that path (`cluster.attach`); a one-vertex path
starts at the attach vertex whose chord has the end x.  A step is
horizontal exactly where the quiver arrow runs along it
(`cluster.arrow_dir`).  At the scale 2^k, the representatives of T(n, m)
lie on the lines y' - x' = +-s, s = 2^k - 2^(k-n): a vertical step into
T(n, m) keeps p and sets q = p + s when p is the chord end m/2^n, q = p - s
otherwise; a horizontal step keeps q and sets p = q - s when q + 1 is the
end (m-1)/2^n, p = q + s otherwise.  The first vertex is (x, b), b by the
vertical rule.  The scale is one past the finest exponent of the corners,
k = e + 1 for x at the scale 2^e: x or y has exponent e, and no corner is
finer, as the path lies above depth e and an attach vertex is at most one
deeper.  A walk that does not end on the line y' = y left of x raises
`AssertionError`.

A `Walk` keeps the cluster points, their representatives as two tuples `xs`
and `ys` of integer numerators at the scale 2^k, the steps and the roles.
`Dyadic` representatives are built on demand (`vertices`, `to_json`), and
`approximation` builds those of the sources and sinks alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .dyadic import Dyadic
from .band import Obj, normal_form, hom_c_configs
from .cluster import (ClusterPt, member, object_of, box_meets_cluster, crossing_path, attach,
                      arrow_dir, chord_at)
from .errors import InCluster

SINK = "sink"
SOURCE = "source"
THROUGH = "through"


class WalkVertex(namedtuple("WalkVertex", "pt rep role")):
    """A cluster point of a walk, its representative and its role."""

    __slots__ = ()


# the role of a vertex by the steps before and after it ("-" at an end), any
# other pair being a sink: arrows point up and right, so a vertical step
# enters the upper vertex and a horizontal step the right one
_ROLE = {"vv": THROUGH, "hh": THROUGH, "hv": SOURCE, "h-": SOURCE, "-v": SOURCE}


class Walk(namedtuple("Walk", "pts xs ys k steps roles")):
    """The cluster points `pts` of a walk, the coordinates `xs` and `ys` of
    their representatives as numerators at the scale 2^k, the `steps` ("h"
    or "v") between consecutive vertices and the `roles`: a tuple of these
    six fields, equal to another walk with the same fields."""

    __slots__ = ()

    def _vertex(self, i: int) -> WalkVertex:
        rep = (Dyadic(self.xs[i], self.k), Dyadic(self.ys[i], self.k))
        return WalkVertex(self.pts[i], rep, self.roles[i])

    @property
    def vertices(self) -> tuple[WalkVertex, ...]:
        return tuple(map(self._vertex, range(len(self.pts))))

    def points(self) -> tuple[ClusterPt, ...]:
        return self.pts

    def role_of(self, pt: ClusterPt) -> str | None:
        return self.roles[self.pts.index(pt)] if pt in self.pts else None

    def to_json(self) -> list[dict]:
        return [{"pt": [v.pt.n, v.pt.m], "rep": [str(v.rep[0]), str(v.rep[1])], "role": v.role}
                for v in self.vertices]


class Approximation(namedtuple("Approximation", "sources sinks source_reps sink_reps")):
    """Sources and sinks of the walk: 0 -> (+)sources -> (+)sinks -> X -> 0,
    as tuples of cluster points and of their representatives."""

    __slots__ = ()


@lru_cache(maxsize=4096)
def support(x: Obj) -> frozenset[ClusterPt]:
    """Cluster points in the open rectangle (y-1, x) x (x-1, y): the chords
    that x crosses (`cluster.crossing_path`), the interior of its walk, and
    empty on the cluster."""
    return frozenset(crossing_path(x))


@lru_cache(maxsize=8192)
def walk_of(x: Obj) -> Walk:
    """The finite walk attached to a dyadic object off the cluster, read off
    the chords that x crosses (module docstring)."""
    path = crossing_path(x)
    if not path:
        raise InCluster(f"{x} lies in the standard cluster")
    k = x.e + 1
    one, mask = 1 << k, (2 << k) - 1
    xk, yk = x.xn << 1, (x.xn + x.dn) << 1
    first, last = attach(path)
    if len(path) == 1 and xk not in chord_at(first, k):
        first, last = last, first
    pts = (first, *path, last)
    steps = tuple(["h" if arrow_dir(u, v) else "v" for u, v in zip(pts, pts[1:])])
    p, xs, ys = xk, [], []
    for (n, m), step in zip(pts, ("v", *steps)):  # the first vertex (x, b) by the vertical rule
        d = 1 << (k - n)
        if step == "v":
            q = p + one - d if not (p - m * d) & mask else p - one + d
        else:
            p = q - one + d if not (q + one - (m - 1) * d) & mask else q + one - d
        xs.append(p)
        ys.append(q)
    if q != yk or not yk - one < p < xk:
        raise AssertionError(f"walk of {x} ends at ({Dyadic(p, k)}, {Dyadic(q, k)}), "
                             f"not at a corner (a, {x.y}) left of x")
    around = ("-", *steps, "-")
    roles = tuple(_ROLE.get(b + a, SINK) for b, a in zip(around, around[1:]))
    return Walk(pts, tuple(xs), tuple(ys), k, steps, roles)


def approximation(x: Obj) -> Approximation:
    """The sources and sinks of the walk of x, picked from its roles in one pass."""
    walk = walk_of(x)
    picked = {SOURCE: [], SINK: [], THROUGH: []}
    for i, role in enumerate(walk.roles):
        picked[role].append(i)
    src, snk = picked[SOURCE], picked[SINK]
    pts, xs, ys, k = walk.pts, walk.xs, walk.ys, walk.k
    reps = lambda idx: tuple([(Dyadic(xs[i], k), Dyadic(ys[i], k)) for i in idx])
    return Approximation(tuple([pts[i] for i in src]), tuple([pts[i] for i in snk]),
                         reps(src), reps(snk))


# -- Homs in the quotient ----------------------------------------------------

@lru_cache(maxsize=4096)
def hom_ct_dim(src: Obj, dst: Obj) -> int:
    """dim Hom in the quotient by the cluster: 0 or 1.

    Nonzero iff some representative pair admits a basic map whose closed
    factoring rectangle avoids the cluster.  The cache serves the callers
    off the acceptance grid, such as `MorQ` cleaning and the command line;
    the suite reads the grid's pairs from `checks._hom_table`.
    """
    e = max(src.e, dst.e)
    for (a, b), (x, y) in hom_c_configs(src, dst):
        if not box_meets_cluster(a, x, b, y, e):
            return 1
    return 0


def compose_basic_nonzero(x: Obj, y: Obj, z: Obj) -> bool:
    """Whether the composite of basics x -> y -> z, both nonzero (the
    precondition), survives the quotient: iff the three supports meet, as F
    is faithful and F of a nonzero basic u -> v is a nonzero scalar on
    support(u) & support(v), zero elsewhere (`quotient._vertex_matrices`)."""
    return not support(x).isdisjoint(support(y) & support(z))


def chain_box_nonzero(x: Obj, y: Obj, z: Obj) -> bool:
    """The geometric reference for `compose_basic_nonzero`, on any chain:
    whether y has a representative ry with rx <= ry <= rz in both coordinates
    for some basic rx -> rz whose closed rectangle avoids the cluster.

    With rx = (a, b), ry = (p, q) and rz = (c, d), such a chain gives
    d - 1 < a <= p <= c and c - 1 < b <= q <= d, so rx -> ry and ry -> rz are
    basic; conversely aligned basics rx -> ry -> rz form a chain, and their
    composite is basic when rx -> rz is.  Translating or flipping a whole
    chain changes nothing, and the rectangle is narrower than 2, so the
    translate of ry with c - 2 < p <= c is the only candidate.  All of it
    runs on numerators at the scale 2^e of the finest of the three: the
    configs rx -> rz of `band.hom_c_configs` are built there one at a time,
    y's representatives are read once, and a config's closed box is tested
    once, when a representative of y lies in it.
    """
    e = max(x.e, y.e, z.e)
    one, period = 1 << e, 2 << e
    s, t = e - x.e, e - z.e
    p0, q0 = x.xn << s, (x.xn + x.dn) << s
    u, v = z.xn << t, (z.xn + z.dn) << t
    y_reps = y.reps_at(e)
    for c, d in ((u, v), (v + one, u + one)):
        for a0, b0 in ((p0, q0), (q0 + one, p0 + one)):
            shift = (c - a0) // period * period
            a, b = a0 + shift, b0 + shift
            if d - one < a and c - one < b <= d:  # a config of `hom_c_configs(x, z)`
                for p, q in y_reps:
                    lift = (c - p) // period * period
                    if a <= p + lift and b <= q + lift <= d:
                        if not box_meets_cluster(a, c, b, d, e):
                            return True
                        break
    return False


# -- infinitesimal translates -------------------------------------------------

def concrete_epsilon(objs) -> Dyadic:
    """1/2^K with K two past the finest coordinate exponent; below this
    resolution every translate-limit in this module has stabilized."""
    k = 2 + max((o.max_exp() for o in objs), default=0)
    return Dyadic(1, k)


def shifted(s: ClusterPt, dx: Dyadic, dy: Dyadic) -> Obj:
    """normal_form of the canonical representative of s moved by (dx, dy)."""
    obj = object_of(s)
    k = max(obj.e, dx.exp, dy.exp)
    (x, y), _ = obj.reps_at(k)
    return normal_form(x + (dx.num << (k - dx.exp)), y + (dy.num << (k - dy.exp)), k)


class TauDims(namedtuple("TauDims", "tau_inv tau rad hom0 hom0_T1")):
    __slots__ = ()

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
    inner = int(s not in (walk.pts[0], walk.pts[-1]))
    rad = 0 if role == SOURCE else 2 if role == SINK and inner else 1
    return TauDims(inner, inner, rad, int(role == SINK), int(role == SOURCE))


def factors_through_sink(s: ClusterPt, x: Obj) -> bool:
    """Every ambient-category map s -> x factors through a sink of the walk:
    verified by exhibiting an aligned chain s-rep <= sink-rep <= x-rep,
    on integer numerators at one scale."""
    walk, s_obj = walk_of(x), object_of(s)
    e = max(s_obj.e, x.e)
    k = max(walk.k, e)
    up, sc = k - walk.k, k - e
    sinks = [(p << up, q << up) for p, q, role in zip(walk.xs, walk.ys, walk.roles) if role == SINK]
    for (a, b), (xx, yy) in hom_c_configs(s_obj, x):
        a, b, xx, yy = a << sc, b << sc, xx << sc, yy << sc
        if any(a <= bx <= xx and b <= by <= yy for bx, by in sinks):
            return True
    return False
