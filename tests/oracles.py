"""Second implementations that the tests compare the library against.

Each computes a quantity of `moebius` from its definition rather than by the
library's fast path: the translate dimensions from the defining epsilon
limits, the maps out of a cluster object modulo those through the rest of
the cluster by enumerating the rectangles of its maps, and the mirror digit
tail by stepping through the triangles one digit at a time.
"""

from moebius.dyadic import Dyadic
from moebius.band import Obj, Rect, Rep, hom_c_configs
from moebius.cluster import ClusterPt, object_of, neighbors, enum_in_rect_with_reps
from moebius.walk import concrete_epsilon, hom_ct_dim, shifted
from moebius.equiv import DigitPrefix, _step_rep_maybe


def tau_dims_via_epsilon(s: ClusterPt, x: Obj) -> tuple[int, int, int]:
    """(tau_inv, tau, rad) computed from the defining translate limits."""
    eps = concrete_epsilon([object_of(s), x])
    tau_inv = hom_ct_dim(shifted(s, eps, eps), x)
    tau = hom_ct_dim(x, shifted(s, -eps, -eps))
    rad = hom_ct_dim(shifted(s, eps, Dyadic(0)), x) + hom_ct_dim(shifted(s, Dyadic(0), eps), x)
    return (tau_inv, tau, rad)


def hom0_via_factoring(s: ClusterPt, x: Obj) -> int:
    """Maps s -> x modulo those factoring through other cluster objects:
    nonzero iff some basic rectangle meets the cluster only at s itself."""
    s_obj = object_of(s)
    for (a, b), (xx, yy) in hom_c_configs(s_obj, x):
        pts = {pt for pt, _ in enum_in_rect_with_reps(Rect.closed(a, xx, b, yy))}
        if pts <= {s}:
            return 1
    return 0


def lower_tail_coords(p: DigitPrefix) -> Rep:
    """Mirror tail from the base going the other way: digit 1 keeps the
    second coordinate (a horizontal step right), digit 0 keeps the first
    (a vertical step down)."""
    cur = object_of(p.base).reps()[0]
    cur_pt = p.base
    prev_tri = None
    for d in p.digits:
        opts = []
        for tri in neighbors(cur_pt):
            tri_set = frozenset(tri)
            if prev_tri is not None and tri_set == prev_tri:
                continue
            for cand, outward in ((tri[0], False), (tri[2], True)):
                rep = _step_rep_maybe(cur, cand, outward)
                if rep is not None:
                    opts.append((cand, rep, tri_set))
        horiz = [(c, r, t) for (c, r, t) in opts if r[1] == cur[1] and r[0] > cur[0]]
        vert = [(c, r, t) for (c, r, t) in opts if r[0] == cur[0] and r[1] < cur[1]]
        pick = horiz if d == 1 else vert
        if len(pick) != 1:
            raise AssertionError(f"mirror tail step not unique at {cur_pt}")
        cur_pt, cur, prev_tri = pick[0][0], pick[0][1], pick[0][2]
    return cur
