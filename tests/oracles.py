"""Second implementations that the tests compare the library against.

Each computes a quantity of `moebius` from its definition or by a search,
rather than by the library's fast path:

- `arrows_at`, `arrow_between` and `letter` check the quiver that
  `cluster.in_neighbors`, `out_neighbors`, `triangle` and `arrow_dir` read
  off integers, each arrow a `QArrow` that carries its triangle as the
  frozenset of its points, built on the 3-cycles of `cluster.neighbors`;
  `attach_arrows` and `g_extend_by_arrows` check `cluster.attach` (through
  `equiv.g_extend`) and `equiv.g_extend` on those arrows;
- `tau_dims_via_epsilon` checks `walk.tau_dims` by the defining epsilon
  limits of the translates;
- `hom0_via_factoring` checks `TauDims.hom0` by enumerating the rectangles
  of the maps out of a cluster object;
- `lower_tail_coords` steps the mirror digit tail through the triangles one
  digit at a time (the lower tail has no library counterpart);
- `compose_basic_nonzero_by_pairing` checks `walk.chain_box_nonzero`, the
  geometric reference for the support rule of `walk.compose_basic_nonzero`,
  by pairing every representative config of x -> y with every config of
  y -> z and both flips;
- `string_to_obj_by_steps` checks `equiv.string_to_obj` by stepping from
  representative to adjacent representative along the word
  (`_step_rep_maybe`, `_step_rep`, `_word_reps`);
- `_scan_walk_of` checks `walk.walk_of` by scanning the walk's rectangle
  for every cluster representative and sorting them along the zig-zag
  (`_scan_assemble`), the rectangle spanned by corners found on Dyadics
  (`lower_corner_on_dyadics`, `upper_corner_on_dyadics`);
- `walk_at_by_points` checks `walk.walk_of`, which reads the walk off the
  chords that x crosses, by stepping from representative to representative
  between the corners found on Dyadics (`stepped_walk_of`): each offset is
  searched from its line's coordinate (`_offset_above`), and each point is
  read back off its pair (`_point_at`);
- `support_by_walk`, `obj_to_string_by_walk` and `string_to_obj_by_walk`
  check `walk.support`, `equiv.obj_to_string` and `equiv.string_to_obj`,
  which read the crossed chords off the chord's two ends
  (`cluster.crossing_path`, `cluster.arrow_dir`) and the object off the
  apexes of its end triangles, on that stepped walk: the interior of the walk
  of x, its word with a horizontal step as a forward letter (`_walk_word`),
  and the corners of the `minimal_walk` between the two attach vertices;
- `_ends`, `_gap` and `_obj_from_ends` check `Obj.ends_at`, `band.ends`,
  `cluster.chord`, `cluster.chord_at` and `band.obj_from_ends`, which read
  chord ends as integer numerators mod 2^(k+1) at one scale, with each end a
  `Fraction` in [0, 2) from the public coordinates; `ends_cross_on_fractions`
  checks the crossing test of criterion 9 (`checks._ends_cross`);
- `crossing_path_by_levels` checks `cluster.crossing_path`, which reads
  each end's run of crossed depths off its binary digits, by testing every
  depth below each end's reduced exponent;
- `_member_by_ends` checks `cluster.member` by searching the ends of x for
  an arc of length 1/2^n between points of the 1/2^n grid;
- `mutate_on_angles` checks `cluster.mutate`, which reads every chord end
  as an integer numerator at one scale, by the same apex search with each
  end a `Fraction` mod 2, each chord tested by building its object
  (`has_chord`, `_apex`);
- `_flip_by_fan` checks `cluster.mutate` by searching each apex among the
  standard fans at the ends of the chord (`_fan_candidates`,
  `_apex_by_fan`);
- `render_by_dyadics` checks `render.render` by computing the bounds and
  every coordinate in `Dyadic` arithmetic from the walk's `vertices`;
- `induced_support_map` checks where a basic map acts, which
  `quotient._vertex_matrices` takes to be the whole common support, by
  composing with a translate of each common support point, each composite
  read off the rectangles (`walk.chain_box_nonzero`), not the supports;
- `classify_per_point` checks `quotient.classify`, which takes one rank per
  set of summands present, decides a 1x1 morphism by subset tests and an
  all-zero matrix by its shape, by building F(f) at every support point
  and taking its rank;
- `_classify_by_translates` checks `quotient.classify` by building F(f) at
  each point from one epsilon over every summand and a translate composite
  per entry, read off the rectangles;
- `decompose_rep_by_rescans` checks `strings.decompose_rep` by listing the
  candidate words of the remaining support again after every peel and
  re-solving every arrow of the remainder (`_peel_everywhere`,
  `_restrict_everywhere`), with dense constraint rows for both hom spaces
  (`_hom_word_to_rep_dense`, `_hom_rep_to_word_dense`), each its own row
  loop over the arrows at the word's vertices, where the library builds
  the second as the first over the opposite quiver (`strings._word_maps`);
- `decompose_rep_by_peeling` checks `strings.decompose_rep`, which splits
  each piece into connected components and reads a thin component off as
  its path word, by peeling the whole representation a word at a time in
  the order of one listing of the candidate words on its support;
- `cokernel_by_quotients` checks `quotient._cokernel_rep`, which mirrors
  a kernel (`band.mirror`), by vertexwise quotients on the target's
  string module, with a complement and two inversions at each vertex
  (`column_space_basis`, `invert`, `_arrows`);
- `f_strip_by_search` checks `equiv.f_strip`, which cuts the two runs of
  vertices with a path to a marked end off in closed form, by a frontier
  search along the letters from each marked end;
- `_rref_on_fractions` checks `linalg._rref` by eliminating on `Fraction`s;
- `solve` checks `linalg.solve_on_unit_rows`, which reads X off the unit
  rows of a basis, by row reduction of the whole system;
- `normal_form_on_dyadics`, `member_on_dyadics`, `hom_c_configs_on_dyadics`,
  `hom_ct_dim_on_dyadics`, `compose_basic_nonzero_on_dyadics` (of
  `walk.chain_box_nonzero`),
  `triangle_complete_on_dyadics`, `shifted_on_dyadics` and `digits_to_coords_on_dyadics` check the band
  geometry, which the library runs on integer numerators at one scale, in
  `Dyadic` arithmetic on the public coordinates (`dyadic_reps`);
- `meets_cluster_by_level_scan` checks `cluster.box_meets_cluster`, which
  tries only the depths whose lines cross the box, by trying every depth;
  `meets_cluster` puts a `Rect`, open edges included, to the box test, for
  the Dyadic oracles and the rectangle tests;
- `_brute_force_occurrences` checks `strings._occurrences`, which tests
  only the run of common vertices, by trying every factor segment of w1 at
  every position of w2 and of its reversal;
- `candidate_words_by_paths` checks `strings._candidate_words`, which
  keeps one parent pointer per vertex a reduced path reaches and builds the
  words of one length only when the listing reaches them, by growing and
  copying every reduced path and sorting the whole list;
  `_brute_force_candidates` checks both by growing every simple path on the
  support and keeping those `word` accepts.

`fraction` converts a `Dyadic` to the `Fraction` the tests compare with.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from moebius.dyadic import Dyadic, ONE, decimal, reduced_exp
from moebius.band import Obj, Rect, Rep, normal_form
from moebius.cluster import (ClusterPt, ClusterOverlay, object_of, member, neighbors,
                             enum_in_rect_with_reps, box_meets_cluster, _box, _t_range)
from moebius.walk import (Walk, WalkVertex, SINK, SOURCE, THROUGH, concrete_epsilon,
                          chain_box_nonzero, hom_ct_dim, shifted, support)
from moebius.equiv import DigitPrefix, obj_to_string, string_to_obj
from moebius.errors import (BandBoundary, InvalidWord, NoMorphism, NotAModule, NotBasicAligned,
                            NotInCluster)
from moebius.quotient import (Classification, MorQ, SumObj, zero_mor, _scalar_of_component,
                              _vertex_matrices)
from moebius import linalg
from moebius.strings import (StringWord, RepFin, word, _candidate_words, _letters, _peel,
                             _split_off, decompose_rep, direct_sum, overlap, to_rep)


# -- the quiver as arrows that carry their triangle -----------------------------
#
# The library reads the quiver off integers (`cluster.in_neighbors`,
# `out_neighbors`, `triangle`, `arrow_dir`); here each arrow is a value that
# holds its two ends and its triangle as the frozenset of its three points,
# built from the 3-cycles of `cluster.neighbors`.

class QArrow(namedtuple("QArrow", "src dst triangle")):
    """The quiver arrow src -> dst of the triangle (a frozenset of its three
    points)."""

    __slots__ = ()


def arrows_at(v: ClusterPt) -> tuple[tuple[QArrow, QArrow], tuple[QArrow, QArrow]]:
    """(incoming, outgoing) quiver arrows at v, one of each per triangle."""
    ins, outs = [], []
    for a, _, c in neighbors(v):
        tri = frozenset((a, v, c))
        # cluster maps a -> v -> c -> a reverse to arrows v -> a, c -> v, a -> c
        outs.append(QArrow(v, a, tri))
        ins.append(QArrow(c, v, tri))
    return (tuple(ins), tuple(outs))


def arrow_between(u: ClusterPt, v: ClusterPt) -> QArrow | None:
    """The quiver arrow u -> v if the two chords share a triangle that orients
    this way."""
    for arr in arrows_at(u)[1]:
        if arr.dst == v:
            return arr
    return None


def letter(w: StringWord, i: int) -> QArrow:
    """The arrow of letter i of w."""
    u, v = w.verts[i], w.verts[i + 1]
    arr = arrow_between(u, v) if w.directs[i] else arrow_between(v, u)
    if arr is None:
        raise InvalidWord(f"no arrow between {u} and {v}")
    return arr


def _attach_at(end: ClusterPt, used: frozenset) -> QArrow:
    options = [a for a in arrows_at(end)[0] if a.triangle != used]
    if len(options) != 1:
        raise InvalidWord(f"attach vertex at {end} not unique")
    return options[0]


def attach_arrows(w: StringWord) -> tuple[QArrow, QArrow]:
    """The incoming arrows attached at the left and right ends of w, each
    from the triangle its end letter does not use."""
    if len(w.verts) == 1:
        t1, t2 = (a.triangle for a in arrows_at(w.verts[0])[0])
        return (_attach_at(w.verts[0], t2), _attach_at(w.verts[0], t1))
    return (_attach_at(w.verts[0], letter(w, 0).triangle),
            _attach_at(w.verts[-1], letter(w, len(w.directs) - 1).triangle))


def g_extend_by_arrows(w: StringWord, k: int) -> StringWord:
    """`equiv.g_extend`: each attach arrow extended by k out-arrows, each
    from the triangle the previous arrow does not use."""
    def ray(att):
        chain, used = [att.src], att.triangle
        for _ in range(k):
            (nxt,) = [a for a in arrows_at(chain[-1])[1] if a.triangle != used]
            chain.append(nxt.dst)
            used = nxt.triangle
        return chain

    # the ray letters point outward, the attach letters into w; `word`
    # checks them against the quiver
    left, right = (ray(att) for att in attach_arrows(w))
    return word((*reversed(left), *w.verts, *right),
                (False,) * k + (True,) + w.directs + (False,) + (True,) * k,
                lmark=True, rmark=True)


# -- the geometry on Dyadic coordinates -----------------------------------------
#
# The library computes these on integer numerators at one scale; here every
# coordinate is a `Dyadic` and every object comes from the public `Obj(x, delta)`.

def fraction(a: Dyadic) -> Fraction:
    return Fraction(a.num, 1 << a.exp)


@lru_cache(maxsize=None)
def dyadic_reps(obj: Obj) -> tuple[Rep, Rep]:
    """Canonical representative and its flip (each modulo translation by 2)."""
    x, y = obj.x, obj.y
    return ((x, y), (y + ONE, x + ONE))


def normal_form_on_dyadics(x: Dyadic, y: Dyadic) -> Obj:
    delta = y - x
    if delta.num < 0:
        x, delta = y + ONE, -delta
    if delta >= ONE:
        raise BandBoundary(f"({x}, {y}) lies outside the open band")
    period = 2 if delta.num else 1
    return Obj(Dyadic(x.num % (period << x.exp), x.exp), delta)


def member_on_dyadics(x: Obj) -> ClusterPt | None:
    d, x0 = x.delta, x.x
    n = d.exp
    if d.num == (1 << n) - 1 and x0.exp <= n:
        return ClusterPt(n, x0.num << (n - x0.exp))
    return None


@lru_cache(maxsize=None)
def _even(k: int) -> Dyadic:
    return Dyadic(2 * k)


def hom_c_configs_on_dyadics(src: Obj, dst: Obj) -> list[tuple[Rep, Rep]]:
    """`band.hom_c_configs` with the translate by 2k, k = floor((x - a)/2),
    found on Dyadics: k is the numerator of the Dyadic x - a shifted right
    past its binary point and one more place.  It puts a in (x - 2, x], so
    a <= x holds."""
    out = []
    for (a0, b0), moved in _translates(src):
        for (x, y), (x1, y1) in _reps_less_one(dst):
            d = x - a0
            a, b = moved[d.num >> (d.exp + 1)]
            if y1 < a and x1 < b <= y:
                out.append(((a, b), (x, y)))
    return out


@lru_cache(maxsize=None)
def _translates(obj: Obj) -> tuple[tuple[Rep, dict[int, Rep]], ...]:
    """Each representative (a, b) of obj with its translates by 2k, by k.
    The first coordinates of `dyadic_reps` lie in [0, 4), so x - a lies in
    (-4, 4) and k in -2..1."""
    return tuple(((a, b), {k: (a + _even(k), b + _even(k)) for k in range(-2, 2)})
                 for a, b in dyadic_reps(obj))


@lru_cache(maxsize=None)
def _reps_less_one(obj: Obj) -> tuple[tuple[Rep, Rep], ...]:
    return tuple(((x, y), (x - ONE, y - ONE)) for x, y in dyadic_reps(obj))


def hom_ct_dim_on_dyadics(src: Obj, dst: Obj, configs=None) -> int:
    """0 or 1 by the closed factoring rectangles of the given or the found
    `hom_c_configs_on_dyadics`."""
    if configs is None:
        configs = hom_c_configs_on_dyadics(src, dst)
    return int(any(not meets_cluster(Rect(a, x, b, y)) for (a, b), (x, y) in configs))


def meets_cluster(rect: Rect) -> bool:
    """`cluster.box_meets_cluster` of rect.  Moved one unit inward at the
    scale of `_box`, an open edge keeps every point of depth <= e + 2 on its
    side, and e + 2, the probe depth of `enum_in_rect_with_reps`, settles an
    open rect."""
    k = rect.max_exp() + 2
    return box_meets_cluster(*_box(rect, k), k + 1)


def meets_cluster_by_level_scan(rect: Rect, extra: int = 0) -> bool:
    """`meets_cluster` by trying every depth up to its bound (plus
    `extra`), each by the two ranges of `_t_range`."""
    k = rect.max_exp() + 1 + (rect.open_x_lo or rect.open_x_hi or rect.open_y_lo or rect.open_y_hi) + extra
    box = _box(rect, k)  # at the scale 2^(k+1)
    for n in range(k + 1):
        step = 2 << (k - n)
        for d in ((2 << k) - step, step - (2 << k)):
            t_min, t_max = _t_range(box, step, d)
            if t_min <= t_max:
                return True
    return False


def compose_basic_nonzero_on_dyadics(x: Obj, y: Obj, z: Obj) -> bool:
    for (a, b), (c, d) in hom_c_configs_on_dyadics(x, z):
        for p, q in dyadic_reps(y):
            shift = _even(fraction(c - p) // 2)
            if a <= p + shift and b <= q + shift <= d and not meets_cluster(Rect(a, c, b, d)):
                return True
    return False


def triangle_complete_on_dyadics(src: Obj, dst: Obj, kind: str) -> tuple[Obj, Obj]:
    for (a0, b0) in dyadic_reps(src):
        for (x, y) in dyadic_reps(dst):
            if kind == "positive":
                diff = x - a0
                if diff.exp == 0 and diff.num % 2 == 0:
                    b = b0 + diff
                    if b < y and -ONE < y - (b + ONE) < ONE and -ONE < b - x < ONE:
                        return (normal_form_on_dyadics(b + ONE, y), normal_form_on_dyadics(b + ONE, x + ONE))
            else:
                diff = y - b0
                if diff.exp == 0 and diff.num % 2 == 0:
                    a = a0 + diff
                    if a < x and -ONE < (a + ONE) - x < ONE and -ONE < y - a < ONE:
                        return (normal_form_on_dyadics(x, a + ONE), normal_form_on_dyadics(y + ONE, a + ONE))
    raise NotBasicAligned(f"no {kind} triangle on a basic map {src} -> {dst}")


def shifted_on_dyadics(s: ClusterPt, dx: Dyadic, dy: Dyadic) -> Obj:
    x, y = dyadic_reps(object_of(s))[0]
    return normal_form_on_dyadics(x + dx, y + dy)


def digits_to_coords_on_dyadics(p: DigitPrefix) -> Rep:
    base = object_of(p.base)
    theta = ONE - base.delta
    m = len(p.digits)
    d = int("".join(map(str, p.digits)) or "0", 2)
    bm = base.y + Dyadic(theta.num * d, theta.exp + m)
    return (bm - ONE + Dyadic(theta.num, theta.exp + m), bm)


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
    for (a, b), (xx, yy) in hom_c_configs_on_dyadics(s_obj, x):
        pts = {pt for pt, _ in enum_in_rect_with_reps(Rect(a, xx, b, yy))}
        if pts <= {s}:
            return 1
    return 0


def lower_tail_coords(p: DigitPrefix) -> Rep:
    """Mirror tail from the base going the other way: digit 1 keeps the
    second coordinate (a horizontal step right), digit 0 keeps the first
    (a vertical step down)."""
    cur = dyadic_reps(object_of(p.base))[0]
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


# -- composites by pairing the configs of the two factors ---------------------

def _same_family(r1: Rep, r2: Rep) -> bool:
    dx, dy = r1[0] - r2[0], r1[1] - r2[1]
    return dx == dy and dx.exp == 0 and dx.num % 2 == 0


def _flip(rep: Rep) -> Rep:
    return (rep[1] + ONE, rep[0] + ONE)


def compose_basic_nonzero_by_pairing(x: Obj, y: Obj, z: Obj) -> bool:
    """Whether the composite of basic maps x -> y -> z is nonzero, found by
    aligning a config of x -> y with a config of y -> z on the same
    representative of y."""
    cfg_xy = hom_c_configs_on_dyadics(x, y)
    cfg_yz = hom_c_configs_on_dyadics(y, z)
    for (rx, ry) in cfg_xy:
        for (ry2, rz2) in cfg_yz:
            for flipped in (False, True):
                ry_c, rz_c = (_flip(ry2), _flip(rz2)) if flipped else (ry2, rz2)
                if not _same_family(ry, ry_c):
                    continue
                shift = ry[0] - ry_c[0]
                rz = (rz_c[0] + shift, rz_c[1] + shift)
                # window conditions for the composite basic rx -> rz
                if not (rz[1] - ONE < rx[0] and rz[0] - ONE < rx[1]):
                    continue
                if meets_cluster(Rect(rx[0], rz[0], rx[1], rz[1])):
                    continue
                return True
    return False


# -- words to objects by stepping between adjacent representatives -----------

def _step_rep_maybe(cur: Rep, target: ClusterPt, outward: bool) -> Rep | None:
    """The representative of target adjacent to cur along an irreducible map:
    one shared coordinate, the other strictly larger (outward) or smaller."""
    candidates = []
    for (p0, q0) in dyadic_reps(object_of(target)):
        for axis in (0, 1):
            base = (p0, q0)[axis]
            want = cur[axis]
            diff = want - base
            if diff.exp != 0 or diff.num % 2:
                continue
            p, q = p0 + diff, q0 + diff
            other, other_cur = (q, cur[1]) if axis == 0 else (p, cur[0])
            if outward and other > other_cur:
                candidates.append((p, q))
            if not outward and other < other_cur:
                candidates.append((p, q))
    uniq = set(candidates)
    if len(uniq) > 1:
        raise AssertionError(f"adjacent representative of {target} at {cur} is ambiguous")
    return next(iter(uniq)) if uniq else None


def _step_rep(cur: Rep, target: ClusterPt, outward: bool) -> Rep:
    rep = _step_rep_maybe(cur, target, outward)
    if rep is None:
        raise AssertionError(f"no adjacent representative of {target} at {cur}")
    return rep


def _word_reps(w: StringWord) -> list[Rep]:
    reps = [dyadic_reps(object_of(w.verts[0]))[0]]
    for i in range(len(w.directs)):
        nxt = w.verts[i + 1]
        # letter v_i -> v_{i+1} reverses a cluster map v_{i+1} -> v_i (inward);
        # letter v_{i+1} -> v_i reverses a cluster map v_i -> v_{i+1} (outward)
        reps.append(_step_rep(reps[-1], nxt, outward=not w.directs[i]))
    return reps


def string_to_obj_by_steps(w: StringWord) -> Obj:
    """The object whose support word is w, read off the two attach
    representatives reached by stepping along the word."""
    if w.marked:
        raise InvalidWord("ray-marked words do not name finite objects")
    reps = _word_reps(w)
    att_l, att_r = attach_arrows(w)
    rep_l = _step_rep(reps[0], att_l.src, outward=True)
    rep_r = _step_rep(reps[-1], att_r.src, outward=True)
    (a1, a2), (b1, b2) = sorted((rep_l, rep_r), key=lambda r: r[0])
    if not (a1 < b1 and a2 > b2):
        raise AssertionError(f"attach corners of {w} not in general position")
    return normal_form(b1, a2)


# -- walks by scanning their rectangles ----------------------------------------
#
# The reference builds a walk by scanning its closed rectangle for every
# cluster representative (`enum_in_rect_with_reps`, uncached here) and
# sorting them along the zig-zag.  It gives the pair (vertices, steps), with
# `WalkVertex` vertices and roles assigned by its own rule.

def _scan_assemble(reps_pts):
    # down the x-coordinate, then up the y-coordinate, on numerators at one scale
    e = max(max(r[0].exp, r[1].exp) for _, r in reps_pts)
    ordered = sorted(reps_pts, key=lambda pr: (-(pr[1][0].num << (e - pr[1][0].exp)),
                                               pr[1][1].num << (e - pr[1][1].exp)))
    pts = [p for p, _ in ordered]
    assert len(set(pts)) == len(pts), "walk visits an object twice"
    steps = []
    for (_, r1), (_, r2) in zip(ordered, ordered[1:]):
        if r1[0] == r2[0] and r1[1] < r2[1]:
            steps.append("v")
        elif r1[1] == r2[1] and r2[0] < r1[0]:
            steps.append("h")
        else:
            raise AssertionError(f"broken walk step {r1} -> {r2}")
    vertices = []
    for i, (pt, rep) in enumerate(ordered):
        out_next = i < len(steps) and steps[i] == "v"
        in_next = i < len(steps) and steps[i] == "h"
        out_prev = i > 0 and steps[i - 1] == "h"
        in_prev = i > 0 and steps[i - 1] == "v"
        n_in, n_out = in_next + in_prev, out_next + out_prev
        role = SOURCE if n_out and not n_in else THROUGH if n_in and n_out else SINK
        vertices.append(WalkVertex(pt, rep, role))
    return tuple(vertices), tuple(steps)


def _scan(rect):
    return _scan_assemble(list(enum_in_rect_with_reps.__wrapped__(rect)))


def _delta(n: int) -> Dyadic:
    return ONE - Dyadic(1, n)


def lower_corner_on_dyadics(x: Dyadic, y: Dyadic) -> Rep:
    """Maximal b < y with (x, b) a cluster representative: x + 1 - 1/2^n for
    the largest n >= exp(x) with 1/2^n > 1 - delta, else x - 1 + 1/2^n for
    the least n >= exp(x) that keeps it below y."""
    delta = y - x
    if delta.num > 0:
        gap = ONE - delta
        n_star = gap.exp - gap.num.bit_length()
        if n_star >= x.exp:
            return (x, x + _delta(n_star))
    n_b = x.exp if delta.num > 0 else max(x.exp, 1)
    return (x, x - _delta(n_b))


def upper_corner_on_dyadics(x: Dyadic, y: Dyadic) -> Rep:
    """Maximal a < x with (a, y) a cluster representative: y - 1 + 1/2^n for
    the least n >= exp(y) with 1/2^n < 1 - delta."""
    gap = ONE - (y - x)
    n0 = gap.exp + 1 if gap.num == 1 else gap.exp - gap.num.bit_length() + 1
    return (y - _delta(max(n0, y.exp)), y)


def _scan_walk_of(x):
    lower, upper = lower_corner_on_dyadics(x.x, x.y), upper_corner_on_dyadics(x.x, x.y)
    vertices, steps = _scan(Rect(upper[0], x.x, lower[1], x.y))
    assert vertices[0].rep == lower and vertices[-1].rep == upper
    return vertices, steps


# -- walks stepped one pair at a time --------------------------------------------

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


def walk_at_by_points(p: int, q: int, left: int, top: int, k: int):
    """The walk from (p, q) to (left, top) at the scale 2^k, as (pts, reps,
    k, steps, roles) with reps the (p, q) pair of each vertex."""
    from moebius.walk import _ROLE
    reps, steps = [(p, q)], []
    while p != left or q != top:
        c = _offset_above(q - p, p, k)
        if c is not None and p + c <= top:
            q = p + c
            steps.append("v")
        else:
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
    return pts, tuple(reps), k, tuple(steps), roles


def stepped_walk(p: int, q: int, left: int, top: int, k: int) -> Walk:
    """`walk_at_by_points` as a `Walk`."""
    pts, reps, k, steps, roles = walk_at_by_points(p, q, left, top, k)
    xs, ys = zip(*reps)
    return Walk(pts, xs, ys, k, steps, roles)


def stepped_walk_of(x: Obj) -> Walk:
    """The walk of x off the cluster, stepped between its corners (x, b) and
    (a, y) found on Dyadics, at the scale 2^k, k one past the finest of
    their exponents."""
    corners = (*lower_corner_on_dyadics(x.x, x.y), *upper_corner_on_dyadics(x.x, x.y))
    k = 1 + max(c.exp for c in corners)
    return stepped_walk(*(c.num << (k - c.exp) for c in corners), k)


# -- supports, words and objects on stepped walks -------------------------------
#
# The library reads these off the two ends of a chord; here each steps a walk,
# from the corners of x (`stepped_walk_of`) or between two cluster points.

def support_by_walk(x: Obj) -> frozenset[ClusterPt]:
    """The interior of the walk of x, and empty on the cluster."""
    if member(x) is not None:
        return frozenset()
    return frozenset(stepped_walk_of(x).pts[1:-1])


def minimal_walk(v: ClusterPt, w: ClusterPt) -> Walk:
    """The unique minimal walk between two cluster points, from the first pair
    of representatives, one translated by a multiple of 2, spanning a rectangle
    from its lower-right corner to its upper-left one.  The window search runs
    on integer numerators at the scale 2^(1 + max depth)."""
    k = 1 + max(v.n, w.n)
    one, period = 1 << k, 2 << k

    def reps(pt: ClusterPt) -> tuple[tuple[int, int], tuple[int, int]]:
        x, y = pt.m << (k - pt.n), ((pt.m - 1) << (k - pt.n)) + one  # (m, m - 1 + 2^n)/2^n
        return ((x, y), (y + one, x + one))  # and its flip, as object_of(pt).reps_at(k)

    reps_v, reps_w = reps(v), reps(w)
    for lr_reps, ul_reps in ((reps_v, reps_w), (reps_w, reps_v)):
        for lx, ly in lr_reps:
            for ux, uy in ul_reps:
                shift = (lx - ux) // period * period  # lx - 2 < ux + shift <= lx
                if uy + shift >= ly:
                    return stepped_walk(lx, ly, ux + shift, uy + shift, k)
    raise AssertionError(f"no common walk window for {v}, {w}")


def _walk_word(walk: Walk) -> StringWord:
    """The word on the interior of a walk, arrows reversed: a vertical step
    is a cluster map up v_i -> v_{i+1}, so its letter points back."""
    inner = walk.pts[1:-1]
    if not inner:
        raise AssertionError("empty support off the cluster")
    return word(inner, [step == "h" for step in walk.steps[1:-1]])


def obj_to_string_by_walk(x: Obj) -> StringWord:
    """Word on the support of x, ordered along the walk, arrows reversed."""
    return _walk_word(stepped_walk_of(x))


def string_to_obj_by_walk(w: StringWord) -> Obj:
    """The object whose support word is w, read off the corners of the walk
    between its two attach vertices."""
    if w.marked:
        raise InvalidWord("ray-marked words do not name finite objects")
    att_l, att_r = attach_arrows(w)
    walk = minimal_walk(att_l.src, att_r.src)
    if _walk_word(walk) != w:
        raise AssertionError(f"the walk between the attach vertices of {w} does not carry it")
    return normal_form(walk.xs[0], walk.ys[-1], walk.k)


# -- chord ends as Fractions mod 2 ----------------------------------------------
#
# The library reads chord ends as integer numerators mod 2^(k+1) at one scale
# (`Obj.ends_at`, `band.obj_from_ends`, `cluster.chord_at`); here each end is a
# `Fraction` in [0, 2), from the public coordinates.

def _ends(x):
    """The ends x and y + 1 of the chord of an `Obj`, or (m-1)/2^n and m/2^n
    of a `ClusterPt`, as Fractions in [0, 2) in increasing order."""
    if isinstance(x, ClusterPt):
        pair = (Fraction(x.m - 1, 1 << x.n), Fraction(x.m, 1 << x.n))
    else:
        pair = (fraction(x.x), fraction(x.y) + 1)
    return tuple(sorted(a % 2 for a in pair))


def _gap(p, q):
    """The length of the counterclockwise arc from p to q."""
    return (q - p) % 2


def _exp(a):
    """The exponent of the dyadic Fraction a."""
    return a.denominator.bit_length() - 1


def _dyadic(a):
    """The dyadic Fraction a as a `Dyadic`."""
    return Dyadic(a.numerator, _exp(a))


def _obj_from_ends(p, q):
    """The class whose chord joins p and q: (p, q - 1), with q lifted into
    (p, p + 2), in Dyadic arithmetic."""
    if not _gap(p, q):
        raise BandBoundary(f"ends {p} and {q} are equal mod 2")
    return normal_form_on_dyadics(_dyadic(p), _dyadic(p - 1 + _gap(p, q)))


def ends_cross_on_fractions(ends_a, ends_b):
    """Whether two chords, given by their `_ends`, cross: no end shared, and
    exactly one end of b strictly inside the arc between the ends of a."""
    (p1, q1), (p2, q2) = ends_a, ends_b
    if p1 in ends_b or q1 in ends_b:
        return False
    return (p1 < p2 < q1) != (p1 < q2 < q1)


# -- the crossed chords level by level --------------------------------------------

def crossing_path_by_levels(x: Obj) -> tuple[ClusterPt, ...]:
    """Reference for `cluster.crossing_path`: at each depth below each end's
    reduced exponent, test whether the other end lies outside the closed arc
    around it, one modular comparison and one `ClusterPt` per level."""
    k, period = x.e, 2 << x.e
    ends = (x.xn, (x.xn + x.dn + (1 << k)) % period)
    near, far = ([ClusterPt(k - s, (p >> s) + 1) for s in range(k, k - reduced_exp(p, k), -1)
                  if (q - (p >> s << s)) % period > 1 << s] for p, q in (ends, ends[::-1]))
    if near and far and near[0] == far[0]:  # T(0,0)
        del far[0]
    return (*reversed(near), *far)


# -- membership by an end search -----------------------------------------------

def _member_by_ends(x):
    """Reference: the cluster point whose chord joins the ends of x, searched
    as an arc of length 1/2^n between points of the 1/2^n grid."""
    e1, e2 = _ends(x)
    for p, q in ((e1, e2), (e2, e1)):
        gap = _gap(p, q)
        if gap.numerator != 1:
            continue
        n = _exp(gap)
        if _exp(p) > n or _exp(q) > n:
            continue
        v = ClusterPt(n, int(q * (1 << n)))
        if object_of(v) == x:
            return v
    return None


# -- the flip on circle angles ---------------------------------------------------

def has_chord(overlay, a, b):
    """Whether the chord joining the circle points a and b is in the overlay."""
    if a == b:
        return False
    return overlay.contains_obj(_obj_from_ends(a, b))


def _in_arc(p, q, side):
    """The test for the open arc from p to q (side 0) or from q to p (side 1)."""
    if side == 0:
        return lambda s: 0 < _gap(p, s) < _gap(p, q)
    return lambda s: _gap(p, q) < _gap(p, s)


def _apex(overlay, p, q, side, candidates):
    """The one candidate s in the open arc on the given side with {p,s} and
    {q,s} chords."""
    arc = _in_arc(p, q, side)
    found = {s for s in candidates
             if s not in (p, q) and arc(s)
             and has_chord(overlay, p, s) and has_chord(overlay, q, s)}
    if len(found) != 1:
        raise AssertionError(f"triangulation apex not unique at {{{p},{q}}}: {sorted(str(u) for u in found)}")
    return next(iter(found))


def mutate_on_angles(overlay, x):
    """Reference: the flip with every chord end a `Fraction` mod 2, the apexes
    searched among the ends of the chords `cluster.mutate` names."""
    if not overlay.contains_obj(x):
        raise NotInCluster(f"{x} is not in the cluster")
    v = member(x)
    named = list(overlay.removed)
    if v is not None:
        named.extend(w for tri in neighbors(v) for w in tri)
    named.extend(overlay.added)
    candidates = {a for chord in named for a in _ends(chord)}
    p, q = _ends(x)
    r = _apex(overlay, p, q, 0, candidates)
    s = _apex(overlay, p, q, 1, candidates)
    x_star = _obj_from_ends(r, s)
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


# -- the flip by a fan search ---------------------------------------------------

def _fan_candidates(p, max_exp):
    """Dyadic points chord-adjacent to p in the standard triangulation."""
    out = []
    for j in range(_exp(p), max_exp + 1):
        step = Fraction(1, 1 << j)
        out.append((p + step) % 2)
        out.append((p - step) % 2)
    return out


def _apex_by_fan(overlay, p, q, side):
    """Reference: the apex searched among the ends of the added chords and
    the standard fans at p and q, two exponents past every end in sight."""
    exps = [_exp(p), _exp(q)]
    for obj in overlay.added:
        exps.extend(_exp(a) for a in _ends(obj))
    max_exp = max(exps + [_exp(_gap(p, q))]) + 2
    candidates = set()
    for obj in overlay.added:
        candidates.update(_ends(obj))
    candidates.update(_fan_candidates(p, max_exp))
    candidates.update(_fan_candidates(q, max_exp))
    arc = _in_arc(p, q, side)
    found = {s for s in candidates
             if s not in (p, q) and arc(s)
             and has_chord(overlay, p, s) and has_chord(overlay, q, s)}
    assert len(found) == 1, (p, q, side, found)
    return next(iter(found))


def _flip_by_fan(overlay, x):
    p, q = _ends(x)
    return _obj_from_ends(_apex_by_fan(overlay, p, q, 0), _apex_by_fan(overlay, p, q, 1))


# -- SVG pictures in Dyadic arithmetic ------------------------------------------

ZERO, _SCALE, _HALF = Dyadic(0), Dyadic(240), Dyadic(1, 1)


def _scaled(d: Dyadic) -> str:
    """240 d in decimal, exact as a dyadic always terminates."""
    d = d * _SCALE
    return decimal(d.num * 5 ** d.exp, d.exp)


class _DyadicCanvas:
    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi, self.y_lo, self.y_hi = x_lo, x_hi, y_lo, y_hi
        self.elements = []

    def px(self, x):
        return _scaled(x - self.x_lo)

    def py(self, y):
        return _scaled(self.y_hi - y)

    def line(self, x1, y1, x2, y2, cls):
        self.elements.append(
            f'<line class="{cls}" x1="{self.px(x1)}" y1="{self.py(y1)}" '
            f'x2="{self.px(x2)}" y2="{self.py(y2)}"/>')

    def circle(self, x, y, r, cls):
        self.elements.append(
            f'<circle class="{cls}" cx="{self.px(x)}" cy="{self.py(y)}" r="{r}"/>')

    def diagonal(self, c, cls):
        xa = max(self.x_lo, self.y_lo - c)
        xb = min(self.x_hi, self.y_hi - c)
        if xa <= xb:
            self.line(xa, xa + c, xb, xb + c, cls)


def _draw_walk_by_dyadics(cv, w):
    arrow_half = Dyadic(1, 5)
    vertices = w.vertices
    for i, step in enumerate(w.steps):
        r1, r2 = vertices[i].rep, vertices[i + 1].rep
        src, dst = (r1, r2) if step == "v" else (r2, r1)
        cv.line(src[0], src[1], dst[0], dst[1], "walk")
        mx, my = (src[0] + dst[0]) * _HALF, (src[1] + dst[1]) * _HALF
        if step == "v":
            p1 = (mx - arrow_half, my - arrow_half)
            p2 = (mx + arrow_half, my - arrow_half)
            tip = (mx, my + arrow_half)
        else:
            p1 = (mx - arrow_half, my - arrow_half)
            p2 = (mx - arrow_half, my + arrow_half)
            tip = (mx + arrow_half, my)
        cv.elements.append(
            '<path class="arrow" d="M {} {} L {} {} L {} {} Z"/>'.format(
                cv.px(p1[0]), cv.py(p1[1]), cv.px(p2[0]), cv.py(p2[1]),
                cv.px(tip[0]), cv.py(tip[1])))
    for v in vertices:
        cv.circle(v.rep[0], v.rep[1], "2.5", "walkpt")


def render_by_dyadics(spec) -> str:
    """The SVG document of a render spec, every coordinate in `Dyadic`
    arithmetic and the bounds taken over every walk vertex."""
    from moebius.render import DOT_R, PAD, _STYLE
    from moebius.walk import walk_of
    xs, ys = [ZERO, ONE], [-ONE, Dyadic(2)]
    for o in spec.objects:
        xs.append(o.x)
        ys.append(o.y)
    for r in spec.rects:
        xs += [r.x_lo, r.x_hi]
        ys += [r.y_lo, r.y_hi]
    walks = [walk_of(o) for o in spec.walks]
    for w in walks:
        for v in w.vertices:
            xs.append(v.rep[0])
            ys.append(v.rep[1])
    x_lo, x_hi = min(xs) - PAD, max(xs) + PAD
    y_lo, y_hi = min(ys) - PAD, max(ys) + PAD
    cv = _DyadicCanvas(x_lo, x_hi, y_lo, y_hi)
    cv.diagonal(ONE, "boundary")
    cv.diagonal(-ONE, "boundary")
    cv.diagonal(ZERO, "axis")
    if spec.cluster_depth is not None:
        for n in range(spec.cluster_depth + 1):
            for m in range(1 << n):
                o = object_of(ClusterPt(n, m))
                cv.circle(o.x, o.y, DOT_R.get(n, DOT_R[None]), "cluster")
    for r in spec.rects:
        edges = [(r.x_lo, r.y_lo, r.x_hi, r.y_lo, r.open_y_lo),
                 (r.x_hi, r.y_lo, r.x_hi, r.y_hi, r.open_x_hi),
                 (r.x_hi, r.y_hi, r.x_lo, r.y_hi, r.open_y_hi),
                 (r.x_lo, r.y_hi, r.x_lo, r.y_lo, r.open_x_lo)]
        for x1, y1, x2, y2, is_open in edges:
            cv.line(x1, y1, x2, y2, "rect-open" if is_open else "rect-closed")
    for w in walks:
        _draw_walk_by_dyadics(cv, w)
    for o in spec.objects:
        cv.circle(o.x, o.y, "4", "object")
    width = _scaled(x_hi - x_lo)
    height = _scaled(y_hi - y_lo)
    head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
            f'<style>{_STYLE}</style>\n'
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n')
    return head + "\n".join(cv.elements) + "\n</svg>\n"


def induced_support_map(src: Obj, dst: Obj, scalar) -> dict[ClusterPt, object]:
    """Scalars of Hom(translate of S, f) for a basic f = scalar * (src -> dst),
    on the common support."""
    if hom_ct_dim(src, dst) != 1:
        raise NoMorphism(f"no basic morphism {src} -> {dst}")
    common = support(src) & support(dst)
    eps = concrete_epsilon([src, dst] + [object_of(s) for s in common])
    out = {}
    for s in sorted(common):
        alive = chain_box_nonzero(shifted(s, eps, eps), src, dst)
        out[s] = scalar if alive else scalar * 0
    return out


def classify_per_point(f):
    """classify from F(f) at each point of the supports, one rank each."""
    supp_src = [support(x) for x in f.src]
    supp_dst = [support(y) for y in f.dst]
    is_zero = is_mono = is_epi = True
    for pt in sorted(set().union(*supp_src, *supp_dst)):
        cols = [j for j, supp in enumerate(supp_src) if pt in supp]
        rows = [i for i, supp in enumerate(supp_dst) if pt in supp]
        m = tuple(tuple(f.entries[i][j] for j in cols) for i in rows)
        r = (1 if m[0][0] else 0) if len(rows) == len(cols) == 1 else linalg.rank(m)
        if any(v != 0 for row in m for v in row):
            is_zero = False
        if r < len(cols):
            is_mono = False
        if r < len(rows):
            is_epi = False
    return Classification(is_zero, is_mono, is_epi, is_mono and is_epi)


def _classify_by_translates(f):
    """classify at each point s from one epsilon over every summand, the
    translate of s by it, and a composite test per entry."""
    pts = set()
    for x in list(f.src) + list(f.dst):
        pts |= support(x)
    is_zero = is_mono = is_epi = True
    for s in sorted(pts):
        cols = [j for j, x in enumerate(f.src) if s in support(x)]
        rows = [i for i, y in enumerate(f.dst) if s in support(y)]
        eps = concrete_epsilon([object_of(s)] + list(f.src) + list(f.dst))
        s_eps = shifted(s, eps, eps)
        m = tuple(tuple(f.entries[i][j] if f.entries[i][j] and chain_box_nonzero(
            s_eps, f.src[j], f.dst[i]) else Fraction(0) for j in cols)
            for i in rows)
        r = linalg.rank(m)
        if any(v != 0 for row in m for v in row):
            is_zero = False
        if r < len(cols):
            is_mono = False
        if r < len(rows):
            is_epi = False
    return Classification(is_zero, is_mono, is_epi, is_mono and is_epi)


def _matrix(rep, u, v):
    """The matrix of rep on the arrow u -> v, zero where rep holds none."""
    m = rep.mats.get((u, v))
    return linalg.zeros(rep.dim(v), rep.dim(u)) if m is None else m


def _word_coords(w, rep):
    """Offsets of the vertices of w in the stacked coordinates of rep, their
    total, and the letters of w as (src, dst) pairs; None when rep vanishes
    at a vertex of w."""
    if any(rep.dim(v) == 0 for v in w.verts):
        return None
    offs, total = {}, 0
    for v in w.verts:
        offs[v] = total
        total += rep.dim(v)
    return (offs, total, set(_letters(w)))


def _solutions(rows, offs, total, rep):
    """Nullspace basis of the constraint rows, split into one vector per vertex."""
    basis = linalg.nullspace(tuple(tuple(r) for r in rows), total)
    return [{v: vec[offs[v]:offs[v] + rep.dims[v]] for v in offs} for vec in basis]


def _hom_word_to_rep_dense(w, rep):
    """Maps M(w) -> rep, one block of rows per arrow out of the word, zero
    blocks included."""
    coords = _word_coords(w, rep)
    if coords is None:
        return []
    offs, total, letters = coords
    rows = []
    for v in w.verts:
        for arr in arrows_at(v)[1]:
            u = arr.dst
            if rep.dim(u) == 0:
                continue
            a = _matrix(rep, v, u)
            block = [[Fraction(0)] * total for _ in range(rep.dim(u))]
            for i in range(rep.dim(u)):
                for j in range(rep.dim(v)):
                    block[i][offs[v] + j] = a[i][j]
                if (v, u) in letters:
                    block[i][offs[u] + i] -= Fraction(1)
            rows.extend(block)
    return _solutions(rows, offs, total, rep)


def _hom_rep_to_word_dense(rep, w):
    """Maps rep -> M(w) as row functionals, one block per arrow into the word."""
    coords = _word_coords(w, rep)
    if coords is None:
        return []
    offs, total, letters = coords
    rows = []
    for v in rep.dims:
        for arr in arrows_at(v)[1]:
            u = arr.dst
            if u not in offs or rep.dim(v) == 0:
                continue
            a = _matrix(rep, v, u)
            block = [[Fraction(0)] * total for _ in range(rep.dim(v))]
            for j in range(rep.dim(v)):
                for i in range(rep.dim(u)):
                    block[j][offs[u] + i] = a[i][j]
                if (v, u) in letters:
                    block[j][offs[v] + j] -= Fraction(1)
            rows.extend(block)
    return _solutions(rows, offs, total, rep)


def decompose_rep_by_rescans(rep):
    """String summands and their embeddings, listing the candidate words of
    the remaining support afresh for every summand."""
    rep.check_relations()
    acc = {v: linalg.identity(rep.dim(v)) for v in rep.dims}
    out = []
    current = rep
    while current.dims:
        supp = sorted((v for v in current.dims), key=lambda p: (p.n, p.m))
        split = None
        for verts, _ in candidate_words_by_paths(supp, {(v, a.dst) for v in supp for a in arrows_at(v)[1]}):
            w = StringWord(verts)
            phis = _hom_word_to_rep_dense(w, current)
            if not phis:
                continue
            psis = _hom_rep_to_word_dense(current, w)
            for phi in phis:
                for psi in psis:
                    pairing = None
                    consistent = True
                    for v in w.verts:
                        s = sum((a * b for a, b in zip(psi[v], phi[v])), Fraction(0))
                        if pairing is None:
                            pairing = s
                        elif s != pairing:
                            consistent = False
                    if not consistent or not pairing:
                        continue
                    split = (w, phi, {v: tuple(x / pairing for x in row) for v, row in psi.items()})
                    break
                if split:
                    break
            if split:
                break
        if split is None:
            raise NotAModule("representation does not split into strings")
        w, phi, psi = split
        out.append((w, {v: linalg.matvec(acc[v], phi[v]) for v in w.verts}))
        current, acc = _peel_everywhere(current, acc, psi)
    return out


def decompose_rep_by_peeling(rep):
    """String summands and their embeddings, peeled off the whole
    representation a word at a time: the reduced words on the arrows with a
    matrix are listed once, lazily, and each search resumes at the word
    that split off last (a word may occur more than once)."""
    rep.check_relations()
    acc = {v: linalg.identity(rep.dim(v)) for v in rep.dims}
    words = _candidate_words(sorted(rep.dims), rep.mats)
    out = []
    current = rep
    cand = next(words, None)
    while current.dims:
        while True:
            if cand is None:
                raise NotAModule("representation does not split into strings")
            w = StringWord(cand)
            if (all(v in current.dims for v in w.verts)
                    and all(key in current.mats for key in _letters(w))):
                split = _split_off(w, current)
                if split:
                    break
            cand = next(words, None)
        phi, psi = split
        out.append((w, {v: linalg.matvec(acc[v], phi[v]) for v in w.verts}))
        if sum(current.dims.values()) == len(w):
            break  # M(w) is all of the remainder: nothing left to peel
        current, acc = _peel(current, acc, psi)
    return out


def _peel_everywhere(rep, acc, psi):
    basis = {v: linalg.from_columns(linalg.nullspace((psi[v],), rep.dim(v)), rep.dim(v))
             if v in psi else linalg.identity(rep.dim(v)) for v in rep.dims}
    sub = _restrict_everywhere(rep, basis)
    return (sub, {v: linalg.matmul(acc[v], basis[v]) for v in sub.dims})


def _restrict_everywhere(rep, basis):
    """The subrepresentation spanned by basis[v] at every vertex, each arrow
    matrix solved again."""
    dims = {v: len(b[0]) for v, b in basis.items()}
    mats = {}
    for arr in _arrows(rep):
        u, w = arr.src, arr.dst
        if not (dims.get(u) and dims.get(w)):
            continue
        coords = solve(basis[w], linalg.matmul(_matrix(rep, u, w), basis[u]))
        if coords is None:
            raise AssertionError("subspace not arrow-stable")
        if any(x != 0 for row in coords for x in row):
            mats[(u, w)] = coords
    return RepFin(dims, mats)


def _arrows(rep):
    """Quiver arrows between supported vertices of rep."""
    for u in rep.dims:
        for arr in arrows_at(u)[1]:
            if arr.dst in rep.dims:
                yield arr


def column_space_basis(a):
    """Indices of a set of columns forming a basis of the column space."""
    if not a or not a[0]:
        return []
    return linalg._rref(a)[1]


def solve(a, b):
    """X with a X = b, or None if inconsistent (any solution), by row
    reduction of [a | b]: the solver of `_restrict_everywhere` and
    `invert`, and the reference for `linalg.solve_on_unit_rows`."""
    acols = len(a[0]) if a else 0
    bcols = len(b[0]) if b else 0
    if acols == 0:
        if any(v != 0 for row in b for v in row):
            return None
        return linalg.zeros(0, bcols)
    m, pivots = linalg._rref(tuple(tuple(a[i]) + tuple(b[i]) for i in range(len(a))))
    if pivots and pivots[-1] >= acols:
        return None  # a pivot among the columns of b
    x = [[0] * bcols for _ in range(acols)]
    for r, pc in enumerate(pivots):
        x[pc] = m[r][acols:]
    return tuple(tuple(row) for row in x)


def invert(a):
    x = solve(a, linalg.identity(len(a)))
    if x is None:
        raise ValueError("matrix not invertible")
    return x


def cokernel_by_quotients(f):
    """Cokernel of a quotient morphism via vertexwise quotients on the
    string side: at each vertex, the quotient of the target's space by the
    image of F(f), a complement and two inversions, then the quotient
    representation split into strings."""
    if not len(f.dst):
        return (SumObj(), zero_mor(f.dst, SumObj()))
    words_src = [obj_to_string(x) for x in f.src]
    words_dst = [obj_to_string(y) for y in f.dst]
    rep_dst = direct_sum([to_rep(w) for w in words_dst])
    sig, blocks = _vertex_matrices(f, [w.verts for w in words_src], [w.verts for w in words_dst])
    vmats = {v: blocks[sig[v]] for v in rep_dst.dims}
    proj, section, dims = {}, {}, {}
    for v, (m, rows, cols) in vmats.items():
        n_v, n_c = len(rows), len(cols)
        # the pivot columns of [m | I] are a basis of the image followed by
        # the coordinate vectors that extend it to the whole space
        eye = linalg.identity(n_v)
        pivots = column_space_basis(tuple(m[i] + eye[i] for i in range(n_v)))
        full = [tuple(m[i][j] for i in range(n_v)) for j in pivots if j < n_c]
        im_dim = len(full)
        comp_idx = [j - n_c for j in pivots if j >= n_c]
        full.extend(eye[i] for i in comp_idx)
        t_inv = invert(linalg.from_columns(full, n_v))
        dims[v] = n_v - im_dim
        proj[v] = t_inv[im_dim:]  # rows
        section[v] = linalg.from_columns([eye[i] for i in comp_idx], n_v)
    mats = {}
    for arr in _arrows(rep_dst):
        u, w = arr.src, arr.dst
        if dims.get(u, 0) == 0 or dims.get(w, 0) == 0:
            continue
        mat = linalg.matmul(proj[w], linalg.matmul(_matrix(rep_dst, u, w), section[u]))
        if any(x != 0 for row in mat for x in row):
            mats[(u, w)] = mat
    pieces = decompose_rep(RepFin(dims, mats))
    c_obj = SumObj([string_to_obj(w) for w, _ in pieces])
    # rho at v: rows are the coordinates of the pieces present at v
    rho = {}
    for v in dims:
        present = [k for k, (_, emb) in enumerate(pieces) if v in emb]
        if present:
            emb_block = linalg.from_columns([pieces[k][1][v] for k in present], dims[v])
            rho[v] = (present, invert(emb_block))
    entries = []
    for k, (wk, _) in enumerate(pieces):
        row = []
        for i, wi in enumerate(words_dst):
            values = {}
            for v in wk.verts:
                rows_at_v = vmats[v][1]
                if i not in rows_at_v:
                    continue
                # rho_k . pi at v applied to the inclusion of summand i
                present, inv = rho[v]
                pi_col = tuple(proj[v][r][rows_at_v.index(i)] for r in range(dims[v]))
                values[v] = sum(inv[present.index(k)][r] * pi_col[r] for r in range(dims[v]))
            row.append(_scalar_of_component(overlap(wi, wk), values))
        entries.append(tuple(row))
    return (c_obj, MorQ._from_clean(f.dst, c_obj, tuple(entries)))


def _rref_on_fractions(a):
    """Reduced row echelon form and pivots by elimination on Fractions,
    touching only the nonzero columns of each pivot row."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        nz = [k for k in range(c, cols) if prow[k] != 0]
        inv = 1 / prow[c]
        for k in nz:
            prow[k] *= inv
        for i in range(rows):
            row = m[i]
            f = row[c]
            if i != r and f != 0:
                for k in nz:
                    row[k] -= f * prow[k]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


# -- graph maps and candidate words by search ----------------------------------

def _brute_force_occurrences(w1, w2):
    """Every graph map w1 -> w2 by search: each factor segment of w1 tried at
    every position of w2 and of its reversal, kept where it is a submodule."""
    occs = []
    rv, rd = w2.verts[::-1], tuple(not d for d in w2.directs[::-1])
    n1, n2 = len(w1.verts), len(w2.verts)
    for i1 in range(n1):
        for j1 in range(i1, n1):
            if (i1 > 0 and w1.directs[i1 - 1]) or (j1 < n1 - 1 and not w1.directs[j1]):
                continue
            seg_v, seg_d = w1.verts[i1:j1 + 1], w1.directs[i1:j1]
            for verts2, directs2, is_rev in ((w2.verts, w2.directs, False), (rv, rd, True)):
                for i2 in range(n2 - (j1 - i1)):
                    j2 = i2 + (j1 - i1)
                    if verts2[i2:j2 + 1] != seg_v or directs2[i2:j2] != seg_d:
                        continue
                    if (i2 > 0 and not directs2[i2 - 1]) or (j2 < n2 - 1 and directs2[j2]):
                        continue
                    key = (i1, j1, n2 - 1 - j2, n2 - 1 - i2) if is_rev else (i1, j1, i2, j2)
                    if key not in occs:
                        occs.append(key)
    return occs


def candidate_words_by_paths(supp, letters):
    """The reduced words on the support with letters in letters, as
    (verts, directs), longest first: every path grown one letter at a time
    (a copy per step), stopped where a letter composes with the previous
    one inside a triangle, and the whole list sorted."""
    adj = {v: [] for v in supp}
    for v in supp:
        for arr in arrows_at(v)[1]:
            u = arr.dst
            if u in adj and (v, u) in letters:
                adj[v].append((u, True, arr.triangle))
                adj[u].append((v, False, arr.triangle))
    found = []
    for start in supp:
        # a path, its letter directions, the last triangle
        stack = [((start,), (), None)]
        while stack:
            path, directs, tri = stack.pop()
            if start <= path[-1]:
                found.append((-len(path), path, directs))  # StringWord.sort_key
            last = directs[-1] if directs else None
            for nxt, d, t in adj[path[-1]]:
                if nxt not in path and not (d == last and t == tri):
                    stack.append((path + (nxt,), directs + (d,), t))
    found.sort()
    return [(path, directs) for _, path, directs in found]


def _brute_force_candidates(supp):
    """Every simple path in the support, its letters oriented as `arrows_at`
    says, validated through word(), which checks them against the quiver:
    the enumeration _candidate_words replaced, kept as its oracle."""
    adj = {v: [] for v in supp}
    for v in supp:
        for arr in arrows_at(v)[1]:
            if arr.dst in adj:
                adj[v].append((arr.dst, True))
                adj[arr.dst].append((v, False))
    words = set()
    for start in supp:
        stack = [((start,), ())]
        while stack:
            path, directs = stack.pop()
            try:
                words.add(word(path, directs))
            except InvalidWord:
                continue
            for nxt, d in adj[path[-1]]:
                if nxt not in path:
                    stack.append((path + (nxt,), directs + (d,)))
    key = lambda w: (-len(w), tuple((p.n, p.m) for p in w.verts), w.directs)
    return sorted(words, key=key)


def f_strip_by_search(w: StringWord) -> StringWord | None:
    """Delete every vertex with a directed path inside the word to a marked
    end, found by a frontier search from the marked ends."""
    if not w.marked:
        return w
    n = len(w.verts)
    doomed = set()
    frontier = set()
    if w.lmark:
        frontier.add(0)
    if w.rmark:
        frontier.add(n - 1)
    while frontier:
        i = frontier.pop()
        doomed.add(i)
        if i > 0 and w.directs[i - 1] and (i - 1) not in doomed:
            frontier.add(i - 1)
        if i < n - 1 and not w.directs[i] and (i + 1) not in doomed:
            frontier.add(i + 1)
    keep = [i for i in range(n) if i not in doomed]
    if not keep:
        return None
    assert keep == list(range(keep[0], keep[-1] + 1)), "stripped word not contiguous"
    return StringWord(tuple(w.verts[i] for i in keep))
