import json
import random
from fractions import Fraction

import pytest

from moebius.dyadic import Dyadic, reduced_exp
from moebius.band import Obj, Rect, parse_obj, ends, compatible, obj_from_ends, mirror
from moebius import cluster
from moebius.cluster import (ClusterPt, ClusterOverlay, STANDARD, member, object_of, chord, chord_at,
                             depth, neighbors, in_neighbors, out_neighbors, triangle, arrow_dir,
                             enum_in_rect, enum_in_rect_with_reps, box_meets_cluster,
                             crossing_path, mutate, parse_cluster_pt)
from moebius.errors import NotInCluster, UnboundedRect, ParseError

from oracles import (_ends, _flip_by_fan, _member_by_ends, arrow_between, arrows_at, meets_cluster,
                     meets_cluster_by_level_scan, mutate_on_angles, fraction, crossing_path_by_levels)

T = ClusterPt
M = parse_obj
D = Dyadic


def all_points(max_depth):
    pts = [T(0, 0)]
    for n in range(1, max_depth + 1):
        pts.extend(T(n, m) for m in range(1 << (n + 1)))
    return pts


def test_normalization():
    assert T(0, 1) == T(0, 0) == (0, 0)
    assert T(1, -1) == T(1, 3) == (1, 3)
    assert str(T(2, 1)) == repr(T(2, 1)) == "T(2,1)"
    with pytest.raises(ValueError):
        T(-1, 0)


def test_cluster_pt_is_its_pair():
    assert T(2, 1) == (2, 1) and hash(T(2, 1)) == hash((2, 1))
    with pytest.raises(AttributeError):
        T(2, 1).n = 3
    # shared points of depth <= 8 and deeper ones alike
    rng = random.Random(0)
    pts = all_points(9) + [T(n, rng.randrange(-(4 << n), 4 << n)) for n in range(9, 40)]
    rng.shuffle(pts)
    assert sorted(pts) == sorted(pts, key=lambda p: (p.n, p.m))
    assert all(hash(p) == hash((p.n, p.m)) and str(p) == f"T({p.n},{p.m})" for p in pts)
    assert all(0 <= p.m < (2 << p.n) for p in pts)
    assert json.dumps([T(2, 1)]) == "[[2, 1]]"


def test_shallow_points_are_shared():
    for n in range(9):
        for m in range(-(2 << n), 2 << n):
            assert T(n, m) is T(n, m + (2 << n)) is T(n, m % (2 << n)), (n, m)
    assert T(0, 1) is T(0, 0) is member(M("M(0,0)"))


def test_deep_points_are_equal_copies():
    for n, m in ((9, 0), (9, 1023), (12, 77), (64, 3 << 60)):
        a, b = T(n, m), T(n, m + (2 << n))
        assert a == b == (n, m % (2 << n)) and a is not b
        assert type(a) is T and hash(a) == hash(b)


def test_member_examples():
    assert member(M("M(0,0)")) == T(0, 0)
    assert member(M("M(1/4,9/8)")) == T(3, 2)
    assert member(M("M(1/4,1/2)")) is None


def test_depth():
    assert depth(T(0, 0)) == 0
    assert depth(T(2, 1)) == 2
    assert depth(member(M("M(1/4,9/8)"))) == 3


def test_chord_bijection():
    for v in all_points(5):
        assert set(chord(v)) == set(ends(object_of(v)))
        assert member(object_of(v)) == v


def test_neighbors_examples():
    assert set(in_neighbors(T(0, 0))) == {T(1, 1), T(1, 3)}
    assert set(out_neighbors(T(0, 0))) == {T(1, 0), T(1, 2)}
    assert set(in_neighbors(T(2, 1))) == {T(3, 1), T(2, 2)}
    assert set(out_neighbors(T(2, 1))) == {T(3, 2), T(1, 1)}
    assert set(in_neighbors(T(1, 0))) == {T(0, 0), T(2, 7)}
    assert set(out_neighbors(T(1, 0))) == {T(2, 0), T(1, 3)}


def test_neighbor_degrees_and_cycles():
    from moebius.band import hom_c_dim
    for v in all_points(5):
        assert len(set(in_neighbors(v))) == 2
        assert len(set(out_neighbors(v))) == 2
        for (a, b, c) in neighbors(v):
            assert b == v
            for s, t in ((a, b), (b, c), (c, a)):
                assert hom_c_dim(object_of(s), object_of(t)) == 1, (s, t)


def test_quiver_matches_arrow_oracle_on_depth10_points():
    # the integer quiver against arrows that carry their triangle as a frozenset
    pts = all_points(10)
    names = {}  # triangle name: its points
    for v in pts:
        ins, outs = arrows_at(v)
        assert set(out_neighbors(v)) == {a.src for a in ins}
        assert set(in_neighbors(v)) == {a.dst for a in outs}
        for arr in ins + outs:
            u = arr.src if arr.dst == v else arr.dst
            assert arrow_dir(arr.src, arr.dst) and not arrow_dir(arr.dst, arr.src), arr
            assert triangle(v, u) == triangle(u, v) is not None, arr
            assert names.setdefault(triangle(v, u), arr.triangle) == arr.triangle, arr
        # adjacency: no triangle with a point two arrows away outside v's triangles
        near = {w for a in ins + outs for b in arrows_at(a.src)[0] + arrows_at(a.dst)[1]
                for w in (b.src, b.dst)}
        for w in near:
            shared = [a for a in ins + outs if w in a.triangle]
            assert (triangle(v, w) is None) == (not shared or w == v), (v, w)
    assert len(set(names.values())) == len(names)  # one name per triangle
    assert len(names) == len(pts) + 1  # one below each point, and (0, 1)
    shallow = all_points(5)  # and on every pair of shallow points
    for v in shallow:
        for w in shallow:
            assert (triangle(v, w) is not None) == (arrow_between(v, w) is not None
                                                     or arrow_between(w, v) is not None), (v, w)


def test_arrows_irreducible():
    for v in all_points(5):
        for (a, b, c) in neighbors(v):
            for s, t in ((a, b), (b, c), (c, a)):
                assert _irreducible(s, t), (s, t)


def _irreducible(s, t):
    from moebius.band import hom_c_configs
    src, dst = object_of(s), object_of(t)
    e = max(src.max_exp(), dst.max_exp())
    for (rs, rt) in hom_c_configs(src, dst):
        rect = _closed_rect(rs[0], rt[0], rs[1], rt[1], e)
        if enum_in_rect(rect) <= {s, t}:
            return True
    return False


def test_pairwise_compatible_depth5():
    pts = all_points(5)
    objs = [object_of(v) for v in pts]
    for i, a in enumerate(objs):
        for b in objs[i + 1:]:
            assert compatible(a, b)


def test_enum_open_rect():
    r = Rect.open(D(-1, 2), D(1, 2), D(-3, 2), D(3, 2))
    assert enum_in_rect(r) == {T(0, 0), T(1, 0), T(1, 1)}


def test_enum_closed_rect():
    r = Rect(D(-1, 1), D(1, 3), D(-3, 2), D(1, 2))
    want_reps = {
        T(3, 2): ("1/8", "-3/4"), T(2, 1): ("0", "-3/4"), T(1, 1): ("0", "-1/2"),
        T(0, 0): ("0", "0"), T(1, 3): ("-1/2", "0"), T(2, 6): ("-1/2", "1/4"),
    }
    got = dict(enum_in_rect_with_reps(r))
    assert {p: (str(r0), str(r1)) for p, (r0, r1) in got.items()} == want_reps


def test_enum_reversed_rect_empty():
    assert enum_in_rect(Rect(D(1), D(0), D(0), D(1))) == frozenset()


def test_enum_scan_depth_stability():
    import moebius.cluster as cluster
    r = Rect(D(-1, 1), D(1, 3), D(-3, 2), D(1, 2))
    base = enum_in_rect(r)
    deeper = set()
    for n in range(r.max_exp() + 7):
        deeper.update(pt for pt, _ in cluster._level_hits(r, n))
    assert deeper == set(base)


def test_enum_unbounded():
    with pytest.raises(UnboundedRect):
        enum_in_rect(Rect(D(0), D(0), D(-1), D(0)))
    with pytest.raises(UnboundedRect):
        enum_in_rect(Rect(D(-1), D(1), D(-2), D(2)))


def test_depth_cap():
    from moebius.errors import DepthLimit
    with pytest.raises(DepthLimit, match="scan depth 17 > 16"):
        enum_in_rect(Rect(D(0), D(1, 15), D(0), D(1)))


def test_mutate_examples():
    overlay, x_star = mutate(STANDARD, M("M(0,0)"))
    assert x_star == M("M(1/2,1/2)")
    assert T(0, 0) in overlay.removed and x_star in overlay.added
    _, x_star2 = mutate(STANDARD, M("M(0,1/2)"))
    assert x_star2 == M("M(1,3/4)")


def test_mutate_involution():
    overlay, x_star = mutate(STANDARD, M("M(0,0)"))
    overlay2, back = mutate(overlay, x_star)
    assert overlay2 == STANDARD
    assert back == M("M(0,0)")


def test_mutate_twice_different_chords():
    overlay, s1 = mutate(STANDARD, M("M(0,0)"))
    overlay, s2 = mutate(overlay, M("M(0,1/2)"))
    assert len(overlay.removed) == 2 and len(overlay.added) == 2
    assert compatible(s1, s2)
    overlay, _ = mutate(overlay, s2)
    overlay, _ = mutate(overlay, s1)
    assert overlay == STANDARD


def test_mutate_not_in_cluster():
    with pytest.raises(NotInCluster):
        mutate(STANDARD, M("M(1/8,1/4)"))


def test_mutate_uniqueness_brute_force():
    # the flip is the only off-cluster object of the quarter grid compatible
    # with every other cluster point down to depth 5
    from moebius.checks import grid_off_cluster
    rest = all_points(5)
    for v in (T(0, 0), T(1, 0)):
        _, x_star = mutate(STANDARD, object_of(v))
        survivors = [x for x in grid_off_cluster(2)
                     if all(compatible(x, object_of(w)) for w in rest if w != v)]
        assert survivors == [x_star], (v, survivors)


def test_children_cover_digits():
    # the children of v are its neighbours across the triangle below it
    children = lambda v: {in_neighbors(v)[0], out_neighbors(v)[0]}
    assert children(T(0, 0)) == {T(1, 3), T(1, 0)}
    assert children(T(1, 0)) == {T(2, 7), T(2, 0)}


def test_parse_cluster_pt():
    assert parse_cluster_pt("T(2,1)") == T(2, 1)
    with pytest.raises(ParseError):
        parse_cluster_pt("T(1,7)")
    with pytest.raises(ParseError):
        parse_cluster_pt("T(x,0)")


def test_chord_str():
    assert tuple(map(str, chord(T(0, 0)))) == ("1", "0")
    assert tuple(map(str, chord(T(2, 1)))) == ("0", "1/4")


def test_chord_matches_fraction_oracle():
    from moebius.checks import cluster_points
    for v in cluster_points(9):
        want = (Fraction(v.m - 1, 1 << v.n) % 2, Fraction(v.m, 1 << v.n) % 2)
        assert sorted(want) == list(_ends(v)), v
        assert tuple(fraction(a) for a in chord(v)) == want, v
        for k in (v.n, v.n + 3):
            assert tuple(Fraction(a, 1 << k) for a in chord_at(v, k)) == want, (v, k)


# -- the flip against the fan search --------------------------------------------

def test_mutate_matches_fan_search_on_standard():
    for v in all_points(6):
        x = object_of(v)
        assert mutate(STANDARD, x)[1] == _flip_by_fan(STANDARD, x), v


def test_mutate_matches_fan_search_on_overlays():
    # overlays after 2-3 seeded flips among the chords of depth <= 4 and the
    # added ones; in each, every chord of depth <= 3 and every added chord flips
    rng = random.Random(11)
    shallow = all_points(3)
    flips = added_flips = 0
    for _ in range(30):
        overlay = STANDARD
        for _ in range(rng.choice((2, 3))):
            present = [object_of(w) for w in all_points(4) if w not in overlay.removed]
            present += sorted(overlay.added, key=lambda o: o.sort_key())
            overlay, _ = mutate(overlay, rng.choice(present))
        targets = [object_of(w) for w in shallow if w not in overlay.removed]
        targets += sorted(overlay.added, key=lambda o: o.sort_key())
        for x in targets:
            assert mutate(overlay, x)[1] == _flip_by_fan(overlay, x), (overlay, x)
            flips += 1
        added_flips += len(overlay.added)
    assert flips > 800 and added_flips > 60


# -- the flip on integer ends against the flip on circle angles ------------------

def _flip_both(overlay, x):
    got = mutate(overlay, x)
    assert got == mutate_on_angles(overlay, x), (overlay, x)
    return got


def test_mutate_matches_angles_flipping_twice_to_depth_8():
    from moebius.checks import cluster_points
    for v in cluster_points(8):
        x = object_of(v)
        overlay, x_star = _flip_both(STANDARD, x)
        assert _flip_both(overlay, x_star) == (STANDARD, x), v


def test_mutate_matches_angles_at_depths_30_to_64():
    rng = random.Random(20261019)
    for _ in range(40):
        n = rng.randint(30, 64)
        x = object_of(T(n, rng.randrange(1 << (n + 1))))
        overlay, x_star = _flip_both(STANDARD, x)
        assert x_star.e <= n + 1 and _flip_both(overlay, x_star) == (STANDARD, x)


def test_mutate_matches_angles_on_flip_sequences():
    # each sequence flips 1-6 chords in turn: an added one half the time when
    # there is one, else a standard one of depth <= 5
    rng = random.Random(15)
    shallow = all_points(5)
    added_flips = 0
    for _ in range(300):
        overlay = STANDARD
        for _ in range(rng.randint(1, 6)):
            if overlay.added and rng.random() < 0.5:
                x = rng.choice(sorted(overlay.added, key=lambda o: o.sort_key()))
                added_flips += 1
            else:
                x = object_of(rng.choice([w for w in shallow if w not in overlay.removed]))
            overlay, _ = _flip_both(overlay, x)
    assert added_flips > 300


def test_mutate_apex_not_unique_names_the_ends():
    # with the chord {1/4, 1} added beside the standard ones, the arc (0, 1)
    # holds two apexes of {0, 1}: 1/4 and 1/2
    bad = ClusterOverlay(added={obj_from_ends(D(1, 2), D(1))})
    message = "triangulation apex not unique at {0,1}: ['1/2', '1/4']"
    for flip in (mutate, mutate_on_angles):
        with pytest.raises(AssertionError) as err:
            flip(bad, M("M(0,0)"))
        assert str(err.value) == message


# -- closed-form membership and the early-exit rectangle test -------------------

def test_member_matches_end_search():
    from moebius.checks import grid
    for x in grid(7):
        assert member(x) == _member_by_ends(x), x


def _scan_meets(rect):
    try:
        return bool(enum_in_rect_with_reps.__wrapped__(rect))
    except UnboundedRect:
        return True


def _closed_rect(x_lo, x_hi, y_lo, y_hi, e):
    """The closed Rect of a box of numerators at the scale 2^e."""
    return Rect(*(D(v, e) for v in (x_lo, x_hi, y_lo, y_hi)))


def test_meets_cluster_on_hom_rectangles():
    from moebius.band import hom_c_configs
    from moebius.checks import grid
    objs = grid(3)
    seen = set()
    for x in objs:
        for y in objs:
            e = max(x.max_exp(), y.max_exp())
            for (a, b), (xx, yy) in hom_c_configs(x, y):
                got = box_meets_cluster(a, xx, b, yy, e)
                r = _closed_rect(a, xx, b, yy, e)
                assert got == meets_cluster(r) == bool(enum_in_rect_with_reps.__wrapped__(r)), r
                seen.add(got)
    assert seen == {True, False}


def test_meets_cluster_on_composite_rectangles(monkeypatch):
    # the boxes chain_box_nonzero tests for x -> y -> z, with x -> y
    # every tenth basic of the depth-3 grid and y -> z any basic after it
    import moebius.walk as walk
    from moebius.checks import _basics
    seen = {}

    def spy(x_lo, x_hi, y_lo, y_hi, e):
        got = box_meets_cluster(x_lo, x_hi, y_lo, y_hi, e)
        rect = _closed_rect(x_lo, x_hi, y_lo, y_hi, e)
        if rect not in seen:
            seen[rect] = bool(enum_in_rect_with_reps.__wrapped__(rect))
        assert got == seen[rect], rect
        return got

    monkeypatch.setattr(walk, "box_meets_cluster", spy)
    basics = list(_basics(3))
    for (x, y) in basics[::10]:
        for (y2, z) in basics:
            if y2 == y:
                walk.chain_box_nonzero(x, y, z)
    assert True in seen.values() and False in seen.values()


def test_meets_cluster_on_open_and_boundary_rectangles():
    # an open edge can hide every hit down to depth e+1; depth e+2 settles it
    import itertools
    vals = [D(i, 1) for i in range(-2, 3)]
    hidden = 0
    for xl, xh in itertools.combinations_with_replacement(vals, 2):
        for yl, yh in itertools.combinations_with_replacement(vals, 2):
            for flags in itertools.product((False, True), repeat=4):
                r = Rect(xl, xh, yl, yh, *flags)
                e = r.max_exp()
                shallow = any(cluster._level_hits(r, n) for n in range(e + 2))
                deep = any(cluster._level_hits(r, n) for n in range(e + 6))
                assert meets_cluster(r) == deep == _scan_meets(r), r
                hidden += deep and not shallow
    assert hidden


def test_box_tests_match_level_scan_on_random_boxes():
    # small, unit-sized and wide boxes at exponents 0-12, closed and open;
    # a scan two depths past the bound agrees too
    rng = random.Random(20261018)
    kinds = set()
    for _ in range(3000):
        e = rng.randint(0, 12)
        span = rng.choice((1, 4, 1 << e, 3 << e))
        x_lo, y_lo = rng.randint(-3 << e, 3 << e), rng.randint(-3 << e, 3 << e)
        x_hi, y_hi = x_lo + rng.randint(0, span), y_lo + rng.randint(0, span)
        flags = [rng.random() < 0.2 for _ in range(4)]
        r = Rect(D(x_lo, e), D(x_hi, e), D(y_lo, e), D(y_hi, e), *flags)
        want = meets_cluster_by_level_scan(r)
        assert meets_cluster(r) == want == meets_cluster_by_level_scan(r, extra=2), r
        if not any(flags):
            assert box_meets_cluster(x_lo, x_hi, y_lo, y_hi, e) == want, r
        kinds.add((any(flags), want))
    assert len(kinds) == 4


# -- the crossed chords off the ends' digits against the level-by-level test ----

def _seeded_objects(e, count):
    """count canonical objects of exponent at most e, drawn from a seeded rng."""
    rng, out = random.Random(e), []
    for _ in range(count):
        dn = rng.randrange(1 << e)
        out.append(Obj(D(rng.randrange((2 if dn else 1) << e), e), D(dn, e)))
    return out


def _assert_crossing_path_matches_levels(xs):
    for x in xs:
        path = crossing_path(x)
        assert path == crossing_path_by_levels(x), x
        assert all(type(v) is T and (v.n > 8 or v is T(*v)) for v in path), x


def test_crossing_path_matches_levels_on_grid_and_mirrors():
    from moebius.checks import grid
    xs = grid(7)  # every object of G(0)-G(7)
    _assert_crossing_path_matches_levels(xs + [mirror(x) for x in xs])


def test_crossing_path_matches_levels_on_simple_objects():
    from moebius.equiv import simple_object
    for v in all_points(10):
        x = simple_object(v)
        assert crossing_path(x) == crossing_path_by_levels(x) == (v,), v


@pytest.mark.parametrize("e", [16, 32, 64, 128])
def test_crossing_path_matches_levels_on_seeded_objects(e):
    _assert_crossing_path_matches_levels(_seeded_objects(e, 500))


def test_crossed_points_at_each_end_are_a_suffix_of_its_digit_chain():
    # the points whose arcs lie strictly around an end a, shallow to deep,
    # are T(n, (a >> (k-n)) + 1) for n below its reduced exponent; the path
    # crosses a run of them that ends at the deepest, and nothing else
    from moebius.checks import grid
    for x in grid(6) + _seeded_objects(16, 300) + _seeded_objects(64, 300):
        k, path = x.e, crossing_path(x)
        ends = (x.xn, (x.xn + x.dn + (1 << k)) % (2 << k))
        runs = []
        for a in ends:
            r = reduced_exp(a, k)
            run = [v for v in (T(n, (a >> (k - n)) + 1) for n in range(r)) if v in path]
            assert [v.n for v in run] == list(range(r - len(run), r)), (x, a)
            runs.append(run)
        near, far = runs
        assert path == (*reversed(near), *far[bool(near and far and far[0] == near[0]):]), x
