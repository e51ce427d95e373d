import pytest

from moebius.dyadic import Dyadic
from moebius.band import normal_form, parse_obj
from moebius.cluster import (ClusterPt, STANDARD, arrow_dir, crossing_path, in_neighbors, member,
                             object_of, mutate, out_neighbors)
from moebius.walk import hom_ct_dim, support, walk_of
from moebius.strings import word, parse_word, hom_dim_strings, StringWord
from moebius.equiv import (obj_to_string, string_to_obj, simple_object,
                           transport_mor, transport_mor_inverse, DigitPrefix,
                           digits_to_coords, digit_vertex, coords_to_digits, _digit_index,
                           tail_case, g_extend, f_strip)
from moebius.errors import InCluster, InvalidWord, NoMorphism, Unreachable, AllOnesTail

from oracles import (arrow_between, g_extend_by_arrows, lower_tail_coords, string_to_obj_by_steps,
                     digits_to_coords_on_dyadics, support_by_walk, obj_to_string_by_walk,
                     string_to_obj_by_walk, stepped_walk_of, f_strip_by_search)

T = ClusterPt
M = parse_obj


def test_obj_to_string_examples():
    assert obj_to_string(M("M(1/2,1/2)")) == word([T(0, 0)])
    assert obj_to_string(M("M(1/4,3/4)")) == parse_word("T(1,0) > T(0,0) > T(1,1)")
    assert obj_to_string(M("M(1/8,1/4)")) == parse_word("T(2,1) < T(1,1) < T(0,0) > T(1,3)")
    with pytest.raises(InCluster):
        obj_to_string(M("M(0,1/2)"))


def test_string_to_obj_examples():
    assert string_to_obj(word([T(0, 0)])) == M("M(1/2,1/2)")
    assert string_to_obj(parse_word("T(1,0) > T(0,0) > T(1,1)")) == M("M(1/4,3/4)")
    assert string_to_obj(word([T(1, 0)])) == M("M(1,3/4)")


def test_simple_objects():
    assert simple_object(T(0, 0)) == M("M(1/2,1/2)")
    assert simple_object(T(1, 0)) == M("M(1,3/4)")
    assert simple_object(T(2, 1)) == M("M(1/2,9/8)")


def test_simple_equals_mutation_flip():
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 4) for m in range(1 << (n + 1))]
    for v in pts:
        _, x_star = mutate(STANDARD, object_of(v))
        assert simple_object(v) == x_star, v


def test_bijection_roundtrip_grid():
    from moebius.checks import grid_off_cluster
    for x in grid_off_cluster(2):
        w = obj_to_string(x)
        assert string_to_obj(w) == x
        assert obj_to_string(string_to_obj(w)) == w


def test_walk_rectangle_carries_exactly_the_word():
    # the closed rectangle spanned by the attach corners holds the support
    # plus the two corners and nothing else
    from moebius.checks import grid_off_cluster
    from moebius.cluster import enum_in_rect
    from moebius.band import Rect
    for x in grid_off_cluster(2):
        w = walk_of(x)
        lo, hi = w.vertices[0].rep, w.vertices[-1].rep
        rect = Rect(hi[0], lo[0], lo[1], hi[1])
        want = support(x) | {w.vertices[0].pt, w.vertices[-1].pt}
        assert enum_in_rect(rect) == want, x


# -- the walk between the attach vertices against the trial stepper ----------

def _reduced_words(pts):
    """Every reduced word on the given vertices, grown one letter at a time;
    a word that fails validation has no valid extension."""
    allowed = set(pts)
    found, stack = set(), [(v,) for v in pts]
    while stack:
        verts = stack.pop()
        found.add(word(verts))
        for u in (*in_neighbors(verts[-1]), *out_neighbors(verts[-1])):
            if u in allowed and u not in verts:
                try:
                    word(verts + (u,))
                except InvalidWord:
                    continue
                stack.append(verts + (u,))
    return found


def test_string_to_obj_matches_stepper_on_depth4_words():
    from moebius.checks import cluster_points
    words = _reduced_words(cluster_points(4))
    assert len(words) == 1891
    for w in words:
        assert string_to_obj.__wrapped__(w) == string_to_obj_by_steps(w), w


def _seeded_off_cluster(rng, e, count):
    """count objects off the cluster of exponent e, drawn from rng."""
    out = []
    while len(out) < count:
        x0 = Dyadic(rng.randrange(1 << (e + 1)) | 1, e)
        x = normal_form(x0, x0 + Dyadic(rng.randrange(1 << e), e))
        if member(x) is None:
            out.append(x)
    return out


def test_string_to_obj_matches_stepper_at_high_exponents():
    import random
    rng = random.Random(20261018)
    for e in range(15, 65):
        for x in _seeded_off_cluster(rng, e, 8):
            w = obj_to_string.__wrapped__(x)
            assert string_to_obj.__wrapped__(w) == x == string_to_obj_by_steps(w), x


def test_string_to_obj_matches_both_oracles_on_kernel_and_cokernel_pieces():
    # the words left of and right of every run of every word of G(5), among
    # them the pieces of every basic of G(5), and the kernel and cokernel
    # pieces of basics between objects that share a support point at
    # exponents 16-64: each end apex against the stepped attach
    # representatives and against the walk between the attach vertices
    import random
    from moebius.checks import grid_off_cluster
    from moebius.strings import _outside, kernel_cokernel_strings
    pieces = set()
    for w in map(obj_to_string, grid_off_cluster(5)):
        for i in range(len(w)):
            for j in range(i, len(w)):
                pieces.update(_outside(w, i, j))
    assert len(pieces) == 1395
    rng = random.Random(1664)
    for e in (16, 24, 32, 48, 64):
        basics = 0
        while basics < 20:
            x, y = _seeded_off_cluster(rng, e, 2)
            while not support(x) & support(y):
                (y,) = _seeded_off_cluster(rng, e, 1)
            wx, wy = obj_to_string(x), obj_to_string(y)
            if hom_dim_strings(wx, wy):
                basics += 1
                for part in kernel_cokernel_strings(wx, wy):
                    pieces.update(part)
    for w in pieces:
        assert string_to_obj.__wrapped__(w) == string_to_obj_by_steps(w) == string_to_obj_by_walk(w), w


@pytest.mark.parametrize("e, pairs", [(16, 60), (32, 60), (64, 40)])
def test_hom_ct_dim_matches_strings_on_pairs_sharing_support(e, pairs):
    # unbiased random pairs have a nonzero Hom only 11-18 % of the time, so
    # y is drawn among the objects that share a support point with x
    import random
    rng = random.Random(e)
    seen = set()
    for _ in range(pairs):
        x, y = _seeded_off_cluster(rng, e, 2)
        while not support(x) & support(y):
            (y,) = _seeded_off_cluster(rng, e, 1)
        for a, b in ((x, y), (y, x)):
            h = hom_ct_dim.__wrapped__(a, b)
            assert h == hom_dim_strings(obj_to_string(a), obj_to_string(b)), (a, b)
            seen.add(h)
    assert seen == {0, 1}


def test_string_to_obj_rejects_a_word_its_walk_does_not_carry(monkeypatch):
    import moebius.equiv as equiv
    w = parse_word("T(1,0) > T(0,0) > T(1,1)")
    monkeypatch.setattr(equiv, "obj_from_ends", lambda p, q, k: M("M(1/8,1/4)"))
    with pytest.raises(AssertionError, match="does not carry"):
        string_to_obj.__wrapped__(w)


# -- supports, words and objects off the chord against the stepped walks -------

def _assert_chord_reading_matches_walk(x):
    path = crossing_path(x)
    assert path == stepped_walk_of(x).pts[1:-1], x  # the walk's interior, in its order
    assert support(x) == support_by_walk(x) == frozenset(path), x
    w = obj_to_string(x)
    assert w == obj_to_string_by_walk(x), x
    assert string_to_obj.__wrapped__(w) == string_to_obj_by_walk(w) == x, x
    for u, v in zip(path, path[1:]):  # each letter as the quiver orients it
        assert arrow_dir(u, v) == (arrow_between(u, v) is not None) != arrow_dir(v, u), (u, v)


def test_chord_reading_matches_walks_on_depth6_grid():
    from moebius.checks import grid_off_cluster
    for x in grid_off_cluster(6):
        _assert_chord_reading_matches_walk(x)


@pytest.mark.parametrize("e", [16, 32, 64])
def test_chord_reading_matches_walks_at_high_exponents(e):
    import random
    for x in _seeded_off_cluster(random.Random(e), e, 500):
        _assert_chord_reading_matches_walk(x)


def test_supports_words_and_objects_step_no_walk(monkeypatch):
    # no reading builds a walk of its object
    import random
    import moebius.walk as walk

    def built(*args):
        raise AssertionError("a walk was built")

    xs = _seeded_off_cluster(random.Random(20261019), 48, 20)
    pts = [T(47, m) for m in (1, 12345, 2 ** 48 - 1)]
    with monkeypatch.context() as m:
        m.setattr(walk, "walk_of", built)
        got = [(support(x), obj_to_string(x), string_to_obj(obj_to_string(x))) for x in xs]
        simples = [simple_object(v) for v in pts]
    for x, (supp, w, back) in zip(xs, got):
        assert (supp, w, back) == (support_by_walk(x), obj_to_string_by_walk(x), x), x
    assert simples == [string_to_obj_by_walk(word([v])) for v in pts]


def test_transport_mor():
    x, y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
    w1, w2, c = transport_mor(x, y, 5)
    assert (w1, w2, c) == (obj_to_string(x), obj_to_string(y), 5)
    assert hom_dim_strings(w1, w2) == 1
    x1, y1, c1 = transport_mor_inverse(w1, w2, 5)
    assert (x1, y1, c1) == (x, y, 5)
    with pytest.raises(NoMorphism):
        transport_mor(y, x, 1)


def test_transport_functorial():
    from moebius.checks import grid_off_cluster
    from moebius.walk import compose_basic_nonzero
    objs = grid_off_cluster(2)
    words = {o: obj_to_string(o) for o in objs}
    triples = 0
    for x in objs[::3]:
        for y in objs[::3]:
            if hom_ct_dim(x, y) != 1:
                continue
            for z in objs[::3]:
                if hom_ct_dim(y, z) != 1:
                    continue
                lhs = compose_basic_nonzero(x, y, z)
                rhs = _string_composite_nonzero(words[x], words[y], words[z])
                assert lhs == rhs, (x, y, z)
                triples += 1
    assert triples > 20


def _string_composite_nonzero(w1, w2, w3):
    # graph maps act as the identity on their overlaps, so the composite
    # is nonzero exactly when the overlaps meet
    from moebius.strings import overlap
    if hom_dim_strings(w1, w2) != 1 or hom_dim_strings(w2, w3) != 1:
        return False
    meets = bool(overlap(w1, w2) & overlap(w2, w3))
    if meets:
        assert hom_dim_strings(w1, w3) == 1
    return meets


def test_digit_prefix_is_an_immutable_value():
    p = DigitPrefix(T(1, 1), (1, 0))
    assert (p.base, p.digits) == (T(1, 1), (1, 0))
    assert p == DigitPrefix(T(1, 1), (1, 0)) != DigitPrefix(T(1, 1), (1,))
    assert hash(p) == hash(DigitPrefix(T(1, 1), (1, 0)))
    assert str(p) == "T(1,1):10" and repr(p) == "DigitPrefix(base=T(1,1), digits=(1, 0))"
    with pytest.raises(AttributeError):
        p.digits = (0,)
    with pytest.raises(ValueError, match="digits must be 0 or 1"):
        DigitPrefix(T(1, 1), (1, 2))


def test_digit_prefix_takes_only_the_ints_0_and_1():
    # True and 1.0 equal 1, but print as "True" and fail `&` in `digit_vertex`
    with pytest.raises(ValueError, match="digits must be 0 or 1"):
        DigitPrefix(T(0, 0), (True, False))
    with pytest.raises(ValueError, match="digits must be 0 or 1"):
        DigitPrefix(T(0, 0), (1.0, 0.0))


def test_digit_prefix_stores_its_digits_as_a_tuple():
    p = DigitPrefix(T(0, 0), [1, 0])
    assert type(p.digits) is tuple and p == DigitPrefix(T(0, 0), (1, 0))
    assert hash(p) == hash(DigitPrefix(T(0, 0), (1, 0)))
    assert str(p) == "T(0,0):10" and digit_vertex(p) == T(2, 7)


def test_digit_examples():
    p = DigitPrefix(T(0, 0), (1,))
    assert tuple(map(str, digits_to_coords(p))) == ("0", "1/2")
    assert digit_vertex(p) == T(1, 0)
    p = DigitPrefix(T(0, 0), (0,))
    assert tuple(map(str, digits_to_coords(p))) == ("-1/2", "0")
    assert digit_vertex(p) == T(1, 3)
    p = DigitPrefix(T(0, 0), (1, 0))
    assert tuple(map(str, digits_to_coords(p))) == ("-1/4", "1/2")
    assert digit_vertex(p) == T(2, 7)


def _digits_to_coords_by_terms(p):
    """The digit sum b_m = b + sum d_i theta/2^i added one term at a time."""
    from moebius.dyadic import ONE
    base = object_of(p.base)
    theta = base.x + ONE - base.y
    bm = base.y
    for i, d in enumerate(p.digits, start=1):
        if d:
            bm = bm + Dyadic(theta.num, theta.exp + i)
    return (bm - ONE + Dyadic(theta.num, theta.exp + len(p.digits)), bm)


def test_digits_closed_form_matches_term_sum():
    from itertools import product
    from moebius.checks import cluster_points
    for v in cluster_points(3):
        for m in range(9):
            for digits in product((0, 1), repeat=m):
                p = DigitPrefix(v, digits)
                want = _digits_to_coords_by_terms(p)
                assert digits_to_coords(p) == want == digits_to_coords_on_dyadics(p), p


def test_digit_roundtrips():
    for v in (T(0, 0), T(1, 1), T(2, 5)):
        for digits in [(1,), (0,), (1, 0), (0, 1, 1), (1, 0, 0, 1)]:
            p = DigitPrefix(v, digits)
            w = digit_vertex(p)
            assert coords_to_digits(v, w, 8) == p


def _digit_vertex_geometric(p):
    """The cluster point at the coordinates of the b_m formula."""
    return member(normal_form(*digits_to_coords(p)))


def _binary_value(digits):
    return int("".join(map(str, digits)), 2) if digits else 0


def _coords_to_digits_by_climb(v, w, bound):
    """Climb from w to v one parent at a time, as the prefix was found
    before the closed form."""
    rev = []
    cur = w
    while cur != v:
        if len(rev) >= bound or cur.n == 0:
            raise Unreachable(f"{w} not within {bound} digit steps of {v}")
        if cur.m % 2 == 0:
            parent, digit = T(cur.n - 1, cur.m // 2), 1
        else:
            parent, digit = T(cur.n - 1, (cur.m + 1) // 2), 0
        if cur not in (in_neighbors(parent)[0], out_neighbors(parent)[0]):  # its children
            raise Unreachable(f"{w} is not on the digit tree below {v}")
        rev.append(digit)
        cur = parent
    p = DigitPrefix(v, tuple(reversed(rev)))
    assert _digit_vertex_geometric(p) == w
    return p


def test_digit_tree_matches_geometry_and_climb():
    from itertools import product
    from moebius.checks import cluster_points
    for v in cluster_points(3):
        for m in range(9):
            for digits in product((0, 1), repeat=m):
                p = DigitPrefix(v, digits)
                assert digit_vertex(p) == _digit_vertex_geometric(p), p
    for v in cluster_points(3):
        for w in cluster_points(7):
            for bound in (3, 10):
                try:
                    want = _coords_to_digits_by_climb(v, w, bound)
                except Unreachable:
                    want = None
                try:
                    got = coords_to_digits(v, w, bound)
                except Unreachable:
                    got = None
                assert got == want, (v, w, bound)
                try:
                    index = _digit_index(v, w, bound)
                except Unreachable:
                    index = None
                want = None if want is None else (len(want.digits), _binary_value(want.digits))
                assert index == want, (v, w, bound)


def test_digit_unreachable():
    with pytest.raises(Unreachable):
        coords_to_digits(T(0, 0), T(1, 1), 8)
    with pytest.raises(Unreachable):
        coords_to_digits(T(2, 1), T(1, 0), 8)


def test_digit_monotone():
    prev = None
    for m in range(0, 9):
        digits = tuple(1 if i % 2 else 0 for i in range(m))
        _, bm = digits_to_coords(DigitPrefix(T(1, 1), digits))
        if prev is not None:
            assert bm >= prev
        prev = bm


def test_lower_tail():
    assert tuple(map(str, lower_tail_coords(DigitPrefix(T(0, 0), (0,))))) == ("0", "-1/2")
    assert tuple(map(str, lower_tail_coords(DigitPrefix(T(0, 0), (1,))))) == ("1/2", "0")
    assert tuple(map(str, lower_tail_coords(DigitPrefix(T(0, 0), (1, 0))))) == ("1/2", "-1/4")


def test_tail_case():
    assert tail_case(DigitPrefix(T(0, 0), (1, 0)), DigitPrefix(T(0, 0), (0, 1))) == "case1"
    assert tail_case(DigitPrefix(T(1, 1), (1, 0)), DigitPrefix(T(1, 1), (1, 0))) == "case2"
    assert tail_case(DigitPrefix(T(1, 1), (0,)), DigitPrefix(T(1, 1), (0, 1))) == "case3"
    assert tail_case(DigitPrefix(T(1, 1), (0,)), DigitPrefix(T(1, 1), (1, 0)), swapped=True) == "case4"
    assert tail_case(DigitPrefix(T(1, 1), (0,)), DigitPrefix(T(1, 1), (0, 1)), swapped=True) == "case5"
    with pytest.raises(AllOnesTail):
        tail_case(DigitPrefix(T(1, 1), (1, 1)), DigitPrefix(T(1, 1), (0,)))
    with pytest.raises(AllOnesTail):
        tail_case(DigitPrefix(T(1, 1), (0, 1)), DigitPrefix(T(1, 1), (1,)))


def test_g_extend_examples():
    w = word([T(0, 0)])
    assert g_extend(w, 0) == parse_word("~T(1,0) > T(0,0) < T(1,2)~")
    assert g_extend(w, 1) == parse_word("~T(2,7) < T(1,0) > T(0,0) < T(1,2) > T(2,3)~")


def test_ray_reps_horizontal():
    # reps along the ray through T(1,0) keep their second coordinate
    from oracles import _step_rep
    cur = (Dyadic(0), Dyadic(1, 1))  # rep of T(1,0)
    chain = [cur]
    for pt in (T(2, 7), T(3, 13)):
        cur = _step_rep(cur, pt, outward=False)
        chain.append(cur)
    assert [tuple(map(str, r)) for r in chain] == [
        ("0", "1/2"), ("-1/4", "1/2"), ("-3/8", "1/2")]


def test_f_strip():
    w = obj_to_string(M("M(1/8,1/4)"))
    for k in range(4):
        assert f_strip(g_extend(w, k)) == w
    assert f_strip(w) == w
    outward = StringWord([T(1, 0), T(2, 7)], rmark=True)  # T(1,0) -> T(2,7), towards the mark
    assert f_strip(outward) is None


def test_f_strip_matches_search_on_every_short_word():
    # every letter sequence of up to 11 letters under each marking, on the
    # path down the tree from T(1,1) that steps to the odd child T(n+1, 2m-1)
    # on a forward letter and to the even child T(n+1, 2m) on a backward one;
    # the word does not flip
    words = 0
    for letters in range(12):
        for bits in range(1 << letters):
            directs = tuple(bool(bits >> i & 1) for i in range(letters))
            path = [T(1, 1)]
            for d in directs:
                path.append(T(path[-1].n + 1, 2 * path[-1].m - d))
            for lmark, rmark in ((True, False), (False, True), (True, True)):
                w = StringWord(path, lmark=lmark, rmark=rmark)
                assert w.verts == tuple(path) and w.directs == directs, w
                assert f_strip(w) == f_strip_by_search(w), w
                words += 1
    assert words == 12_285


def test_g_extend_matches_arrow_oracle_on_depth3_words():
    from moebius.checks import cluster_points
    words = _reduced_words(cluster_points(3))
    assert len(words) == 435
    for w in words:
        for k in range(4):
            assert g_extend(w, k) == g_extend_by_arrows(w, k), (w, k)


def test_g_extend_rejects_marked():
    with pytest.raises(InvalidWord):
        g_extend(g_extend(word([T(0, 0)]), 0), 0)


def test_truncation_objects_converge_to_simple():
    # objects of deeper ray truncations approach the simple from above
    w = word([T(0, 0)])
    want = ["M(3/4,3/4)", "M(5/8,5/8)", "M(9/16,9/16)", "M(17/32,17/32)"]
    for k, text in enumerate(want):
        g = g_extend(w, k)
        assert string_to_obj(StringWord(g.verts)) == M(text)
