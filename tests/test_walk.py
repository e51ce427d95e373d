import random
from fractions import Fraction

import pytest

from moebius import cluster
from moebius.dyadic import Dyadic
from moebius.band import Rect, parse_obj, hom_c_dim, mirror, normal_form
from moebius.cluster import ClusterPt, object_of, member, enum_in_rect, enum_in_rect_with_reps
from moebius.walk import (support, walk_of, approximation,
                          hom_ct_dim, tau_dims, concrete_epsilon, shifted,
                          factors_through_sink,
                          compose_basic_nonzero, chain_box_nonzero)
from moebius.errors import BandBoundary, InCluster, NoMorphism

from oracles import (tau_dims_via_epsilon, hom0_via_factoring, _scan_walk_of, minimal_walk,
                     walk_at_by_points, stepped_walk_of, compose_basic_nonzero_by_pairing,
                     induced_support_map, hom_c_configs_on_dyadics, hom_ct_dim_on_dyadics,
                     compose_basic_nonzero_on_dyadics, shifted_on_dyadics,
                     lower_corner_on_dyadics, upper_corner_on_dyadics, _ends, fraction)

T = ClusterPt
M = parse_obj
D = Dyadic


def grid_off(e=2):
    from moebius.checks import grid_off_cluster
    return grid_off_cluster(e)


def test_support_examples():
    assert support(M("M(1/4,3/4)")) == {T(0, 0), T(1, 0), T(1, 1)}
    assert support(M("M(1/2,1/2)")) == {T(0, 0)}
    assert support(M("M(0,1/2)")) == frozenset()


def test_walk_of_examples():
    w = walk_of(M("M(1/4,3/4)"))
    assert list(w.points()) == [T(2, 2), T(1, 1), T(0, 0), T(1, 0), T(2, 0)]
    assert [(str(v.rep[0]), str(v.rep[1])) for v in w.vertices] == [
        ("1/4", "-1/2"), ("0", "-1/2"), ("0", "0"), ("0", "1/2"), ("0", "3/4")]
    assert [v.role for v in w.vertices] == ["sink", "source", "through", "through", "sink"]

    w2 = walk_of(M("M(1/8,1/4)"))
    assert list(w2.points()) == [T(3, 2), T(2, 1), T(1, 1), T(0, 0), T(1, 3), T(2, 6)]
    assert [v.role for v in w2.vertices] == ["sink", "source", "through", "sink", "source", "sink"]

    w3 = walk_of(M("M(1/2,1/2)"))
    assert list(w3.points()) == [T(1, 2), T(0, 0), T(1, 0)]
    assert [v.role for v in w3.vertices] == ["sink", "source", "sink"]


def test_walk_in_cluster_errors():
    with pytest.raises(InCluster):
        walk_of(M("M(0,1/2)"))


def test_walk_json():
    data = walk_of(M("M(1/2,1/2)")).to_json()
    assert data[0] == {"pt": [1, 2], "rep": ["1/2", "0"], "role": "sink"}


def test_minimal_walk():
    # the oracle that `oracles.string_to_obj_by_walk` steps
    assert minimal_walk(T(0, 0), T(0, 0)).steps == ()
    w = minimal_walk(T(0, 0), T(1, 0))
    assert len(w.steps) == 1 and list(w.points()) == [T(0, 0), T(1, 0)]
    w = minimal_walk(T(2, 2), T(2, 0))
    assert len(w.steps) == 4
    assert list(w.points()) == [T(2, 2), T(1, 1), T(0, 0), T(1, 0), T(2, 0)]


def test_minimal_walk_symmetry():
    pts = [T(0, 0), T(1, 0), T(2, 2), T(2, 0), T(1, 3), T(3, 5)]
    for v in pts:
        for w in pts:
            a = minimal_walk(v, w)
            b = minimal_walk(w, v)
            assert len(a.steps) == len(b.steps)
            assert set(a.points()) == set(b.points())


def _bfs_distance(v, w, cap=16):
    from moebius.cluster import in_neighbors, out_neighbors
    frontier, seen, dist = {v}, {v}, 0
    while frontier and dist <= cap:
        if w in frontier:
            return dist
        frontier = {u for p in frontier
                    for u in (*in_neighbors(p), *out_neighbors(p))} - seen
        seen |= frontier
        dist += 1
    raise AssertionError("bfs cap hit")


def test_minimal_walk_length_is_graph_distance():
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 4) for m in range(1 << (n + 1))]
    for v in pts:
        for w in pts:
            assert len(minimal_walk(v, w).steps) == _bfs_distance(v, w), (v, w)


def test_walks_nondegenerate():
    # composable consecutive steps (runs through a vertex) compose nonzero
    for x in grid_off():
        w = walk_of(x)
        vs = w.vertices
        for i in range(len(w.steps) - 1):
            if w.steps[i] != w.steps[i + 1]:
                continue
            if w.steps[i] == "v":
                lo, hi = vs[i].rep, vs[i + 2].rep
            else:
                lo, hi = vs[i + 2].rep, vs[i].rep
            assert lo[0] <= hi[0] and lo[1] <= hi[1]
            assert hi[1] - Dyadic(1) < lo[0] and hi[0] - Dyadic(1) < lo[1], (x, i)


def test_approximation_examples():
    a = approximation(M("M(1/4,3/4)"))
    assert list(a.sources) == [T(1, 1)]
    assert list(a.sinks) == [T(2, 2), T(2, 0)]
    a2 = approximation(M("M(1/8,1/4)"))
    assert list(a2.sources) == [T(2, 1), T(1, 3)]
    assert list(a2.sinks) == [T(3, 2), T(0, 0), T(2, 6)]
    a3 = approximation(M("M(1/2,1/2)"))
    assert list(a3.sources) == [T(0, 0)]
    assert list(a3.sinks) == [T(1, 2), T(1, 0)]


def test_approximation_balance_grid():
    for x in grid_off():
        a = approximation(x)
        firsts_b = sorted(fraction(r[0]) for r in a.sink_reps)
        firsts_a = sorted([fraction(r[0]) for r in a.source_reps] + [fraction(x.x)])
        assert firsts_a == firsts_b, x
        seconds_b = sorted(fraction(r[1]) for r in a.sink_reps)
        seconds_a = sorted([fraction(r[1]) for r in a.source_reps] + [fraction(x.y)])
        assert seconds_a == seconds_b, x


def test_hom_ct_examples():
    assert hom_ct_dim(M("M(1/8,1/4)"), M("M(1/4,3/4)")) == 1
    assert hom_ct_dim(M("M(-1/8,1/4)"), M("M(1/4,3/4)")) == 0
    assert hom_ct_dim(M("M(0,1/2)"), M("M(1/4,3/4)")) == 0
    assert hom_ct_dim(M("M(1/4,3/4)"), M("M(0,1/2)")) == 0
    assert hom_ct_dim(M("M(1/4,3/4)"), M("M(1/8,1/4)")) == 0


def test_support_is_walk_interior():
    # the paper's support: the cluster points of the open rectangle
    # (y-1, x) x (x-1, y), found by the level scan rather than the walk
    for x in grid_off():
        assert support(x) == enum_in_rect(Rect.open(x.y - D(1), x.x, x.x - D(1), x.y)), x


def test_tau_dims_examples():
    x = M("M(1/4,3/4)")
    for s, want in [
        (T(1, 1), (1, 1, 0, 0, 1)),
        (T(0, 0), (1, 1, 1, 0, 0)),
        (T(2, 0), (0, 0, 1, 1, 0)),
    ]:
        td = tau_dims(s, x)
        assert (td.tau_inv, td.tau, td.rad, td.hom0, td.hom0_T1) == want
        assert td.alternating_sum == 0


def test_tau_dims_on_cluster_object():
    td = tau_dims(T(1, 0), M("M(0,1/2)"))
    assert (td.tau_inv, td.tau, td.rad, td.hom0, td.hom0_T1) == (0, 0, 0, 1, 0)
    td = tau_dims(T(0, 0), M("M(0,1/2)"))
    assert (td.tau_inv, td.tau, td.rad, td.hom0, td.hom0_T1) == (0, 0, 0, 0, 0)


def test_tau_dims_match_epsilon_oracles():
    pts = [T(0, 0)] + [T(1, m) for m in range(4)] + [T(2, m) for m in range(8)]
    for x in grid_off():
        for s in pts:
            td = tau_dims(s, x)
            ti, t, r = tau_dims_via_epsilon(s, x)
            assert (td.tau_inv, td.tau, td.rad) == (ti, t, r), (s, x)
            assert td.hom0 == hom0_via_factoring(s, x), (s, x)


def test_epsilon_halving_stability():
    sample = grid_off()[::7]
    pts = [T(0, 0), T(1, 1), T(2, 3)]
    for x in sample:
        for s in pts:
            eps = concrete_epsilon([object_of(s), x])
            for e in (eps, eps * D(1, 1)):
                assert hom_ct_dim(shifted(s, e, e), x) == tau_dims(s, x).tau_inv


def test_concrete_epsilon():
    assert concrete_epsilon([]) == D(1, 2)
    assert concrete_epsilon([M("M(1/8,1/4)")]) == D(1, 5)


def test_induced_support_map():
    m = induced_support_map(M("M(1/8,1/4)"), M("M(1/4,3/4)"), Fraction(1))
    assert set(m) == {T(0, 0), T(1, 1)}
    assert all(v == 1 for v in m.values())
    ident = induced_support_map(M("M(1/8,1/4)"), M("M(1/8,1/4)"), Fraction(2))
    assert set(ident) == set(support(M("M(1/8,1/4)")))
    assert all(v == 2 for v in ident.values())
    with pytest.raises(NoMorphism):
        induced_support_map(M("M(1/4,3/4)"), M("M(1/8,1/4)"), Fraction(1))


def test_approximation_covers_cluster_maps():
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 4) for m in range(1 << (n + 1))]
    for x in grid_off():
        for s in pts:
            if hom_c_dim(object_of(s), x) == 1:
                assert factors_through_sink(s, x), (s, x)


def test_compose_basic_nonzero_blocked():
    # straight-through composite survives
    assert compose_basic_nonzero(M("M(1/8,1/4)"), M("M(3/16,1/2)"), M("M(1/4,3/4)"))


# -- the composite read off one basic x -> z against the pairing of two ---------

def _assert_compose_matches_pairing(triples):
    seen = set()
    for x, y, z in triples:
        got = chain_box_nonzero(x, y, z)
        assert got == compose_basic_nonzero_by_pairing(x, y, z), (x, y, z)
        seen.add(got)
    return seen


def test_compose_matches_pairing_on_depth3_basics():
    # every tenth basic x -> y of the depth-3 grid, then any basic y -> z
    from moebius.checks import _basics
    basics = list(_basics(3))
    triples = [(x, y, z) for (x, y) in basics[::10] for (y2, z) in basics if y2 == y]
    assert _assert_compose_matches_pairing(triples) == {True, False}


def _in_window(rng, x, e):
    """A grid-e object with a representative (p, q) in the window of a map
    out of a representative (a, b) of x: a <= p < b + 1, b <= q < a + 1."""
    a, b = rng.choice(x.reps_at(e))
    one = 1 << e
    while True:
        p = a + rng.randrange(b + one - a)
        q = b + rng.randrange(a + one - b)
        if abs(q - p) < one:
            return normal_form(p, q, e)


def test_compose_matches_pairing_on_seeded_depth4_triples():
    # half uniform in the depth-4 grid; half with y in the window of a map
    # out of x and z in the window of a map out of y, so both factors exist in C
    from moebius.checks import grid
    rng = random.Random(4)
    objs = grid(4)
    triples = []
    for i in range(2000):
        x = rng.choice(objs)
        y = _in_window(rng, x, 4) if i % 2 else rng.choice(objs)
        triples.append((x, y, _in_window(rng, y, 4) if i % 2 else rng.choice(objs)))
    assert _assert_compose_matches_pairing(triples) == {True, False}


def test_compose_matches_pairing_on_support_translates():
    # the composites criterion 6 asks for: a translate of each common support
    # point, then the basic src -> dst, for 200 depth-3 basics
    from moebius.checks import _basics
    triples = []
    for (src, dst) in list(_basics(3))[::9][:200]:
        common = support(src) & support(dst)
        eps = concrete_epsilon([src, dst] + [object_of(s) for s in common])
        triples.extend((shifted(s, eps, eps), src, dst) for s in sorted(common))
    assert len(triples) > 300
    assert True in _assert_compose_matches_pairing(triples)


def test_ambient_translate_duality():
    # dim Hom(translate of S, X) = dim Hom(X, S) in the ambient category
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 4) for m in range(1 << (n + 1))]
    for x in grid_off():
        for s in pts:
            eps = concrete_epsilon([object_of(s), x])
            lhs = hom_c_dim(shifted(s, eps, eps), x)
            rhs = hom_c_dim(x, object_of(s))
            assert lhs == rhs, (s, x)


# -- the stepped walks against the level-scan walks ------------------------------

def _assert_walk_matches_scan(x):
    vertices, steps = _scan_walk_of(x)
    w = walk_of(x)
    assert (w.vertices, w.steps) == (vertices, steps), x
    assert support(x) == frozenset(v.pt for v in vertices[1:-1]), x
    assert all(type(c) is int for c in (*w.xs, *w.ys)), x


def test_walk_matches_scan_on_grid():
    for x in grid_off(6):
        _assert_walk_matches_scan(x)


def test_walk_matches_scan_at_high_exponents(monkeypatch):
    import random
    monkeypatch.setattr(cluster, "MAX_SCAN_DEPTH", 64)  # lets the reference scan reach exponent 40
    rng = random.Random(20261018)
    for e in range(15, 41):
        done = 0
        while done < 40:
            x0 = Dyadic(rng.randrange(1 << (e + 1)) | 1, e)
            x = normal_form(x0, x0 + Dyadic(rng.randrange(1 << e), e))
            if member(x) is None:
                _assert_walk_matches_scan(x)
                done += 1


def test_support_on_cluster_is_empty_open_rect():
    from moebius.checks import grid
    for x in grid(5):
        if member(x) is not None:
            assert support(x) == frozenset()
            assert not enum_in_rect_with_reps.__wrapped__(
                Rect.open(x.y - Dyadic(1), x.x, x.x - Dyadic(1), x.y)), x


def test_walk_at_exponent_64_without_depth_cap():
    x = M("M(1/18446744073709551616,3/4)")
    w = walk_of(x)
    assert len(w.vertices) == 67
    assert w.vertices[0].rep == lower_corner_on_dyadics(x.x, x.y)
    assert w.vertices[-1].rep == upper_corner_on_dyadics(x.x, x.y)
    assert approximation(x).sources == (T(63, 1),)


def test_walk_between_stuck_raises():
    # the upper-left corner lies to the right: no step can reach it
    with pytest.raises(AssertionError, match=r"^walk to \(1/2, 1/2\) is stuck at \(0, 1/2\)$"):
        walk_at_by_points(0, 0, 1, 1, 1)  # from (0, 0) to (1/2, 1/2)


def test_walk_off_a_wrong_attach_vertex_raises(monkeypatch):
    import moebius.walk as walk
    x = M("M(1/4,3/4)")  # the attach vertices T(2,2) and T(2,0), swapped
    monkeypatch.setattr(walk, "attach", lambda path: cluster.attach(path)[::-1])
    with pytest.raises(AssertionError, match=r"^walk of M\(1/4,3/4\) ends at \(0, -3/4\), "
                                             r"not at a corner \(a, 3/4\) left of x$"):
        walk_of.__wrapped__(x)


# -- the read-off walk against the stepper that reads each point off its pair ---

def _assert_walk_matches_pointwise(x):
    w, want = walk_of(x), stepped_walk_of(x)  # k of the oracle's corners included
    assert (w.pts, w.xs, w.ys, w.k, w.steps, w.roles) == (
        want.pts, want.xs, want.ys, want.k, want.steps, want.roles), x
    assert all(p is T(*p) for p in w.pts if p.n <= 8), x  # the shared instances


def test_walk_matches_pointwise_stepper_on_grid():
    for x in grid_off(6):
        _assert_walk_matches_pointwise(x)


def test_walk_matches_pointwise_stepper_at_high_exponents():
    rng = random.Random(20261019)
    done = 0
    while done < 500:
        e = rng.randrange(16, 65)
        x0 = Dyadic(rng.randrange(1 << (e + 1)) | 1, e)
        x = normal_form(x0, x0 + Dyadic(rng.randrange(1 << e), e))
        if member(x) is None:
            _assert_walk_matches_pointwise(x)
            done += 1


@pytest.mark.parametrize("m", [1, 2, 12345, 2 ** 47, 2 ** 48 - 1])
def test_walk_of_deep_simple_matches_pointwise_stepper(m):
    # one-vertex paths below the shared points: the walk starts at the attach
    # vertex whose chord has the end x
    from moebius.equiv import simple_object
    x = simple_object(T(47, m))
    assert walk_of(x).pts[1:-1] == (T(47, m),)
    _assert_walk_matches_pointwise(x)


# -- the integer geometry against its Dyadic oracles ----------------------------

def test_hom_configs_and_dims_match_dyadic_oracle_on_depth4_grid(monkeypatch):
    # the configs hom_ct_dim reads are those of the Dyadic oracle, as
    # numerators at the scale of the pair
    import moebius.walk as walk
    configs = []
    real = walk.hom_c_configs
    monkeypatch.setattr(walk, "hom_c_configs", lambda src, dst: configs.append(real(src, dst)) or configs[-1])
    objs = grid_off(4)
    dims = [0, 0]
    for x in objs:
        for y in objs:
            dim = hom_ct_dim.__wrapped__(x, y)
            got, want = configs.pop(), hom_c_configs_on_dyadics(x, y)
            if got or want:
                e = max(x.max_exp(), y.max_exp())
                assert got == [((a.num << (e - a.exp), b.num << (e - b.exp)), (c.num << (e - c.exp), d.num << (e - d.exp)))
                               for (a, b), (c, d) in want], (x, y)
            assert dim == hom_ct_dim_on_dyadics(x, y, want), (x, y)
            dims[dim] += 1
    assert sum(dims) == len(objs) ** 2 == 189_225 and all(dims)


def _chains(e):
    from moebius.checks import _basics
    after = {}
    basics = list(_basics(e))
    for y, z in basics:
        after.setdefault(y, []).append(z)
    return [(x, y, z) for x, y in basics for z in after.get(y, ())]


def test_compose_matches_dyadic_oracle_on_depth3_chains():
    # the rectangle test against its Dyadic form, and the support rule
    # against the rectangle test, on every chain of the depth-3 grid
    seen = set()
    chains = _chains(3)
    for x, y, z in chains:
        got = chain_box_nonzero(x, y, z)
        assert got == compose_basic_nonzero_on_dyadics(x, y, z), (x, y, z)
        assert compose_basic_nonzero(x, y, z) == got, (x, y, z)
        seen.add(got)
    assert seen == {True, False} and len(chains) == 37_196


def _assert_support_rule_matches_rectangles(chains):
    seen = set()
    for x, y, z in chains:
        got = compose_basic_nonzero(x, y, z)
        assert got == chain_box_nonzero(x, y, z), (x, y, z)
        seen.add(got)
    assert seen == {True, False}


def test_support_rule_matches_rectangles_on_seeded_depth4_chains():
    # the depth-4 grid has 3.04M chains, too many to compare all: through
    # each of 20 seeded middle objects y, 500 seeded pairs x -> y -> z
    from moebius.checks import grid_off_cluster
    objs = grid_off_cluster(4)
    rng = random.Random(4)
    chains = []
    for y in rng.sample(objs, 20):
        before = [x for x in objs if hom_ct_dim(x, y)]
        after = [z for z in objs if hom_ct_dim(y, z)]
        chains += [(rng.choice(before), y, rng.choice(after)) for _ in range(500)]
    _assert_support_rule_matches_rectangles(chains)


def _near_basic(rng, x, e):
    """An object off the cluster with a nonzero basic x -> it, up to a
    seeded spread of 2^(e-4) to 2^(e-1) over 2^e above and right of x."""
    while True:
        spread = 1 << (e - rng.randint(1, 4))
        try:
            y = normal_form(x.x + D(rng.randrange(spread), e), x.y + D(rng.randrange(spread), e))
        except BandBoundary:
            continue
        if y != x and member(y) is None and hom_ct_dim(x, y):
            return y


def test_support_rule_matches_rectangles_at_exponents_16_to_64():
    from moebius.band import Obj
    rng = random.Random(64)
    chains = []
    while len(chains) < 400:
        e = rng.randint(16, 64)
        x = Obj(D(rng.randrange(1 << (e + 1)), e), D(rng.randrange(1, 1 << e), e))
        if member(x) is None:
            y = _near_basic(rng, x, e)
            chains.append((x, y, _near_basic(rng, y, e)))
    _assert_support_rule_matches_rectangles(chains)


# -- the reflection of the disk: a duality fixing the cluster -------------------

def _mirror_pt(v):
    """T(n, m) -> T(n, 2^(n+1) - m + 1); `ClusterPt` takes m mod 2^(n+1)."""
    return T(v.n, 1 - v.m)


def _assert_mirror_duality(objs, pairs):
    """mirror is an involution negating both chord ends, carries supports
    along, and reverses every hom; the number of nonzero homs among pairs."""
    for x in objs:
        sx = mirror(x)
        assert mirror(sx) == x, x
        assert _ends(sx) == tuple(sorted(-a % 2 for a in _ends(x))), x
        assert support(sx) == {_mirror_pt(v) for v in support(x)}, x
    nonzero = 0
    for x, y in pairs:
        h = hom_ct_dim(x, y)
        assert h == hom_ct_dim(mirror(y), mirror(x)), (x, y)
        nonzero += h
    return nonzero


def test_mirror_fixes_the_cluster():
    from moebius.checks import cluster_points
    for v in cluster_points(8):
        assert mirror(object_of(v)) == object_of(_mirror_pt(v)), v
        assert _mirror_pt(_mirror_pt(v)) == v


def test_mirror_is_a_duality_on_the_depth3_grid():
    objs = grid_off(3)
    assert _assert_mirror_duality(objs, [(x, y) for x in objs for y in objs]) == 1820


def test_mirror_is_a_duality_on_a_seeded_depth4_sample():
    # half uniform pairs of G(4), half with y in the window of a map out of x
    objs = grid_off(4)
    rng = random.Random(44)
    pairs = []
    for i in range(3000):
        x = rng.choice(objs)
        y = _in_window(rng, x, 4) if i % 2 else rng.choice(objs)
        if member(y) is None:
            pairs.append((x, y))
    assert _assert_mirror_duality(objs, pairs) > 300


def test_mirror_is_a_duality_at_exponents_16_to_64():
    # each pair x -> y has a nonzero basic; its reverse pair mostly does not
    from moebius.band import Obj
    rng = random.Random(61)
    pairs = []
    while len(pairs) < 600:
        e = rng.randint(16, 64)
        x = Obj(D(rng.randrange(1 << (e + 1)), e), D(rng.randrange(1, 1 << e), e))
        if member(x) is None:
            y = _near_basic(rng, x, e)
            pairs += [(x, y), (y, x)]
    objs = [x for pair in pairs for x in pair]
    assert 300 <= _assert_mirror_duality(objs, pairs) < 600


def test_shifted_matches_dyadic_oracle():
    from moebius.checks import cluster_points
    moves = [D(0)] + [D(sign, k) for k in (0, 1, 3, 6, 40) for sign in (1, -1)]
    for s in cluster_points(4):
        for dx in moves:
            for dy in moves:
                try:
                    want = shifted_on_dyadics(s, dx, dy)
                except BandBoundary:
                    with pytest.raises(BandBoundary):
                        shifted(s, dx, dy)
                    continue
                assert shifted(s, dx, dy) == want, (s, dx, dy)


def test_hom_and_composite_tests_build_no_dyadic(monkeypatch):
    # cold calls on depth-3 grid pairs and chains: the whole path runs on
    # numerators, so Dyadic.__init__ is never entered
    from moebius.checks import grid
    objs = grid(3)
    chains = _chains(3)[::7]
    built = []
    init = Dyadic.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Dyadic, "__init__", counting)
    dims = sum(hom_ct_dim.__wrapped__(x, y) for x in objs for y in objs)
    alive = sum(chain_box_nonzero(x, y, z) for x, y, z in chains)
    monkeypatch.undo()
    assert built == []
    assert 0 < dims < len(objs) ** 2 and 0 < alive < len(chains)
