"""Randomized cross-checks against brute-force oracles (seeded, deterministic)."""

import math
import random
from fractions import Fraction

from moebius.dyadic import Dyadic, ONE
from moebius.band import Rect
from moebius.cluster import ClusterPt, enum_in_rect
from moebius.errors import UnboundedRect
from moebius import cluster, linalg
from moebius.strings import RepFin, to_rep, direct_sum, decompose_rep, word
from moebius.equiv import obj_to_string
from moebius.checks import grid_off_cluster

from oracles import decompose_rep_by_peeling, decompose_rep_by_rescans, fraction, invert


def _brute_force_enum(rect: Rect, max_n: int) -> set:
    """Scan every (n, m) and translation directly, per representative family."""
    found = set()
    lo = min(fraction(rect.x_lo), fraction(rect.y_lo))
    hi = max(fraction(rect.x_hi), fraction(rect.y_hi))
    k_lo = int(lo // 2) - 2
    k_hi = int(hi // 2) + 2
    for n in range(max_n + 1):
        delta = Dyadic(1) - Dyadic(1, n)
        for m in range(1 << (n + 1)):
            for k in range(k_lo, k_hi + 1):
                shift = Dyadic(2 * k)
                x_a = Dyadic(m, n) + shift
                for (x, y) in ((x_a, x_a + delta),
                               (Dyadic(m - 1, n) + shift, Dyadic(m, n) - Dyadic(1) + shift)):
                    if _inside(rect, x, y):
                        found.add(ClusterPt(n, m))
    return found


def _inside(rect: Rect, x, y) -> bool:
    if x < rect.x_lo or (x == rect.x_lo and rect.open_x_lo):
        return False
    if x > rect.x_hi or (x == rect.x_hi and rect.open_x_hi):
        return False
    if y < rect.y_lo or (y == rect.y_lo and rect.open_y_lo):
        return False
    if y > rect.y_hi or (y == rect.y_hi and rect.open_y_hi):
        return False
    return True


def test_enum_matches_brute_force():
    rng = random.Random(424242)
    for _ in range(150):
        e = rng.randint(0, 3)
        vals = sorted(rng.randint(-3 << e, 3 << e) for _ in range(2))
        x_lo, x_hi = (Dyadic(v, e) for v in vals)
        vals = sorted(rng.randint(-3 << e, 3 << e) for _ in range(2))
        y_lo, y_hi = (Dyadic(v, e) for v in vals)
        flags = [rng.random() < 0.5 for _ in range(4)]
        rect = Rect(x_lo, x_hi, y_lo, y_hi, *flags)
        try:
            got = set(enum_in_rect(rect))
        except UnboundedRect:
            # the probe level must genuinely be populated
            import moebius.cluster as cluster
            assert cluster._level_hits(rect, rect.max_exp() + 2)
            continue
        assert got == _brute_force_enum(rect, rect.max_exp() + 4), rect


def _windowed_brute_force_enum(rect: Rect, max_n: int) -> set:
    """Every (n, m), n <= max_n, with a representative in rect, trying at
    each depth n only the t with t/2^n in the x-range of rect: the
    representatives (t/2^n, t/2^n + 1 - 1/2^n) of T(n, t) and
    (t/2^n, (t+1)/2^n - 1) of T(n, t + 1), the translates included."""
    found = set()
    for n in range(max_n + 1):
        step = Dyadic(1, n)
        lo = math.floor(fraction(rect.x_lo) * (1 << n))
        hi = math.ceil(fraction(rect.x_hi) * (1 << n))
        for t in range(lo, hi + 1):
            x = Dyadic(t, n)
            if _inside(rect, x, x + ONE - step):
                found.add(ClusterPt(n, t))
            if _inside(rect, x, x + step - ONE):
                found.add(ClusterPt(n, t + 1))
    return found


def test_enum_matches_windowed_brute_force_at_exponents_10_to_20(monkeypatch):
    # boxes a few units of 1/2^e wide, half around a representative of a
    # cluster point of depth <= e, half anywhere in [-2, 2]^2; the brute
    # force looks four depths past the enumeration's probe
    monkeypatch.setattr(cluster, "MAX_SCAN_DEPTH", 22)
    rng = random.Random(1015)
    kinds = {"empty": 0, "hits": 0, "unbounded": 0}
    for _ in range(600):
        e = rng.randint(10, 20)
        if rng.random() < 0.5:
            n = rng.randint(0, e)
            x = rng.randrange(-2 << n, 2 << n) << (e - n)
            cx, cy = (x, x + (1 << e) - (1 << (e - n))) if rng.random() < 0.5 else \
                     (x, x + (1 << (e - n)) - (1 << e))
        else:
            cx, cy = rng.randint(-2 << e, 2 << e), rng.randint(-2 << e, 2 << e)
        edges = (cx - rng.randint(0, 3), cx + rng.randint(0, 3),
                 cy - rng.randint(0, 3), cy + rng.randint(0, 3))
        rect = Rect(*(Dyadic(v, e) for v in edges), *(rng.random() < 0.2 for _ in range(4)))
        want = _windowed_brute_force_enum(rect, rect.max_exp() + 4)
        try:
            got = set(enum_in_rect(rect))
        except UnboundedRect:
            assert any(v.n > rect.max_exp() + 1 for v in want), rect
            kinds["unbounded"] += 1
            continue
        assert got == want, rect
        kinds["hits" if got else "empty"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_enum_corner_touch_from_outside_is_empty():
    # box touching the lower boundary line only at its closed corner, from below
    rect = Rect(Dyadic(0), Dyadic(1), Dyadic(-2), Dyadic(-1))
    assert enum_in_rect(rect) == frozenset()


def test_decompose_random_twists():
    rng = random.Random(99)
    objs = grid_off_cluster(2)
    for trial in range(25):
        picks = rng.sample(objs, rng.randint(1, 3))
        words = [obj_to_string(o) for o in picks]
        total = direct_sum([to_rep(w) for w in words])
        twisted = _random_basis_twist(total, rng)
        pieces = decompose_rep(twisted)
        assert sorted(str(p[0]) for p in pieces) == sorted(str(w) for w in words), picks
        assert pieces == decompose_rep_by_rescans(twisted), picks
        assert repr(pieces) == repr(decompose_rep_by_peeling(twisted)), picks  # int vs Fraction too
        # embeddings at each vertex stay linearly independent
        for v, d in twisted.dims.items():
            cols = [p[1][v] for p in pieces if v in p[1]]
            assert linalg.rank(linalg.from_columns(cols, d)) == len(cols) == d


def test_decompose_repeated_word_matches_peeling():
    # one word three times beside another: the copies share one component,
    # are split off in turn and keep the order peeling gives them
    rng = random.Random(31)
    objs = grid_off_cluster(3)
    for trial in range(10):
        a, b = (obj_to_string(o) for o in rng.sample(objs, 2))
        twisted = _random_basis_twist(direct_sum([to_rep(w) for w in (a, b, a, a)]), rng)
        pieces = decompose_rep(twisted)
        assert sorted(str(p[0]) for p in pieces) == sorted(map(str, (a, a, a, b)))
        assert repr(pieces) == repr(decompose_rep_by_peeling(twisted)), (a, b)


def _random_basis_twist(rep: RepFin, rng) -> RepFin:
    change = {}
    for v, d in rep.dims.items():
        while True:
            g = tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(d)) for _ in range(d))
            try:
                inv = invert(g)
            except ValueError:
                continue
            change[v] = (g, inv)
            break
    mats = {}
    for (u, v), a in rep.mats.items():
        mats[(u, v)] = linalg.matmul(change[v][0], linalg.matmul(a, change[u][1]))
    return RepFin(dict(rep.dims), mats)
