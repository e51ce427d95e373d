"""Machine checks for the structural properties of the category, at desk scale.

The grid G(e) holds every iso class with canonical coordinates of exponent
at most e (120 classes at e = 3, of which 29 lie on the cluster).  Each
criterion returns a result record; `run_all` drives them in order and is
shared by the test suite and the command line, which bounds the depth by
`errors.MAX_CHECK_DEPTH`.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, compress, product

from .dyadic import Dyadic, ONE
from .band import (Obj, Rect, normal_form, compatible, triangle_complete, hom_c_dim,
                   parse_obj)
from .cluster import (ClusterPt, STANDARD, member, object_of, mutate,
                      out_neighbors, triangle, enum_in_rect)
from .walk import (support, walk_of, approximation, hom_ct_dim, tau_dims,
                   compose_basic_nonzero, chain_box_nonzero, shifted, factors_through_sink)
from .strings import hom_dim_strings, word
from .equiv import (obj_to_string, string_to_obj, DigitPrefix, _digit_point,
                    _tree_vertex, _digit_index, _digit_prefix, coords_to_digits,
                    g_extend, f_strip, tail_case)
from .quotient import SumObj, MorQ, basic_mor, compose, classify, kernel, cokernel
from .errors import Unreachable, AllOnesTail

# The geometry of `hom_ct_dim` without its cache: the suite asks each grid
# pair once, into `_hom_table`, and each translate of criterion 5 and each
# truncation pair of criterion 11 once.
_hom_geometry = hom_ct_dim.__wrapped__


class CheckResult(namedtuple("CheckResult", "index name ok detail seconds")):
    """One criterion's outcome; `line()` is its row in `moebius check`."""

    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{self.index:2d}] {status} {self.name}: {self.detail} ({self.seconds:.1f}s)"


def grid(e: int) -> list[Obj]:
    """All iso classes with canonical coordinate exponent <= e."""
    return [normal_form(i, i + j, e) for j in range(1 << e) for i in range((2 if j else 1) << e)]


@lru_cache(maxsize=2)
def grid_off_cluster(e: int) -> tuple[Obj, ...]:
    """One tuple per depth, the positions of `_hom_table`; criterion 6 at
    depth 1 also reads depth 2."""
    return tuple(x for x in grid(e) if member(x) is None)


@lru_cache(maxsize=2)
def _hom_table(e: int) -> bytes:
    """`hom_ct_dim` of every ordered pair of the n objects of
    `grid_off_cluster(e)`, that of the i-th to the j-th at i * n + j: n^2
    bytes, 8.3 kB at depth 3 and 3.6 MB at depth 5, where a cache entry per
    pair held about 130 bytes.  Criterion 1 checks it against the strings,
    `_basics` and criteria 6 and 7 read it, and `run_all` drops it."""
    objs = grid_off_cluster(e)
    return bytes(_hom_geometry(x, y) for x in objs for y in objs)


def _row(table: bytes, n: int, i: int) -> bytes:
    """The homs out of the i-th object of an n-object table."""
    return table[i * n:(i + 1) * n]


def cluster_points(depth: int) -> list[ClusterPt]:
    pts = [ClusterPt(0, 0)]
    for n in range(1, depth + 1):
        pts.extend(ClusterPt(n, m) for m in range(1 << (n + 1)))
    return pts


def _ends_cross(a: Obj, b: Obj) -> bool:
    """Whether the chords of a and b cross: their ends interleave strictly."""
    k = max(a.e, b.e)
    (p1, q1), (p2, q2) = a.ends_at(k), b.ends_at(k)
    return p1 < p2 < q1 < q2 or p2 < p1 < q2 < q1


def check_hom_agreement(e: int) -> tuple[bool, str]:
    """The geometry (`_hom_table`) against graph maps of the words, on every
    ordered pair of G(e)."""
    objs, table = grid_off_cluster(e), _hom_table(e)
    n = len(objs)
    words = [obj_to_string(x) for x in objs]
    for i, wx in enumerate(words):
        for j, (wy, dim) in enumerate(zip(words, _row(table, n, i))):
            if dim != hom_dim_strings(wx, wy):
                return (False, f"hom mismatch at {objs[i]} -> {objs[j]}")
    return (True, f"{n * n} ordered pairs agree")


def check_bijection(e: int) -> tuple[bool, str]:
    objs = grid_off_cluster(e)
    for x in objs:
        w = obj_to_string(x)
        if string_to_obj(w) != x:
            return (False, f"word round trip fails at {x}")
        if obj_to_string(string_to_obj(w)) != w:
            return (False, f"object round trip fails at {w}")
    return (True, f"{len(objs)} objects round-trip both ways")


def check_support_walk(e: int) -> tuple[bool, str]:
    """The support and the walk against their definitions.  The support is
    the cluster points of the open rectangle (y-1, x) x (x-1, y), found by
    level scan.  The walk runs from a representative (x, b) to one (a, y)
    through representatives of its points, each step up or left and keeping
    one coordinate, and its points are those of the closed rectangle
    [a, x] x [b, y], each met once."""
    objs = grid_off_cluster(e)
    vertices = 0
    for x in objs:
        if enum_in_rect(Rect.open(x.y - ONE, x.x, x.x - ONE, x.y)) != support(x):
            return (False, f"support != level scan at {x}")
        w = walk_of(x)
        k, xs, ys, pts = w.k, w.xs, w.ys, frozenset(w.pts)
        if (Dyadic(xs[0], k), Dyadic(ys[-1], k)) != (x.x, x.y):
            return (False, f"walk of {x} does not run from (x, b) to (a, y)")
        for i, step in enumerate(w.steps):
            up = xs[i + 1] == xs[i] and ys[i + 1] > ys[i]
            left = ys[i + 1] == ys[i] and xs[i + 1] < xs[i]
            if not (up if step == "v" else left):
                return (False, f"step {i} of the walk of {x} is not {step}")
        if any(member(normal_form(p, q, k)) != pt for pt, p, q in zip(w.pts, xs, ys)):
            return (False, f"a walk vertex of {x} is no representative of its point")
        rect = Rect(Dyadic(xs[-1], k), x.x, Dyadic(ys[0], k), x.y)
        if len(pts) != len(w.pts) or enum_in_rect(rect) != pts:
            return (False, f"walk of {x} != level scan of {rect}")
        vertices += len(pts)
    worked = {
        "M(1/4,3/4)": {(0, 0), (1, 0), (1, 1)},
        "M(1/8,1/4)": {(0, 0), (1, 1), (1, 3), (2, 1)},
    }
    for text, pts in worked.items():
        got = support(parse_obj(text))
        if got != pts:
            return (False, f"worked support of {text} is {got}")
    return (True, f"{len(objs)} objects, {vertices} walk vertices, worked values included")


def check_approximation(e: int) -> tuple[bool, str]:
    objs = grid_off_cluster(e)
    for x in objs:
        a = approximation(x)
        sources = [*a.source_reps, (x.x, x.y)]
        if any(sorted(r[i] for r in a.sink_reps) != sorted(r[i] for r in sources) for i in (0, 1)):
            return (False, f"coordinate balance fails at {x}")
        if len(a.sinks) != len(a.sources) + 1:
            return (False, f"sink/source count off at {x}")
    checked = 0
    for s in cluster_points(e + 1):
        s_obj = object_of(s)
        for x in objs:
            if hom_c_dim(s_obj, x) == 1:
                checked += 1
                if not factors_through_sink(s, x):
                    return (False, f"map {s} -> {x} misses every sink")
    return (True, f"balance on {len(objs)} objects; {checked} maps factor through sinks")


def _translate(moved: dict, s: ClusterPt, k: int, sign: int = 1) -> Obj:
    """`shifted(s, eps, eps)` for eps = sign/2^k, built at the first request
    for (s, k) and kept in `moved`, a dict local to one criterion run and
    one sign: across the grid each translate is asked for many times."""
    obj = moved.get((s, k))
    if obj is None:
        eps = Dyadic(sign, k)
        obj = moved[(s, k)] = shifted(s, eps, eps)
    return obj


def check_ar_duality(e: int) -> tuple[bool, str]:
    """On every pair of an object x of G(e) and a cluster point s of depth
    <= e + 1: with tau^-1 s and tau s the translates of s by +eps and -eps
    in both coordinates (eps = `concrete_epsilon` of s and x, 1/2^k with k
    read off the exponents: T(n, m) has exponent n), the geometric dims of
    Hom(tau^-1 s, x) and Hom(x, tau s) both equal the ones read off the
    walk of x (`tau_dims`), and its four-term sum is 0.  eps takes a few
    values per point as x runs over the grid, so the criterion builds one
    translate pair per (point, eps)."""
    objs = grid_off_cluster(e)
    pts = cluster_points(e + 1)
    up, down = {}, {}
    n = 0
    for x in objs:
        for s in pts:
            k = 2 + max(s.n, x.e)
            tinv = _hom_geometry(_translate(up, s, k), x)
            tau = _hom_geometry(x, _translate(down, s, k, -1))
            td = tau_dims(s, x)
            if not (tinv == tau == td.tau_inv == td.tau):
                return (False, f"translate duality fails at ({s}, {x})")
            if td.alternating_sum != 0:
                return (False, f"four-term sum != 0 at ({s}, {x})")
            n += 1
    return (True, f"{n} (S, X) pairs")


def _basics(e: int):
    """The pairs (x, y) of G(e) with a nonzero basic x -> y, by x then y, lazily."""
    objs, table = grid_off_cluster(e), _hom_table(e)
    n = len(objs)
    return ((x, y) for i, x in enumerate(objs) for y in compress(objs, _row(table, n, i)))


def _summands(e: int) -> dict[Obj, SumObj]:
    """The one-summand `SumObj` of each object of G(e), built once per
    criterion run: `_basic` reads its ends here."""
    return {x: SumObj([x]) for x in grid_off_cluster(e)}


def _basic(sums: dict[Obj, SumObj], x: Obj, y: Obj) -> MorQ:
    """`basic_mor(x, y)` of a pair that `_hom_table` shows nonzero, without
    its `hom_ct_dim` lookup, on the summands of `_summands`."""
    return MorQ._from_clean(sums[x], sums[y], ((1,),))


def check_abelian(e: int) -> tuple[bool, str]:
    """Exactness of every basic of G(e), then the universal property of the
    kernel on 100 sampled basics of G(max(e, 2)), or on all 70 of G(2): the
    one basic of G(1) is an identity, which kills no nonzero map.

    Each basic x -> y takes one graph-map scan: `kernel` and `cokernel`
    share it (`quotient._basic_word_lists`), and the overlap check reads
    its run back off the cokernel words, the target's word less the run.
    The run must be support(x) & support(y), from the geometry.  By lemma
    steps 1-3 of `quotient._vertex_matrices` it is the common run of the
    two words, so the check shows that every basic has a graph map, as
    criterion 1 does, and that the cokernel words are cut where the
    geometry says.  The rest of that lemma is the translate test: the
    translates of the common points by eps (`concrete_epsilon` of x, y and
    those points, 1/2^k with k read off the exponents, as T(n, m) has
    exponent n) see all of the common support.  The lemma's independent
    checks are the tier-1 comparison of graph maps with the brute-force
    segment scan, criterion 1 and this translate test.  The zero
    composites f . incl and proj . f are read off the supports
    (`compose_basic_nonzero`, which rests on the lemma); the rectangle
    test `chain_box_nonzero` gives the translate test and must agree with
    the support rule on every chain z -> x -> y of the universal-property
    sample, where that rule then picks the basics z -> x that f kills,
    each of which must factor through the kernel.  The single-summand
    objects of the basics are built once per run (`_summands`)."""
    sums, moved, basics = _summands(max(e, 2)), {}, 0
    for basics, (x, y) in enumerate(_basics(e), 1):
        f = _basic(sums, x, y)
        k_obj, incl = kernel(f)
        c_obj, proj = cokernel(f)
        wy, c_words = obj_to_string(y), [obj_to_string(c) for c in c_obj]
        common = support(x) & support(y)
        if frozenset(wy.verts).difference(*[w.verts for w in c_words]) != common:
            return (False, f"graph-map overlap != common support at {x}->{y}")
        k = 2 + max(x.e, y.e, *[s.n for s in common])
        # the translate's hom to x may be zero, so not the support rule here
        if not all(chain_box_nonzero(_translate(moved, s, k), x, y) for s in common):
            return (False, f"basic dies on a translate of its common support at {x}->{y}")
        if not classify(incl).is_mono:
            return (False, f"kernel inclusion not mono at {x}->{y}")
        if not classify(proj).is_epi:
            return (False, f"cokernel projection not epi at {x}->{y}")
        if not classify(compose(f, incl)).is_zero:
            return (False, f"f . incl != 0 at {x}->{y}")
        if not classify(compose(proj, f)).is_zero:
            return (False, f"proj . f != 0 at {x}->{y}")
        dk = sum(len(obj_to_string(s)) for s in k_obj)
        if dk - len(obj_to_string(x)) + len(wy) - sum(map(len, c_words)) != 0:
            return (False, f"dimension exactness fails at {x}->{y}")
    f0 = basic_mor(parse_obj("M(1/8,1/4)"), parse_obj("M(1/4,3/4)"))
    k_obj, _ = kernel(f0)
    c_obj, _ = cokernel(f0)
    want_k = SumObj([parse_obj("M(1/2,9/8)"), parse_obj("M(0,1/4)")])
    want_c = SumObj([parse_obj("M(1,3/4)")])
    if not (k_obj.isomorphic(want_k) and c_obj.isomorphic(want_c)):
        return (False, "worked kernel/cokernel chain broken")
    objs, table = grid_off_cluster(max(e, 2)), _hom_table(max(e, 2))
    n = len(objs)
    pool = array("L", compress(range(n * n), table))  # p for the basic objs[p // n] -> objs[p % n]
    rng = random.Random(20240801)
    chosen = rng.sample(pool, min(100, len(pool)))
    factored = 0
    for p in chosen:
        i, j = divmod(p, n)
        x, y = objs[i], objs[j]
        f = _basic(sums, x, y)
        k_obj, incl = kernel(f)
        for z in compress(objs, table[i::n]):  # the z with a basic z -> x
            survives = compose_basic_nonzero(z, x, y)
            if survives != chain_box_nonzero(z, x, y):
                return (False, f"supports and rectangles disagree on {z}->{x}->{y}")
            if survives:  # f . g != 0, so g does not factor through the kernel
                continue
            g = _basic(sums, z, x)
            if not _factors_through(g, k_obj, incl):
                return (False, f"universal property fails for {z} -> {x} over {x}->{y}")
            factored += 1
    return (True, f"{basics} basics exact; {factored} factorizations over {len(chosen)} sampled maps")


def _factors_through(g: MorQ, k_obj: SumObj, incl: MorQ) -> bool:
    """Solve incl . h = g for h across the one-dimensional hom spaces, and
    check the product.  The inclusion of a basic's kernel has one row, its
    source x, so the system is one equation over the live columns: those
    whose entry c is nonzero, whose hom z -> k_obj[col] is nonzero and
    whose composite z -> k_obj[col] -> x survives.  h is g's scalar over c
    at the first live column and 0 elsewhere, the solution row reduction
    gives, as it pivots on that column, so h is 0 over every zero hom
    space.  With no live column h is 0, which solves the equation only for
    g = 0: the product decides in every case."""
    z, x = g.src[0], incl.dst[0]
    (row,) = incl.entries
    h = [(0,)] * len(k_obj)
    for col, (c, k) in enumerate(zip(row, k_obj)):
        if c and hom_ct_dim(z, k) == 1 and compose_basic_nonzero(z, k, x):
            a = g.entries[0][0]
            h[col] = (a // c if not a % c else Fraction(a) / c,)  # exact, as in `linalg`
            break
    return compose(incl, MorQ._from_clean(g.src, k_obj, tuple(h))) == g


def check_mono_epi_iso(e: int) -> tuple[bool, str]:
    checked = 0
    sums = _summands(e)
    for (x, y) in _basics(e):
        f = _basic(sums, x, y)
        c = classify(f)
        if c.is_mono and c.is_epi:
            if not c.is_iso or not f.src.isomorphic(f.dst):
                return (False, f"mono+epi without iso at {x}->{y}")
        checked += 1
    return (True, f"{checked} basic morphisms checked")


def check_mutation(e: int) -> tuple[bool, str]:
    """Flip every vertex of depth <= e, checking compatibility with the
    cluster down to depth max(5, e + 1), and flip each pair of vertices of
    depth <= max(e - 1, 1) that share no triangle in both orders (no two
    vertices of depth 0 do)."""
    flipped = cluster_points(e)
    deep = cluster_points(max(5, e + 1))
    for v in flipped:
        x = object_of(v)
        overlay, x_star = mutate(STANDARD, x)
        again, back = mutate(overlay, x_star)
        if again != STANDARD or back != x:
            return (False, f"mutation not involutive at {v}")
        for w in deep:
            if w != v and not compatible(x_star, object_of(w)):
                return (False, f"{x_star} incompatible with {w} after mutating {v}")
        if support(x_star) != frozenset({v}):
            return (False, f"support of flip at {v} is not {{{v}}}")
        up, right = out_neighbors(v)
        b_pos, fourth_pos = triangle_complete(x, object_of(up), "positive")
        b_neg, fourth_neg = triangle_complete(x, object_of(right), "negative")
        for corner in (b_pos, b_neg):
            if member(corner) is None:
                return (False, f"exchange-triangle corner {corner} escapes the cluster at {v}")
        if fourth_pos != x or fourth_neg != x:
            return (False, f"triangle at {v} does not close on the mutated chord")
    shallow = cluster_points(max(e - 1, 1))
    flipped_once = {v: mutate(STANDARD, object_of(v))[0] for v in shallow}
    commuting = 0
    for i, v in enumerate(shallow):
        for w in shallow[i + 1:]:
            if triangle(v, w) is not None:
                continue
            if mutate(flipped_once[v], object_of(w))[0] != mutate(flipped_once[w], object_of(v))[0]:
                return (False, f"flips at {v} and {w} do not commute")
            commuting += 1
    if mutate(STANDARD, object_of(ClusterPt(0, 0)))[1] != parse_obj("M(1/2,1/2)"):
        return (False, "mu(0,0) wrong")
    if mutate(STANDARD, object_of(ClusterPt(1, 0)))[1] != parse_obj("M(1,3/4)"):
        return (False, "mu(1,0) wrong")
    return (True, f"{len(flipped)} vertices flipped and restored; {commuting} pairs sharing no triangle commute")


def check_noncrossing(e: int) -> tuple[bool, str]:
    """Compatibility (hom configs) against crossing (chord ends) on each pair
    of cluster points of depth <= e + 1, which never cross, and on each object
    off the cluster in G(e) against each such point, which some do cross."""
    pts = [(v, object_of(v)) for v in cluster_points(e + 1)]
    off = [(x, x) for x in grid_off_cluster(e)]
    crossing = 0
    for (v, a), (w, b) in chain(combinations(pts, 2), product(off, pts)):
        crosses = _ends_cross(a, b)
        if compatible(a, b) == crosses:
            return (False, f"compatibility vs crossing disagree at ({v}, {w})")
        crossing += crosses
    return (True, f"{len(pts) * (len(pts) - 1) // 2} cluster pairs; "
                  f"{len(off) * len(pts)} object-cluster pairs, {crossing} crossing")


def check_digits(e: int) -> tuple[bool, str]:
    """Every prefix of at most 10 digits below each base of depth < e: its
    b_m reaches the digit tree's vertex, grows with each digit, and the
    vertex reads back its digits.  The search carries each prefix as its
    length m and binary value D, with b_m's numerator at the scale that
    doubles with each digit, and the read-back (`_digit_index`) returns the
    two integers, so no digit tuple is built unless a check fails."""
    bases = cluster_points(max(e - 1, 0))
    count = 0
    max_len = 10
    for v in bases:
        base = object_of(v)
        stack = [(0, 0, None)]
        while stack:
            m, d, prev_b = stack.pop()
            _, bm, pt = _digit_point(base, m, d)
            if prev_b is not None and bm < 2 * prev_b:
                return (False, f"b_m not monotone along {_digit_prefix(v, m, d)}")
            # the b_m formula against the digit tree
            if pt != _tree_vertex(v, m, d):
                return (False, f"b_m leaves the digit tree at {_digit_prefix(v, m, d)}")
            if _digit_index(v, pt, max_len) != (m, d):
                return (False, f"digit round trip fails at {_digit_prefix(v, m, d)}")
            count += 1
            if m < max_len:
                stack.append((m + 1, 2 * d, bm))
                stack.append((m + 1, 2 * d + 1, bm))
    try:
        tail_case(DigitPrefix(ClusterPt(1, 1), (1, 1, 1)), DigitPrefix(ClusterPt(1, 1), (0,)))
        return (False, "all-ones prefix not rejected")
    except AllOnesTail:
        pass
    try:
        coords_to_digits(ClusterPt(0, 0), ClusterPt(1, 1), 10)
        return (False, "unreachable vertex accepted")
    except Unreachable:
        pass
    return (True, f"{count} prefixes from {len(bases)} bases round-trip, b_m monotone")


def check_ray_functors(e: int) -> tuple[bool, str]:
    objs = grid_off_cluster(e)
    for x in objs:
        w = obj_to_string(x)
        for k in range(4):
            if f_strip(g_extend(w, k)) != w:
                return (False, f"strip(extend) != id at {x}, k={k}")
    rng = random.Random(7)
    sample = rng.sample(objs, min(4 * e, len(objs)))
    stable = 0
    for x1 in sample:
        w1 = obj_to_string(x1)
        truncs = []  # the truncations of w1, read against every w2
        for k in (2, 3):
            g = g_extend(w1, k)
            truncs.append((k, word(g.verts)))
        for x2 in sample:
            w2 = obj_to_string(x2)
            homs = []
            for k, trunc in truncs:
                h = hom_dim_strings(trunc, w2)
                if h != _hom_geometry(string_to_obj(trunc), x2):
                    return (False, f"truncation hom disagrees with objects at ({x1},{x2},k={k})")
                homs.append(h)
            if homs[0] != homs[1]:
                return (False, f"truncation homs not stable at ({x1},{x2})")
            stable += 1
    return (True, f"{len(objs)} words x k<=3; {stable} truncation pairs stable")


CRITERIA = [
    ("hom agreement across the equivalence", check_hom_agreement),
    ("object/word bijection round trips", check_bijection),
    ("support equals walk interior", check_support_walk),
    ("approximation split-exactness and covering", check_approximation),
    ("translate duality and four-term sum", check_ar_duality),
    ("kernels/cokernels and universal property", check_abelian),
    ("mono and epi imply iso", check_mono_epi_iso),
    ("mutation involution, compatibility, triangles", check_mutation),
    ("compatibility equals non-crossing", check_noncrossing),
    ("digit tails: round trip, monotone, rejection", check_digits),
    ("ray extension/strip identity and stability", check_ray_functors),
]


def run_all(depth: int = 3) -> list[CheckResult]:
    """Every criterion at one depth, in order; the hom tables go at the end."""
    results = []
    for i, (name, fn) in enumerate(CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            ok, detail = fn(depth)
        except Exception as exc:  # a criterion crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(i, name, ok, detail, time.perf_counter() - t0))
    _hom_table.cache_clear()
    return results
