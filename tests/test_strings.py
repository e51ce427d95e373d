from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from moebius.band import parse_obj, hom_c_dim
from moebius.cluster import (ClusterPt, arrow_dir, in_neighbors, object_of, out_neighbors,
                             triangle)
from moebius.strings import (word, validate_word,
                             hom_dim_strings, overlap, kernel_cokernel_strings,
                             to_rep, direct_sum, decompose_rep, RepFin, restrict_rep,
                             StringWord, parse_word, _candidate_words, _letters, _occurrences)
from moebius.errors import InvalidWord, NoMorphism, NotAModule, ParseError
from moebius import linalg

from oracles import (_brute_force_candidates, _brute_force_occurrences, arrows_at,
                     candidate_words_by_paths, decompose_rep_by_peeling)

T = ClusterPt
M = parse_obj


def w_of(text):
    from moebius.equiv import obj_to_string
    return obj_to_string(M(text))


def test_arrows_at_examples():
    # arrows leave T(0,0) towards its in-neighbours, one per triangle
    assert in_neighbors(T(0, 0)) == (T(1, 3), T(1, 1))
    assert out_neighbors(T(0, 0)) == (T(1, 0), T(1, 2))
    assert [triangle(T(0, 0), u) for u in in_neighbors(T(0, 0))] == [(0, 0), (0, 1)]
    assert arrow_dir(T(0, 0), T(1, 1)) and not arrow_dir(T(1, 1), T(0, 0))
    assert in_neighbors(T(1, 0)) == (T(2, 7), T(0, 0))
    assert out_neighbors(T(1, 0)) == (T(2, 0), T(1, 3))
    assert [triangle(T(1, 0), u) for u in out_neighbors(T(1, 0))] == [(1, 0), (0, 0)]
    assert triangle(T(1, 3), T(1, 0)) == (0, 0) and triangle(T(2, 4), T(2, 5)) is None
    assert triangle(T(0, 0), T(0, 0)) is None


def test_degrees_depth5():
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 6) for m in range(1 << (n + 1))]
    for v in pts:
        ins, outs = out_neighbors(v), in_neighbors(v)  # the quiver's, reversed
        assert len(set(ins)) == 2 and len(set(outs)) == 2
        # one arrow in and one out per triangle: below v, then above it
        assert [triangle(v, u) for u in ins] == [triangle(v, u) for u in outs]
        assert len({triangle(v, u) for u in ins}) == 2


def test_direction_convention():
    # every arrow v -> w reverses a one-dimensional cluster map w -> v
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 6) for m in range(1 << (n + 1))]
    for v in pts:
        for u in in_neighbors(v):
            assert arrow_dir(v, u) and not arrow_dir(u, v)
            assert hom_c_dim(object_of(u), object_of(v)) == 1


def test_incoming_arrows_are_the_outgoing_ones():
    # restrict_rep finds the arrows into a vertex among its incoming arrows
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 7) for m in range(1 << (n + 1))]
    for v in pts:
        for u in out_neighbors(v):
            assert v in in_neighbors(u) and triangle(u, v) == triangle(v, u) is not None
        for u in in_neighbors(v):
            assert v in out_neighbors(u)


def test_relation_soundness():
    # consecutive arrows of one triangle compose to zero: the cluster maps
    # w -> v -> u they reverse compose into Hom_C(w, u), which is zero
    pts = [T(0, 0)] + [T(n, m) for n in range(1, 4) for m in range(1 << (n + 1))]
    paths = 0
    for u in pts:
        for v in in_neighbors(u):  # arrows u -> v -> w of one triangle
            for w in in_neighbors(v):
                if triangle(v, w) != triangle(u, v):
                    continue
                assert arrow_dir(w, u)  # the triangle is a 3-cycle
                ou, ov, ow = object_of(u), object_of(v), object_of(w)
                assert hom_c_dim(ow, ov) == hom_c_dim(ov, ou) == 1
                assert hom_c_dim(ow, ou) == 0
                paths += 1
    assert paths == 2 * len(pts)


def test_validate_word():
    assert validate_word(word([T(1, 0), T(0, 0), T(1, 1)]))[0]
    with pytest.raises(InvalidWord):
        word([T(1, 3), T(0, 0), T(1, 0)])  # same-triangle composition
    assert validate_word(word([T(0, 0)]))[0]
    with pytest.raises(InvalidWord):
        word([T(0, 0), T(2, 1)])  # no arrow
    # StringWord itself does not validate; the reason is the one word gives
    assert validate_word(StringWord([T(1, 3), T(0, 0), T(1, 0)])) == (
        False, "letters 0,1 compose inside a triangle")
    assert validate_word(StringWord([T(2, 5), T(0, 0)])) == (False, "no arrow between T(0,0) and T(2,5)")


# The rejections of a word, as `from-string` prints them.
REJECTIONS = [
    ([T(0, 0), T(2, 1)], "T(0,0) > T(2,1)", r"^no arrow between T\(0,0\) and T\(2,1\)$"),
    (None, "T(0,0) < T(1,1)", r"^no arrow between T\(0,0\) and T\(1,1\)$"),
    ([T(1, 3), T(0, 0), T(1, 0)], "T(1,3) < T(0,0) < T(1,0)",
     r"^letters 0,1 compose inside a triangle$"),
    ([T(1, 0), T(0, 0), T(1, 0)], "T(1,0) > T(0,0) < T(1,0)", r"^repeated vertex$"),
    ([T(0, 0), T(0, 0)], "T(0,0) > T(0,0)", r"^repeated vertex$"),
    # a bad letter is named as written, whichever orientation the word keeps
    (None, "T(1,1) > T(0,0)", r"^no arrow between T\(1,1\) and T\(0,0\)$"),
    (None, "T(2,1) > T(1,1) > T(0,0) > T(1,3)", r"^no arrow between T\(2,1\) and T\(1,1\)$"),
    (None, "~T(1,1) > T(0,0)", r"^no arrow between T\(1,1\) and T\(0,0\)$"),
    (None, "T(1,3) > T(0,0) > T(1,1) < T(2,1)~", r"^no arrow between T\(1,3\) and T\(0,0\)$"),
    ([T(2, 5), T(0, 0), T(1, 1)], "T(2,5) > T(0,0) > T(1,1)",
     r"^no arrow between T\(2,5\) and T\(0,0\)$"),
    # a composing pair is indexed in the word's canonical orientation, so
    # a word written against it is reported by its reversed letter indices
    ([T(2, 0), T(1, 0), T(0, 0), T(1, 3)], "T(2,0) > T(1,0) > T(0,0) > T(1,3)",
     r"^letters 0,1 compose inside a triangle$"),
    ([T(1, 1), T(1, 2), T(0, 0), T(1, 0)], "T(1,1) > T(1,2) > T(0,0) < T(1,0)",
     r"^letters 1,2 compose inside a triangle$"),
]


@pytest.mark.parametrize("verts, text, message", REJECTIONS)
def test_word_rejection_messages(verts, text, message):
    if verts is not None:
        with pytest.raises(InvalidWord, match=message):
            word(verts)
    with pytest.raises(ParseError, match=message):
        parse_word(text)


def test_word_reversal_equality():
    a = parse_word("T(2,1) < T(1,1) < T(0,0) > T(1,3)")
    b = parse_word("T(1,3) < T(0,0) > T(1,1) > T(2,1)")
    assert a == b
    assert len({a, b}) == 1


@settings(deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 7)), min_size=1, max_size=5),
       st.booleans(), st.booleans())
def test_word_keeps_the_smaller_orientation(pts, lmark, rmark):
    # repeated vertices included: StringWord itself does not validate
    verts = [T(n, m) for n, m in pts]
    w = StringWord(verts, lmark, rmark)
    key = lambda vs, marks: (tuple((p.n, p.m) for p in vs), marks)
    fwd = key(verts, (lmark, rmark))
    rev = key(verts[::-1], (rmark, lmark))
    assert key(w.verts, (w.lmark, w.rmark)) == min(fwd, rev)
    assert w.directs == tuple(map(arrow_dir, w.verts, w.verts[1:]))


def test_word_is_a_tuple_of_its_fields():
    # words of G(3) and their ray truncations: the length is the vertex
    # count, the hash that of the field tuple, and copies and pickles
    # rebuild equal words
    import copy
    import pickle
    from moebius.checks import grid_off_cluster
    from moebius.equiv import g_extend, obj_to_string
    plain = [obj_to_string(x) for x in grid_off_cluster(3)]
    ws = plain + [g_extend(w, k) for w in plain for k in range(3)]
    for w in ws:
        assert len(w) == len(w.verts)
        assert hash(w) == hash((w.verts, w.directs, w.lmark, w.rmark))
        for back in (pickle.loads(pickle.dumps(w)), copy.copy(w)):
            assert type(back) is StringWord and back == w and str(back) == str(w)
    by_fields = lambda w: (-len(w.verts), tuple((p.n, p.m) for p in w.verts), w.directs)
    assert sorted(ws, key=StringWord.sort_key) == sorted(ws, key=by_fields)


def test_hom_dim_strings_examples():
    wX = w_of("M(1/8,1/4)")
    wY = w_of("M(1/4,3/4)")
    assert hom_dim_strings(wY, wY) == 1
    assert hom_dim_strings(wX, wY) == 1
    assert hom_dim_strings(wY, wX) == 0
    assert overlap(wX, wY) == {T(0, 0), T(1, 1)}


def test_hom_dim_strings_range():
    from moebius.checks import grid_off_cluster
    from moebius.equiv import obj_to_string
    words = [obj_to_string(x) for x in grid_off_cluster(2)]
    for w1 in words:
        for w2 in words:
            assert hom_dim_strings(w1, w2) in (0, 1)


def test_kernel_cokernel_strings():
    wX = w_of("M(1/8,1/4)")
    wY = w_of("M(1/4,3/4)")
    ker, cok = kernel_cokernel_strings(wX, wY)
    assert sorted(tuple(k.verts) for k in ker) == [(T(1, 3),), (T(2, 1),)]
    assert [tuple(c.verts) for c in cok] == [(T(1, 0),)]
    ker, cok = kernel_cokernel_strings(wX, wX)
    assert ker == [] and cok == []
    with pytest.raises(NoMorphism):
        kernel_cokernel_strings(wY, wX)


def _sliced_as_built(w, pieces, i, j) -> int:
    """Assert the pieces of w off its run w[i..j] are the words built on
    their vertices; the number of them turned round."""
    runs = [w.verts[a:b + 1] for a, b in ((0, i - 1), (j + 1, len(w.verts) - 1)) if a <= b]
    assert pieces == list(map(StringWord, runs)), (w, i, j)
    assert all(type(p) is StringWord for p in pieces), (w, i, j)
    return sum(p.verts != run for p, run in zip(pieces, runs))


def test_pieces_sliced_from_their_word_are_the_words_built_anew():
    # `_outside` slices a piece's vertices and letters off its word, and
    # reverses and negates them where `StringWord` turns the piece round:
    # the same vertices, letters and orientation, on every run of every word
    # of G(5), among them the pieces of every basic of G(5), and on the
    # kernel and cokernel pieces of nearby pairs at exponents 16-64
    import random
    from moebius.band import normal_form
    from moebius.checks import grid_off_cluster
    from moebius.cluster import member
    from moebius.equiv import obj_to_string
    from moebius.strings import _outside
    turned = 0
    for w in map(obj_to_string, grid_off_cluster(5)):
        for i in range(len(w)):
            for j in range(i, len(w)):
                turned += _sliced_as_built(w, _outside(w, i, j), i, j)
    rng = random.Random(1664)
    for e in (16, 24, 32, 48, 64):
        one, r = 1 << e, 1 << (e - 6)
        basics = 0
        while basics < 40:
            p = rng.randrange(2 * one)
            q = p + rng.randrange(1, one)
            p2, q2 = p + rng.randint(0, r), q + rng.randint(0, r)
            if q2 - p2 >= one:
                continue
            x, y = normal_form(p, q, e), normal_form(p2, q2, e)
            if member(x) is not None or member(y) is not None:
                continue
            w1, w2 = obj_to_string(x), obj_to_string(y)
            occ = _occurrences(w1, w2)
            if occ is None:
                continue
            basics += 1
            ker, cok = kernel_cokernel_strings(w1, w2)
            turned += _sliced_as_built(w1, ker, occ[0], occ[1]) + _sliced_as_built(w2, cok, occ[2], occ[3])
    assert turned


def test_to_rep_and_roundtrip():
    for text in ("M(1/8,1/4)", "M(1/4,3/4)", "M(1/2,1/2)"):
        w = w_of(text)
        rep = to_rep(w)
        assert sum(rep.dims.values()) == len(w)
        pieces = decompose_rep(rep)
        assert [p[0] for p in pieces] == [w]


def test_decompose_direct_sum_of_simples():
    s = to_rep(word([T(0, 0)]))
    total = direct_sum([s, s])
    pieces = decompose_rep(total)
    assert len(pieces) == 2
    assert all(p[0] == word([T(0, 0)]) for p in pieces)
    # embeddings of the two copies are linearly independent
    vecs = [p[1][T(0, 0)] for p in pieces]
    assert linalg.rank(linalg.from_columns(vecs, 2)) == 2


def test_decompose_mixed_sum():
    reps = [to_rep(w_of("M(1/8,1/4)")), to_rep(word([T(0, 0)])), to_rep(w_of("M(1/4,3/4)"))]
    total = direct_sum(reps)
    pieces = decompose_rep(total)
    assert sorted(str(p[0]) for p in pieces) == sorted(
        [str(w_of("M(1/8,1/4)")), str(word([T(0, 0)])), str(w_of("M(1/4,3/4)"))])
    assert sum(len(p[0]) for p in pieces) == sum(total.dims.values())


def test_decompose_twisted_basis():
    # glue two copies of a word with an off-diagonal change of basis
    w = w_of("M(1/4,3/4)")
    one = Fraction(1)
    dims = {v: 2 for v in w.verts}
    mats = dict.fromkeys(_letters(w), ((one, Fraction(3)), (Fraction(0), one)))
    rep = RepFin(dims, mats)
    pieces = decompose_rep(rep)
    assert len(pieces) == 2
    assert all(p[0] == w for p in pieces)


def test_decompose_rejects_broken_relations():
    # put identities along a full triangle cycle: relations fail, on a thin
    # representation and on one of dimension 2 everywhere
    tri = [T(1, 3), T(0, 0), T(1, 0)]
    for d in (1, 2):
        one = linalg.identity(d)
        dims = {p: d for p in tri}
        mats = {(T(0, 0), T(1, 3)): one, (T(1, 3), T(1, 0)): one, (T(1, 0), T(0, 0)): one}
        with pytest.raises(NotAModule):
            decompose_rep(RepFin(dims, mats))


def _rescaled(w, rng):
    """M(w) with each letter's identity scaled by a nonzero rational."""
    rep = to_rep(w)
    return RepFin(rep.dims, {key: ((Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3))),),)
                             for key in rep.mats})


def _disjoint_words(e, count):
    """Words of grid objects of depth e with pairwise disjoint supports,
    first come first kept."""
    from moebius.checks import grid_off_cluster
    from moebius.equiv import obj_to_string
    kept = []
    for x in grid_off_cluster(e):
        w = obj_to_string(x)
        if all(not set(w.verts) & set(k.verts) for k in kept):
            kept.append(w)
        if len(kept) == count:
            break
    return kept


def _count_solves(monkeypatch):
    """Counts of `_hom_word_to_rep` and `linalg._rref` calls from now on."""
    from moebius import strings
    calls = {"_hom_word_to_rep": 0, "_rref": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapped)

    counted(strings, "_hom_word_to_rep")
    counted(linalg, "_rref")
    return calls


def test_thin_representation_is_read_off_without_solving(monkeypatch):
    # rescaled string modules on disjoint supports: every component is thin
    import random
    rng = random.Random(7)
    words = _disjoint_words(3, 6)
    assert len(words) == 6 and any(len(w) > 2 for w in words)
    rep = direct_sum([_rescaled(w, rng) for w in words])
    want = decompose_rep_by_peeling(rep)
    calls = _count_solves(monkeypatch)
    got = decompose_rep(rep)
    assert calls == {"_hom_word_to_rep": 0, "_rref": 0}
    assert repr(got) == repr(want)  # repr tells an int from an equal Fraction
    assert [w for w, _ in got] == sorted(words, key=StringWord.sort_key)
    assert any(type(x) is Fraction for _, emb in got for vec in emb.values() for x in vec)


def test_zero_matrix_joins_no_components(monkeypatch):
    # two thin summands on disjoint supports, with an explicit zero matrix on
    # an arrow between them: two components, each read off as its word
    import random
    from moebius import strings
    rng = random.Random(8)
    words = _disjoint_words(3, 12)
    a, b, u, v = next((a, b, u, v) for i, a in enumerate(words) for b in words[i + 1:]
                      for u in a.verts for v in in_neighbors(u) if v in b.verts)
    rep = direct_sum([_rescaled(a, rng), _rescaled(b, rng)])
    rep = RepFin(rep.dims, {**rep.mats, (u, v): ((0,),)})
    assert len(strings._components(rep)) == 2
    want = decompose_rep_by_peeling(rep)
    calls = _count_solves(monkeypatch)
    got = decompose_rep(rep)
    assert calls["_hom_word_to_rep"] == 0
    assert repr(got) == repr(want)
    assert [w for w, _ in got] == sorted((a, b), key=StringWord.sort_key)


def test_restrict_rep_identity_basis_is_unchanged():
    rep = direct_sum([to_rep(w_of("M(1/8,1/4)")), to_rep(word([T(0, 0)])),
                      to_rep(w_of("M(1/4,3/4)"))])
    sub = restrict_rep(rep, {v: linalg.identity(rep.dim(v)) for v in rep.dims})
    assert sub.dims == rep.dims and sub.mats == rep.mats


def test_restrict_rep_rejects_unstable_subspace():
    # two copies of T(1,0) > T(0,0) > T(1,1): the first copy at T(1,0) maps
    # into the first copy at T(0,0), which the second copy does not contain
    w = parse_word("T(1,0) > T(0,0) > T(1,1)")
    rep = direct_sum([to_rep(w), to_rep(w)])
    one, zero = Fraction(1), Fraction(0)
    basis = {T(1, 0): ((one,), (zero,)), T(0, 0): ((zero,), (one,)),
             T(1, 1): linalg.identity(2)}
    with pytest.raises(AssertionError, match="not arrow-stable"):
        restrict_rep(rep, basis)
    # the second copy alone is a subrepresentation
    basis[T(1, 0)] = ((zero,), (one,))
    sub = restrict_rep(rep, basis)
    assert sub.dims == {T(1, 0): 1, T(0, 0): 1, T(1, 1): 2}
    # a vertex left out of basis keeps its whole space
    del basis[T(1, 1)]
    part = restrict_rep(rep, basis)
    assert part.dims == sub.dims and part.mats == sub.mats


def test_vertexwise_kernel_of_worked_map():
    # kernel of the basic map between the worked words, by hand
    wX = w_of("M(1/8,1/4)")
    wY = w_of("M(1/4,3/4)")
    ov = overlap(wX, wY)
    dims = {v: 1 for v in wX.verts if v not in ov}
    rep = RepFin(dims, {})
    pieces = decompose_rep(rep)
    assert sorted(tuple(p[0].verts) for p in pieces) == [(T(1, 3),), (T(2, 1),)]


def test_word_str_and_parse():
    w = parse_word("T(1,0) > T(0,0) > T(1,1)")
    assert parse_word(str(w)) == w
    marked = parse_word("~T(2,7) < T(1,0) > T(0,0) < T(1,2) > T(2,3)~")
    assert marked.marked
    assert parse_word(str(marked)) == marked
    with pytest.raises(ParseError):
        parse_word("T(1,0) > T(0,0) < T(1,1)")  # no arrow T(1,1) -> T(0,0)


def _candidate_words_with_letters(supp, letters):
    """The vertex tuples `_candidate_words` lists, each with the letters of
    its word, to hold against the oracles' letters from `arrows_at`."""
    return [(verts, StringWord(verts).directs) for verts in _candidate_words(supp, letters)]


def test_candidate_words_match_brute_force():
    from moebius.checks import grid_off_cluster
    from moebius.equiv import obj_to_string
    supports = sorted({tuple(sorted(obj_to_string(x).verts, key=lambda p: (p.n, p.m)))
                       for x in grid_off_cluster(3)})
    unions = [tuple(sorted(set(a) | set(b), key=lambda p: (p.n, p.m)))
              for i, a in enumerate(supports) for b in supports[i + 1:]]
    for supp in supports + unions:
        every_arrow = {(v, arr.dst) for v in supp for arr in arrows_at(v)[1]}
        expected = [(w.verts, w.directs) for w in _brute_force_candidates(list(supp))]
        assert _candidate_words_with_letters(list(supp), every_arrow) == expected
        assert candidate_words_by_paths(list(supp), every_arrow) == expected


def test_candidate_words_on_given_letters_match_brute_force():
    from moebius.checks import grid_off_cluster
    from moebius.equiv import obj_to_string
    words = [obj_to_string(x) for x in grid_off_cluster(3)]
    letters_of = lambda w: {(a, b) if d else (b, a) for a, b, d in zip(w.verts, w.verts[1:], w.directs)}
    for i, a in enumerate(words):
        for b in words[i + 1::7]:
            supp = sorted(set(a.verts) | set(b.verts), key=lambda p: (p.n, p.m))
            letters = letters_of(a) | letters_of(b)
            expected = [(w.verts, w.directs) for w in _brute_force_candidates(supp)
                        if letters_of(w) <= letters]
            assert _candidate_words_with_letters(supp, letters) == expected
            assert candidate_words_by_paths(supp, letters) == expected


def test_occurrences_match_brute_force():
    import random
    from moebius.checks import grid_off_cluster
    from moebius.equiv import obj_to_string
    words = [obj_to_string(x) for x in grid_off_cluster(3)]
    pairs = [(a, b) for a in words for b in words]
    deep = [obj_to_string(x) for x in grid_off_cluster(5)]
    rng = random.Random(5)
    pairs += [(rng.choice(deep), rng.choice(deep)) for _ in range(3000)]
    for a, b in pairs:
        occ = _occurrences(a, b)
        assert ([occ] if occ else []) == _brute_force_occurrences(a, b)


def test_occurrences_match_brute_force_on_nearby_objects():
    # words of two objects a small move apart at exponents 8-16, both ways:
    # most share a run of vertices, and the run decides every pair
    import random
    from moebius.band import normal_form
    from moebius.cluster import member
    from moebius.equiv import obj_to_string
    rng = random.Random(12)
    shared = nonzero = pairs = 0
    while pairs < 400:
        e = rng.randint(8, 16)
        one, r = 1 << e, 1 << (e - 4)
        p = rng.randrange(2 * one)
        q = p + rng.randrange(1, one)
        p2, q2 = p + rng.randint(-r, r), q + rng.randint(-r, r)
        if abs(q2 - p2) >= one:
            continue
        x, y = normal_form(p, q, e), normal_form(p2, q2, e)
        if member(x) is not None or member(y) is not None:
            continue
        pairs += 1
        a, b = obj_to_string(x), obj_to_string(y)
        shared += bool(set(a.verts) & set(b.verts))
        for w1, w2 in ((a, b), (b, a)):
            occ = _occurrences(w1, w2)
            assert ([occ] if occ else []) == _brute_force_occurrences(w1, w2), (x, y)
            nonzero += bool(occ)
    assert shared > 0.9 * pairs and 0.1 * pairs < nonzero < pairs


def test_occurrences_assert_one_run():
    # StringWord does not validate: common vertices split in either word
    # break the run the lemma promises
    split = (StringWord([T(0, 0), T(1, 0), T(1, 1)]), StringWord([T(0, 0), T(2, 0), T(1, 1)]))
    split_once = (StringWord([T(0, 0), T(1, 0), T(1, 1)]), StringWord([T(0, 0), T(1, 1)]))
    for w1, w2 in (split, split[::-1], split_once, split_once[::-1]):
        with pytest.raises(AssertionError, match="not one run"):
            _occurrences(w1, w2)


def test_occurrences_reject_marked_words():
    marked = parse_word("~T(2,7) < T(1,0) > T(0,0) < T(1,2) > T(2,3)~")
    plain = parse_word("T(1,0) > T(0,0) > T(1,1)")
    for w1, w2 in ((marked, plain), (plain, marked), (marked, marked)):
        with pytest.raises(InvalidWord):
            _occurrences(w1, w2)
