import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from moebius.band import Obj, normal_form, parse_obj
from moebius.checks import _basics, grid_off_cluster
from moebius.cluster import STANDARD, ClusterPt, member, mutate, object_of
from moebius.dyadic import Dyadic
from moebius.equiv import obj_to_string
from moebius import linalg, quotient, strings
from moebius.quotient import (SumObj, MorQ, identity_mor, zero_mor, basic_mor, compose,
                              classify, kernel, cokernel, hom_dim, _kernel_rep, _cokernel_rep,
                              _vertex_matrices)
from moebius.errors import MoebiusError, ShapeMismatch
from moebius.strings import (RepFin, StringWord, decompose_rep, overlap, to_rep, _candidate_words,
                             _hom_rep_to_word, _hom_word_to_rep, _letters)
from moebius.walk import hom_ct_dim, support, walk_of

from oracles import (induced_support_map, classify_per_point, _classify_by_translates,
                     decompose_rep_by_peeling, decompose_rep_by_rescans, _rref_on_fractions,
                     cokernel_by_quotients, candidate_words_by_paths, _hom_rep_to_word_dense,
                     _hom_word_to_rep_dense)

T = ClusterPt
M = parse_obj


def _f():
    return basic_mor(M("M(1/8,1/4)"), M("M(1/4,3/4)"))


def test_basic_mor_matches_the_generic_constructor():
    # on every ordered pair of G(3): zero homs, cluster summands (a ShapeMismatch
    # from both) and non-unit scalars
    from moebius.checks import grid
    objs = grid(3)
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            c = (Fraction(-3, 4), 2, "5/2", 1)[(i + j) % 4]
            try:
                want = MorQ(SumObj([x]), SumObj([y]), ((c,),))
            except ShapeMismatch as exc:
                with pytest.raises(ShapeMismatch, match=f"^{exc}$"):
                    basic_mor(x, y, c)
                continue
            got = basic_mor(x, y, c)
            assert got == want and got.entries == ((Fraction(c) * hom_ct_dim(x, y),),), (x, y)
            _assert_exact(got)


def _assert_exact(f):
    # the `linalg.exact` rule: an entry is an int exactly where it is integral
    for row in f.entries:
        for v in row:
            assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), f


def test_entries_are_ints_exactly_where_integral():
    from moebius.cli import _morphism_from_json
    x, y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
    f = basic_mor(x, y, Fraction(3, 2))
    one = compose(MorQ(f.dst, f.dst, ((Fraction(2, 3),),)), f)
    assert one.entries == ((1,),)
    parsed = _morphism_from_json({"src": [str(x), str(y)], "dst": [str(y)], "entries": [["4/2", "-1/3"]]})
    assert parsed.entries == ((2, Fraction(-1, 3)),)
    for g in (f, one, parsed, zero_mor(f.src, f.dst), identity_mor(SumObj([x, y])),
              kernel(f)[1], cokernel(f)[1]):
        _assert_exact(g)


_X, _Y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
# each value type, built twice, and the plain tuple it equals and hashes as
_VALUES = {
    "SumObj": (lambda: SumObj([_X, M("M(0,1/2)"), _Y]), (_X, _Y)),
    "MorQ": (lambda: MorQ(SumObj([_X]), SumObj([_Y]), (("3/2",),)), ((_X,), (_Y,), ((Fraction(3, 2),),))),
    "ClusterOverlay": (lambda: mutate(STANDARD, M("M(0,0)"))[0],
                       (frozenset({T(0, 0)}), frozenset({M("M(1/2,1/2)")}))),
    "RepFin": (lambda: to_rep(obj_to_string(_Y)), None),
    "Obj": (lambda: M("M(1/8,1/4)"), (1, 1, 3)),
    "Walk": (lambda: walk_of.__wrapped__(M("M(1/2,9/8)")),
             ((T(1, 1), T(2, 1), T(3, 2)), (8, 4, 4), (16, 16, 18), 4, ("h", "v"), ("sink", "source", "sink"))),
}


@pytest.mark.parametrize("name", sorted(_VALUES))
def test_value_types_are_immutable_tuples(name):
    make, plain = _VALUES[name]
    v = make()
    assert type(v).__name__ == name and v == make() and v is not make()
    for attr in (*getattr(type(v), "_fields", ()), "other"):
        with pytest.raises(AttributeError):
            setattr(v, attr, None)
    if plain is not None:
        assert v == plain and hash(v) == hash(plain)
    if name == "MorQ":
        assert repr(MorQ._from_clean(*v)) == repr(v) == "MorQ(M(1/8,1/4) -> M(1/4,3/4), ((Fraction(3, 2),),))"
        assert MorQ._from_clean(v.src, v.dst, ((2,),)) == MorQ(v.src, v.dst, ((2,),))


def test_sumobj_normalizes_cluster_summands():
    s = SumObj([M("M(1/8,1/4)"), M("M(0,1/2)")])
    assert len(s) == 1


def test_morq_normalizes_dead_entries():
    g = basic_mor(M("M(1/4,3/4)"), M("M(1/2,9/8)"))
    assert g.entries == ((Fraction(0),),)


def test_compose_identity_and_bilinearity():
    f = _f()
    assert compose(f, identity_mor(f.src)) == f
    assert compose(identity_mor(f.dst), f) == f
    g = basic_mor(M("M(1/8,1/4)"), M("M(1/4,3/4)"), 3)
    h = compose(MorQ(g.dst, g.dst, ((2,),)), g)
    assert h.entries[0][0] == 6


def test_compose_through_cluster_is_zero():
    f = _f()
    g = basic_mor(M("M(1/4,3/4)"), M("M(1/2,9/8)"))
    gf = compose(g, f)
    assert classify(gf).is_zero


def test_compose_shape_mismatch():
    f = _f()
    with pytest.raises(ShapeMismatch):
        compose(f, f)


def test_classify_examples():
    f = _f()
    c = classify(f)
    assert not (c.is_zero or c.is_mono or c.is_epi or c.is_iso)
    assert classify(identity_mor(f.src)).is_iso
    y = M("M(1/4,3/4)")
    diag = MorQ(SumObj([y]), SumObj([y, y]), ((Fraction(1),), (Fraction(1),)))
    cd = classify(diag)
    assert cd.is_mono and not cd.is_epi


def test_classify_zero_oracle():
    f = _f()
    z = zero_mor(f.src, f.dst)
    assert classify(z).is_zero
    assert not classify(f).is_zero


def test_worked_kernel_cokernel():
    f = _f()
    k_obj, incl = kernel(f)
    assert k_obj.isomorphic(SumObj([M("M(1/2,9/8)"), M("M(0,1/4)")]))
    c_obj, proj = cokernel(f)
    assert c_obj.isomorphic(SumObj([M("M(1,3/4)")]))
    assert classify(incl).is_mono
    assert classify(proj).is_epi
    assert classify(compose(f, incl)).is_zero
    assert classify(compose(proj, f)).is_zero


def test_kernel_and_cokernel_of_a_basic_share_one_overlap_scan(monkeypatch):
    scans = []
    real = quotient.kernel_cokernel_strings

    def counting(w1, w2):
        scans.append((w1, w2))
        return real(w1, w2)

    monkeypatch.setattr(quotient, "kernel_cokernel_strings", counting)
    quotient._basic_word_lists.cache_clear()
    x, y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
    k_obj, _ = kernel(basic_mor(x, y))
    c_obj, _ = cokernel(basic_mor(x, y, Fraction(-3, 2)))  # any scalar: the words are the same
    assert scans == [(obj_to_string(x), obj_to_string(y))]
    assert k_obj.isomorphic(SumObj([M("M(1/2,9/8)"), M("M(0,1/4)")]))
    assert c_obj.isomorphic(SumObj([M("M(1,3/4)")]))
    quotient._basic_word_lists.cache_clear()


def test_kernel_cokernel_trivial_cases():
    f = _f()
    k, _ = kernel(identity_mor(f.src))
    assert len(k) == 0
    c, _ = cokernel(identity_mor(f.src))
    assert len(c) == 0
    k, incl = kernel(zero_mor(f.src, f.dst))
    assert k.isomorphic(f.src)
    assert classify(incl).is_iso
    c, proj = cokernel(zero_mor(f.src, f.dst))
    assert c.isomorphic(f.dst)
    assert classify(proj).is_iso


def test_kernel_of_matrix_morphism():
    # two copies of the worked basic, stacked: kernel gains nothing new
    x, y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
    f = MorQ(SumObj([x]), SumObj([y, y]), ((Fraction(1),), (Fraction(2),)))
    k_obj, incl = kernel(f)
    single = kernel(_f())[0]
    assert k_obj.isomorphic(single)
    assert classify(compose(f, incl)).is_zero
    # spread over two source copies: kernel picks up an antidiagonal copy
    g = MorQ(SumObj([x, x]), SumObj([y]), ((Fraction(1), Fraction(1)),))
    k2, incl2 = kernel(g)
    assert classify(compose(g, incl2)).is_zero
    assert classify(incl2).is_mono
    dims = sum(len(obj_to_string(s)) for s in k2)
    assert dims == 2 * len(obj_to_string(x)) - len(obj_to_string(y)) + \
        sum(len(obj_to_string(s)) for s in cokernel(g)[0])


def test_fold_map_kernel_is_antidiagonal_copy():
    x = M("M(1/8,1/4)")
    fold = MorQ(SumObj([x, x]), SumObj([x]), ((Fraction(1), Fraction(-1)),))
    c = classify(fold)
    assert c.is_epi and not c.is_mono
    k, incl = kernel(fold)
    assert k.isomorphic(SumObj([x]))
    assert classify(incl).is_mono
    assert classify(compose(fold, incl)).is_zero
    c_obj, _ = cokernel(fold)
    assert len(c_obj) == 0


def test_diagonal_cokernel_is_one_copy():
    y = M("M(1/4,3/4)")
    diag = MorQ(SumObj([y]), SumObj([y, y]), ((Fraction(1),), (Fraction(1),)))
    k, _ = kernel(diag)
    assert len(k) == 0
    c_obj, proj = cokernel(diag)
    assert c_obj.isomorphic(SumObj([y]))
    assert classify(proj).is_epi
    assert classify(compose(proj, diag)).is_zero


def test_hom_dim():
    x, y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
    assert hom_dim(SumObj([x]), SumObj([y])) == 1
    assert hom_dim(SumObj([y]), SumObj([x])) == 0
    both = SumObj([x, y])
    assert hom_dim(both, both) == 3  # two identities plus x -> y


def test_dim_exactness():
    f = _f()
    k, _ = kernel(f)
    c, _ = cokernel(f)
    dk = sum(len(obj_to_string(s)) for s in k)
    dc = sum(len(obj_to_string(s)) for s in c)
    dx = sum(len(obj_to_string(s)) for s in f.src)
    dy = sum(len(obj_to_string(s)) for s in f.dst)
    assert dk - dx + dy - dc == 0


def test_morphism_shape_validation():
    x, y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
    with pytest.raises(ShapeMismatch):
        MorQ(SumObj([x]), SumObj([y]), ((Fraction(1), Fraction(2)),))


def _assert_paths_agree(f):
    # SumObj and MorQ equality compare summand order and every entry
    assert kernel(f) == _kernel_rep(f)
    assert cokernel(f) == _cokernel_rep(f)


def test_closed_form_kernels_match_rep_path_depth3():
    # the cokernels match vertexwise quotients too, projections included
    for (x, y) in _basics(3):
        f = basic_mor(x, y)
        _assert_paths_agree(f)
        assert cokernel(f) == cokernel_by_quotients(f), (x, y)


def test_closed_form_kernels_match_rep_path_depth4_sample():
    objs = grid_off_cluster(4)
    rng = random.Random(4)
    checked = 0
    while checked < 500:
        x, y = rng.choice(objs), rng.choice(objs)
        if hom_ct_dim(x, y):
            _assert_paths_agree(basic_mor(x, y, Fraction(-3, 4)))
            checked += 1


def _seeded_basic_pairs(rng, e, count):
    """Objects off the cluster with coordinates of exponent e, each with a
    nonzero quotient hom to a nearby object."""
    pairs = []
    while len(pairs) < count:
        x = Obj(Dyadic(rng.randrange(1 << (e + 1)), e), Dyadic(rng.randrange(1, 1 << e), e))
        try:
            y = normal_form(x.x + Dyadic(rng.randrange(1 << (e - 1)), e),
                            x.y + Dyadic(rng.randrange(1 << (e - 1)), e))
        except MoebiusError:
            continue
        if x.max_exp() == e and member(x) is None and member(y) is None and hom_ct_dim(x, y):
            pairs.append((x, y))
    return pairs


@pytest.mark.parametrize("e", [7, 8, 9, 10, 16, 20, 24, 32, 64])
def test_closed_form_kernels_match_rep_path_seeded(e):
    # the representation path grows superlinearly with e: fewer pairs deep down
    rng = random.Random(e)
    for (x, y) in _seeded_basic_pairs(rng, e, 20 if e <= 10 else 8):
        _assert_paths_agree(basic_mor(x, y, Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 2)))))


def _near(rng, x, e, spread):
    """An object off the cluster up to spread/2^e above and right of x."""
    while True:
        try:
            y = normal_form(x.x + Dyadic(rng.randrange(spread), e), x.y + Dyadic(rng.randrange(spread), e))
        except MoebiusError:
            continue
        if y != x and member(y) is None:
            return y


def _seeded_matrix_morphism(rng, e, ns, nd):
    """ns source and nd target summands near one object of exponent e, each
    touched by a nonzero hom, with more nonzero entries than summands on
    the larger side (as in the benchmark's kernels stream)."""
    while True:
        centre = Obj(Dyadic(rng.randrange(1 << (e + 1)), e), Dyadic(rng.randrange(1, 1 << e), e))
        if member(centre) is not None:
            continue
        src = [centre] + [_near(rng, centre, e, 1 << (e - 2)) for _ in range(ns - 1)]
        dst = [_near(rng, rng.choice(src), e, 1 << (e - 1)) for _ in range(nd)]
        nz = [[hom_ct_dim(x, y) for x in src] for y in dst]
        if (len(set(src)) == ns and len(set(dst)) == nd and all(map(any, nz))
                and all(map(any, zip(*nz))) and sum(map(sum, nz)) > max(ns, nd)):
            entries = [[Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3))) if h else 0
                        for h in row] for row in nz]
            return MorQ(SumObj(src), SumObj(dst), entries)


def _assert_clean(m):
    # the cleaning constructor changes nothing on a morphism built as clean
    assert MorQ(m.src, m.dst, m.entries) == m, m
    _assert_exact(m)


@pytest.mark.parametrize("ns, nd", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_matrix_kernels_match_rescans(ns, nd, monkeypatch):
    reps = []

    def recording(rep):
        reps.append(rep)
        return decompose_rep(rep)

    monkeypatch.setattr(quotient, "decompose_rep", recording)
    rng = random.Random(10 * ns + nd)
    for e in range(4, 9):
        f = _seeded_matrix_morphism(rng, e, ns, nd)
        _, incl = kernel(f)
        _, proj = cokernel(f)
        for m in (incl, proj, compose(f, incl), compose(proj, f)):
            _assert_clean(m)
    assert len(reps) == 10
    for rep in reps:
        assert decompose_rep(rep) == decompose_rep_by_rescans(rep)
        assert repr(decompose_rep(rep)) == repr(decompose_rep_by_peeling(rep))  # int vs Fraction too


def test_deep_matrix_kernel_splits_match_peeling(monkeypatch):
    # component by component, thin ones read off as words, the split equals
    # peeling the whole representation: words, order, embeddings and types
    # (at exponents 4-8 in `test_matrix_kernels_match_rescans`)
    reps, used = [], set()

    def recording(rep):
        reps.append(rep)
        return decompose_rep(rep)

    def noting(fn):
        def wrapped(*args):
            used.add(fn.__name__)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(quotient, "decompose_rep", recording)
    rng = random.Random(112)
    for e in (16, 32, 64):
        for ns, nd in ((2, 2), (2, 3), (3, 2)):
            f = _seeded_matrix_morphism(rng, e, ns, nd)
            kernel(f)
            cokernel(f)
    assert len(reps) == 18
    monkeypatch.setattr(strings, "_thin_summand", noting(strings._thin_summand))
    monkeypatch.setattr(strings, "_split_off", noting(strings._split_off))
    for rep in reps:
        assert repr(decompose_rep(rep)) == repr(decompose_rep_by_peeling(rep))  # int vs Fraction too
    assert used == {"_thin_summand", "_split_off"}


def test_candidate_words_match_paths_on_deep_matrix_kernels(monkeypatch):
    # the lazy listing against every reduced path listed and sorted, on each
    # representation that kernels and cokernels of deep morphisms split
    reps = []

    def recording(rep):
        reps.append(rep)
        return decompose_rep(rep)

    monkeypatch.setattr(quotient, "decompose_rep", recording)
    rng = random.Random(64)
    for e in (32, 64):
        f = _seeded_matrix_morphism(rng, e, 2, 2)
        kernel(f)
        cokernel(f)
    assert len(reps) == 4
    for rep in reps:
        supp = sorted(rep.dims)
        paths = candidate_words_by_paths(supp, rep.mats)
        got = list(_candidate_words(supp, rep.mats))
        assert got == [verts for verts, _ in paths]
        assert [StringWord(verts).directs for verts in got] == [directs for _, directs in paths]


def test_hom_solvers_match_dense_oracles_on_split_candidates(monkeypatch):
    # both hom directions, one nullspace over the quiver and its opposite,
    # against their dense row loops on each (w, rep) that `_split_off` sees,
    # and on each rep again without a letter's matrix and without a vertex
    # of w: equal lists, values and int/Fraction types; two morphisms per
    # shape and exponent, as `decompose_rep` tries only the words that pass
    # its local test
    cases = []
    split_off = strings._split_off

    def recording(w, rep):
        cases.append((w, rep))
        return split_off(w, rep)

    monkeypatch.setattr(strings, "_split_off", recording)
    rng = random.Random(30)
    for e in (3, 4, 5, 6, 7):
        for ns, nd in ((2, 2), (2, 3), (3, 2), (3, 3)) * 2:
            f = _seeded_matrix_morphism(rng, e, ns, nd)
            kernel(f)
            cokernel(f)
    seen, leaving, entering = len(cases), 0, 0
    for w, rep in cases[:seen]:
        on = set(w.verts)
        leaving += any(a in on and b not in on for a, b in rep.mats)
        entering += any(a not in on and b in on for a, b in rep.mats)
        if len(w) > 1:
            first = _letters(w)[0]
            cases.append((w, RepFin(rep.dims, {k: m for k, m in rep.mats.items() if k != first})))
        v = w.verts[-1]
        cases.append((w, RepFin({u: d for u, d in rep.dims.items() if u != v},
                                {k: m for k, m in rep.mats.items() if v not in k})))
    vanishing = 0
    for w, rep in cases:
        phis, psis = _hom_word_to_rep(w, rep), _hom_rep_to_word(rep, w)
        assert repr(phis) == repr(_hom_word_to_rep_dense(w, rep)), w  # repr tells 2 from Fraction(2)
        assert repr(psis) == repr(_hom_rep_to_word_dense(rep, w)), w
        vanishing += phis == psis == [] and any(u not in rep.dims for u in w.verts)
    assert seen > 50 and leaving and entering and len(cases) > 2 * seen and vanishing == seen


_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_local_test_bounds_split_trials_on_seeded_8x8_morphisms(monkeypatch):
    # draws 0-2 of the benchmark's matrix morphisms at 8x8, exponent 16
    # (seeded "scale2:16:8"): with the local test, at most 2 `_split_off`
    # trials per summand in each kernel and cokernel split, where trying
    # every listed word took up to 5.7; and the summands of peeling
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    trials, splits = [0], []
    split_off = strings._split_off

    def counting(w, rep):
        trials[0] += 1
        return split_off(w, rep)

    def recording(rep):
        trials[0] = 0
        pieces = decompose_rep(rep)
        splits.append((rep, len(pieces), trials[0]))
        return pieces

    monkeypatch.setattr(strings, "_split_off", counting)
    monkeypatch.setattr(quotient, "decompose_rep", recording)
    rng = random.Random("scale2:16:8")
    for _ in range(3):
        f = workloads._make_morphism(*workloads._morphism_data(workloads._matrix_morphism(rng, 16, 8, 8)))
        kernel(f)
        cokernel(f)
    assert [n for _, n, _ in splits] == [16, 16, 14, 14, 15, 15]
    assert all(t <= 2 * n for _, n, t in splits), splits
    for rep, _, _ in splits:
        assert repr(decompose_rep(rep)) == repr(decompose_rep_by_peeling(rep))


def test_matrix_kernels_row_reduce_only_where_f_acts(monkeypatch):
    # _peel and restrict_rep read their kernels and coordinates off unit rows,
    # and _kernel_rep takes one nullspace per signature where F(f) is nonzero
    calls, at_split, called = [0], [], set()
    rref = linalg._rref

    def counting(a):
        calls[0] += 1
        return rref(a)

    def without_rref(fn):
        def wrapped(*args):
            before = calls[0]
            out = fn(*args)
            assert calls[0] == before, fn.__name__
            called.add(fn.__name__)
            return out
        return wrapped

    def recording(rep):
        at_split.append(calls[0])
        return decompose_rep(rep)

    monkeypatch.setattr(linalg, "_rref", counting)
    monkeypatch.setattr(strings, "_peel", without_rref(strings._peel))
    monkeypatch.setattr(strings, "restrict_rep", without_rref(strings.restrict_rep))
    monkeypatch.setattr(quotient, "restrict_rep", strings.restrict_rep)
    monkeypatch.setattr(quotient, "decompose_rep", recording)
    rng = random.Random(22)
    for e in (5, 16, 32):
        f = _seeded_matrix_morphism(rng, e, 2, 3)
        words_src = [obj_to_string(x) for x in f.src]
        sig, blocks = _vertex_matrices(f, [w.verts for w in words_src],
                                       [obj_to_string(y).verts for y in f.dst])
        acting = {sig[v] for w in words_src for v in w.verts if any(map(any, blocks[sig[v]][0]))}
        before = calls[0]
        _kernel_rep(f)
        assert at_split[-1] - before == len(acting) > 0
    assert called == {"_peel", "restrict_rep"}


@pytest.mark.parametrize("ns, nd", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_matrix_kernels_match_fraction_rref(ns, nd, monkeypatch):
    # the representation layer holds ints where values are integral; on
    # Fractions throughout (the oracle's row reduction) the answers are the same
    embeddings = []

    def recording(rep):
        pieces = decompose_rep(rep)
        embeddings.extend(vec for _, emb in pieces for vec in emb.values())
        return pieces

    rng = random.Random(100 + 10 * ns + nd)
    for e in (4, 5, 6, 16, 24, 32):
        f = _seeded_matrix_morphism(rng, e, ns, nd)
        with monkeypatch.context() as m:
            m.setattr(quotient, "decompose_rep", recording)
            got = (kernel(f), cokernel(f))
        with monkeypatch.context() as m:
            m.setattr(linalg, "_rref", _rref_on_fractions)
            assert got == (kernel(f), cokernel(f)), f
        for _, mor in got:
            _assert_exact(mor)
    assert embeddings
    assert all(type(x) in (int, Fraction) for vec in embeddings for x in vec)


def test_closed_form_kernels_and_composites_are_clean():
    rng = random.Random(12)
    for e in (4, 6, 8, 12):
        for x, y in _seeded_basic_pairs(rng, e, 5):
            f = basic_mor(x, y, Fraction(-2, 3))
            for k in (kernel, cokernel, _kernel_rep, _cokernel_rep):
                _assert_clean(k(f)[1])
    basics = list(_basics(3))
    after = {}
    for x, y in basics:
        after.setdefault(x, []).append(y)
    nonzero = 0
    for _ in range(300):
        # chains a -> b -> c of basics, one or two summands at each stage
        firsts = [rng.choice(basics) for _ in range(rng.randint(1, 2))]
        a, b = SumObj([x for x, _ in firsts]), SumObj([y for _, y in firsts])
        c = SumObj([rng.choice(after.get(y, [y])) for y in b])
        f, g = (MorQ(s, t, [[rng.choice((1, -2, Fraction(1, 3))) for _ in s] for _ in t])
                for s, t in ((a, b), (b, c)))
        gf = compose(g, f)
        _assert_clean(gf)
        nonzero += any(v for row in gf.entries for v in row)
    assert nonzero > 100


def test_zero_entry_morphism_takes_rep_path():
    x, y = M("M(1/8,1/4)"), M("M(1/4,3/4)")
    dead = basic_mor(M("M(1/4,3/4)"), M("M(1/2,9/8)"))  # entry cleaned to 0
    for f in (basic_mor(x, y, 0), dead):
        assert f.entries == ((Fraction(0),),)
        _assert_paths_agree(f)
        k_obj, incl = kernel(f)
        assert k_obj == f.src and incl == identity_mor(f.src)
        c_obj, proj = cokernel(f)
        assert c_obj == f.dst and proj == identity_mor(f.dst)


# -- the lemma F(f) is read on: a basic map acts on its whole common support ---

def _common_support_points(basics):
    """Points of support(x) & support(y) over the basics, after checking that
    the translate-alive set and the graph-map overlap are both all of it."""
    points = 0
    for x, y in basics:
        common = support(x) & support(y)
        alive = {s for s, c in induced_support_map(x, y, 1).items() if c}
        assert alive == overlap(obj_to_string(x), obj_to_string(y)) == common, (x, y)
        points += len(common)
    return points


def test_basics_act_on_common_support_depth3():
    assert _common_support_points(_basics(3)) == 3096


@pytest.mark.parametrize("e, count", [(4, 2000), (5, 1000)])
def test_basics_act_on_common_support_seeded(e, count):
    objs = grid_off_cluster(e)
    rng = random.Random(e)
    basics = []
    while len(basics) < count:
        x, y = rng.choice(objs), rng.choice(objs)
        if hom_ct_dim(x, y):
            basics.append((x, y))
    assert _common_support_points(basics) > count


def _assert_classify_agrees(f):
    _, incl = kernel(f)
    _, proj = cokernel(f)
    for g in (f, incl, proj, compose(f, incl), compose(proj, f)):
        assert classify(g) == classify_per_point(g) == _classify_by_translates(g), g


def test_classify_matches_translates_on_basics_depth3():
    for (x, y) in _basics(3):
        _assert_classify_agrees(basic_mor(x, y))


def _depth3_matrix_morphisms(seed, count):
    """count seeded morphisms between sums of up to three ends of depth-3
    basics, with entries 0 or small rationals."""
    basics = list(_basics(3))
    rng = random.Random(seed)
    for _ in range(count):
        pairs = [rng.choice(basics) for _ in range(3)]
        src = SumObj([x for x, _ in pairs[:rng.randint(1, 3)]])
        dst = SumObj([y for _, y in rng.sample(pairs, rng.randint(1, 3))])
        entries = [[Fraction(rng.choice((0, 1, -1, 2, 3)), rng.choice((1, 2))) for _ in src]
                   for _ in dst]
        yield MorQ(src, dst, entries)


def _zero_morphisms():
    """Zero morphisms of shapes the suite never builds: 0xn, nx0, 2x2 and
    3x3, and a zero MorQ whose cluster summands SumObj drops."""
    a, b, c = M("M(1/8,1/4)"), M("M(1/4,3/4)"), M("M(1/2,9/8)")
    empty = SumObj()
    yield zero_mor(empty, empty)
    yield zero_mor(SumObj([a, b]), empty)
    yield zero_mor(empty, SumObj([a, b, c]))
    yield zero_mor(SumObj([a, b]), SumObj([b, c]))
    yield zero_mor(SumObj([a, b, c]), SumObj([c, a, b]))
    cluster = object_of(T(1, 1))
    src, dst = SumObj([a, cluster, b]), SumObj([cluster, c])
    assert (len(src), len(dst)) == (2, 1)
    yield MorQ(src, dst, [[0, 0]])


def test_classify_decides_zero_morphisms_as_the_per_point_oracle():
    shapes = set()
    for f in _zero_morphisms():
        assert not any(map(any, f.entries))
        c = classify(f)
        assert c == classify_per_point(f) == _classify_by_translates(f), f
        assert c == (True, not f.src, not f.dst, not f.src and not f.dst), f
        shapes.add((len(f.dst), len(f.src)))
    assert {(0, 2), (3, 0), (2, 2), (3, 3), (1, 2)} <= shapes


def test_classify_reads_a_single_nonzero_entry_per_signature(monkeypatch):
    # one nonzero entry, not all zero: classify takes the signature path
    a, b, c = M("M(1/8,1/4)"), M("M(1/4,3/4)"), M("M(1/2,9/8)")
    assert hom_ct_dim(a, b)
    f = MorQ(SumObj([a, c]), SumObj([b, c]), [[1, 0], [0, 0]])
    assert sum(v != 0 for row in f.entries for v in row) == 1
    calls = []
    real = quotient._vertex_matrices
    monkeypatch.setattr(quotient, "_vertex_matrices", lambda *args: calls.append(1) or real(*args))
    c_f = classify(f)
    assert calls and not c_f.is_zero
    assert c_f == classify_per_point(f) == _classify_by_translates(f)


def test_classify_matches_translates_on_matrix_morphisms():
    for f in _depth3_matrix_morphisms(3, 600):
        _, incl = kernel(f)
        _, proj = cokernel(f)
        for g in (f, incl, proj):
            assert classify(g) == classify_per_point(g) == _classify_by_translates(g), g


# -- cokernels as mirrored kernels, against vertexwise quotients ---------------

def _assert_cokernel_matches_quotients(f):
    """The cokernel equals the oracle's in its summands and their order,
    and its projection equals the oracle's up to an automorphism of the
    cokernel: F of the two has the same row space at every support point
    (F is faithful).  True when the projections are equal."""
    (c_obj, proj), (want_obj, want) = cokernel(f), cokernel_by_quotients(f)
    assert c_obj == want_obj, f
    supp_src, supp_dst = [support(y) for y in f.dst], [support(c) for c in c_obj]
    sig, got_blocks = _vertex_matrices(proj, supp_src, supp_dst)
    want_blocks = _vertex_matrices(want, supp_src, supp_dst)[1]
    for mask in set(sig.values()):
        assert linalg._rref(got_blocks[mask][0]) == linalg._rref(want_blocks[mask][0]), f
    return proj == want


def test_cokernels_match_quotients_on_depth3_matrix_morphisms():
    equal = sum(_assert_cokernel_matches_quotients(f) for f in _depth3_matrix_morphisms(3, 600))
    assert 0 < equal < 600


@pytest.mark.parametrize("ns, nd", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_cokernels_match_quotients_on_seeded_matrix_morphisms(ns, nd):
    rng = random.Random(10 * ns + nd)
    for e in range(4, 9):
        _assert_cokernel_matches_quotients(_seeded_matrix_morphism(rng, e, ns, nd))
