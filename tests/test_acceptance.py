"""Acceptance suite: every structural criterion at full desk scale, plus the
command-line and rendering contract.  One pass/fail line is printed per
criterion; all tolerances are exact equality.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from moebius.checks import CRITERIA, CheckResult, run_all

GOLDEN = Path(__file__).parent / "golden"
DEPTH = 3

_results: dict[int, CheckResult] = {}


def _run(index: int) -> CheckResult:
    if index not in _results:
        import time
        name, fn = CRITERIA[index - 1]
        t0 = time.perf_counter()
        ok, detail = fn(DEPTH)
        r = CheckResult(index, name, ok, detail, time.perf_counter() - t0)
        _results[index] = r
        print(r.line())
    return _results[index]


@pytest.mark.parametrize("index", range(1, len(CRITERIA) + 1),
                         ids=[name for name, _ in CRITERIA])
def test_criterion(index):
    r = _run(index)
    assert r.ok, f"criterion {r.index} failed: {r.detail}"


def test_criterion_12_cli_check_exits_zero(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "moebius.cli", "check", "--depth", str(DEPTH)],
        capture_output=True, text=True, timeout=600)
    lines = [l for l in proc.stdout.strip().splitlines() if l]
    ok = proc.returncode == 0 and len(lines) == len(CRITERIA) and all("PASS" in l for l in lines)
    print(CheckResult(12, "command line suite and golden renders", ok,
                      f"check exited {proc.returncode} with {len(lines)} lines", 0.0).line())
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(lines) == len(CRITERIA)
    assert all("PASS" in l for l in lines)


@pytest.mark.parametrize("name,argv", [
    ("empty.svg", ["render"]),
    ("walk_quarter_threequarter.svg", ["render", "--walk", "M(1/4,3/4)", "--cluster-depth", "3"]),
    ("cluster_depth4.svg", ["render", "--cluster-depth", "4"]),
])
def test_criterion_12_golden_render(name, argv):
    proc = subprocess.run([sys.executable, "-m", "moebius.cli"] + argv,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text(), f"render differs from golden {name}"


@pytest.mark.parametrize("depth", [1, 2, DEPTH])
def test_every_criterion_counts_work_at_small_depths(depth):
    # a count of zero in a detail string is a part of the suite that checked
    # nothing; at DEPTH the results of test_criterion are read again
    import re
    results = [_run(i) for i in range(1, len(CRITERIA) + 1)] if depth == DEPTH else run_all(depth)
    for r in results:
        assert r.ok, r.line()
        counts = [int(c) for c in re.findall(r"\d+", r.detail)]
        assert counts and 0 not in counts, r.line()


# -- the hom table that criteria 1, 6 and 7 read --------------------------------

@pytest.mark.parametrize("depth", [1, 2, 3])
def test_hom_table_is_the_uncached_geometry_on_every_grid_pair(depth):
    from moebius.checks import grid_off_cluster, _hom_table
    from moebius.walk import hom_ct_dim
    objs, table = grid_off_cluster(depth), _hom_table(depth)
    n = len(objs)
    assert len(table) == n * n
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            assert table[i * n + j] == hom_ct_dim.__wrapped__(x, y), (x, y)


def test_basics_are_the_nonzero_pairs_in_grid_order():
    from moebius.checks import _basics, grid_off_cluster
    from moebius.walk import hom_ct_dim
    objs = grid_off_cluster(3)
    want = [(x, y) for x in objs for y in objs if hom_ct_dim.__wrapped__(x, y) == 1]
    assert list(_basics(3)) == want and len(want) == 1820


def test_criterion_1_fails_on_a_wrong_table_entry(monkeypatch):
    # criterion 1 checks the table the other criteria read
    from moebius import checks
    objs, table = checks.grid_off_cluster(2), bytearray(checks._hom_table(2))
    n = len(objs)
    table[3 * n + 7] ^= 1
    monkeypatch.setattr(checks, "_hom_table", lambda e: bytes(table))
    assert checks.check_hom_agreement(2) == (False, f"hom mismatch at {objs[3]} -> {objs[7]}")


# -- criterion 9: compatibility against crossing ---------------------------------

@pytest.mark.parametrize("constant", [True, False])
def test_criterion_9_fails_when_compatible_is_constant(monkeypatch, constant):
    # every cluster pair is compatible, so only the object-cluster pairs that
    # cross can catch a compatibility test that always says yes
    from moebius import checks
    monkeypatch.setattr(checks, "compatible", lambda a, b: constant)
    for depth in (1, DEPTH):
        ok, detail = checks.check_noncrossing(depth)
        assert not ok and detail.startswith("compatibility vs crossing disagree"), detail


# -- criteria 5 and 6: the translates, built once per (point, eps) ------------------

def _unmoved(s, dx, dy):
    from moebius.cluster import object_of
    return object_of(s)


def _moved_back(s, dx, dy):
    from moebius.walk import shifted
    return shifted(s, -dx, -dy)


@pytest.mark.parametrize("wrong", [_unmoved, _moved_back], ids=["no move", "moved by -eps"])
def test_criteria_5_and_6_fail_on_a_wrong_translate(monkeypatch, wrong):
    from moebius import checks
    monkeypatch.setattr(checks, "shifted", wrong)
    ok, detail = checks.check_ar_duality(2)
    assert not ok and detail.startswith("translate duality fails at"), detail
    ok, detail = checks.check_abelian(2)
    assert not ok and detail.startswith("basic dies on a translate of its common support"), detail


# -- criterion 6: a fault in what it reads fails it with its own message -----------

@pytest.fixture
def fresh_basic_words():
    # the kernel and cokernel words of the last few basics are cached, and a
    # patched scan must neither be hidden by them nor leave its own behind
    from moebius import quotient
    quotient._basic_word_lists.cache_clear()
    yield
    quotient._basic_word_lists.cache_clear()


def test_criterion_6_fails_on_a_short_graph_map_run(monkeypatch, fresh_basic_words):
    # the run of each graph map loses w1's first vertex and the vertex of w2
    # it matches, so the kernel and cokernel words still add up
    from moebius import checks, strings
    real = strings._occurrences

    def short(w1, w2):
        occ = real(w1, w2)
        if occ is None:
            return None
        i1, j1, i2, j2 = occ
        return (i1 + 1, j1, i2 + 1, j2) if w1.verts[i1] == w2.verts[i2] else (i1 + 1, j1, i2, j2 - 1)

    monkeypatch.setattr(strings, "_occurrences", short)
    ok, detail = checks.check_abelian(2)
    assert not ok and detail.startswith("graph-map overlap != common support"), detail


def test_criterion_6_fails_when_the_kernel_loses_a_summand(monkeypatch):
    from moebius import checks
    from moebius.quotient import MorQ, SumObj
    real = checks.kernel

    def lossy(f):
        k_obj, incl = real(f)
        kept = SumObj(k_obj[:-1])
        return kept, MorQ._from_clean(kept, incl.dst, tuple(row[:len(kept)] for row in incl.entries))

    monkeypatch.setattr(checks, "kernel", lossy)
    ok, detail = checks.check_abelian(2)
    assert not ok and detail.startswith(("kernel inclusion not mono", "dimension exactness fails")), detail


def test_criterion_6_fails_when_the_rectangle_reference_is_constant(monkeypatch):
    from moebius import checks
    monkeypatch.setattr(checks, "chain_box_nonzero", lambda x, y, z: True)
    ok, detail = checks.check_abelian(2)
    assert not ok and detail.startswith("supports and rectangles disagree"), detail


def _twice(entries):
    return tuple(tuple(2 * v for v in row) for row in entries)


def test_criterion_6_fails_when_the_factorization_is_doubled(monkeypatch):
    # every morphism the criterion builds comes out doubled: twice a basic
    # has the basic's kernel, cokernel and zero composites, so only the
    # final compose(incl, h) == g can see an h twice what solves for g
    from moebius import checks
    real = checks.MorQ

    class Doubled(real):
        __slots__ = ()

        def __new__(cls, src, dst, entries):
            return real.__new__(cls, src, dst, _twice(entries))

        @classmethod
        def _from_clean(cls, src, dst, entries):
            return real._from_clean.__func__(cls, src, dst, _twice(entries))

    monkeypatch.setattr(checks, "MorQ", Doubled)
    ok, detail = checks.check_abelian(2)
    assert not ok and detail.startswith("universal property fails"), detail


@pytest.mark.parametrize("depth,most", [(2, 141), (3, 1921)])
def test_criterion_6_scans_each_graph_map_once(monkeypatch, fresh_basic_words, depth, most):
    # one scan per basic, one per sampled map and one for the worked example:
    # the overlap check and the kernel and cokernel words share it
    from moebius import checks, strings
    real = strings._occurrences
    scans = 0

    def counting(w1, w2):
        nonlocal scans
        scans += 1
        return real(w1, w2)

    monkeypatch.setattr(strings, "_occurrences", counting)
    ok, detail = checks.check_abelian(depth)
    assert ok, detail
    assert scans <= most


# -- the work each criterion counts at DEPTH -------------------------------------

DETAILS = [
    "8281 ordered pairs agree",
    "91 objects round-trip both ways",
    "91 objects, 467 walk vertices, worked values included",
    "balance on 91 objects; 769 maps factor through sinks",
    "5551 (S, X) pairs",
    "1820 basics exact; 982 factorizations over 100 sampled maps",
    "1820 basic morphisms checked",
    "29 vertices flipped and restored; 60 pairs sharing no triangle commute",
    "1830 cluster pairs; 5551 object-cluster pairs, 285 crossing",
    "26611 prefixes from 13 bases round-trip, b_m monotone",
    "91 words x k<=3; 144 truncation pairs stable",
]


def test_detail_strings_at_depth_3():
    # a faster suite must still do the same work: each count is pinned
    assert [_run(i).detail for i in range(1, len(CRITERIA) + 1)] == DETAILS


@pytest.mark.parametrize("depth,detail", [
    (1, "1 basics exact; 136 factorizations over 70 sampled maps"),
    (2, "70 basics exact; 136 factorizations over 70 sampled maps"),
])
def test_criterion_6_detail_strings_at_depths_1_and_2(depth, detail):
    from moebius.checks import check_abelian
    assert check_abelian(depth) == (True, detail)


# -- criterion 10: digit tails ----------------------------------------------------

def test_criterion_10_fails_when_b_m_falls(monkeypatch):
    from moebius import checks
    core = checks._digit_point

    def falling(base, m, d):
        am, bm, pt = core(base, m, d)
        return am, -bm, pt

    monkeypatch.setattr(checks, "_digit_point", falling)
    assert checks.check_digits(1) == (False, "b_m not monotone along T(0,0):1")


def test_criterion_10_fails_when_the_tree_vertex_moves(monkeypatch):
    from moebius import checks
    vertex = checks._tree_vertex
    monkeypatch.setattr(checks, "_tree_vertex", lambda v, k, d: vertex(v, k, d + 1))
    assert checks.check_digits(1) == (False, "b_m leaves the digit tree at T(0,0):1")


def test_criterion_10_fails_when_a_read_back_digit_flips(monkeypatch):
    from moebius import checks
    read = checks._digit_index

    def flipped(v, w, bound):
        k, d = read(v, w, bound)
        return (k, d ^ 1) if k else (k, d)

    monkeypatch.setattr(checks, "_digit_index", flipped)
    assert checks.check_digits(1) == (False, "digit round trip fails at T(0,0):1")


def test_criterion_10_fails_when_a_read_back_length_is_wrong(monkeypatch):
    from moebius import checks
    read = checks._digit_index

    def longer(v, w, bound):
        k, d = read(v, w, bound)
        return k + 1, d

    monkeypatch.setattr(checks, "_digit_index", longer)
    assert checks.check_digits(1) == (False, "digit round trip fails at T(0,0):")


@pytest.mark.parametrize("depth,prefixes", [(1, 2047), (3, 26611)])
def test_criterion_10_reads_each_prefix_once(monkeypatch, depth, prefixes):
    # one point, one tree vertex and one read-back per prefix; the digit
    # tuple of `coords_to_digits` is left to the unreachable-vertex probe,
    # whose read-back raises before it reaches the tree
    from collections import Counter
    from moebius import checks, equiv
    calls = Counter()

    def counting(name):
        real = getattr(equiv, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in ("_digit_point", "_tree_vertex", "_digit_index", "coords_to_digits"):
        counted = counting(name)
        monkeypatch.setattr(equiv, name, counted)
        monkeypatch.setattr(checks, name, counted)
    ok, detail = checks.check_digits(depth)
    assert ok and detail.startswith(f"{prefixes} prefixes"), detail
    assert calls == {"_digit_point": prefixes, "_tree_vertex": prefixes,
                     "_digit_index": prefixes + 1, "coords_to_digits": 1}
