"""Integer row reduction against the rational eliminations it replaced:
sparse on Fractions (`oracles._rref_on_fractions`) and dense.
`column_space_basis` is the copy in `oracles`, read through `linalg._rref`.
The closed forms that skip row reduction (`row_kernel`,
`solve_on_unit_rows`) against `nullspace` and the oracle `solve`."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from moebius import linalg

from oracles import _rref_on_fractions, column_space_basis, solve


def _dense_rref(a):
    """Row reduction on Fractions over every column of every row: the oracle."""
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
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def _dense(fn, *args):
    """fn evaluated with the dense oracle in place of linalg._rref."""
    sparse = linalg._rref
    linalg._rref = _dense_rref
    try:
        return fn(*args)
    except ValueError as exc:
        return exc.__class__
    finally:
        linalg._rref = sparse


def _sparse(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return exc.__class__


# mostly zeros, else small rationals
entry = st.integers(0, 9).flatmap(
    lambda k: st.just(Fraction(0)) if k < 7
    else st.fractions(min_value=-4, max_value=4, max_denominator=4))


def matrices(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols).map(tuple),
                    min_size=rows, max_size=rows).map(tuple)


shapes = st.tuples(st.integers(1, 8), st.integers(1, 8))


@settings(deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(matrices(*s), matrices(s[0], 3))))
def test_sparse_rref_matches_dense(ab):
    a, b = ab
    cols = len(a[0])
    assert linalg._rref(a) == _dense_rref(a)
    for fn, args in ((linalg.rank, (a,)), (linalg.nullspace, (a,)),
                     (column_space_basis, (a,)), (solve, (a, b))):
        assert _sparse(fn, *args) == _dense(fn, *args)
    null = linalg.nullspace(a)
    assert len(null) == cols - linalg.rank(a)
    for v in null:
        assert all(sum(row[j] * v[j] for j in range(cols)) == 0 for row in a)


@st.composite
def rational_matrices(draw):
    """Empty, wide or tall matrices of rationals with large denominators,
    then zero rows, repeated rows and sums of two rows slipped in."""
    rows, cols = draw(st.one_of(st.tuples(st.integers(0, 4), st.integers(0, 12)),
                                st.tuples(st.integers(0, 12), st.integers(0, 4))))
    value = st.integers(0, 2).flatmap(
        lambda k: st.just(Fraction(0)) if k == 0
        else st.fractions(min_value=-50, max_value=50, max_denominator=60))
    m = draw(st.lists(st.lists(value, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeat", "sum")), max_size=3)):
        if kind == "zero" or not m:
            row = [Fraction(0)] * cols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(m)))
        else:
            r1, r2 = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            row = [x - 3 * y for x, y in zip(r1, r2)]
        m.insert(draw(st.integers(0, len(m))), row)
    return tuple(tuple(row) for row in m)


def _exact(values) -> bool:
    """Every value is an int when it is integral and a Fraction otherwise."""
    return all(type(x) is (int if x.denominator == 1 else Fraction) for x in values)


@settings(deadline=None, max_examples=150)
@given(rational_matrices())
def test_integer_rref_matches_fraction_rref(a):
    m, pivots = linalg._rref(a)
    assert (m, pivots) == _rref_on_fractions(a)
    assert _exact(x for row in m for x in row)


@settings(deadline=None, max_examples=150)
@given(rational_matrices(), st.data())
def test_results_are_ints_exactly_where_integral(a, data):
    rows, cols = len(a), len(a[0]) if a else 0
    vec = data.draw(st.lists(entry, min_size=cols, max_size=cols))
    b, c = data.draw(matrices(rows, 3)), data.draw(matrices(cols, 3))
    results = [*linalg.nullspace(a, cols), linalg.matvec(a, vec), *linalg.matmul(a, c)]
    solution = solve(a, b)
    if solution is not None:
        results.extend(solution)
    assert _exact(x for row in results for x in row)


def _seeded_value(rng):
    """0, a small int, or a Fraction (integral now and then, as 4/2)."""
    k = rng.randrange(4)
    if k == 0:
        return 0
    if k == 1:
        return rng.randint(-5, 5)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _types(m):
    return [[type(x) for x in row] for row in m]


def test_row_kernel_matches_nullspace():
    rng = random.Random(7)
    checked = 0
    while checked < 500:
        row = tuple(_seeded_value(rng) for _ in range(rng.randint(1, 7)))
        if not any(row):
            continue
        want = linalg.from_columns(linalg.nullspace((row,)), len(row))
        got = linalg.row_kernel(row)
        assert got == want and _types(got) == _types(want), row
        checked += 1


def _seeded_basis(rng):
    """A basis with a unit row per column: a nullspace or a row kernel."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 7)
    a = tuple(tuple(_seeded_value(rng) for _ in range(cols)) for _ in range(rows))
    if any(a[0]) and rng.random() < 0.3:
        return linalg.row_kernel(a[0])
    return linalg.from_columns(linalg.nullspace(a), cols)


def test_unit_row_coordinates_match_solve():
    rng = random.Random(8)
    checked = inconsistent = 0
    while checked < 500:
        basis = _seeded_basis(rng)
        k = len(basis[0])
        if not k:
            continue
        x0 = tuple(tuple(_seeded_value(rng) for _ in range(3)) for _ in range(k))
        b = linalg.matmul(basis, x0)
        got, want = linalg.solve_on_unit_rows(basis, b), solve(basis, b)
        assert got == want == x0 and _types(got) == _types(want), (basis, b)
        # one entry moved, mostly off the column space
        off = [list(row) for row in b]
        off[rng.randrange(len(off))][rng.randrange(3)] += Fraction(1, 2)
        got, want = linalg.solve_on_unit_rows(basis, off), solve(basis, off)
        assert got == want and (got is None or _types(got) == _types(want)), (basis, off)
        inconsistent += got is None
        checked += 1
    assert inconsistent > 300
