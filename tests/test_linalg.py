"""Sparse row reduction against the dense elimination it replaced."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from moebius import linalg


def _dense_rref(a):
    """Row reduction over every column of every row: the oracle."""
    m = [list(row) for row in a]
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
                     (linalg.column_space_basis, (a,)), (linalg.solve, (a, b))):
        assert _sparse(fn, *args) == _dense(fn, *args)
    null = linalg.nullspace(a)
    assert len(null) == cols - linalg.rank(a)
    for v in null:
        assert all(sum(row[j] * v[j] for j in range(cols)) == 0 for row in a)


@settings(deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: matrices(n, n)))
def test_sparse_invert_matches_dense(a):
    n = len(a)
    shifted = tuple(tuple(v + (i == j) for j, v in enumerate(row)) for i, row in enumerate(a))
    for m in (a, shifted):
        got = _sparse(linalg.invert, m)
        assert got == _dense(linalg.invert, m)
        if got is not ValueError:
            assert linalg.matmul(m, got) == linalg.identity(n)
