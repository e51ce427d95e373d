"""Small exact linear algebra over the rationals (tuples of Fractions)."""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def zeros(r: int, c: int) -> Matrix:
    return tuple((Fraction(0),) * c for _ in range(r))


def identity(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols))
        for i in range(len(a)))


def matvec(a: Matrix, vec) -> tuple[Fraction, ...]:
    return tuple(sum((a[i][j] * vec[j] for j in range(len(vec))), Fraction(0)) for i in range(len(a)))


def _rref(a: Matrix) -> tuple[list[list[Fraction]], list[int]]:
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
        prow = m[r]
        # columns left of c are zero in the pivot row, so scaling and
        # elimination only touch its nonzero columns from c on
        nz = [k for k in range(c, cols) if prow[k] != 0]
        inv = 1 / prow[c]
        for k in nz:
            prow[k] *= inv
        for i in range(rows):
            row = m[i]
            f = row[c]
            if i != r and f != 0:
                for k in nz:
                    row[k] -= f * prow[k]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(_rref(a)[1])


def nullspace(a: Matrix, ncols: int | None = None) -> list[tuple[Fraction, ...]]:
    """Basis of {v : a v = 0}, as column vectors (tuples)."""
    cols = ncols if ncols is not None else (len(a[0]) if a else 0)
    if not a or not a[0]:
        return [tuple(Fraction(int(i == j)) for i in range(cols)) for j in range(cols)]
    m, pivots = _rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """X with a X = b, or None if inconsistent (any solution)."""
    rows = len(a)
    acols = len(a[0]) if a else 0
    bcols = len(b[0]) if b else 0
    if acols == 0:
        if any(v != 0 for row in b for v in row):
            return None
        return zeros(0, bcols)
    aug = tuple(tuple(a[i]) + tuple(b[i]) for i in range(rows))
    m, pivots = _rref(aug)
    pivots_a = [c for c in pivots if c < acols]
    for r, pc in enumerate(pivots):
        if pc >= acols:
            return None
    x = [[Fraction(0)] * bcols for _ in range(acols)]
    for r, pc in enumerate(pivots_a):
        for j in range(bcols):
            x[pc][j] = m[r][acols + j]
    return tuple(tuple(row) for row in x)


def column_space_basis(a: Matrix) -> list[int]:
    """Indices of a set of columns forming a basis of the column space."""
    if not a or not a[0]:
        return []
    return _rref(a)[1]


def invert(a: Matrix) -> Matrix:
    n = len(a)
    x = solve(a, identity(n))
    if x is None:
        raise ValueError("matrix not invertible")
    return x


def from_columns(cols, nrows: int) -> Matrix:
    return tuple(tuple(col[i] for col in cols) for i in range(nrows))
