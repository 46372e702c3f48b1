"""Dense exact linear algebra over Q.

Matrices are lists of rows of ints or Fractions, row major; results are
Fractions.  The one elimination is _eliminate, fraction-free Gauss-Jordan on
integer rows; rank, kernel_basis, solve and inverse read rref, and
AlgebraElement.try_inv calls _eliminate directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Matrix = list  # list[list[int | Fraction]], row major
Vector = list  # list[int | Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[_ZERO] * cols for _ in range(rows)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if not aik:
                continue
            brow = b[k]
            for j in range(cols):
                if brow[j]:
                    orow[j] += aik * brow[j]
    return out


def matvec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[k] * v[k] for k in range(len(v)) if v[k]), _ZERO) for row in a]


def _eliminate(m: list) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    Returns (pivot columns, d).  Afterwards row i < rank holds d times row i
    of the RREF of m, and the rows below are zero.  This is Bareiss's
    elimination (Math. Comp. 22, 1968) carried to the rows above the pivot:
    after the step on pivot k every entry is a minor of order k + 1 of the
    row-permuted input, so each division by the previous pivot is exact, and
    d is that minor on the pivot rows and columns.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot_row = m[r]
        pivot = pivot_row[c]
        for i in range(rows):
            if i != r:
                row = m[i]
                f = row[c]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots, prev


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices).

    Each row is scaled to integers by the lcm of its denominators, which
    leaves the RREF unchanged; the only divisions are the final ones by d.
    """
    m = []
    for row in a:
        den = lcm(*[x.denominator for x in row])
        m.append([x.numerator * (den // x.denominator) for x in row])
    pivots, d = _eliminate(m)
    return [[Fraction(x, d) if x else _ZERO for x in row] for row in m], pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis of {x : a x = 0}, one vector per free column of the RREF."""
    if not a:
        return []
    cols = len(a[0])
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [_ZERO] * cols
        v[free] = _ONE
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][free]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b (free variables set to 0), or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    r, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for i, pc in enumerate(pivots):
        x[pc] = r[i][cols]
    return x


def inverse(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


def is_identity(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == (_ONE if i == j else _ZERO) for i in range(n) for j in range(n))
