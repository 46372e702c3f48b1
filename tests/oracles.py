"""Independent reference implementations used only by the tests.

Everything here is written from scratch against plain commutative linear
algebra over Q (row spaces, annihilators), the published degree-bound
formula, and the structure constants of an algebra (only its ``dim``,
``table`` and ``unit`` are read), without importing the package's own
arithmetic or linear algebra.  Agreement between the two is then evidence,
not tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction


def oracle_bound(g: int) -> int:
    alpha = {2: Fraction(2), 4: Fraction(5), 6: Fraction(7, 6)}.get(g, Fraction(1))
    value = 2 * alpha * Fraction(6) ** (g - 1) * math.factorial(g)
    if value.denominator != 1:
        raise AssertionError(f"non-integer bound for g={g}")
    return int(value)


# oracle_bound(g) for g = 2..7, frozen
FROZEN_BOUNDS = {
    2: 48,
    3: 432,
    4: 51840,
    5: 311040,
    6: 13063680,
    7: 470292480,
}


def rref(rows):
    """Reduced row echelon form over Q; zero rows dropped; canonical."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    out = []
    lead = 0
    r = 0
    while r < len(mat) and lead < ncols:
        piv = next((i for i in range(r, len(mat)) if mat[i][lead] != 0), None)
        if piv is None:
            lead += 1
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][lead]
        mat[r] = [inv * x for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][lead] != 0:
                f = mat[i][lead]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        lead += 1
    for row in mat:
        if any(x != 0 for x in row):
            out.append(tuple(row))
    return tuple(out)


def solve(rows, b):
    """The solution of rows x = b with every free variable 0, or None."""
    ncols = len(rows[0])
    x = [Fraction(0)] * ncols
    for row in rref([list(r) + [c] for r, c in zip(rows, b)]):
        lead = next(j for j in range(ncols + 1) if row[j] != 0)
        if lead == ncols:
            return None
        x[lead] = row[ncols]
    return x


def row_space(rows):
    """Canonical form of the span of the given vectors."""
    return rref(rows)


def space_sum(a, b):
    return rref(list(a) + list(b))


def null_space(rows):
    """Basis of {x : row . x = 0 for every row}."""
    red = rref(rows)
    if not rows:
        return ()
    ncols = len(rows[0])
    pivots = []
    for row in red:
        pivots.append(next(j for j in range(ncols) if row[j] != 0))
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][j]
        basis.append(tuple(v))
    return tuple(basis)


def space_intersect(a, b):
    """U cap W as the annihilator of ann(U) + ann(W)."""
    if not a or not b:
        return ()
    ncols = len(a[0]) if a else len(b[0])
    ann_a = null_space(list(a)) if a else tuple(tuple(Fraction(i == j) for j in range(ncols)) for i in range(ncols))
    ann_b = null_space(list(b))
    joint = list(ann_a) + list(ann_b)
    if not joint:
        # both spaces are everything
        return rref([[Fraction(i == j) for j in range(ncols)] for i in range(ncols)])
    return rref(list(null_space(joint)))


def member(rows, vec) -> bool:
    base = rref(rows)
    return rref(list(base) + [vec]) == base


def q_inverse(rows):
    """Inverse of a square rational matrix, or None."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [inv * x for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# -- structure-constant algebras, from the table alone ---------------------


def mul_coords(algebra, a, b):
    """Product of two Fraction coordinate vectors, straight from algebra.table."""
    d = algebra.dim
    out = [Fraction(0)] * d
    for i in range(d):
        if not a[i]:
            continue
        for j in range(d):
            if not b[j]:
                continue
            c = a[i] * b[j]
            for k, s in enumerate(algebra.table[i][j]):
                out[k] += c * s
    return tuple(out)


def _basis_vector(d, j):
    return tuple(Fraction(int(t == j)) for t in range(d))


def left_regular_matrix(algebra, a):
    """Matrix of x -> a * x on coordinates (column j is a * b_j)."""
    d = algebra.dim
    cols = [mul_coords(algebra, a, _basis_vector(d, j)) for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def matvec(rows, v):
    """The product of a rational matrix and a vector."""
    return tuple(sum((Fraction(x) * y for x, y in zip(row, v)), Fraction(0)) for row in rows)


def table_verdict(algebra):
    """The first failed check of a structure-constant table, or None.

    ``algebra`` needs only ``dim``, ``table`` and ``unit``.  The checks,
    in order: "unit" (a two-sided identity) and "associativity".
    """
    d = algebra.dim
    basis = [_basis_vector(d, j) for j in range(d)]
    unit = tuple(Fraction(c) for c in algebra.unit)
    if any(mul_coords(algebra, unit, e) != e or mul_coords(algebra, e, unit) != e for e in basis):
        return "unit"
    for i in range(d):
        for j in range(d):
            for k in range(d):
                left = mul_coords(algebra, algebra.table[i][j], basis[k])
                if left != mul_coords(algebra, basis[i], algebra.table[j][k]):
                    return "associativity"
    return None


def automorphism_verdict(algebra, matrix):
    """The first failed check of a d x d matrix (column j the image of b_j), or None.

    The checks, in order: "invertible", "unit fixed" and "multiplicative".
    """
    d = algebra.dim
    if q_inverse(matrix) is None:
        return "invertible"
    if matvec(matrix, algebra.unit) != tuple(algebra.unit):
        return "unit fixed"
    cols = [tuple(Fraction(matrix[r][j]) for r in range(d)) for j in range(d)]
    for i in range(d):
        for j in range(d):
            if matvec(matrix, algebra.table[i][j]) != mul_coords(algebra, cols[i], cols[j]):
                return "multiplicative"
    return None
