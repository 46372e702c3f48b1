"""Matrices over a division algebra and canonical right subspaces of D^n.

Vectors are columns of D^n.  Matrices act on the left, scalars act on the
right, so a subspace is the set of right combinations of its basis columns.
Column operations are right multiplications by invertible matrices and are
therefore the only elementary operations that preserve a right span; in
particular a pivot is normalized by multiplying its column on the right by
the pivot's inverse.  Over a noncommutative algebra multiplying on the left
would change the span, which is the one place this module must differ from
the commutative routine.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgebraAutomorphism, AlgebraElement, DivisionAlgebra
from .errors import SearchExhausted, SingularMatrixError, ValidationError

_ZERO = Fraction(0)
_UNKNOWN = object()  # try_inverse has not run on this matrix yet


def subseed(*parts: int) -> int:
    """Mix integers into one RNG seed, stable across runs and platforms."""
    # nonzero start so that leading zeros and omitted parts mix differently
    h = 0x106A9
    for p in parts:
        h = (h * 1000003 + p) % (2**63)
    return h


class MatrixOverD:
    """Immutable rows-of-entries matrix with AlgebraElement entries.

    Two things are worked out at most once per matrix and kept on it: the
    nonzero coordinates of every entry, on the first product that reads
    them, and the result of try_inverse.  Neither takes part in equality or
    hashing.
    """

    __slots__ = ("algebra", "rows", "cols", "entries", "_nonzero", "_inverse")

    def __init__(self, algebra: DivisionAlgebra, entries):
        self._fill(algebra, entries)
        for row in self.entries:
            if len(row) != self.cols:
                raise ValidationError("ragged matrix")
            for e in row:
                if not isinstance(e, AlgebraElement) or e.algebra != algebra:
                    raise ValidationError("matrix entries must be elements of the same algebra")

    def _fill(self, algebra, entries):
        self.algebra, self._nonzero, self._inverse = algebra, None, _UNKNOWN
        self.entries = tuple(tuple(row) for row in entries)
        self.rows, self.cols = len(self.entries), len(self.entries[0]) if self.entries else 0

    @classmethod
    def _trusted(cls, algebra: DivisionAlgebra, entries) -> "MatrixOverD":
        """The matrix of rectangular rows of elements of algebra, built without checks."""
        m = cls.__new__(cls)
        m._fill(algebra, entries)
        return m

    @classmethod
    def from_rows(cls, algebra, rows) -> "MatrixOverD":
        ents = [[algebra.element(c) if not isinstance(c, AlgebraElement) else c for c in row] for row in rows]
        return cls(algebra, ents)

    @classmethod
    def from_columns(cls, algebra, columns, rows: int) -> "MatrixOverD":
        ents = [[col[r] for col in columns] for r in range(rows)]
        return cls(algebra, ents)

    @classmethod
    def identity(cls, algebra, n: int) -> "MatrixOverD":
        one, zero = algebra.one(), algebra.zero()
        return cls(algebra, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, algebra, rows: int, cols: int) -> "MatrixOverD":
        zero = algebra.zero()
        return cls(algebra, [[zero] * cols for _ in range(rows)])

    @classmethod
    def scalar(cls, algebra, n: int, elem: AlgebraElement) -> "MatrixOverD":
        zero = algebra.zero()
        return cls(algebra, [[elem if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def unit_entry(cls, algebra, rows: int, cols: int, s: int, t: int, elem: AlgebraElement) -> "MatrixOverD":
        """Matrix with ``elem`` at position (s, t) and zeros elsewhere."""
        zero = algebra.zero()
        ents = [[zero] * cols for _ in range(rows)]
        ents[s][t] = elem
        return cls(algebra, ents)

    def column(self, j: int):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __mul__(self, other):
        if not isinstance(other, MatrixOverD):
            return NotImplemented
        if self.algebra != other.algebra or self.cols != other.rows:
            raise ValidationError("matrix shapes do not match")
        # Products of nonzero coordinates go through the structure constants
        # straight into one coordinate list per output entry.
        alg = self.algebra
        d = alg.dim
        table = alg._sparse
        right = other._nonzero_entries()
        out = []
        for left in self._nonzero_entries():
            out_row = []
            for j in range(other.cols):
                acc = [_ZERO] * d
                for a, right_row in zip(left, right):
                    b = right_row[j]
                    if not a or not b:
                        continue
                    for u, x in a:
                        products = table[u]
                        for v, y in b:
                            c = x * y
                            for w, s in products[v]:
                                acc[w] += c * s
                out_row.append(AlgebraElement(alg, acc))
            out.append(out_row)
        return MatrixOverD._trusted(alg, out)

    def _nonzero_entries(self):
        """Per entry, the (index, coordinate) pairs with nonzero coordinate."""
        if self._nonzero is None:
            self._nonzero = tuple(tuple(tuple((u, c) for u, c in enumerate(e.coords) if c) for e in row)
                                  for row in self.entries)
        return self._nonzero

    def __add__(self, other):
        if not isinstance(other, MatrixOverD):
            return NotImplemented
        if self.algebra != other.algebra or (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix shapes do not match")
        return MatrixOverD._trusted(self.algebra, [[a + b for a, b in zip(r1, r2)]
                                                   for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, MatrixOverD):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return MatrixOverD._trusted(self.algebra, [[-e for e in row] for row in self.entries])

    def map_entries(self, fn) -> "MatrixOverD":
        """Entrywise image; fn must send elements of this algebra into it."""
        return MatrixOverD._trusted(self.algebra, [[fn(e) for e in row] for row in self.entries])

    def hstack(self, other: "MatrixOverD") -> "MatrixOverD":
        if self.rows != other.rows or self.algebra != other.algebra:
            raise ValidationError("cannot stack matrices with different row counts")
        return MatrixOverD(self.algebra, [r1 + r2 for r1, r2 in zip(self.entries, other.entries)])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = self.algebra.one(), self.algebra.zero()
        return all(self.entries[i][j] == (one if i == j else zero)
                   for i in range(self.rows) for j in range(self.cols))

    def coords(self):
        """Row-major flat tuple of entry coordinates."""
        return tuple(c for row in self.entries for e in row for c in e.coords)

    def __eq__(self, other):
        if not isinstance(other, MatrixOverD):
            return NotImplemented
        return (self.algebra == other.algebra and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.coords()))

    def __repr__(self):
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.entries)
        return f"[{body}]"


class RightSubspace:
    """A right D-subspace of D^n in canonical column echelon form.

    Canonical means: pivot rows strictly increase down the columns, every
    pivot entry is the unit, and a pivot row is zero in all other columns.
    Two subspaces are equal exactly when their canonical matrices are equal,
    which makes equality, hashing and serialization trivial.
    """

    __slots__ = ("algebra", "ambient_dim", "dim", "basis", "pivot_rows")

    def __init__(self, algebra, ambient_dim: int, basis: MatrixOverD, pivot_rows):
        self.algebra = algebra
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.dim = basis.cols
        self.pivot_rows = tuple(pivot_rows)

    @classmethod
    def zero(cls, algebra, n: int) -> "RightSubspace":
        return cls(algebra, n, MatrixOverD.zeros(algebra, n, 0), ())

    @classmethod
    def full(cls, algebra, n: int) -> "RightSubspace":
        return cls(algebra, n, MatrixOverD.identity(algebra, n), tuple(range(n)))

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def contains_vector(self, vector) -> bool:
        """Membership by reduction against the canonical basis."""
        v = list(vector)
        if len(v) != self.ambient_dim:
            raise ValidationError("vector has wrong length")
        for t, p in enumerate(self.pivot_rows):
            c = v[p]
            if c.is_zero():
                continue
            col = self.basis.column(t)
            v = [v[r] - col[r] * c for r in range(self.ambient_dim)]
        return all(e.is_zero() for e in v)

    def contains(self, other: "RightSubspace") -> bool:
        return all(self.contains_vector(other.basis.column(j)) for j in range(other.dim))

    def __eq__(self, other):
        if not isinstance(other, RightSubspace):
            return NotImplemented
        return (self.algebra == other.algebra and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis.coords()))

    def __repr__(self):
        return f"RightSubspace(dim {self.dim} of D^{self.ambient_dim})"


def column_echelon(matrix: MatrixOverD) -> RightSubspace:
    """Canonical column echelon form of the right span of the columns.

    Scans rows top down; in each row the leftmost unused column with a
    nonzero entry becomes the pivot, gets normalized on the right, and the
    row is cleared from every other column.  Unused columns end up zero and
    are dropped.
    """
    n = matrix.rows
    cols = [list(matrix.column(j)) for j in range(matrix.cols)]
    used = [False] * len(cols)
    pivot_cols: list[int] = []
    pivot_rows: list[int] = []
    for row in range(n):
        pj = next((j for j in range(len(cols)) if not used[j] and not cols[j][row].is_zero()), None)
        if pj is None:
            continue
        pivot = cols[pj][row]
        if pivot != matrix.algebra.one():
            pinv = pivot.inv()
            cols[pj] = [e * pinv for e in cols[pj]]
        for j in range(len(cols)):
            if j == pj:
                continue
            c = cols[j][row]
            if not c.is_zero():
                cols[j] = [cols[j][r] - cols[pj][r] * c for r in range(n)]
        used[pj] = True
        pivot_cols.append(pj)
        pivot_rows.append(row)
    basis = MatrixOverD.from_columns(matrix.algebra, [cols[j] for j in pivot_cols], n)
    return RightSubspace(matrix.algebra, n, basis, pivot_rows)


def subspace_sum(u: RightSubspace, w: RightSubspace) -> RightSubspace:
    if u.algebra != w.algebra or u.ambient_dim != w.ambient_dim:
        raise ValidationError("subspaces live in different ambient spaces")
    return column_echelon(u.basis.hstack(w.basis))


def _row_reduce(rows) -> list[int]:
    """Reduced row echelon form over D, in place; returns the pivot columns.

    Gauss-Jordan on rows: each pivot row is normalized by multiplying it on
    the left by the pivot's inverse, and every other row is cleared in the
    pivot column.  Left multiplications keep the right kernel of the rows.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [inv * e for e in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [rows[i][k] - f * rows[r][k] for k in range(ncols)]
        pivots.append(c)
        r += 1
    return pivots


def right_kernel(matrix: MatrixOverD):
    """Basis columns of {v in D^cols : matrix * v = 0}.

    Row operations are left multiplications, which preserve this kernel, so
    here scalars multiply rows on the left (the mirror image of the column
    echelon convention).
    """
    alg = matrix.algebra
    rows = [list(r) for r in matrix.entries]
    ncols = matrix.cols
    pivot_cols = _row_reduce(rows)
    zero, one = alg.zero(), alg.one()
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [zero] * ncols
        v[free] = one
        for i, pc in enumerate(pivot_cols):
            v[pc] = -rows[i][free]
        basis.append(tuple(v))
    return basis


def subspace_intersect(u: RightSubspace, w: RightSubspace) -> RightSubspace:
    """Intersection via the kernel of [basis(u) | basis(w)].

    A kernel vector (x; y) means basis(u) x = -basis(w) y, i.e. a vector in
    both spans; the x-parts pushed through basis(u) span the intersection.
    """
    if u.algebra != w.algebra or u.ambient_dim != w.ambient_dim:
        raise ValidationError("subspaces live in different ambient spaces")
    if u.is_zero() or w.is_zero():
        return RightSubspace.zero(u.algebra, u.ambient_dim)
    stacked = u.basis.hstack(w.basis)
    kernel = right_kernel(stacked)
    k1 = u.dim
    vectors = []
    for v in kernel:
        x = list(v[:k1])
        col = []
        for r in range(u.ambient_dim):
            acc = u.algebra.zero()
            for t in range(k1):
                if not x[t].is_zero():
                    acc = acc + u.basis.entries[r][t] * x[t]
            col.append(acc)
        vectors.append(col)
    if not vectors:
        return RightSubspace.zero(u.algebra, u.ambient_dim)
    return column_echelon(MatrixOverD.from_columns(u.algebra, vectors, u.ambient_dim))


def try_inverse(matrix: MatrixOverD) -> MatrixOverD | None:
    """Inverse by row reduction of [M | I], or None if singular.

    The result, checked on both sides, is kept on the matrix: asking again
    for the inverse of the same matrix object costs nothing.
    """
    if matrix._inverse is _UNKNOWN:
        matrix._inverse = _row_reduce_inverse(matrix)
    return matrix._inverse


def _row_reduce_inverse(matrix: MatrixOverD) -> MatrixOverD | None:
    if matrix.rows != matrix.cols:
        raise ValidationError("only square matrices can be inverted")
    alg = matrix.algebra
    n = matrix.rows
    ident = MatrixOverD.identity(alg, n)
    aug = [list(matrix.entries[i]) + list(ident.entries[i]) for i in range(n)]
    if _row_reduce(aug) != list(range(n)):
        return None
    out = MatrixOverD(alg, [row[n:] for row in aug])
    if not (out * matrix).is_identity() or not (matrix * out).is_identity():
        return None
    return out


def matrix_inv(matrix: MatrixOverD) -> MatrixOverD:
    out = try_inverse(matrix)
    if out is None:
        raise SingularMatrixError(f"matrix is singular over {matrix.algebra.label}")
    return out


def apply_matrix(p: MatrixOverD, v: RightSubspace) -> RightSubspace:
    """Image P*V of a subspace under an invertible matrix, re-canonicalized."""
    if p.algebra != v.algebra or p.cols != v.ambient_dim:
        raise ValidationError("matrix does not act on this ambient space")
    return column_echelon(p * v.basis)


def apply_sigma(sigma: AlgebraAutomorphism, target):
    """Entrywise application of an algebra automorphism.

    Accepts a MatrixOverD or a RightSubspace; subspace images are
    re-canonicalized (entrywise sigma preserves canonical form, but the
    caller should not have to rely on that).  The identity returns the
    target itself.
    """
    if not isinstance(target, (MatrixOverD, RightSubspace)):
        raise ValidationError(f"cannot apply an automorphism to {type(target).__name__}")
    if sigma.algebra != target.algebra:
        raise ValidationError("the automorphism acts on a different algebra")
    if sigma.is_identity():  # both kinds are immutable; a subspace is canonical
        return target
    if isinstance(target, MatrixOverD):
        return target.map_entries(sigma.apply)
    return column_echelon(target.basis.map_entries(sigma.apply))


# -- seeded random sampling --------------------------------------------------


def random_element(algebra: DivisionAlgebra, rng: random.Random, height: int) -> AlgebraElement:
    coords = []
    for _ in range(algebra.dim):
        num = rng.randint(-height, height)
        den = rng.randint(-height, height - 1)
        if den >= 0:
            den += 1
        coords.append(Fraction(num, den))
    return algebra.element(coords)


def random_matrix(algebra: DivisionAlgebra, rows: int, cols: int, rng: random.Random,
                  height: int) -> MatrixOverD:
    return MatrixOverD(algebra, [[random_element(algebra, rng, height) for _ in range(cols)]
                                 for _ in range(rows)])


def random_subspace(algebra: DivisionAlgebra, n: int, k: int, seed: int,
                    height: int = 10) -> RightSubspace:
    """Seeded random k-dimensional right subspace of D^n.

    Numerators and denominators of every coordinate are uniform in
    [-height, height] (denominators skip zero).  Draws are retried until the
    span has dimension k, up to 1000 times.
    """
    if not 0 <= k <= n:
        raise ValidationError(f"subspace dimension {k} out of range for ambient dimension {n}")
    if k == 0:
        return RightSubspace.zero(algebra, n)
    rng = random.Random(seed)
    for _ in range(1000):
        cand = column_echelon(random_matrix(algebra, n, k, rng, height))
        if cand.dim == k:
            return cand
    raise SearchExhausted(f"could not sample a rank-{k} matrix in 1000 draws")


def random_invertible(algebra: DivisionAlgebra, n: int, seed: int,
                      height: int = 10) -> MatrixOverD:
    """Seeded random invertible n x n matrix over D."""
    rng = random.Random(seed)
    for _ in range(1000):
        cand = random_matrix(algebra, n, n, rng, height)
        if try_inverse(cand) is not None:
            return cand
    raise SearchExhausted("could not sample an invertible matrix in 1000 draws")
