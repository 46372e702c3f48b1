"""Structure-constant division algebras over Q and their automorphisms.

An algebra is given by a basis b_0, ..., b_{d-1} and the coordinates of every
product b_i * b_j.  An element is held as integer numerators over one
positive denominator, reduced by their common gcd, and the table as integers
over one table denominator, so all arithmetic is exact and runs on Python
integers.  DivisionAlgebra.mul_coords is the one product of D: element
products, inverses, the construction checks and the automorphism checks all
run on it.  Fractions appear only at the boundary: in parsing, in the
``table`` and ``unit`` an algebra was built from, and in the ``coords`` view.
Associativity and the unit law are checked when the table is built; the
division property is deliberately not certified up front.  Whenever an
inverse is requested and does not exist, the element is reported as a
witness that the table does not describe a division algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm

from . import qlinalg
from .errors import AlgebraDataError, IncompleteLiftTableError, ValidationError
from .rationals import rat_str, to_fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _format_combination(coords, labels) -> str:
    """Human form of a coordinate vector, e.g. '1 - 2*x'."""
    parts = []
    for c, lab in zip(coords, labels):
        if not c:
            continue
        if lab == "1":
            term = rat_str(c)
        elif c == 1:
            term = lab
        elif c == -1:
            term = f"-{lab}"
        else:
            term = f"{rat_str(c)}*{lab}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


class DivisionAlgebra:
    """Finite-dimensional associative Q-algebra expected to be a skew field."""

    __slots__ = ("dim", "basis_labels", "table", "unit", "label", "_products", "_table_den",
                 "_one", "_hash", "_center")

    def __init__(self, basis_labels, table, unit, label: str | None = None):
        labels = tuple(str(s) for s in basis_labels)
        d = len(labels)
        if d == 0:
            raise ValidationError("algebra needs at least one basis element")
        if len(set(labels)) != d:
            raise ValidationError("basis labels must be distinct")
        tbl = tuple(
            tuple(tuple(to_fraction(c) for c in entry) for entry in row) for row in table
        )
        if len(tbl) != d or any(len(row) != d for row in tbl) or any(
            len(entry) != d for row in tbl for entry in row
        ):
            raise ValidationError(f"structure constants must form a {d}x{d} table of length-{d} vectors")
        u = tuple(to_fraction(c) for c in unit)
        if len(u) != d:
            raise ValidationError(f"unit vector must have length {d}")
        self.dim = d
        self.basis_labels = labels
        self.table = tbl
        self.unit = u
        self.label = label or "algebra"
        # the nonzero structure constants as integer numerators over one denominator
        den = lcm(*(c.denominator for row in tbl for entry in row for c in entry))
        self._table_den = den
        self._products = tuple(
            tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in enumerate(entry) if c)
                  for entry in row) for row in tbl
        )
        self._one = AlgebraElement(self, u)
        self._hash = hash((labels, tbl, u))
        self._center = None
        self._check_unit()
        self._check_associativity()

    # -- validation -------------------------------------------------------

    def _check_unit(self):
        one = self._one
        for j, b in enumerate(self.basis_elements()):
            if not one * b == b == b * one:
                raise ValidationError(
                    f"{self.label}: unit vector is not a two-sided identity on basis element "
                    f"{self.basis_labels[j]!r}"
                )

    def _check_associativity(self):
        basis = self.basis_elements()
        prods = [[bi * bj for bj in basis] for bi in basis]
        for i, bi in enumerate(basis):
            for j in range(self.dim):
                for k, bk in enumerate(basis):
                    if prods[i][j] * bk != bi * prods[j][k]:
                        raise ValidationError(
                            f"{self.label}: structure constants are not associative on "
                            f"({self.basis_labels[i]}, {self.basis_labels[j]}, {self.basis_labels[k]})"
                        )

    # -- basic structure --------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, DivisionAlgebra):
            return NotImplemented
        return (
            self.basis_labels == other.basis_labels
            and self.table == other.table
            and self.unit == other.unit
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"DivisionAlgebra({self.label}, dim={self.dim})"

    def mul_coords(self, a, b):
        """The product in D on integer numerators: the only multiplication of D.

        For integer vectors a and b, returns the integer vector c, unreduced,
        with a * b = c / _table_den; AlgebraElement.__mul__ divides by the
        element denominators and reduces.
        """
        out = [0] * self.dim
        products = self._products
        for i, x in enumerate(a):
            if not x:
                continue
            row = products[i]
            for j, y in enumerate(b):
                if not y:
                    continue
                c = x * y
                for k, s in row[j]:
                    out[k] += c * s
        return out

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, tuple(to_fraction(c) for c in coords))

    def zero(self) -> "AlgebraElement":
        return _reduced(self, (0,) * self.dim, 1)

    def one(self) -> "AlgebraElement":
        return self._one

    def basis_element(self, u: int) -> "AlgebraElement":
        return _reduced(self, tuple(1 if t == u else 0 for t in range(self.dim)), 1)

    def basis_elements(self):
        return [self.basis_element(u) for u in range(self.dim)]


def _reduced(algebra: DivisionAlgebra, num, den: int) -> "AlgebraElement":
    """The element num/den of algebra, for integers num and den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    elem = object.__new__(AlgebraElement)
    elem.algebra = algebra
    elem.num = tuple(num)
    elem.den = den
    return elem


class AlgebraElement:
    """An element of a DivisionAlgebra: integer numerators ``num`` over ``den``.

    ``den`` is positive, gcd(den, *num) is 1 and zero is 0/1, so equal
    elements have equal fields.  ``coords`` is the Fraction view.
    """

    __slots__ = ("algebra", "num", "den")

    def __init__(self, algebra: DivisionAlgebra, coords):
        coords = tuple(coords)
        if len(coords) != algebra.dim:
            raise ValidationError(f"coordinate vector has length {len(coords)}, expected {algebra.dim}")
        # over the lcm of reduced denominators the numerators are already coprime to it
        try:
            den = lcm(*[c.denominator for c in coords])
        except AttributeError:
            raise ValidationError("coordinates must be ints or Fractions") from None
        self.algebra = algebra
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @property
    def coords(self) -> tuple:
        """The coordinates as Fractions, computed on each access; zeros share one object."""
        den = self.den
        return tuple(Fraction(x, den) if x else _ZERO for x in self.num)

    def _check_same(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise ValidationError("elements belong to different algebras")

    def _plus(self, other, sign: int) -> "AlgebraElement":
        """self + sign * other, over the lcm of the two denominators."""
        self._check_same(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        return _reduced(self.algebra, [x * fa + y * fb for x, y in zip(self.num, other.num)], da * fa)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _reduced(self.algebra, [-x for x in self.num], self.den)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_same(other)
        alg = self.algebra
        return _reduced(alg, alg.mul_coords(self.num, other.num), self.den * other.den * alg._table_den)

    def scale(self, q) -> "AlgebraElement":
        q = to_fraction(q)
        return _reduced(self.algebra, [q.numerator * x for x in self.num], q.denominator * self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.algebra == other.algebra

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return _format_combination(self.coords, self.algebra.basis_labels)

    def try_inv(self) -> "AlgebraElement | None":
        """Two-sided inverse, or None.  Silent form of :meth:`inv`.

        With a the integer matrix whose column j holds the numerators of
        num * b_j over the table denominator t, self * y = 1 reads
        a y = den * t * unit; qlinalg._eliminate solves it fraction-free, with
        one division (the reduction to lowest terms) at the end.
        """
        if self.is_zero():
            return None
        alg = self.algebra
        d = alg.dim
        one = alg._one
        scale = self.den * alg._table_den
        a = [[0] * d + [scale * u] for u in one.num]
        for i, x in enumerate(self.num):
            if not x:
                continue
            for j, entry in enumerate(alg._products[i]):
                for k, s in entry:
                    a[k][j] += x * s
        pivots, det = qlinalg._eliminate(a)
        if pivots != list(range(d)):
            return None
        w = [row[d] for row in a]
        if det < 0:
            w, det = [-x for x in w], -det
        cand = _reduced(alg, w, det * one.den)
        if cand * self != one or self * cand != one:
            return None
        return cand

    def inv(self) -> "AlgebraElement":
        """Two-sided inverse.

        A nonzero element without an inverse is a witness that the table is
        not a division algebra, which is a data error, not a math error.
        """
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in {self.algebra.label}")
        out = self.try_inv()
        if out is None:
            raise AlgebraDataError(
                f"{self.algebra.label} is not a division algebra: element ({self!r}) has no inverse"
            )
        return out


# -- constructors ----------------------------------------------------------


def _poly_str(coeffs) -> str:
    m = len(coeffs) - 1
    parts = []
    for p in range(m, -1, -1):
        c = coeffs[p]
        if not c:
            continue
        if p == 0:
            parts.append(rat_str(c))
        else:
            var = "x" if p == 1 else f"x^{p}"
            if c == 1:
                parts.append(var)
            elif c == -1:
                parts.append(f"-{var}")
            else:
                parts.append(f"{rat_str(c)}*{var}")
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# The root search trial-divides up to sqrt|c_0|, so coefficients are capped:
# 10^12 costs about 0.1 s, and the cost grows like the square root.
MAX_FIELD_COEFFICIENT = 10**12


def _has_integer_root(coeffs) -> int | None:
    """An integer root of a monic integer polynomial, or None.

    Monic means any rational root is an integer dividing the constant term,
    so trying those divisors is a complete linear-factor test.
    """
    c0 = coeffs[0]
    if c0 == 0:
        return 0
    candidates = set()
    for div in range(1, math.isqrt(abs(c0)) + 1):
        if c0 % div == 0:
            candidates.update({div, -div, abs(c0) // div, -(abs(c0) // div)})
    for cand in sorted(candidates):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * cand + c
        if acc == 0:
            return cand
    return None


def field_algebra(coeffs) -> DivisionAlgebra:
    """Number field Q[x]/(p) for a monic integer polynomial p, basis 1, x, ...

    Only linear factors are searched for (complete for degree <= 3).  Full
    irreducibility in higher degree is the caller's responsibility; a missed
    factor surfaces later as an AlgebraDataError naming a non-invertible
    element.
    """
    cs = []
    for i, c in enumerate(coeffs):
        if isinstance(c, bool) or not isinstance(c, int):
            raise ValidationError(f"field polynomial coefficients must be integers, got {c!r} at index {i}")
        if abs(c) > MAX_FIELD_COEFFICIENT:
            raise ValidationError(f"field polynomial coefficient at index {i} exceeds the supported "
                                  "maximum absolute value 10^12")
        cs.append(c)
    m = len(cs) - 1
    if m < 1:
        raise ValidationError("field polynomial must have degree at least 1")
    if cs[-1] != 1:
        raise ValidationError("field polynomial must be monic (ascending coefficients ending in 1)")
    if m >= 2:
        root = _has_integer_root(cs)
        if root is not None:
            raise ValidationError(
                f"field polynomial {_poly_str(cs)} is reducible: x = {root} is a root"
            )
    # coordinates of x^t for t = 0 .. 2m-2, reducing with x^m = -(c_0 + ... + c_{m-1} x^{m-1})
    powers = [tuple(_ONE if t == p else _ZERO for t in range(m)) for p in range(m)]
    for _ in range(m - 1):
        prev = powers[-1]
        top = prev[m - 1]
        nxt = [_ZERO] * m
        for i in range(1, m):
            nxt[i] = prev[i - 1] - top * cs[i]
        nxt[0] = -top * cs[0]
        powers.append(tuple(nxt))
    table = [[powers[i + j] for j in range(m)] for i in range(m)]
    labels = ["1"] + ["x" if p == 1 else f"x^{p}" for p in range(1, m)]
    label = "Q" if m == 1 else f"Q[x]/({_poly_str(cs)})"
    return DivisionAlgebra(labels, table, [_ONE] + [_ZERO] * (m - 1), label=label)


def rational_algebra() -> DivisionAlgebra:
    """Q itself, as the degree-1 field Q[x]/(x)."""
    return field_algebra([0, 1])


def quaternion_algebra(a, b) -> DivisionAlgebra:
    """Quaternion algebra on 1, i, j, k with i*i = a, j*j = b, i*j = k = -j*i."""
    a = to_fraction(a)
    b = to_fraction(b)
    if a == 0 or b == 0:
        raise ValidationError("quaternion parameters must be nonzero")
    z = _ZERO
    e = [tuple(_ONE if t == p else z for t in range(4)) for p in range(4)]
    table = [
        [e[0], e[1], e[2], e[3]],
        [e[1], (a, z, z, z), e[3], (z, z, a, z)],
        [e[2], (z, z, z, -_ONE), (b, z, z, z), (z, -b, z, z)],
        [e[3], (z, z, -a, z), (z, b, z, z), (-a * b, z, z, z)],
    ]
    return DivisionAlgebra(["1", "i", "j", "k"], table, e[0],
                           label=f"quaternion({rat_str(a)},{rat_str(b)})")


def algebra_from_table(basis_labels, constants, unit, label=None) -> DivisionAlgebra:
    return DivisionAlgebra(basis_labels, constants, unit, label=label)


def build_algebra(desc: dict, path: str = "algebra") -> DivisionAlgebra:
    """Dispatch on a JSON-style description.

    Accepted forms: {"field": [c0, ..., 1]} for a monic integer polynomial
    (ascending coefficients), {"quaternion": [a, b]}, or
    {"table": {"basis": [...], "constants": [[[...]]], "unit": [...]}}.
    """
    if not isinstance(desc, dict):
        raise ValidationError("algebra description must be an object", path)
    keys = set(desc) & {"field", "quaternion", "table"}
    if len(keys) != 1:
        raise ValidationError(
            "algebra description needs exactly one of 'field', 'quaternion', 'table'", path
        )
    try:
        if "field" in keys:
            coeffs = desc["field"]
            if not isinstance(coeffs, list):
                raise ValidationError("'field' must be a list of integer coefficients", path)
            return field_algebra(coeffs)
        if "quaternion" in keys:
            ab = desc["quaternion"]
            if not isinstance(ab, list) or len(ab) != 2:
                raise ValidationError("'quaternion' must be a pair [a, b]", path)
            return quaternion_algebra(to_fraction(ab[0], path), to_fraction(ab[1], path))
        raw = desc["table"]
        if not isinstance(raw, dict) or not {"basis", "constants", "unit"} <= set(raw):
            raise ValidationError("'table' needs 'basis', 'constants' and 'unit'", path)
        return algebra_from_table(raw["basis"], raw["constants"], raw["unit"], label="table algebra")
    except ValidationError as exc:
        if exc.path:
            raise
        raise ValidationError(str(exc), path) from None


# -- center ----------------------------------------------------------------


class CenterDescription:
    """The center of a DivisionAlgebra: a Q-basis with the unit first."""

    def __init__(self, algebra: DivisionAlgebra, basis_coords):
        self.algebra = algebra
        self.basis = tuple(AlgebraElement(algebra, c) for c in basis_coords)
        self.dim = len(self.basis)
        if self.dim == 0 or self.basis[0].coords != algebra.unit:
            raise ValidationError("center basis must start with the unit")


def center(algebra: DivisionAlgebra) -> CenterDescription:
    """Solve the commutation equations x*b_i = b_i*x for all basis b_i."""
    if algebra._center is not None:
        return algebra._center
    d = algebra.dim
    rows = []
    for i in range(d):
        # column j of this block: coords of b_j*b_i - b_i*b_j
        cols = [tuple(x - y for x, y in zip(algebra.table[j][i], algebra.table[i][j])) for j in range(d)]
        for r in range(d):
            rows.append([cols[j][r] for j in range(d)])
    kernel = qlinalg.kernel_basis(rows)
    # the pivot columns of [unit | kernel] pick, in order, each vector outside
    # the span of those before it, so the unit is the first center basis vector
    vecs = [algebra.unit] + kernel
    _, pivots = qlinalg.rref([[v[r] for v in vecs] for r in range(d)])
    chosen = [tuple(vecs[j]) for j in pivots]
    if len(chosen) != len(kernel):
        raise ValidationError("unit is not central; table is not an algebra with identity")
    cen = CenterDescription(algebra, chosen)
    algebra._center = cen
    return cen


# -- automorphisms ---------------------------------------------------------


class AlgebraAutomorphism:
    """A Q-linear ring automorphism of a DivisionAlgebra.

    Stored as a d x d rational matrix whose column j holds the coordinates
    of the image of basis element b_j.  The nonzero entries of each row, as
    integers over one denominator, and whether the matrix is the identity
    are read off once, at construction; the identity then maps every element
    to itself.
    """

    __slots__ = ("algebra", "matrix", "name", "_rows", "_den", "_identity")

    def __init__(self, algebra: DivisionAlgebra, matrix, name: str | None = None):
        self.algebra = algebra
        self.matrix = tuple(tuple(to_fraction(c) for c in row) for row in matrix)
        d = algebra.dim
        if len(self.matrix) != d or any(len(r) != d for r in self.matrix):
            raise ValidationError(f"automorphism matrix must be {d}x{d}")
        self.name = name
        den = self._den = lcm(*(c.denominator for row in self.matrix for c in row))
        self._rows = tuple(tuple((k, c.numerator * (den // c.denominator)) for k, c in enumerate(row) if c)
                           for row in self.matrix)
        self._identity = den == 1 and all(row == ((i, 1),) for i, row in enumerate(self._rows))

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        if self._identity:
            return elem
        num = elem.num
        return _reduced(self.algebra, [sum([c * num[k] for k, c in row]) for row in self._rows],
                        elem.den * self._den)

    def is_identity(self) -> bool:
        return self._identity

    def compose(self, other: "AlgebraAutomorphism") -> "AlgebraAutomorphism":
        """self after other (apply ``other`` first)."""
        prod = qlinalg.matmul([list(r) for r in self.matrix], [list(r) for r in other.matrix])
        return AlgebraAutomorphism(self.algebra, prod)

    def inverse(self) -> "AlgebraAutomorphism":
        inv = qlinalg.inverse([list(r) for r in self.matrix])
        if inv is None:
            raise ValidationError("automorphism matrix is singular")
        return AlgebraAutomorphism(self.algebra, inv)

    def __eq__(self, other):
        if not isinstance(other, AlgebraAutomorphism):
            return NotImplemented
        return self.algebra == other.algebra and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AlgebraAutomorphism({self.name or 'unnamed'} on {self.algebra.label})"


def identity_automorphism(algebra: DivisionAlgebra) -> AlgebraAutomorphism:
    return AlgebraAutomorphism(algebra, qlinalg.identity(algebra.dim), name="id")


def validate_automorphism(algebra: DivisionAlgebra, matrix, name: str | None = None) -> AlgebraAutomorphism:
    """Check a rational matrix is multiplicative, unital and invertible."""
    theta = AlgebraAutomorphism(algebra, matrix, name=name)
    mat = [list(r) for r in theta.matrix]
    if qlinalg.inverse(mat) is None:
        raise ValidationError(f"automorphism {name or ''} of {algebra.label} is not invertible".replace("  ", " "))
    one = algebra.one()
    if theta.apply(one) != one:
        raise ValidationError(f"automorphism {name or ''} of {algebra.label} does not fix the unit".replace("  ", " "))
    basis = algebra.basis_elements()
    images = [theta.apply(b) for b in basis]
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            if theta.apply(bi * bj) != images[i] * images[j]:
                raise ValidationError(
                    f"matrix is not multiplicative on ({algebra.basis_labels[i]}, "
                    f"{algebra.basis_labels[j]}) over {algebra.label}"
                )
    return theta


def center_values(theta: AlgebraAutomorphism):
    """Coordinates of theta(z) for z in the center basis of D.

    Two automorphisms of D act alike on the center exactly when these agree.
    """
    return tuple(theta.apply(z).coords for z in center(theta.algebra).basis)


class LiftTable:
    """Chosen automorphisms of D, one per represented center automorphism.

    The identity is always present (inserted if missing) and entries must
    restrict to pairwise distinct automorphisms of the center.  ``values``
    holds each entry's center_values, so matching a center action to its
    lift is a lookup of that tuple.  ``composites`` is filled by
    autos.compose_autos with the table entry and unit that each pair of
    entries composes to, so each is worked out and checked once per table.
    """

    def __init__(self, algebra: DivisionAlgebra, entries, values):
        self.algebra = algebra
        self.entries = tuple(entries)
        self.values = tuple(values)
        self.by_name = {e.name: e for e in self.entries}
        self.composites = {}

    @classmethod
    def build(cls, algebra: DivisionAlgebra, raw_entries=()) -> "LiftTable":
        validated = []
        for idx, entry in enumerate(raw_entries):
            if isinstance(entry, AlgebraAutomorphism):
                theta = validate_automorphism(algebra, entry.matrix, name=entry.name)
            else:
                theta = validate_automorphism(algebra, entry)
            validated.append(theta)
        ident = identity_automorphism(algebra)
        ordered = []
        for theta in validated:
            if theta.matrix == ident.matrix:
                if theta.name not in (None, "id"):
                    ident = AlgebraAutomorphism(algebra, theta.matrix, name=theta.name)
            else:
                if theta.name == "id":
                    raise ValidationError("the name 'id' is reserved for the identity lift")
                ordered.append(theta)
        counter = 0
        named = []
        for theta in ordered:
            name = theta.name
            if name is None:
                name = f"lift{counter}"
                counter += 1
            named.append(AlgebraAutomorphism(algebra, theta.matrix, name=name))
        entries = [ident] + named
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate lift names: {sorted(names)}")
        values = []
        for e in entries:
            vals = center_values(e)
            if vals in values:
                other = entries[values.index(vals)]
                raise ValidationError(
                    f"lifts {other.name!r} and {e.name!r} restrict to the same center automorphism"
                )
            values.append(vals)
        return cls(algebra, entries, values)

    @property
    def identity(self) -> AlgebraAutomorphism:
        return self.entries[0]

    def get(self, name: str) -> AlgebraAutomorphism:
        if name not in self.by_name:
            raise ValidationError(f"unknown lift name {name!r}; known: {sorted(self.by_name)}")
        return self.by_name[name]

    def match_matrix(self, matrix) -> AlgebraAutomorphism | None:
        mat = tuple(tuple(to_fraction(c) for c in row) for row in matrix)
        for e in self.entries:
            if e.matrix == mat:
                return e
        return None

    def for_center_values(self, vals) -> AlgebraAutomorphism:
        """The entry whose center_values are ``vals``."""
        for e, v in zip(self.entries, self.values):
            if v == vals:
                return e
        raise IncompleteLiftTableError(
            f"no lift in the table restricts to the required center automorphism of {self.algebra.label}"
        )

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, LiftTable):
            return NotImplemented
        return self.algebra == other.algebra and [
            (e.name, e.matrix) for e in self.entries
        ] == [(e.name, e.matrix) for e in other.entries]
