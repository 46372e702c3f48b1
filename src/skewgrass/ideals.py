"""Right ideals of M_n(D) and their subspace avatars.

A right ideal of M_n(D) is exactly the set of matrices whose columns lie in
a fixed right subspace V of D^n, so ideals are stored and compared through
their canonical subspaces.  For products of matrix algebras an ideal is one
subspace per factor.
"""

from __future__ import annotations

from .errors import ValidationError
from .linalg import MatrixOverD, RightSubspace, column_echelon, matrix_inv


class ProductIdeal:
    """A right ideal of a product of matrix algebras, one column space per factor."""

    __slots__ = ("subspaces",)

    def __init__(self, subspaces):
        self.subspaces = tuple(subspaces)

    @classmethod
    def from_subspaces(cls, subspaces) -> "ProductIdeal":
        return cls(subspaces)

    def __eq__(self, other):
        if not isinstance(other, ProductIdeal):
            return NotImplemented
        return self.subspaces == other.subspaces

    def __hash__(self):
        return hash(self.subspaces)

    def __repr__(self):
        dims = ", ".join(str(v.dim) for v in self.subspaces)
        return f"ProductIdeal(type ({dims}))"


def subspace_of_ideal(generators) -> RightSubspace:
    """Column space of a generating set of matrices.

    The right ideal generated by matrices g is g * M_n(D) summed over the
    generators, and every column of such a product is a right combination
    of the generators' columns, so the span of all columns is the ideal's
    subspace.
    """
    gens = list(generators)
    if not gens:
        raise ValidationError("need at least one generator")
    first = gens[0]
    for g in gens[1:]:
        if g.algebra != first.algebra or g.rows != first.rows:
            raise ValidationError("generators must be matrices over one algebra with equal row count")
    stacked = gens[0]
    for g in gens[1:]:
        stacked = stacked.hstack(g)
    return column_echelon(stacked)


def idempotent_generator(v: RightSubspace) -> MatrixOverD:
    """An idempotent matrix whose column space is exactly v.

    Extends the canonical basis by standard vectors at the non-pivot rows to
    a basis of D^n, then projects onto the first k coordinates: with T the
    extended basis matrix, the projector is T[:, :k] * (T^{-1})[:k, :].
    """
    alg = v.algebra
    n = v.ambient_dim
    k = v.dim
    if k == 0:
        return MatrixOverD.zeros(alg, n, n)
    complement = [r for r in range(n) if r not in v.pivot_rows]
    zero, one = alg.zero(), alg.one()
    columns = [v.basis.column(j) for j in range(k)]
    for r in complement:
        columns.append(tuple(one if i == r else zero for i in range(n)))
    t = MatrixOverD.from_columns(alg, columns, n)
    t_inv = matrix_inv(t)
    left = MatrixOverD.from_columns(alg, columns[:k], n)
    top = MatrixOverD(alg, [t_inv.entries[i] for i in range(k)])
    return left * top


def ideal_type(ideal: ProductIdeal) -> tuple[int, ...]:
    """Tuple of component dimensions, the ideal's isomorphism type."""
    return tuple(v.dim for v in ideal.subspaces)
