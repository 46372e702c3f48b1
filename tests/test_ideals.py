"""Right ideals of matrix algebras and the subspace correspondence."""

from __future__ import annotations

import pytest

import skewgrass as sg
from skewgrass.errors import ValidationError


def test_idempotent_projects_onto_the_subspace(Qi):
    v = sg.random_subspace(Qi, 3, 2, seed=21)
    phi = sg.idempotent_generator(v)
    assert phi * phi == phi
    assert sg.column_echelon(phi) == v
    assert sg.subspace_of_ideal([phi]) == v


def test_idempotent_extremes(H):
    zero = sg.RightSubspace.zero(H, 2)
    full = sg.RightSubspace.full(H, 2)
    assert sg.idempotent_generator(zero).is_zero()
    assert sg.idempotent_generator(full).is_identity()


def test_ideal_from_several_generators(Qi):
    v = sg.random_subspace(Qi, 3, 1, seed=31)
    w = sg.random_subspace(Qi, 3, 1, seed=32)
    both = sg.subspace_of_ideal([v.basis, w.basis])
    assert both == sg.subspace_sum(v, w)


def test_generators_of_mismatched_shape_rejected(Qi, H):
    a = sg.MatrixOverD.identity(Qi, 2)
    b = sg.MatrixOverD.identity(Qi, 3)
    with pytest.raises(ValidationError):
        sg.subspace_of_ideal([a, b])
    with pytest.raises(ValidationError):
        sg.subspace_of_ideal([])
    c = sg.MatrixOverD.identity(H, 2)
    with pytest.raises(ValidationError):
        sg.subspace_of_ideal([a, c])


def test_product_ideal_type_and_equality(Qi, Q):
    u = sg.random_subspace(Qi, 2, 1, seed=41)
    w = sg.random_subspace(Q, 2, 1, seed=42)
    ideal = sg.ProductIdeal.from_subspaces([u, w])
    assert sg.ideal_type(ideal) == (1, 1)
    same = sg.ProductIdeal.from_subspaces([u, w])
    assert ideal == same and hash(ideal) == hash(same)
    other = sg.ProductIdeal.from_subspaces([u, sg.RightSubspace.zero(Q, 2)])
    assert ideal != other
    assert sg.ideal_type(other) == (1, 0)

