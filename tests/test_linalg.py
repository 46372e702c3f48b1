"""Canonical column echelon form, sums, intersections, kernels, inverses."""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import skewgrass as sg
from conftest import _sqrt2_quaternions, lifted_algebras, oracle_algebras, subspace_rows
from skewgrass import linalg
from skewgrass.errors import SingularMatrixError, ValidationError
from skewgrass.linalg import random_matrix


def cols_matrix(alg, columns):
    """Matrix from columns given as lists of coordinate tuples."""
    ents = [[alg.element(c) for c in col] for col in columns]
    return sg.MatrixOverD.from_columns(alg, ents, rows=len(columns[0]))


def test_echelon_right_normalizes_the_pivot(Qi):
    one, i = Qi.one(), Qi.basis_element(1)
    v = sg.column_echelon(cols_matrix(Qi, [[(0, 1), (1, 0)]]))
    # (i, 1) * i^{-1} = (1, -i): normalization multiplies the column on the right
    assert v.dim == 1 and v.pivot_rows == (0,)
    assert v.basis.column(0) == (one, -i)


def test_echelon_is_canonical_across_spanning_sets(H):
    v = sg.random_subspace(H, 3, 2, seed=11)
    t = sg.random_invertible(H, 2, seed=12)
    respanned = sg.column_echelon(v.basis * t)
    assert respanned == v
    assert respanned.basis == v.basis
    assert respanned.pivot_rows == v.pivot_rows


def test_echelon_drops_dependent_columns(Qi):
    one, i = Qi.one(), Qi.basis_element(1)
    # second column is (1, -i) = (i, 1) * (-i), so the span is one-dimensional
    m = cols_matrix(Qi, [[(0, 1), (1, 0)], [(1, 0), (0, -1)]])
    v = sg.column_echelon(m)
    assert v.dim == 1
    assert v.basis.column(0) == (one, -i)


def test_zero_and_full_subspaces(Q):
    z = sg.RightSubspace.zero(Q, 3)
    f = sg.RightSubspace.full(Q, 3)
    assert z.is_zero() and z.dim == 0
    assert f.is_full() and f.dim == 3
    assert f.contains(z)
    assert sg.subspace_sum(z, f) == f
    assert sg.subspace_intersect(z, f) == z


def test_membership(Qi):
    one, i = Qi.one(), Qi.basis_element(1)
    v = sg.column_echelon(cols_matrix(Qi, [[(0, 1), (1, 0)]]))
    assert v.contains_vector((one, -i))
    assert v.contains_vector((i, one))
    assert v.contains_vector((Qi.zero(), Qi.zero()))
    assert not v.contains_vector((one, i))


def test_sum_and_intersection_complementary_lines(Qi):
    a = sg.column_echelon(cols_matrix(Qi, [[(1, 0), (0, -1)]]))  # span (1, -i)
    b = sg.column_echelon(cols_matrix(Qi, [[(1, 0), (0, 1)]]))   # span (1, i)
    assert sg.subspace_sum(a, b).is_full()
    assert sg.subspace_intersect(a, b).is_zero()


def test_dimension_formula_random(H):
    for t in range(12):
        u = sg.random_subspace(H, 3, 2, seed=sg.subseed(5, t, 0))
        w = sg.random_subspace(H, 3, 1, seed=sg.subseed(5, t, 1))
        s = sg.subspace_sum(u, w)
        x = sg.subspace_intersect(u, w)
        assert s.dim + x.dim == u.dim + w.dim
        assert s.contains(u) and s.contains(w)
        assert u.contains(x) and w.contains(x)


def test_right_kernel_line(Qi):
    one, i = Qi.one(), Qi.basis_element(1)
    m = sg.MatrixOverD.from_rows(Qi, [[one, i]])
    basis = sg.right_kernel(m)
    assert len(basis) == 1
    v = basis[0]
    # 1*v0 + i*v1 = 0
    assert (m.entries[0][0] * v[0] + m.entries[0][1] * v[1]).is_zero()


def test_right_kernel_of_invertible_is_trivial(H):
    m = sg.random_invertible(H, 3, seed=9)
    assert sg.right_kernel(m) == []


def test_inverse_known_value(Qi):
    one, i, zero = Qi.one(), Qi.basis_element(1), Qi.zero()
    m = sg.MatrixOverD.from_rows(Qi, [[i, zero], [zero, one]])
    assert sg.matrix_inv(m) == sg.MatrixOverD.from_rows(Qi, [[-i, zero], [zero, one]])


def test_inverse_of_singular(Qi):
    one, i = Qi.one(), Qi.basis_element(1)
    # second column is the first right-multiplied by i
    m = cols_matrix(Qi, [[(1, 0), (0, 1)], [(0, 1), (-1, 0)]])
    assert one and i  # labels for the reader; the matrix is [[1, i], [i, -1]]
    assert sg.try_inverse(m) is None
    with pytest.raises(SingularMatrixError):
        sg.matrix_inv(m)


def test_inverse_roundtrip_random(H):
    for t in range(8):
        m = sg.random_invertible(H, 2, seed=sg.subseed(13, t))
        inv = sg.matrix_inv(m)
        assert (m * inv).is_identity() and (inv * m).is_identity()


def test_apply_matrix_moves_spans(Qi):
    v = sg.column_echelon(cols_matrix(Qi, [[(1, 0), (0, 1)]]))
    p = sg.MatrixOverD.from_rows(
        Qi, [[Qi.zero(), Qi.one()], [Qi.one(), Qi.zero()]]
    )
    moved = sg.apply_matrix(p, v)
    assert moved.contains_vector((Qi.basis_element(1), Qi.one()))
    assert moved != v


def test_apply_sigma_entrywise(Qi):
    conj = sg.validate_automorphism(Qi, [[1, 0], [0, -1]])
    v = sg.column_echelon(cols_matrix(Qi, [[(1, 0), (0, 1)]]))
    w = sg.apply_sigma(conj, v)
    assert w.basis.column(0) == (Qi.one(), -Qi.basis_element(1))
    m = sg.MatrixOverD.from_rows(Qi, [[Qi.basis_element(1)]])
    assert sg.apply_sigma(conj, m).entries[0][0] == -Qi.basis_element(1)
    with pytest.raises(ValidationError):
        sg.apply_sigma(conj, "not a matrix")


def test_seeded_sampling_is_deterministic(H):
    a = sg.random_subspace(H, 3, 2, seed=77)
    b = sg.random_subspace(H, 3, 2, seed=77)
    assert a == b and a.basis == b.basis
    c = sg.random_subspace(H, 3, 2, seed=78)
    assert a != c
    m1 = sg.random_invertible(H, 2, seed=5)
    m2 = sg.random_invertible(H, 2, seed=5)
    assert m1 == m2


def test_subseed_mixes_order():
    assert sg.subseed(1, 2) != sg.subseed(2, 1)
    assert sg.subseed(0) != sg.subseed(0, 0)


def test_oracle_agreement_spot_checks(Q):
    rng = random.Random(424)
    for _ in range(20):
        m = random_matrix(Q, 4, rng.randrange(1, 5), rng, height=6)
        ours = subspace_rows(sg.column_echelon(m))
        theirs = oracles.row_space(
            [[m.entries[r][j].coords[0] for r in range(4)] for j in range(m.cols)]
        )
        assert ours == theirs


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_echelon_idempotent_on_its_own_basis(seed):
    H = sg.quaternion_algebra(-1, -1)
    v = sg.random_subspace(H, 3, 2, seed=seed)
    assert sg.column_echelon(v.basis) == v
    for j in range(v.dim):
        assert v.contains_vector(v.basis.column(j))


@pytest.mark.parametrize("alg", oracle_algebras(), ids=lambda a: a.label)
@settings(max_examples=10)
@given(data=st.data())
def test_fused_product_matches_the_element_loop(alg, data):
    rows, inner, cols = (data.draw(st.integers(1, 3), label=x) for x in ("rows", "inner", "cols"))
    coord = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    entry = st.one_of(st.just([0] * alg.dim), st.lists(coord, min_size=alg.dim, max_size=alg.dim))

    def matrix(r, c, label):
        grid = st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)
        return sg.MatrixOverD.from_rows(alg, data.draw(grid, label=label))

    a, b = matrix(rows, inner, "A"), matrix(inner, cols, "B")
    expected = [[sum((a.entries[i][k] * b.entries[k][j] for k in range(inner)), alg.zero())
                 for j in range(cols)] for i in range(rows)]
    product = a * b
    assert (product.rows, product.cols) == (rows, cols)
    assert product.entries == tuple(map(tuple, expected))


@pytest.mark.parametrize("alg, lifts", lifted_algebras() + [_sqrt2_quaternions()],
                         ids=lambda x: getattr(x, "label", ""))
@settings(max_examples=8)
@given(data=st.data())
def test_apply_sigma_keeps_the_canonical_form(alg, lifts, data):
    n = data.draw(st.integers(1, 3), label="n")
    k = data.draw(st.integers(0, n), label="k")
    v = sg.random_subspace(alg, n, k, seed=data.draw(st.integers(0, 2 ** 31), label="seed"), height=4)
    for sigma in lifts:
        image = sg.apply_sigma(sigma, v)
        recomputed = sg.column_echelon(v.basis.map_entries(sigma.apply))
        assert image.basis == recomputed.basis and image.pivot_rows == recomputed.pivot_rows


def test_identity_lift_returns_its_target(H):
    ident = sg.LiftTable.build(H).identity
    m = sg.random_invertible(H, 2, seed=5)
    v = sg.random_subspace(H, 3, 2, seed=6)
    assert sg.apply_sigma(ident, m) is m
    assert sg.apply_sigma(ident, v) is v
    with pytest.raises(ValidationError):
        sg.apply_sigma(ident, "not a matrix")


def test_try_inverse_row_reduces_a_matrix_once(H, monkeypatch):
    # one column elimination of [M; I] per call, and nothing is cached on M
    calls = []
    real = linalg.column_echelon
    monkeypatch.setattr(linalg, "column_echelon", lambda m: calls.append(m) or real(m))
    m = sg.random_invertible(H, 3, seed=7)
    singular = sg.MatrixOverD.zeros(H, 2, 2)
    calls.clear()
    inv = sg.try_inverse(m)
    assert len(calls) == 1 and calls[0].rows == 6 and calls[0].cols == 3
    assert sg.try_inverse(m) == inv and len(calls) == 2
    assert sg.try_inverse(singular) is None and len(calls) == 3
    assert inv * m == sg.MatrixOverD.identity(H, 3) == m * inv


@pytest.mark.parametrize("alg", [alg for alg, _ in lifted_algebras()], ids=lambda a: a.label)
@settings(max_examples=12)
@given(data=st.data())
def test_rank_inverse_and_kernel_agree(alg, data):
    n = data.draw(st.integers(1, 3), label="n")
    coord = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    element = st.lists(coord, min_size=alg.dim, max_size=alg.dim).map(alg.element)
    cols = [data.draw(st.lists(element, min_size=n, max_size=n), label=f"column {j}") for j in range(n)]
    if data.draw(st.booleans(), label="force singular"):
        # column j becomes a right combination of the others, zero when n = 1
        j = data.draw(st.integers(0, n - 1), label="j")
        scalars = data.draw(st.lists(element, min_size=n, max_size=n), label="scalars")
        cols[j] = [sum((cols[k][r] * scalars[k] for k in range(n) if k != j), alg.zero())
                   for r in range(n)]
    m = sg.MatrixOverD.from_columns(alg, cols, n)
    echelon, inv, kernel = sg.column_echelon(m), sg.try_inverse(m), sg.right_kernel(m)
    assert echelon.is_full() == (inv is not None) == (kernel == [])
    if inv is not None:
        assert (inv * m).is_identity() and (m * inv).is_identity()
    assert len(kernel) == n - echelon.dim
    for v in kernel:
        assert (m * sg.MatrixOverD.from_columns(alg, [v], n)).is_zero()
    if kernel:
        assert sg.column_echelon(sg.MatrixOverD.from_columns(alg, kernel, n)).dim == len(kernel)


def test_internal_results_skip_the_entry_checks(Qi, H, monkeypatch):
    a, b = sg.random_invertible(H, 2, seed=1), sg.random_invertible(H, 2, seed=2)
    m = sg.random_invertible(Qi, 2, seed=3)
    conj = sg.validate_automorphism(Qi, [[1, 0], [0, -1]])

    def checked(*args):
        raise AssertionError("an internal result went through the checking constructor")

    monkeypatch.setattr(sg.MatrixOverD, "__init__", checked)
    results = [a * b, a + b, a - b, -a, a.map_entries(lambda e: e * e), sg.apply_sigma(conj, m)]
    monkeypatch.undo()
    for r in results:
        assert r == sg.MatrixOverD(r.algebra, r.entries)
    # a's nonzero coordinates are kept after a * b; equality and hashing ignore them
    assert a._nonzero is not None and sg.MatrixOverD(H, a.entries)._nonzero is None
    assert a == sg.MatrixOverD(H, a.entries) and hash(a) == hash(sg.MatrixOverD(H, a.entries))
    assert (a - b).entries[1][0] == a.entries[1][0] - b.entries[1][0]
    # the public constructor keeps every check, and apply_sigma checks the algebra
    with pytest.raises(ValidationError, match="ragged"):
        sg.MatrixOverD(H, [[H.one(), H.one()], [H.one()]])
    with pytest.raises(ValidationError, match="same algebra"):
        sg.MatrixOverD(H, [[H.one(), Qi.one()]])
    with pytest.raises(ValidationError, match="different algebra"):
        sg.apply_sigma(sg.LiftTable.build(Qi).identity, a)
