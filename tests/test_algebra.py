"""Division algebra construction, arithmetic, centers, lift tables."""

from __future__ import annotations

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewgrass as sg
from conftest import lifted_algebras, oracle_algebras
from skewgrass import qlinalg
from skewgrass.errors import AlgebraDataError, ValidationError

small_coords = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=4, max_size=4
)


def test_field_inverse_known_value(Qi):
    e = Qi.one() + Qi.basis_element(1).scale(2)
    # (1 + 2x)(1 - 2x) = 1 + 4 = 5
    assert e.inv().coords == (F(1, 5), F(-2, 5))
    assert e * e.inv() == Qi.one()


def test_field_norm_product(Qi):
    x = Qi.basis_element(1)
    assert (Qi.one() + x) * (Qi.one() - x) == Qi.one().scale(2)


def test_quaternion_hamilton_table(H):
    one, i, j, k = H.basis_elements()
    assert i * i == -one and j * j == -one and k * k == -one
    assert i * j == k and j * i == -k
    assert j * k == i and k * j == -i
    assert k * i == j and i * k == -j


def test_quaternion_inverse_known_value(H):
    one, i, j, k = H.basis_elements()
    q = one + i + j + k
    assert q.inv() == (one - i - j - k).scale(F(1, 4))
    assert q.inv() * q == one


def test_general_quaternion_parameters():
    A = sg.quaternion_algebra(-2, -3)
    one, i, j, k = A.basis_elements()
    assert i * i == one.scale(-2)
    assert j * j == one.scale(-3)
    assert k * k == one.scale(-6)
    assert i * j == k and j * i == -k
    q = one + i
    assert q * q.inv() == one


def test_split_quaternions_fail_lazily():
    # i*i = 1 makes 1+i a zero divisor; construction itself must succeed
    A = sg.quaternion_algebra(1, -1)
    one, i, _, _ = A.basis_elements()
    assert ((one + i) * (one - i)).is_zero()
    assert (one + i).try_inv() is None
    with pytest.raises(AlgebraDataError, match="no inverse"):
        (one + i).inv()


def test_zero_has_no_inverse(Qi):
    with pytest.raises(ZeroDivisionError):
        Qi.zero().inv()


def test_reducible_polynomial_rejected():
    with pytest.raises(ValidationError, match="reducible"):
        sg.field_algebra([-1, 0, 1])
    with pytest.raises(ValidationError, match="reducible"):
        sg.field_algebra([0, 1, 1])


def test_bad_polynomials_rejected():
    with pytest.raises(ValidationError, match="monic"):
        sg.field_algebra([1, 0, 2])
    with pytest.raises(ValidationError, match="degree"):
        sg.field_algebra([1])
    with pytest.raises(ValidationError, match="integers"):
        sg.field_algebra([F(1, 2), 1])


def test_cubic_field_arithmetic():
    K = sg.field_algebra([-2, 0, 0, 1])
    x = K.basis_element(1)
    assert x * x * x == K.one().scale(2)
    assert x.inv() == K.basis_element(2).scale(F(1, 2))


def test_center_dimensions(Q, Qi, H):
    assert sg.center(Q).dim == 1
    assert sg.center(Qi).dim == 2
    assert sg.center(H).dim == 1
    assert sg.center(sg.quaternion_algebra(-2, -3)).dim == 1


def test_center_membership(H):
    cen = sg.center(H)
    assert cen.contains(H.one().scale(F(7, 3)).coords)
    assert not cen.contains(H.basis_element(1).coords)
    assert cen.coords_in_center(H.one().scale(F(7, 3)).coords) == [F(7, 3)]


def test_table_algebra_zero_divisor_named():
    # Q x Q componentwise: u = (1,1) is the unit, e = (0,1) is idempotent;
    # table rows give u*u = u, u*e = e*u = e, e*e = e
    A = sg.algebra_from_table(
        ["u", "e"],
        [[[1, 0], [0, 1]], [[0, 1], [0, 1]]],
        [1, 0],
        label="QxQ",
    )
    e = A.basis_element(1)
    assert e * e == e
    assert e.try_inv() is None
    with pytest.raises(AlgebraDataError) as err:
        e.inv()
    assert "e" in str(err.value) and "QxQ" in str(err.value)


def test_non_associative_table_rejected():
    # a*a = b but (a*a)*a = b*a = 0 while a*(a*a) = a*b = 1
    with pytest.raises(ValidationError, match="associative"):
        sg.algebra_from_table(
            ["1", "a", "b"],
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            ],
            [1, 0, 0],
        )


def test_conjugation_is_an_automorphism(Qi):
    theta = sg.validate_automorphism(Qi, [[1, 0], [0, -1]], name="conj")
    x = Qi.basis_element(1)
    assert theta.apply(x) == -x
    assert theta.apply(Qi.one() + x) == Qi.one() - x
    assert theta.compose(theta).is_identity()


def test_scaling_map_rejected(Qi):
    with pytest.raises(ValidationError, match="multiplicative"):
        sg.validate_automorphism(Qi, [[1, 0], [0, 2]])


def test_unit_moving_map_rejected(Qi):
    with pytest.raises(ValidationError, match="unit"):
        sg.validate_automorphism(Qi, [[2, 0], [0, 1]])


def test_singular_map_rejected(Qi):
    with pytest.raises(ValidationError, match="invertible"):
        sg.validate_automorphism(Qi, [[1, 0], [0, 0]])


def test_center_values_of_conjugation(Qi):
    conj = sg.validate_automorphism(Qi, [[1, 0], [0, -1]])
    assert sg.center_values(conj) == ((F(1), F(0)), (F(0), F(-1)))


def test_lift_table_inserts_identity_first(Qi):
    conj = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")
    lifts = sg.LiftTable.build(Qi, [conj])
    assert [e.name for e in lifts.entries] == ["id", "conj"]
    assert lifts.identity.is_identity()
    assert lifts.get("conj").matrix == conj.matrix
    assert lifts.match_matrix([[1, 0], [0, -1]]).name == "conj"
    assert lifts.match_matrix([[0, 1], [1, 0]]) is None
    with pytest.raises(ValidationError, match="unknown lift"):
        lifts.get("frobenius")


def test_unnamed_lifts_get_generated_names(Qi):
    lifts = sg.LiftTable.build(Qi, [[[1, 0], [0, -1]]])
    assert [e.name for e in lifts.entries] == ["id", "lift0"]


def test_duplicate_center_restriction_rejected(H):
    # conjugation by i fixes the (rational) center pointwise, like the identity
    inner = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    sg.validate_automorphism(H, inner)
    with pytest.raises(ValidationError, match="same center automorphism"):
        sg.LiftTable.build(H, [inner])


def test_identity_name_is_reserved(Qi):
    bad = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="id")
    with pytest.raises(ValidationError, match="reserved"):
        sg.LiftTable.build(Qi, [bad])


def test_lift_lookup_by_center_values(Qi):
    lifts = sg.LiftTable.build(Qi, [sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")])
    assert lifts.for_center_values(((F(1), F(0)), (F(0), F(-1)))).name == "conj"
    with pytest.raises(sg.IncompleteLiftTableError):
        lifts.for_center_values(((F(1), F(0)), (F(1), F(1))))


@settings(max_examples=30)
@given(small_coords, small_coords, small_coords)
def test_quaternion_associativity_on_elements(a, b, c):
    H = sg.quaternion_algebra(-1, -1)
    x, y, z = H.element(a), H.element(b), H.element(c)
    assert (x * y) * z == x * (y * z)


@settings(max_examples=30)
@given(small_coords, small_coords)
def test_quaternion_inverse_antihomomorphism(a, b):
    H = sg.quaternion_algebra(-1, -1)
    x, y = H.element(a), H.element(b)
    if x.is_zero() or y.is_zero():
        return
    assert (x * y).inv() == y.inv() * x.inv()


def _automorphisms(alg, lifts):
    """Every lift, plus conjugations by 1 + b_1 and b_2 on a noncommutative algebra."""
    autos = list(lifts)
    if alg.dim == 4:
        for q in (alg.one() + alg.basis_element(1), alg.basis_element(2)):
            images = [(q * b * q.inv()).coords for b in alg.basis_elements()]
            autos.append(sg.validate_automorphism(alg, [[c[i] for c in images] for i in range(4)]))
    return autos


@pytest.mark.parametrize("alg, lifts", lifted_algebras(), ids=lambda x: getattr(x, "label", ""))
@settings(max_examples=10)
@given(data=st.data())
def test_apply_coords_matches_matvec(alg, lifts, data):
    coord = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6))
    coords = tuple(data.draw(st.lists(coord, min_size=alg.dim, max_size=alg.dim), label="coords"))
    for theta in _automorphisms(alg, lifts):
        matrix = [list(r) for r in theta.matrix]
        assert theta.apply_coords(coords) == tuple(qlinalg.matvec(matrix, list(coords)))
        assert theta.apply(alg.element(coords)).coords == theta.apply_coords(coords)
        assert theta.is_identity() == qlinalg.is_identity(matrix)


# -- the integer core against plain Fraction arithmetic --------------------


def _in_normal_form(x):
    """den > 0, gcd(den, *num) = 1, and zero is 0/1."""
    return x.den > 0 and gcd(x.den, *x.num) == 1 and (any(x.num) or x.den == 1)


@pytest.mark.parametrize("alg", oracle_algebras(), ids=lambda a: a.label)
@settings(max_examples=25)
@given(data=st.data())
def test_integer_core_matches_fraction_arithmetic(alg, data):
    coord = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=12))
    vec = st.lists(coord, min_size=alg.dim, max_size=alg.dim).map(tuple)
    a, b = data.draw(vec, label="a"), data.draw(vec, label="b")
    q = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=6), label="q")
    x, y = alg.element(a), alg.element(b)
    results = {
        "+": (x + y, tuple(s + t for s, t in zip(a, b))),
        "-": (x - y, tuple(s - t for s, t in zip(a, b))),
        "neg": (-x, tuple(-s for s in a)),
        "*": (x * y, alg.mul_coords(a, b)),
        "*rev": (y * x, alg.mul_coords(b, a)),
        "scale": (x.scale(q), tuple(q * s for s in a)),
    }
    for op, (got, want) in results.items():
        assert got.coords == want, op
        assert _in_normal_form(got), op
        assert got == alg.element(want) and hash(got) == hash(alg.element(want)), op
    assert (x == y) == (a == b)
    inv = x.try_inv()
    if not any(a):
        assert inv is None
    else:
        # every oracle algebra is a division algebra, so the inverse exists
        assert inv.coords == tuple(qlinalg.solve(x.left_regular_matrix(), list(alg.unit)))
        assert alg.mul_coords(inv.coords, a) == alg.unit == alg.mul_coords(a, inv.coords)
        assert _in_normal_form(inv)


def test_normal_form_is_pinned():
    A = sg.quaternion_algebra(F(-1, 2), F(-3, 5))
    assert A._table_den == 10
    half = A.element(["2/4", 0, 0, 0])
    assert half.num == (1, 0, 0, 0) and half.den == 2
    assert half == A.element(["1/2", "0", 0, 0]) and hash(half) == hash(A.element([F(1, 2), 0, 0, 0]))
    x, y = A.element([F(1, 3), F(-2, 7), 0, 5]), A.element([F(5, 6), F(1, 14), F(-3, 2), 0])
    z = (x + y) - y
    assert (z.num, z.den) == (x.num, x.den) and z == x and hash(z) == hash(x)
    for zero in (A.zero(), x - x, x.scale(0), A.element([0, F(0, 5), 0, 0])):
        assert zero.num == (0, 0, 0, 0) and zero.den == 1 and zero == A.zero()
    assert x.scale(F(-3, 4)).den > 0 and (-x).den == x.den
    for e in (x, y, x * y, y * x, x.scale(F(-3, 4))):
        assert _in_normal_form(e)
        assert _in_normal_form(e.inv()) and e * e.inv() == A.one() == e.inv() * e
    # coords is a view: a fresh tuple of Fractions each time, not stored on the element
    assert x.coords == (F(1, 3), F(-2, 7), F(0), F(5)) and x.coords is not x.coords
    with pytest.raises(AttributeError):
        x.coords = (1, 2, 3, 4)
    with pytest.raises(ValidationError, match="ints or Fractions"):
        sg.AlgebraElement(A, [0.5, 0, 0, 0])
