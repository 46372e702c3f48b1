"""Document ingestion: error paths name the offending JSON location."""

from __future__ import annotations

import pytest

import skewgrass as sg
from skewgrass import schema
from skewgrass.errors import ValidationError


def doc():
    return sg.demo_document("remark-A")


def parse_fail(document, fragment):
    with pytest.raises(ValidationError) as err:
        schema.parse_document(document)
    assert fragment in str(err.value), str(err.value)
    return err.value


def test_demo_documents_parse(Qi):
    parts = schema.parse_document(doc())
    assert parts["product"].r == 2
    assert parts["factors"] == (("E", 1), ("C", 1))
    assert parts["base"] == "Q" and parts["full"] == "Q(i)"
    assert parts["table"][("id",)] == "Q(i)"
    assert parts["table"][("c", "id")] == "Q"
    assert [g.name for g in parts["elements"]] == ["id", "c"]
    assert parts["product"].blocks[0].algebra == Qi


def test_unknown_top_level_key_rejected():
    d = doc()
    d["extra"] = 1
    parse_fail(d, "unknown keys")


def test_bad_rational_is_located():
    d = doc()
    d["blocks"][0]["lifts"][0]["matrix"][1][1] = "one half"
    err = parse_fail(d, "blocks[0].lifts[0].matrix[1][1]")
    assert err.path == "blocks[0].lifts[0].matrix[1][1]"


def test_float_rationals_rejected():
    d = doc()
    d["blocks"][0]["lifts"][0]["matrix"][1][1] = -1.0
    parse_fail(d, "blocks[0].lifts[0].matrix[1][1]")


def test_ragged_matrix_is_located():
    d = doc()
    d["group"]["elements"][1]["maps"][1]["P"] = [[[1], [0]], [[0]]]
    parse_fail(d, "group.elements[1].maps[1].P")


def test_bad_tau_is_located():
    d = doc()
    d["group"]["elements"][0]["tau"] = [1, 3]
    parse_fail(d, "group.elements[0].tau[1]")
    d = doc()
    d["group"]["elements"][0]["tau"] = [1, 1]
    parse_fail(d, "not a permutation")


def test_unknown_sigma_name_is_located():
    d = doc()
    d["group"]["elements"][1]["maps"][0]["sigma"] = "frobenius"
    err = parse_fail(d, "unknown lift")
    assert err.path == "group.elements[1].maps[0].sigma"


def test_sigma_matrix_must_match_a_lift():
    d = doc()
    # a valid automorphism of Q(i) that is not in the table
    d["blocks"][0]["lifts"] = []
    d["group"]["elements"][1]["maps"][0]["sigma"] = [[1, 0], [0, -1]]
    parse_fail(d, "not one of the factor's lifts")


def test_sigma_matrix_form_accepted():
    d = doc()
    d["group"]["elements"][1]["maps"][0]["sigma"] = [[1, 0], [0, -1]]
    parts = schema.parse_document(d)
    assert [g.name for g in parts["elements"]] == ["id", "c"]


def test_singular_p_is_located():
    d = doc()
    d["group"]["elements"][1]["maps"][1]["P"] = [[[1], [0]], [[1], [0]]]
    err = parse_fail(d, "singular")
    assert err.path == "group.elements[1].maps[1].P"


def test_each_listed_p_is_row_reduced_once(monkeypatch):
    # schema column-reduces every P once to locate a singular one
    calls = []
    real = schema.column_echelon
    monkeypatch.setattr(schema, "column_echelon", lambda m: calls.append(m) or real(m))
    parts = schema.parse_document(sg.demo_document("remark-A2"))
    listed = [p for g in parts["elements"] for p, _ in g.maps]
    reduced = [c for c in calls if any(c is p for p in listed)]
    assert len(reduced) == len(listed)
    assert all(c is p for c, p in zip(reduced, listed))


def test_reducible_field_is_located():
    d = doc()
    d["blocks"][0]["algebra"] = {"field": [-1, 0, 1]}
    parse_fail(d, "blocks[0].algebra")


def test_malformed_field_table_key():
    d = doc()
    d["fields"]["table"] = {"id,,c": "Q"}
    parse_fail(d, "fields.table")


def test_ideal_roundtrip(Qi, Q):
    parts = schema.parse_document(sg.demo_document("remark-A2"))
    product = parts["product"]
    u = sg.random_subspace(Qi, 2, 1, seed=5)
    w = sg.random_subspace(Q, 2, 1, seed=6)
    ideal = sg.ProductIdeal.from_subspaces([u, w])
    data = schema.ser_ideal(ideal)
    back = schema.parse_product_ideal(data, product)
    assert back == ideal


def test_zero_component_ideal_roundtrip(Qi, Q):
    parts = schema.parse_document(sg.demo_document("remark-A2"))
    product = parts["product"]
    ideal = sg.ProductIdeal.from_subspaces([
        sg.RightSubspace.zero(Qi, 2),
        sg.random_subspace(Q, 2, 2, seed=7),
    ])
    data = schema.ser_ideal(ideal)
    assert data[0] == [[], []]
    back = schema.parse_product_ideal(data, product)
    assert back == ideal


def test_non_canonical_ideal_input_is_canonicalized(Qi, Q):
    parts = schema.parse_document(sg.demo_document("remark-A2"))
    product = parts["product"]
    # span of (i, 1): stored canonically as (1, -i)
    data = [[[[0, 1]], [[1, 0]]], [[[1]], [[0]]]]
    ideal = schema.parse_product_ideal(data, product)
    assert schema.ser_ideal(ideal)[0] == [[["1", "0"]], [["0", "-1"]]]


def test_ideal_shape_errors_are_located(Qi, Q):
    parts = schema.parse_document(sg.demo_document("remark-A2"))
    product = parts["product"]
    with pytest.raises(ValidationError, match=r"ideal"):
        schema.parse_product_ideal([[[[1, 0]], [[0, 1]]]], product)
    with pytest.raises(ValidationError, match=r"ideal\[1\]"):
        schema.parse_product_ideal([[[[1, 0]], [[0, 1]]], [[[1]]]], product)


def test_rational_serialization_forms(Qi):
    from fractions import Fraction

    e = Qi.element([Fraction(-3, 7), 2])
    assert schema.ser_element(e) == ["-3/7", "2"]


def test_rational_string_roundtrip():
    from fractions import Fraction

    from skewgrass.rationals import to_fraction

    assert to_fraction("2") == 2
    assert to_fraction("-3/7") == Fraction(-3, 7)
    assert to_fraction(5) == 5
    with pytest.raises(ValidationError):
        to_fraction(True)
    with pytest.raises(ValidationError):
        to_fraction(0.5)
    with pytest.raises(ValidationError):
        to_fraction("3/0")
    assert to_fraction(" +12/8 ") == Fraction(3, 2)
    assert to_fraction("-007") == -7
    # only [+-]?digits or [+-]?digits/digits: no exponent, decimal point,
    # underscore, inner space, signed denominator or non-ASCII digit
    for text in ["1e10000000", "1.5", ".5", "1_000", "3 / 4", "3/-4", "1/2/3", "", "+", "0x10",
                 "inf", "nan", "\u0661"]:
        with pytest.raises(ValidationError, match="malformed rational") as err:
            to_fraction(text, "P[0][0][0]")
        assert err.value.path == "P[0][0][0]"
