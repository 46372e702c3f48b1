"""End-to-end structures: loading, field-of-definition reports, surveys."""

from __future__ import annotations

import copy
import json

import pytest

import oracles
import skewgrass as sg
from conftest import sampled_ideals
from skewgrass import frontend, groups, schema
from skewgrass.errors import ValidationError


def test_load_demo_by_name():
    E = sg.load_endo_structure("remark-A")
    assert E.g_total == 3
    assert E.action.order == 2
    assert E.base_label == "Q" and E.full_label == "Q(i)"
    assert E.field_table[("id",)] == "Q(i)"
    desc = E.describe()
    assert desc["dim"] == 3
    assert [b["factor"] for b in desc["blocks"]] == ["E", "C"]
    assert desc["blocks"][0]["lifts"] == ["id", "conj"]


def test_load_document_directly():
    E = sg.load_endo_structure(sg.demo_document("remark-A2"))
    assert E.g_total == 4
    assert E.product.blocks[0].n == 2


@pytest.mark.parametrize("name", sg.DEMO_NAMES)
def test_editing_one_demo_p_leaves_the_others(name):
    maps = [m for g in sg.demo_document(name)["group"]["elements"] for m in g["maps"]]
    for edited in maps:
        others = copy.deepcopy([m["P"] for m in maps if m is not edited])
        edited["P"][0][0][0] = 7
        assert [m["P"] for m in maps if m is not edited] == others


def test_unknown_demo_name():
    with pytest.raises(ValidationError, match="unknown demo"):
        sg.load_endo_structure("remark-Z")


def test_field_table_semantics_enforced():
    d = sg.demo_document("remark-A")
    d["fields"]["table"] = {"id": "Q(i)"}
    with pytest.raises(ValidationError, match="whole group"):
        sg.load_endo_structure(d)
    d = sg.demo_document("remark-A")
    d["fields"]["table"] = {"c,id": "Q"}
    with pytest.raises(ValidationError, match="trivial subgroup"):
        sg.load_endo_structure(d)
    d = sg.demo_document("remark-A")
    d["fields"]["table"] = {"id": "Q(i)", "c,id": "Q", "c": "bogus"}
    with pytest.raises(ValidationError, match="missing the identity"):
        sg.load_endo_structure(d)
    d = sg.demo_document("remark-A")
    d["fields"]["table"] = {"id": "Q(i)", "c,id": "Q", "ghost,id": "?"}
    with pytest.raises(ValidationError, match="unknown element"):
        sg.load_endo_structure(d)


def _inner4_document(table):
    """{id, i, j, k}: conjugation by the units i, j, k of H on M_1(H), an order-4 group."""
    units = {"id": [1, 0, 0, 0], "i": [0, 1, 0, 0], "j": [0, 0, 1, 0], "k": [0, 0, 0, 1]}
    return {
        "blocks": [{"n": 1, "algebra": {"quaternion": [-1, -1]},
                    "factor": {"label": "B", "dim": 2}, "lifts": []}],
        "group": {"elements": [{"name": name, "tau": [1], "maps": [{"P": [[u]], "sigma": "id"}]}
                               for name, u in units.items()]},
        "fields": {"base": "Q", "full": "K", "table": table},
    }


def test_field_table_key_must_be_closed():
    table = {"id": "K", "i,id": "Ki", "i,id,j,k": "Q"}
    assert sg.load_endo_structure(_inner4_document(table)).action.composition[("i", "j")] == "k"
    # {id, i, j} holds the identity, but i o j = k lies outside it
    with pytest.raises(ValidationError, match="not closed under composition"):
        sg.load_endo_structure(_inner4_document(dict(table, **{"i,id,j": "?"})))


def test_table_is_optional():
    d = sg.demo_document("remark-A")
    del d["fields"]["table"]
    E = sg.load_endo_structure(d)
    assert E.field_table is None
    assert E.field_label_for(("id",)) is None


def test_field_of_definition_fixed_and_moved():
    E = sg.load_endo_structure("remark-A2")
    Qi = E.product.blocks[0].algebra
    Q = E.product.blocks[1].algebra
    one, i = Qi.one(), Qi.basis_element(1)

    moved = sg.column_echelon(sg.MatrixOverD.from_columns(Qi, [[one, i]], 2))
    any_q = sg.random_subspace(Q, 2, 1, seed=3)
    report = sg.field_of_definition(E, sg.ProductIdeal.from_subspaces([moved, any_q]))
    assert report.kvec == (1, 1)
    assert report.stabilizer_names == ("id",)
    assert report.field_label == "Q(i)"
    assert report.degree_over_base == 2
    assert report.dim == 2
    assert report.isogeny_class == "E^1 x C^1"
    assert report.generators == ()

    fixed = sg.column_echelon(sg.MatrixOverD.from_columns(Qi, [[one, Qi.zero()]], 2))
    report = sg.field_of_definition(E, sg.ProductIdeal.from_subspaces([fixed, any_q]))
    assert report.stabilizer_names == ("c", "id")
    assert report.field_label == "Q"
    assert report.degree_over_base == 1
    assert report.generators == ("c",)


def test_report_json_shape():
    E = sg.load_endo_structure("remark-A2")
    ideal = sg.search_free(E.action, (1, 1), count=1, seed=11).ideals[0]
    payload = sg.field_of_definition(E, ideal).to_json()
    assert set(payload) == {
        "type", "isogeny_class", "dim", "stabilizer", "field",
        "stabilizer_generators", "degree_over_base", "ideal",
    }
    # serialized ideal parses back to the same object
    back = schema.parse_product_ideal(payload["ideal"], E.product)
    assert back == ideal


def test_ideal_shape_mismatch_rejected(Qi):
    E = sg.load_endo_structure("remark-A")
    bad = sg.ProductIdeal.from_subspaces([sg.random_subspace(Qi, 2, 1, seed=1)])
    with pytest.raises(ValidationError, match="components"):
        sg.field_of_definition(E, bad)


def test_remond_bound_matches_independent_oracle():
    for g in range(2, 8):
        assert sg.remond_bound(g) == oracles.oracle_bound(g)
        assert sg.remond_bound(g) == oracles.FROZEN_BOUNDS[g]
    assert sg.remond_bound(1) == 2
    assert sg.remond_bound(8) == oracles.oracle_bound(8)


def test_remond_bound_rejects_bad_dimension():
    for bad in (0, -3, "3", 2.5, True, 1001):
        with pytest.raises(ValidationError):
            sg.remond_bound(bad)
    assert sg.remond_bound(1000) == oracles.oracle_bound(1000)


def test_survey_budget_caps():
    E = sg.load_endo_structure("remark-A2")
    with pytest.raises(ValidationError, match="count 1001 exceeds the supported maximum 1000"):
        sg.subvariety_survey(E, (1, 1), count=frontend.MAX_COUNT + 1)
    with pytest.raises(ValidationError, match="max_tries 100001 exceeds the supported maximum 100000"):
        sg.subvariety_survey(E, (1, 1), max_tries=frontend.MAX_TRIES + 1)
    # negatives sample nothing, yet an oversized budget is refused there too
    with pytest.raises(ValidationError, match="exceeds"):
        sg.subvariety_survey(E, (2, 1), count=frontend.MAX_COUNT + 1)
    # at the caps themselves the survey runs; a budget of MAX_TRIES samples is only an upper bound
    res = sg.subvariety_survey(E, (1, 1), count=2, seed=0, max_tries=frontend.MAX_TRIES)
    assert res["status"] == "positive"
    res = sg.subvariety_survey(E, (2, 1), count=frontend.MAX_COUNT, seed=0)
    assert res["status"] == "negative"


def test_check_bound():
    E = sg.load_endo_structure("remark-A2")
    ideal = sg.search_free(E.action, (1, 1), count=1, seed=4).ideals[0]
    report = sg.field_of_definition(E, ideal)
    assert report.degree_over_base == 2
    assert sg.check_bound(report, E.g_total)
    assert sg.check_bound(report, 1)  # bound for g=1 is 2, degree is exactly 2


def test_survey_positive():
    E = sg.load_endo_structure("remark-A2")
    res = sg.subvariety_survey(E, (1, 1), count=4, seed=42)
    assert res["status"] == "positive"
    assert len(res["witnesses"]) == 4
    assert res["bound"] == {"dim": 4, "value": 51840}
    for w in res["witnesses"]:
        assert w["field"] == "Q(i)"
        assert w["degree_over_base"] == 2
        assert w["bound_ok"] is True
    assert json.dumps(res)  # JSON-ready


def test_survey_negative_with_witness():
    E = sg.load_endo_structure("remark-A")
    res = sg.subvariety_survey(E, (1, 1), seed=0)
    assert res["status"] == "negative"
    assert res["certificate"] == {"witness": "c"}
    assert res["possible_stabilizers"] == [["c", "id"]]
    assert res["possible_fields"] == ["Q"]
    assert "fixes every ideal" in res["statement"]
    assert json.dumps(res)


def test_survey_negative_full_type():
    E = sg.load_endo_structure("remark-A2")
    res = sg.subvariety_survey(E, (2, 1), seed=0)
    assert res["status"] == "negative"
    assert res["certificate"] == {"witness": "c"}


def test_survey_inconclusive_on_tiny_budget():
    E = sg.load_endo_structure("remark-A2")
    res = sg.subvariety_survey(E, (1, 1), count=50, seed=0, max_tries=5)
    assert res["status"] == "inconclusive"
    assert res["tries_used"] <= 5
    assert "detail" in res
    assert json.dumps(res)


def swap_structure():
    """Two copies of M_2(Q) exchanged by an involution, as an EndoStructure."""
    Q = sg.rational_algebra()
    block = sg.Block(Q, 2)
    product = sg.ProductAlgebra([block, block])
    eye = (sg.MatrixOverD.identity(Q, 2), block.lifts.identity)
    action = sg.validate_group(product, [
        sg.GroupElement("id", (0, 1), [eye, eye]),
        sg.GroupElement("swap", (1, 0), [eye, eye]),
    ])
    return sg.EndoStructure(product=product, action=action, factors=(("E", 1), ("E", 1)),
                            base_label="Q", full_label="K",
                            field_table={("id",): "K", ("id", "swap"): "Q"})


@pytest.mark.parametrize("make", [lambda: sg.load_endo_structure("remark-A2"), swap_structure],
                         ids=["remark-A2", "swap"])
def test_survey_witnesses_match_field_of_definition(make):
    # the survey reuses the stabilizer search_free certified; the entries must
    # equal a from-scratch field_of_definition report
    E = make()
    res = sg.subvariety_survey(E, (1, 1), count=4, seed=5)
    cert = sg.search_free(E.action, (1, 1), count=4, seed=5)
    assert res["status"] == "positive" and len(res["witnesses"]) == 4
    for w, ideal in zip(res["witnesses"], cert.ideals):
        report = sg.field_of_definition(E, ideal)
        assert w == dict(report.to_json(), bound_ok=sg.check_bound(report, E.g_total))


def conj_pair_structure():
    """{id, a, b, ab} on M_1(Q(i)) x M_2(Q(i)): a conjugates factor 1 only, b factor 2 only."""
    Qi = sg.field_algebra([1, 0, 1])
    conj = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")
    lifts = sg.LiftTable.build(Qi, [conj])
    blocks = [sg.Block(Qi, 1, lifts), sg.Block(Qi, 2, lifts)]
    product = sg.ProductAlgebra(blocks)

    def element(name, sigmas):
        return sg.GroupElement(name, (0, 1), [(sg.MatrixOverD.identity(Qi, b.n), lifts.get(s))
                                              for b, s in zip(blocks, sigmas)])

    action = sg.validate_group(product, [
        element("id", ("id", "id")), element("a", ("conj", "id")),
        element("b", ("id", "conj")), element("ab", ("conj", "conj")),
    ])
    return sg.EndoStructure(product=product, action=action, factors=(("E", 1), ("F", 1)),
                            base_label="Q", full_label="L",
                            field_table={("id",): "L", ("a", "id"): "La", ("b", "id"): "Lb",
                                         ("ab", "id"): "Lab", ("a", "ab", "b", "id"): "Q"})


@pytest.mark.parametrize("kvec, kernel", [
    ((1, 1), ["a", "id"]),
    ((0, 1), ["a", "id"]),
    ((1, 0), ["a", "ab", "b", "id"]),
    ((1, 2), ["a", "ab", "b", "id"]),
])
def test_negative_survey_reports_the_type_kernel(kvec, kernel):
    E = conj_pair_structure()
    assert list(sg.type_kernel(E.action, kvec)) == kernel
    res = sg.subvariety_survey(E, kvec, seed=0)
    assert res["status"] == "negative"
    assert res["certificate"] == {"witness": "a"}
    assert res["possible_stabilizers"] == [kernel]
    assert res["possible_fields"] == [E.field_label_for(kernel)]
    # the kernel is the stabilizer of a generic ideal of the type
    for ideal in sampled_ideals(E.action, kvec):
        assert sg.stabilizer(E.action, ideal) == kernel


@pytest.mark.parametrize("kvec", [(1, 1), (2, 1)])
def test_one_survey_calls_type_kernel_once(kvec, monkeypatch):
    E = sg.load_endo_structure("remark-A2")
    calls = []
    real = groups.type_kernel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(groups, "type_kernel", counting)
    sg.subvariety_survey(E, kvec, count=2, seed=1)
    assert len(calls) == 1
    sg.search_free(E.action, kvec, count=2, seed=1)
    assert len(calls) == 2


def test_survey_type_validation():
    E = sg.load_endo_structure("remark-A")
    with pytest.raises(ValidationError, match="out of range"):
        sg.subvariety_survey(E, (5, 0), seed=0)
    with pytest.raises(ValidationError, match="length"):
        sg.subvariety_survey(E, (1,), seed=0)


def test_survey_payload_deterministic():
    E = sg.load_endo_structure("remark-A2")
    a = sg.subvariety_survey(E, (1, 1), count=3, seed=9)
    b = sg.subvariety_survey(E, (1, 1), count=3, seed=9)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
