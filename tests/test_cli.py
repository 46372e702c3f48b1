"""CLI behaviour: JSON contract, exit codes, goldens, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from skewgrass import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def mask_witness_ideals(text: str) -> str:
    payload = json.loads(text)
    for w in payload.get("witnesses", []):
        w["ideal"] = "<masked>"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def golden(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as fh:
        return fh.read()


# -- golden comparisons (witness ideals masked; semantics asserted below) --

def test_golden_negative_survey(capsys):
    code, out = run(capsys, "demo", "remark-A", "--type", "1,1", "--seed", "0")
    assert code == 0
    assert mask_witness_ideals(out) == golden("demo_remark-A_type-1-1_seed-0.json")
    payload = json.loads(out)
    assert payload["status"] == "negative"
    assert payload["certificate"] == {"witness": "c"}
    assert payload["possible_fields"] == ["Q"]


def test_golden_positive_survey(capsys):
    code, out = run(capsys, "demo", "remark-A2", "--type", "1,1",
                    "--count", "10", "--seed", "42")
    assert code == 0
    assert mask_witness_ideals(out) == golden("demo_remark-A2_type-1-1_count-10_seed-42.json")
    payload = json.loads(out)
    assert payload["status"] == "positive"
    assert len(payload["witnesses"]) == 10
    ideals = [json.dumps(w["ideal"]) for w in payload["witnesses"]]
    assert len(set(ideals)) == 10
    for w in payload["witnesses"]:
        assert w["field"] == "Q(i)" and w["degree_over_base"] == 2 and w["bound_ok"]


def test_golden_full_type_negative(capsys):
    code, out = run(capsys, "demo", "remark-A2", "--type", "2,1", "--seed", "0")
    assert code == 0
    assert mask_witness_ideals(out) == golden("demo_remark-A2_type-2-1_seed-0.json")
    assert json.loads(out)["status"] == "negative"


# -- the other subcommands --

def test_validate_demo(capsys):
    code, out = run(capsys, "validate", "remark-A")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["dim"] == 3
    assert payload["group"]["order"] == 2
    assert payload["blocks"][0]["lifts"] == ["id", "conj"]


def test_validate_file_and_demo_agree(tmp_path, capsys):
    from skewgrass import datasets
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(datasets.demo_document("remark-A")))
    code_f, out_f = run(capsys, "validate", str(path))
    code_d, out_d = run(capsys, "validate", "remark-A")
    assert code_f == code_d == 0
    # identical apart from the dataset label
    a, b = json.loads(out_f), json.loads(out_d)
    a["dataset"] = b["dataset"] = "X"
    assert a == b


def test_decompose(capsys):
    code, out = run(capsys, "decompose", "remark-A2", "--element", "c")
    assert code == 0
    payload = json.loads(out)
    assert [f["sigma"] for f in payload["factors"]] == ["conj", "id"]
    assert all(f["reconstructed"] for f in payload["factors"])


def test_bound(capsys):
    code, out = run(capsys, "bound", "--dim", "5")
    assert code == 0
    assert json.loads(out) == {"command": "bound", "dim": 5, "value": 311040}


def test_bound_past_the_maximum_dimension_exits_2(tmp_path, capsys):
    code, out = run(capsys, "bound", "--dim", "1300")
    assert code == 2 and "exceeds" in json.loads(out)["error"]
    code, out = run(capsys, "bound", "--dim", "1000")
    assert code == 0 and json.loads(out)["dim"] == 1000
    # the survey reports the bound for the document's dimension, 1 + 2 * 650 here
    from skewgrass import datasets
    doc = datasets.demo_document("remark-A")
    doc["blocks"][1]["factor"]["dim"] = 650
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "survey", str(path), "--type", "1,1")
    assert code == 2 and "exceeds" in json.loads(out)["error"]


@pytest.mark.parametrize("argv, message", [
    (("survey", "remark-A2", "--type", "1,1", "--count", "1001"), "count 1001 exceeds"),
    (("survey", "remark-A2", "--type", "1,1", "--max-tries", "100001"), "max_tries 100001 exceeds"),
    (("demo", "remark-A2", "--type", "1,1", "--count", "1001"), "count 1001 exceeds"),
])
def test_survey_budget_past_the_caps_exits_2(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    assert message in json.loads(out)["error"]


def test_survey_budget_at_the_caps_exits_0(capsys):
    code, out = run(capsys, "survey", "remark-A2", "--type", "1,1", "--count", "3",
                    "--max-tries", "100000")
    assert code == 0 and json.loads(out)["status"] == "positive"


def test_field_of_def_with_ideal_file(tmp_path, capsys):
    # block 0: the line through (1, i) in Q(i)^2; block 1: the line through (1, 0) in Q^2
    ideal = [
        [[["1", "0"]], [["0", "1"]]],
        [[["1"]], [["0"]]],
    ]
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal))
    code, out = run(capsys, "field-of-def", "remark-A2", "--ideal", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == [1, 1]
    assert payload["stabilizer"] == ["id"]
    assert payload["field"] == "Q(i)"
    assert payload["degree_over_base"] == 2


def test_demo_listing_and_dump(capsys):
    code, out = run(capsys, "demo")
    assert code == 0
    assert json.loads(out)["available"] == ["remark-A", "remark-A2"]
    code, out = run(capsys, "demo", "remark-A")
    assert code == 0
    doc = json.loads(out)["document"]
    assert {b["factor"]["label"] for b in doc["blocks"]} == {"E", "C"}


# -- exit codes and error JSON --

def test_bad_source_exits_2(capsys):
    code, out = run(capsys, "validate", "no-such-demo")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "remark-A" in payload["error"]


def test_invalid_document_error_carries_path(tmp_path, capsys):
    from skewgrass import datasets
    doc = datasets.demo_document("remark-A")
    doc["blocks"][0]["lifts"][0]["matrix"][1][1] = "1/0"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "blocks[0].lifts[0].matrix[1][1]" in json.loads(out)["error"]


def test_singular_lift_exits_2(tmp_path, capsys):
    from skewgrass import datasets
    doc = datasets.demo_document("remark-A2")
    doc["blocks"][0]["lifts"][0]["matrix"] = [[1, 0], [0, 0]]
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "blocks[0].lifts: automorphism conj of" in json.loads(out)["error"]
    assert "is not invertible" in json.loads(out)["error"]


def test_large_field_coefficient_exits_2_at_once(tmp_path, capsys):
    # the linear-factor search trial-divides up to sqrt|c_0|: a 30-digit
    # constant term would never finish, so it is refused before the search
    import time

    from skewgrass import datasets
    doc = datasets.demo_document("remark-A2")
    doc["blocks"][0]["algebra"] = {"field": [10**30 + 1, 0, 1]}
    path = tmp_path / "big_field.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert json.loads(out)["error"].startswith("blocks[0].algebra: field polynomial coefficient at index 0")


def test_unreadable_json_exits_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "not valid JSON" in json.loads(out)["error"]


@pytest.mark.parametrize("case", ["exponent", "long_integer"])
def test_oversized_numbers_exit_2_at_once(tmp_path, capsys, case):
    # Fraction("1e10000000") and int() of a 5000-digit literal would take
    # seconds or raise outside the error path; both are refused as bad input
    import time

    from skewgrass import datasets
    path = tmp_path / "big.json"
    if case == "exponent":
        doc = datasets.demo_document("remark-A2")
        doc["group"]["elements"][1]["maps"][1]["P"] = [[["1e10000000"], [0]], [[0], [1]]]
        path.write_text(json.dumps(doc))
        message = "group.elements[1].maps[1].P[0][0][0]: malformed rational"
    else:
        path.write_text("[" + "7" * 5000 + "]")
        message = "not valid JSON"
    start = time.perf_counter()
    code, out = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert message in json.loads(out)["error"]


def test_doomed_type_exits_2(capsys):
    code, out = run(capsys, "demo", "remark-A", "--type", "9,9")
    assert code == 2
    assert "out of range" in json.loads(out)["error"]


def test_inconclusive_exits_3(capsys):
    code, out = run(capsys, "demo", "remark-A2", "--type", "1,1",
                    "--count", "50", "--max-tries", "5")
    assert code == 3
    assert json.loads(out)["status"] == "inconclusive"


def test_survey_bad_max_tries_exits_2(capsys):
    code, out = run(capsys, "survey", "remark-A2", "--type", "1,1", "--max-tries", "-5")
    assert code == 2
    assert "max_tries must be at least 1" in json.loads(out)["error"]


def test_demo_type_bad_max_tries_exits_2(capsys):
    code, out = run(capsys, "demo", "remark-A2", "--type", "1,1", "--max-tries", "0")
    assert code == 2
    assert "max_tries must be at least 1" in json.loads(out)["error"]


@pytest.mark.parametrize("argv, message", [
    (("survey", "remark-A", "--type", "1,1", "--max-tries", "-5", "--count", "0"), "count must be at least 1"),
    (("survey", "remark-A", "--type", "1,1", "--max-tries", "-5"), "max_tries must be at least 1"),
    (("demo", "remark-A2", "--type", "2,1", "--count", "0"), "count must be at least 1"),
    (("demo", "remark-A2", "--type", "2,1", "--max-tries", "0"), "max_tries must be at least 1"),
])
def test_bad_budget_on_a_negative_type_exits_2(capsys, argv, message):
    code, out = run(capsys, *argv)
    assert code == 2
    assert message in json.loads(out)["error"]


# -- determinism and rendering --

def test_byte_identical_reruns(capsys):
    argv = ("demo", "remark-A2", "--type", "1,1", "--count", "5", "--seed", "7")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second
    _, other = run(capsys, "demo", "remark-A2", "--type", "1,1", "--count", "5", "--seed", "8")
    assert other != first


def test_main_calls_carry_no_state(capsys):
    # the parser is built once per process; the second call must not see the first's --count
    argv = ["survey", "remark-A2", "--type", "1,1"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    fresh = subprocess.run([sys.executable, "-m", "skewgrass.cli", *argv], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    run(capsys, *argv, "--count", "3")
    code, out = run(capsys, *argv)
    assert (code, out) == (fresh.returncode, fresh.stdout)
    assert len(json.loads(out)["witnesses"]) == 1


def test_pretty_survey(capsys):
    code, out = run(capsys, "demo", "remark-A2", "--type", "1,1",
                    "--count", "2", "--seed", "1", "--pretty")
    assert code == 0
    assert "status: positive" in out
    assert "witness 1: field Q(i), degree 2" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_pretty_negative_and_bound(capsys):
    _, out = run(capsys, "demo", "remark-A", "--type", "1,1", "--pretty")
    assert "status: negative" in out and "fixes every ideal" in out
    _, out = run(capsys, "bound", "--dim", "4", "--pretty")
    assert out.strip() == "dimension 4: degree bound 51840"


def test_pretty_validate_and_decompose(capsys):
    _, out = run(capsys, "validate", "remark-A", "--pretty")
    assert "group of order 2" in out
    _, out = run(capsys, "decompose", "remark-A", "--element", "c", "--pretty")
    assert "sigma = conj" in out and "reconstructed exactly" in out
