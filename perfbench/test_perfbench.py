"""Tests of the benchmark itself: generator, output checks, tracing, metric names.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import reference  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from skewgrass import frontend, linalg, qlinalg  # noqa: E402


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7])
def test_generated_documents_validate(seed):
    for name, doc, order in scenarios.load_documents(seed):
        assert frontend.load_endo_structure(doc).action.order == order, name
    for name, doc, kvec, _ in scenarios.survey_scenarios(seed):
        structure = frontend.load_endo_structure(doc)
        assert structure.product.check_type(kvec) == kvec, name


def test_generator_is_deterministic_and_seeded():
    def dump(seed):
        return json.dumps([doc for _, doc, _ in scenarios.load_documents(seed)], sort_keys=True)

    assert dump(3) == dump(3)
    assert dump(3) != dump(4)
    first = [item.linear_map for item in scenarios.decompose_ladder(3, 1)[0]]
    assert first == [item.linear_map for item in scenarios.decompose_ladder(3, 1)[0]]
    assert first != [item.linear_map for item in scenarios.decompose_ladder(4, 1)[0]]
    assert scenarios.survey_seeds(3, 2, 7) == scenarios.survey_seeds(3, 2, 7)


def test_ladder_rounds_cover_every_lift_with_invertible_p():
    rounds = scenarios.decompose_ladder(1, 2)
    assert [item.linear_map for item in rounds[0]] != [item.linear_map for item in rounds[1]]
    for items in rounds:
        assert len(items) == sum(1 + len(lifts) for _, _, lifts in scenarios.LADDER)
        for item in items:
            assert (item.p0 * item.p0_inv).is_identity()


# -- output checks are not vacuous --------------------------------------------


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


def test_decompose_check_rejects_corruption(work_dir):
    w = workloads.Decompose(1, work_dir)
    item = w.rounds[0][0]  # M_2(Q(i)), sigma = id
    p, sigma = w.run(item)
    assert w.check(item, (p, sigma))
    two = item.block.algebra.element([2, 0])
    assert w.check(item, (p * linalg.MatrixOverD.scalar(item.block.algebra, 2, two), sigma))
    ident = linalg.MatrixOverD.identity(item.block.algebra, 2)
    assert not w.check(item, (ident, sigma))
    other = w.rounds[0][1]  # same block, sigma = conj
    assert not w.check(item, (p, other.block.lifts.get(other.sigma_name)))


def test_survey_check_rejects_corruption(work_dir):
    w = workloads.Survey(1, work_dir)
    item = next(i for i in w.rounds[0] if i[0] == "remark-A2 (1,1)")
    out = w.run(item)
    assert w.check(item, out)
    payload = json.loads(out)
    dup = dict(payload, witnesses=[payload["witnesses"][0]] * len(payload["witnesses"]))
    assert not w.check(item, json.dumps(dup, sort_keys=True, separators=(",", ":")))
    assert not w.check(item, json.dumps(dict(payload, status="negative")))
    # a changed field outside the witness ideals changes the masked digest
    drift = dict(payload, tries_used=payload["tries_used"] + 1)
    assert not w.check(item, json.dumps(drift, sort_keys=True, separators=(",", ":")))
    negative = next(i for i in w.rounds[0] if i[3] == "negative")
    out = w.run(negative)
    assert w.check(negative, out)
    trivial = dict(json.loads(out), certificate={"witness": "id"})
    assert not w.check(negative, json.dumps(trivial, sort_keys=True, separators=(",", ":")))


def test_load_check_rejects_corruption(work_dir):
    w = workloads.Load(1, work_dir)
    try:
        item = next(i for i in w.rounds[0] if i[0].endswith("remark-A.json"))
        code, text = w.run(item)
        assert code == 0 and w.check(item, (code, text))
        payload = json.loads(text)
        payload["group"]["order"] += 1
        assert not w.check(item, (0, json.dumps(payload)))
        assert not w.check(item, (2, text))
    finally:
        w.close()
    assert not os.path.exists(w.dir)


class _Stub(workloads.Workload):
    """Three-item workload whose second op fails its check and third raises."""

    name = "stub"

    def __init__(self):
        self.rounds = [["good", "bad", "boom"]]

    def run(self, item):
        if item == "boom":
            raise ValueError(item)
        return item

    def check(self, item, out):
        return out == "good"


def test_measure_counts_failures_and_keeps_going(capsys):
    m = run.measure(_Stub(), seconds=0, min_ops=7)
    assert len(m.rounds) == 3 and len(m.lat) == 9 and m.failed == 6
    err = capsys.readouterr().err
    assert err.count("stub op on bad failed its output check") == 3
    assert err.count("stub op on boom raised") == 3 and "ValueError: boom" in err


def test_times_are_scaled_by_the_reference_kernel():
    ref = reference.REFERENCE_NS
    assert reference.scaled(10**6, ref, ref) == 10**6
    assert reference.scaled(10**6, 2 * ref, 2 * ref) == 5 * 10**5  # a host twice as slow
    assert reference._eliminate(reference.SIZE) == reference._eliminate(reference.SIZE)
    m = run.measure(_Stub(), seconds=0, min_ops=3)
    assert len(m.kernel_ns) == 3 and all(ns > 0 for ns in m.kernel_ns)
    assert all(scaled > 0 for scaled in m.scaled) and len(m.scaled) == len(m.lat)


# -- tracing ------------------------------------------------------------------


def test_tracer_records_nesting_and_restores_the_package(work_dir, tmp_path):
    original = qlinalg.rref
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qlinalg.rref is not original
        w = workloads.Decompose(1, work_dir)
        item = w.rounds[0][0]
        tracer.op_id = 0
        w.run(item)
        tracer.op_id = -1
        recorded = len(tracer)
        w.check(item, w.run(item))  # outside an op: not recorded
        assert len(tracer) == recorded
    finally:
        tracer.uninstall()
    assert qlinalg.rref is original
    stats, outside_ns = tracer.summary([10**12])
    assert stats["autos.decompose"][0] == 1
    assert stats["autos.inner_conjugator"][0] == 1
    assert stats["qlinalg.rref"][0] >= 1 and tracer.counts["qlinalg.rref.cells"] > 0
    decompose = stats["autos.decompose"]
    assert decompose[2] >= stats["autos.inner_conjugator"][2]  # inclusive nests
    assert sum(s[1] for s in stats.values()) == decompose[2]  # self times add up
    assert outside_ns == 10**12 - decompose[2]
    tracer.write(str(tmp_path / "spans.json.gz"))
    with gzip.open(tmp_path / "spans.json.gz", "rt", encoding="utf-8") as fh:
        written = json.load(fh)
    assert len(written["columns"]["parent"]) == len(tracer)
    assert written["names"][written["columns"]["name"][0]] == "autos.decompose"


# -- metric names --------------------------------------------------------------


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    assert run.main(["--workload", "load", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8
    expected = {m["name"]: m["unit"] for m in benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert any(line.startswith(f"{name} = ") for line in lines[:-1]), name
    if trace:
        assert os.path.exists(tmp_path / "trace-load.json.gz")


def test_workloads_and_layer_map_match_benchmark_json():
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    layers = {m["name"] for m in spec["per_layer"]}
    with open(os.path.join(HERE, "record.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    measured = record["per_layer_seed_101"]
    for row in record["layer_map"]:
        assert row["layer_metric"] in layers, row
        # the map names exactly the workloads on which the traced run saw the layer work
        assert set(row["workloads"]) == {w for w in workloads.WORKLOADS
                                         if measured[w][row["layer_metric"]] != 0}, row


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "load", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
