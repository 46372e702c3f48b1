"""The three workloads: inputs from scenarios.py, one op, exact output checks.

A workload is built from a seed; ``rounds`` are the lists of inputs the
loop runs in turn, ``run(item)`` is one timed op and ``check(item, out)``
verifies its output outside the timed span.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile

import scenarios
from skewgrass import autos, cli, frontend, groups, linalg, schema
from skewgrass.ideals import ProductIdeal

SURVEY_COUNT = 5
# Rounds of distinct inputs per workload.  Each round holds one input per
# ladder rung, scenario or document, so every round has the same mix; many
# distinct rounds average out how much work one seeded input happens to need.
DECOMPOSE_ROUNDS = 30
SURVEY_ROUNDS = 40
LOAD_ROUNDS = 6


def mask_witness_ideals(text: str) -> str:
    """Survey output with witness ideals masked, as the golden files store it."""
    payload = json.loads(text)
    for w in payload.get("witnesses", []):
        w["ideal"] = "<masked>"
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class StableDigests:
    """Remembers the first digest per key; later ones must match it."""

    def __init__(self):
        self.seen = {}

    def check(self, key, text: str) -> bool:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self.seen.setdefault(key, digest) == digest


class Workload:
    """Set-up happens in ``__init__(seed, work_dir)``; ``close`` undoes it.

    ``rounds`` is a list of item lists; the loop runs them in turn.
    """

    name = ""
    rounds: list

    def label(self, item) -> str:
        """Short description of an input, for failure reports."""
        return str(item)

    def close(self):
        pass


class Decompose(Workload):
    """autos.decompose on a fresh map per op, over the block ladder and its lifts."""

    name = "decompose"

    def __init__(self, seed: int, work_dir: str):
        self.rounds = scenarios.decompose_ladder(seed, DECOMPOSE_ROUNDS)

    def label(self, item) -> str:
        return f"{item.block.label} with sigma {item.sigma_name}"

    def run(self, item):
        return autos.decompose(autos.MatrixAlgebraAutomorphism(item.block, item.linear_map))

    def check(self, item, out) -> bool:
        p, sigma = out
        if sigma.name != item.sigma_name:
            return False
        if autos.from_pair(item.block, p, sigma).linear_map != item.linear_map:
            return False
        # P0^{-1} P must be a central homothety: scalar diagonal, central entry
        q = item.p0_inv * p
        lam = q.entries[0][0]
        alg = item.block.algebra
        if lam.is_zero():
            return False
        for i, row in enumerate(q.entries):
            for j, e in enumerate(row):
                if (e != lam) if i == j else not e.is_zero():
                    return False
        return all(lam * b == b * lam for b in alg.basis_elements())


class Survey(Workload):
    """frontend.subvariety_survey (count 5) on loaded structures, dumped as the CLI does."""

    name = "survey"

    def __init__(self, seed: int, work_dir: str):
        loaded = [(name, frontend.load_endo_structure(doc), kvec, status)
                  for name, doc, kvec, status in scenarios.survey_scenarios(seed)]
        self.rounds = [[row + (survey_seed,) for row, survey_seed in zip(loaded, seeds)]
                       for seeds in scenarios.survey_seeds(seed, SURVEY_ROUNDS, len(loaded))]
        self.digests = StableDigests()

    def label(self, item) -> str:
        return f"{item[0]} with survey seed {item[4]}"

    def run(self, item):
        name, structure, kvec, _, survey_seed = item
        payload = frontend.subvariety_survey(structure, kvec, count=SURVEY_COUNT, seed=survey_seed)
        return json.dumps({"command": "survey", "dataset": name, **payload},
                          sort_keys=True, separators=(",", ":"))

    def check(self, item, out) -> bool:
        name, structure, kvec, status, survey_seed = item
        payload = json.loads(out)
        if payload["status"] != status or payload["type"] != list(kvec):
            return False
        action = structure.action
        if status == "negative":
            # the certificate element must be nontrivial and fix a sampled ideal
            witness = payload["certificate"]["witness"]
            if witness == action.identity_name:
                return False
            ideal = ProductIdeal.from_subspaces([
                linalg.random_subspace(b.algebra, b.n, k, survey_seed)
                for b, k in zip(structure.product.blocks, kvec)])
            if groups.act_on_ideal(action.element(witness), ideal) != ideal:
                return False
        else:
            witnesses = payload["witnesses"]
            if len(witnesses) != SURVEY_COUNT:
                return False
            if len({json.dumps(w["ideal"]) for w in witnesses}) != SURVEY_COUNT:
                return False
            full = structure.field_label_for([action.identity_name])
            for w in witnesses:
                ideal = schema.parse_product_ideal(w["ideal"], structure.product)
                if groups.stabilizer(action, ideal) != [action.identity_name]:
                    return False
                if w["stabilizer"] != [action.identity_name] or w["field"] != full:
                    return False
                if w["degree_over_base"] != action.order:
                    return False
        return self.digests.check((name, survey_seed), mask_witness_ideals(out))


class Load(Workload):
    """In-process ``skewgrass validate FILE`` on generated documents."""

    name = "load"

    def __init__(self, seed: int, work_dir: str):
        os.makedirs(work_dir, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="load-", dir=work_dir)
        self.rounds = []
        for r, docs in enumerate(scenarios.load_rounds(seed, LOAD_ROUNDS)):
            items = []
            for name, doc, order in docs:
                path = os.path.join(self.dir, f"{r}-{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                items.append((path, order))
            self.rounds.append(items)
        self.digests = StableDigests()

    def label(self, item) -> str:
        return os.path.basename(item[0])

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["validate", item[0]])
        return code, buf.getvalue()

    def check(self, item, out) -> bool:
        path, order = item
        code, text = out
        if code != 0:
            return False
        payload = json.loads(text)
        if payload["status"] != "ok" or payload["group"]["order"] != order:
            return False
        return self.digests.check(path, text)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Decompose, Survey, Load)}
