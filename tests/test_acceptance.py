"""Acceptance gate: the eight behavioural criteria the package must meet.

Each criterion is one test that prints a single PASS/FAIL line; the lines
are echoed again in the terminal summary (see conftest).  A criterion test
failing means the package does not meet its contract, so nothing here is
marked xfail or skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction

import oracles
import skewgrass as sg
from skewgrass import cli
from conftest import subspace_rows

RESULTS = []
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException as exc:
        RESULTS.append((num, False, desc))
        print(f"ACCEPTANCE {num}: FAIL - {desc} ({exc})")
        raise
    RESULTS.append((num, True, desc))
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def mask_witness_ideals(text: str) -> str:
    payload = json.loads(text)
    for w in payload.get("witnesses", []):
        w["ideal"] = "<masked>"
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# -- 1: ideal <-> subspace correspondence ------------------------------------

def test_criterion_1_correspondence():
    desc = ("idempotent roundtrip exact on 200 seeded subspaces per algebra "
            "and shape, under 60 s")
    with criterion(1, desc):
        t0 = time.monotonic()
        algebras = [sg.rational_algebra(), sg.field_algebra([1, 0, 1]),
                    sg.quaternion_algebra(-1, -1)]
        checked = 0
        for a, alg in enumerate(algebras):
            for n in (2, 3):
                for k in range(1, n):
                    for i in range(200):
                        v = sg.random_subspace(alg, n, k, sg.subseed(10, a, n, k, i))
                        phi = sg.idempotent_generator(v)
                        assert phi * phi == phi
                        assert sg.column_echelon(phi) == v
                        assert sg.subspace_of_ideal([phi]) == v
                        checked += 1
        elapsed = time.monotonic() - t0
        assert checked == 3 * 3 * 200
        assert elapsed < 60, f"took {elapsed:.1f} s"


# -- 2: automorphism decomposition -------------------------------------------

def test_criterion_2_decomposition():
    desc = ("100 seeded automorphisms each of M_2(Q(i)) and M_2(H(-1,-1)) "
            "decomposed exactly, sigma recovered, P-ambiguity central")
    with criterion(2, desc):
        Qi = sg.field_algebra([1, 0, 1])
        conj = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")
        blocks = [
            sg.Block(Qi, 2, sg.LiftTable.build(Qi, [conj])),
            sg.Block(sg.quaternion_algebra(-1, -1), 2),
        ]
        for b, block in enumerate(blocks):
            names = [t.name for t in block.lifts]
            for i in range(100):
                p0 = sg.random_invertible(block.algebra, 2, sg.subseed(20, b, i))
                sigma0 = block.lifts.get(names[i % len(names)])
                built = sg.from_pair(block, p0, sigma0)
                fresh = sg.MatrixAlgebraAutomorphism(block, built.linear_map)
                p, sigma = sg.decompose(fresh)
                assert sigma.name == sigma0.name
                assert sg.from_pair(block, p, sigma).linear_map == built.linear_map
                ratio = sg.matrix_inv(p0) * p
                assert sg.is_trivial_on_grassmannian(ratio, block.lifts.identity, 1)


# -- 3: only central homotheties fix every subspace --------------------------

def _pair_corpus():
    Q = sg.rational_algebra()
    Qi = sg.field_algebra([1, 0, 1])
    H = sg.quaternion_algebra(-1, -1)
    conj = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")
    ident = {alg: sg.LiftTable.build(alg, []).identity for alg in (Q, Qi, H)}

    def diag(alg, coords):
        n = len(coords)
        padded = [list(c) + [0] * (alg.dim - len(c)) for c in coords]
        return sg.MatrixOverD.from_rows(alg, [
            [alg.element(padded[r]) if r == c else alg.zero() for c in range(n)]
            for r in range(n)
        ])

    def anti2(alg):
        return sg.MatrixOverD.from_rows(alg, [[alg.zero(), alg.one()],
                                              [alg.one(), alg.zero()]])

    i_qi = [0, 1]
    i_h = [0, 1, 0, 0]
    one_j = [1, 0, 1, 0]
    # (p, sigma, n); trivial pairs are identity maps with central scalars
    nontrivial = [
        (diag(Qi, [[1], [2]]), ident[Qi], 2),
        (anti2(Qi), ident[Qi], 2),
        (sg.MatrixOverD.identity(Qi, 2), conj, 2),
        (diag(Qi, [i_qi, i_qi]), conj, 2),
        (diag(Qi, [i_qi, [1]]), ident[Qi], 2),
        (diag(H, [i_h, i_h]), ident[H], 2),  # homothety, but i is not central in H
        (diag(H, [[1], one_j]), ident[H], 2),
        (anti2(H), ident[H], 2),
        (diag(Q, [[1], [1], [2]]), ident[Q], 3),
        (sg.MatrixOverD.from_rows(Q, [[Q.zero(), Q.one(), Q.zero()],
                                      [Q.zero(), Q.zero(), Q.one()],
                                      [Q.one(), Q.zero(), Q.zero()]]), ident[Q], 3),
    ]
    trivial = [
        (diag(Qi, [[3], [3]]), ident[Qi], 2),
        (diag(Qi, [i_qi, i_qi]), ident[Qi], 2),  # i is central in Q(i)
        (diag(Qi, [[Fraction(1, 2), 1], [Fraction(1, 2), 1]]), ident[Qi], 2),
        (diag(H, [[2], [2]]), ident[H], 2),
        (diag(H, [[Fraction(-3, 2)], [Fraction(-3, 2)]]), ident[H], 2),
        (diag(Q, [[5], [5], [5]]), ident[Q], 3),
    ]
    return nontrivial, trivial


def test_criterion_3_moved_subspaces():
    desc = ("every non-(central, id) pair moves some subspace in every valid "
            "dimension; central pairs fix 100 seeded subspaces")
    with criterion(3, desc):
        nontrivial, trivial = _pair_corpus()
        for idx, (p, sigma, n) in enumerate(nontrivial):
            for k in range(1, n):
                assert not sg.is_trivial_on_grassmannian(p, sigma, k)
                v = sg.find_moved_subspace(p, sigma, k, seed=sg.subseed(30, idx, k))
                assert v is not None
                assert sg.act_on_subspace(p, sigma, v) != v
        for idx, (p, sigma, n) in enumerate(trivial):
            for k in range(1, n):
                assert sg.is_trivial_on_grassmannian(p, sigma, k)
                # probes plus 100 seeded random subspaces, none may move
                assert sg.find_moved_subspace(p, sigma, k, seed=sg.subseed(31, idx, k),
                                              samples=100) is None


# -- 4: free-ideal search ------------------------------------------------------

def test_criterion_4_free_search():
    desc = ("100 distinct free ideals on the conjugation demo in under 120 s; "
            "20 on a two-block swap group, components distinct")
    with criterion(4, desc):
        E = sg.load_endo_structure("remark-A2")
        t0 = time.monotonic()
        report = sg.search_free(E.action, (1, 1), count=100, seed=42)
        elapsed = time.monotonic() - t0
        assert len(report.ideals) == 100
        assert len(set(report.ideals)) == 100
        for ideal in report.ideals:
            assert sg.stabilizer(E.action, ideal) == ["id"]
        assert elapsed < 120, f"took {elapsed:.1f} s"

        Q = sg.rational_algebra()
        block = sg.Block(Q, 2)
        product = sg.ProductAlgebra([block, block])
        eye = sg.from_pair(block, sg.MatrixOverD.identity(Q, 2), block.lifts.identity)
        action = sg.validate_group(product, [
            sg.GroupElement("id", (0, 1), [eye, eye]),
            sg.GroupElement("swap", (1, 0), [eye, eye]),
        ])
        report = sg.search_free(action, (1, 1), count=20, seed=7)
        assert len(set(report.ideals)) == 20
        for ideal in report.ideals:
            v1, v2 = ideal.subspaces
            assert v1 != v2  # a swapped ideal is fixed iff its components agree
            assert sg.stabilizer(action, ideal) == ["id"]


# -- 5: bundled scenarios against golden output -------------------------------

def test_criterion_5_remark_reproduction():
    desc = ("demo surveys reproduce the bundled scenarios and match golden "
            "JSON modulo witness ideals")
    with criterion(5, desc):
        code, out = run_cli("demo", "remark-A", "--type", "1,1", "--seed", "0")
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, "demo_remark-A_type-1-1_seed-0.json")) as fh:
            assert mask_witness_ideals(out) == fh.read()
        payload = json.loads(out)
        assert payload["status"] == "negative"
        assert payload["certificate"] == {"witness": "c"}
        assert payload["possible_fields"] == ["Q"]

        code, out = run_cli("demo", "remark-A2", "--type", "1,1",
                            "--count", "10", "--seed", "42")
        assert code == 0
        with open(os.path.join(GOLDEN_DIR,
                               "demo_remark-A2_type-1-1_count-10_seed-42.json")) as fh:
            assert mask_witness_ideals(out) == fh.read()
        payload = json.loads(out)
        assert payload["status"] == "positive"
        assert len(payload["witnesses"]) == 10
        for w in payload["witnesses"]:
            assert w["field"] == "Q(i)"
            assert w["degree_over_base"] == 2

        code, out = run_cli("demo", "remark-A2", "--type", "2,1", "--seed", "0")
        assert code == 0
        with open(os.path.join(GOLDEN_DIR, "demo_remark-A2_type-2-1_seed-0.json")) as fh:
            assert mask_witness_ideals(out) == fh.read()
        assert json.loads(out)["status"] == "negative"


# -- 6: degree bound values ----------------------------------------------------

def test_criterion_6_bound_values():
    desc = ("degree bound matches the independent oracle for g = 2..7 and "
            "holds on every survey witness")
    with criterion(6, desc):
        for g in range(2, 8):
            assert sg.remond_bound(g) == oracles.oracle_bound(g) == oracles.FROZEN_BOUNDS[g]
        E = sg.load_endo_structure("remark-A2")
        res = sg.subvariety_survey(E, (1, 1), count=5, seed=13)
        assert res["status"] == "positive"
        for w in res["witnesses"]:
            assert w["bound_ok"] is True
            assert w["degree_over_base"] <= sg.remond_bound(E.g_total)


# -- 7: agreement with commutative linear algebra ------------------------------

def test_criterion_7_oracle_equivalence():
    desc = "skew linear algebra over D = Q matches the commutative oracle on 200 seeded instances"
    with criterion(7, desc):
        Q = sg.rational_algebra()

        def rand_rows(rng, rows, cols, height=9):
            return [[Fraction(rng.randint(-height, height), rng.randint(1, height))
                     for _ in range(cols)] for _ in range(rows)]

        def lift(rows):
            return sg.MatrixOverD.from_rows(Q, [[Q.element([x]) for x in row]
                                                for row in rows])

        for idx in range(200):
            rng = random.Random(sg.subseed(70, idx))
            m = 1 + idx % 5
            rows = rand_rows(rng, 4, m)
            a = lift(rows)
            cols_as_rows = [tuple(r[j] for r in rows) for j in range(m)]
            assert subspace_rows(sg.column_echelon(a)) == oracles.row_space(cols_as_rows)

            ker = sg.right_kernel(a)
            got = (subspace_rows(sg.column_echelon(sg.MatrixOverD.from_columns(Q, ker, m)))
                   if ker else ())
            assert got == oracles.rref(oracles.null_space(rows))

            square = rand_rows(rng, 3, 3)
            inv = sg.try_inverse(lift(square))
            oracle_inv = oracles.q_inverse(square)
            if inv is None:
                assert oracle_inv is None
            else:
                assert oracle_inv is not None
                got = tuple(tuple(e.coords[0] for e in row) for row in inv.entries)
                assert got == oracle_inv

            u = sg.column_echelon(lift(rand_rows(rng, 4, 2)))
            w = sg.column_echelon(lift(rand_rows(rng, 4, 2)))
            ur, wr = subspace_rows(u), subspace_rows(w)
            assert subspace_rows(sg.subspace_sum(u, w)) == oracles.space_sum(ur, wr)
            assert subspace_rows(sg.subspace_intersect(u, w)) == oracles.space_intersect(ur, wr)


# -- 8: determinism --------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    desc = "every seeded command run twice produces byte-identical JSON"
    with criterion(8, desc):
        ideal_path = tmp_path / "ideal.json"
        ideal_path.write_text(json.dumps(
            [[[["1", "0"]], [["0", "1"]]], [[["1"]], [["0"]]]]))
        commands = [
            ("validate", "remark-A"),
            ("validate", "remark-A2"),
            ("decompose", "remark-A2", "--element", "c"),
            ("survey", "remark-A2", "--type", "1,1", "--count", "5", "--seed", "11"),
            ("survey", "remark-A", "--type", "1,1", "--seed", "2"),
            ("demo", "remark-A2", "--type", "1,1", "--count", "3", "--seed", "6"),
            ("field-of-def", "remark-A2", "--ideal", str(ideal_path)),
            ("bound", "--dim", "7"),
        ]
        for argv in commands:
            code1, out1 = run_cli(*argv)
            code2, out2 = run_cli(*argv)
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
            json.loads(out1)
