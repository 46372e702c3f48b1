"""Seeded inputs of the benchmark: the decompose ladder and structure documents.

Every input is a pure function of the seed.  Documents are plain JSON-ready
dicts, so the program under test receives them exactly as a user would
write them.  Each family of documents is a fixed finite group conjugated by
a seeded block-diagonal change of basis A = (A_1, ..., A_r): element g with
maps (P_i, sigma) becomes P_i' = A_i P_i sigma(A_src)^{-1}.  That is again a
group with the same multiplication table and field table, while every
entry of every P depends on the seed.  A_i is unit lower triangular, its
entries 0 or +-b_u for a basis element b_u, so its inverse stays integral.
Random entries of that one shape keep the sizes of the rationals, and with
them the work per input, nearly the same from seed to seed.
"""

from __future__ import annotations

import random

from skewgrass import autos, datasets, linalg, schema

Q = {"field": [0, 1]}
QI = {"field": [1, 0, 1]}
H = {"quaternion": [-1, -1]}
B6 = {"quaternion": [-1, 3]}  # indefinite, ramified at 2 and 3
ZETA5 = {"field": [1, 1, 1, 1, 1]}

CONJ = [{"name": "conj", "matrix": [[1, 0], [0, -1]]}]


def _zeta5_lifts():
    """x -> x^a on Q(zeta_5), a = 2, 3, 4; column j is the image of x^j."""
    def power(e):
        e %= 5
        return [-1, -1, -1, -1] if e == 4 else [1 if t == e else 0 for t in range(4)]

    lifts = []
    for a in (2, 3, 4):
        cols = [power(a * j) for j in range(4)]
        lifts.append({"name": f"x^{a}", "matrix": [[cols[j][i] for j in range(4)] for i in range(4)]})
    return lifts


# (n, algebra, lifts): the blocks whose automorphisms the decompose workload splits
LADDER = (
    (2, QI, CONJ),
    (3, Q, []),
    (3, QI, CONJ),
    (2, H, []),
    (2, B6, []),
    (2, ZETA5, _zeta5_lifts()),
)


def block_document(n, algebra, lifts):
    return {"n": n, "algebra": algebra, "factor": {"label": "E", "dim": 1}, "lifts": lifts}


def _rng(seed, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _random_entry(alg, rng, nonzero=False):
    """+-b_u for a random basis element b_u, or (unless ``nonzero``) 0."""
    k = rng.randrange(2 * alg.dim + (0 if nonzero else 1))
    if k == 2 * alg.dim:
        return alg.zero()
    return alg.element([(1 - 2 * (k % 2)) if u == k // 2 else 0 for u in range(alg.dim)])


def _unit_lower(alg, n, rng):
    one, zero = alg.one(), alg.zero()
    return linalg.MatrixOverD(alg, [[one if i == j else (_random_entry(alg, rng) if j < i else zero)
                                     for j in range(n)] for i in range(n)])


def random_ldu(alg, n, rng):
    """P = L D U: unit triangular L and U, nonzero diagonal D, so P is invertible."""
    lower = _unit_lower(alg, n, rng)
    upper = linalg.MatrixOverD(alg, [list(col) for col in _unit_lower(alg, n, rng).columns()])
    zero = alg.zero()
    diag = linalg.MatrixOverD(alg, [[_random_entry(alg, rng, nonzero=True) if i == j else zero
                                     for j in range(n)] for i in range(n)])
    return lower * diag * upper


class LadderInput:
    """One decompose input: the planted pair (P0, sigma) and its coordinate map."""

    __slots__ = ("block", "sigma_name", "p0", "p0_inv", "linear_map")

    def __init__(self, block, sigma, p0):
        self.block = block
        self.sigma_name = sigma.name
        self.p0 = p0
        self.p0_inv = linalg.try_inverse(p0)
        self.linear_map = autos.from_pair(block, p0, sigma, pinv=self.p0_inv).linear_map


def decompose_ladder(seed: int, rounds: int):
    """``rounds`` lists, each with one input per (block, lift) pair of the ladder."""
    blocks = [schema.parse_block(block_document(n, alg, lifts), idx)[0]
              for idx, (n, alg, lifts) in enumerate(LADDER)]
    out = []
    for r in range(rounds):
        items = []
        for idx, block in enumerate(blocks):
            rng = _rng(seed, "ladder", r, idx)
            for sigma in block.lifts.entries:
                items.append(LadderInput(block, sigma, random_ldu(block.algebra, block.n, rng)))
        out.append(items)
    return out


def _conjugated_document(seed, family, n, algebra, lifts, r, elements, table):
    """Document for the group ``elements`` conjugated by a seeded A = (A_1..A_r).

    ``elements`` lists (name, tau, sigma name, base element u) with tau
    0-based; every factor map of the element is P_i = u I before conjugation.
    """
    block, _, _ = schema.parse_block(block_document(n, algebra, lifts), 0)
    alg = block.algebra
    rng = _rng(seed, family, n)
    conj = [_unit_lower(alg, n, rng) for _ in range(r)]
    conj_inv = [linalg.try_inverse(a) for a in conj]
    doc_elements = []
    for name, tau, sigma_name, u in elements:
        sigma = block.lifts.get(sigma_name)
        tau_inv = [tau.index(i) for i in range(r)]
        scalar = linalg.MatrixOverD.scalar(alg, n, alg.element(u))
        maps = []
        for i in range(r):
            p = conj[i] * scalar * linalg.apply_sigma(sigma, conj_inv[tau_inv[i]])
            maps.append({"P": schema.ser_matrix(p), "sigma": sigma_name})
        doc_elements.append({"name": name, "tau": [t + 1 for t in tau], "maps": maps})
    return {
        "blocks": [block_document(n, algebra, lifts) for _ in range(r)],
        "group": {"elements": doc_elements},
        "fields": {"base": "Q", "full": table["id"], "table": table},
    }


def s3_document(seed: int, n: int) -> dict:
    """S_3 permuting three copies of M_n(Q)."""
    perms = {"id": (0, 1, 2), "t12": (1, 0, 2), "t13": (2, 1, 0), "t23": (0, 2, 1),
             "r": (1, 2, 0), "r2": (2, 0, 1)}
    elements = [(name, tau, "id", [1]) for name, tau in perms.items()]
    table = {"id": "K", "id,t12": "K12", "id,t13": "K13", "id,t23": "K23", "id,r,r2": "K3",
             "id,r,r2,t12,t13,t23": "Q"}
    return _conjugated_document(seed, "s3", n, Q, [], 3, elements, table)


def swap_conj_document(seed: int, n: int) -> dict:
    """Z/2 x Z/2 on M_n(Q(i))^2: swap the factors, conjugate the entries."""
    elements = [("id", (0, 1), "id", [1, 0]), ("s", (1, 0), "id", [1, 0]),
                ("c", (0, 1), "conj", [1, 0]), ("sc", (1, 0), "conj", [1, 0])]
    table = {"id": "K", "id,s": "Ks", "c,id": "Kc", "id,sc": "Ksc", "c,id,s,sc": "Q"}
    return _conjugated_document(seed, "swapconj", n, QI, CONJ, 2, elements, table)


def inner4_document(seed: int, n: int) -> dict:
    """The order-4 inner group {1, i, j, k} acting on M_n((-1,3|Q))."""
    elements = [("id", (0,), "id", [1, 0, 0, 0]), ("i", (0,), "id", [0, 1, 0, 0]),
                ("j", (0,), "id", [0, 0, 1, 0]), ("k", (0,), "id", [0, 0, 0, 1])]
    table = {"id": "K", "i,id": "Ki", "id,j": "Kj", "id,k": "Kk", "i,id,j,k": "Q"}
    return _conjugated_document(seed, "inner4", n, B6, [], 1, elements, table)


def load_documents(seed: int):
    """(name, document, group order) for the load workload."""
    docs = []
    for n in (2, 3):
        docs.append((f"s3-M{n}(Q)^3", s3_document(seed, n), 6))
        docs.append((f"swapconj-M{n}(Q(i))^2", swap_conj_document(seed, n), 4))
        docs.append((f"inner4-M{n}(-1,3)", inner4_document(seed, n), 4))
    for name in datasets.DEMO_NAMES:
        docs.append((name, datasets.demo_document(name), 2))
    return docs


def load_rounds(seed: int, rounds: int):
    """``rounds`` document lists; each conjugates the families afresh."""
    return [load_documents(f"{seed}:{r}") for r in range(rounds)]


def survey_scenarios(seed: int):
    """(name, document, type, expected status) for the survey workload."""
    demo = datasets.demo_document
    rows = [
        ("remark-A2 (1,1)", demo("remark-A2"), (1, 1), "positive"),
        ("inner4-M3(-1,3) (1)", inner4_document(seed, 3), (1,), "positive"),
        ("inner4-M4(-1,3) (2)", inner4_document(seed, 4), (2,), "positive"),
        ("swapconj-M3(Q(i))^2 (1,1)", swap_conj_document(seed, 3), (1, 1), "positive"),
        ("s3-M3(Q)^3 (1,1,1)", s3_document(seed, 3), (1, 1, 1), "positive"),
        ("remark-A (1,1)", demo("remark-A"), (1, 1), "negative"),
        ("remark-A2 (2,1)", demo("remark-A2"), (2, 1), "negative"),
    ]
    return rows


def survey_seeds(seed: int, rounds: int, per_round: int):
    """``rounds`` lists of ``per_round`` survey seeds."""
    rng = _rng(seed, "survey")
    return [[rng.randrange(2**31) for _ in range(per_round)] for _ in range(rounds)]
