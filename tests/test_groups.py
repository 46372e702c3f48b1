"""Finite group actions on products of matrix algebras; free-ideal search."""

from __future__ import annotations

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import skewgrass as sg
from conftest import sampled_ideals
from skewgrass import autos, groups
from skewgrass.errors import SearchExhausted, ValidationError


def two_block_action(Qi, Q):
    """The conjugation-on-one-factor group used by the bundled demos."""
    conj = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")
    b1 = sg.Block(Qi, 2, sg.LiftTable.build(Qi, [conj]))
    b2 = sg.Block(Q, 2)
    product = sg.ProductAlgebra([b1, b2])
    ident = [
        (sg.MatrixOverD.identity(Qi, 2), b1.lifts.identity),
        (sg.MatrixOverD.identity(Q, 2), b2.lifts.identity),
    ]
    conj_maps = [
        (sg.MatrixOverD.identity(Qi, 2), b1.lifts.get("conj")),
        (sg.MatrixOverD.identity(Q, 2), b2.lifts.identity),
    ]
    elements = [
        sg.GroupElement("id", (0, 1), ident),
        sg.GroupElement("c", (0, 1), conj_maps),
    ]
    return product, sg.validate_group(product, elements)


def swap_action(Q):
    """Two identical factors exchanged by an involution with identity maps."""
    block = sg.Block(Q, 2)
    product = sg.ProductAlgebra([block, block])
    eye = (sg.MatrixOverD.identity(Q, 2), block.lifts.identity)
    elements = [
        sg.GroupElement("id", (0, 1), [eye, eye]),
        sg.GroupElement("swap", (1, 0), [eye, eye]),
    ]
    return product, sg.validate_group(product, elements)


def test_validate_group_builds_table(Qi, Q):
    _, action = two_block_action(Qi, Q)
    assert action.order == 2
    assert action.identity_name == "id"
    assert action.composition[("c", "c")] == "id"
    assert action.inverses == {"id": "id", "c": "c"}
    assert [g.name for g in action.nontrivial()] == ["c"]


def test_closure_failure_is_reported(Q):
    block = sg.Block(Q, 2)
    product = sg.ProductAlgebra([block])
    eye = (sg.MatrixOverD.identity(Q, 2), block.lifts.identity)
    # inner by diag(1, 2) squares to inner by diag(1, 4), which is missing
    diag = sg.MatrixOverD.from_rows(Q, [[Q.one(), Q.zero()], [Q.zero(), Q.one().scale(2)]])
    g = sg.GroupElement("g", (0,), [(diag, block.lifts.identity)])
    with pytest.raises(ValidationError, match="not closed"):
        sg.validate_group(product, [sg.GroupElement("id", (0,), [eye]), g])


def test_central_conjugation_counts_as_identity(Q):
    # inner by the central matrix 2I acts as the identity, so this singleton
    # is a perfectly valid group of order one
    block = sg.Block(Q, 2)
    product = sg.ProductAlgebra([block])
    two = sg.MatrixOverD.scalar(Q, 2, Q.one().scale(2))
    g = sg.GroupElement("g", (0,), [(two, block.lifts.identity)])
    action = sg.validate_group(product, [g])
    assert action.order == 1 and action.identity_name == "g"


def test_missing_identity_rejected(Q):
    block = sg.Block(Q, 2)
    product = sg.ProductAlgebra([block])
    diag = sg.MatrixOverD.from_rows(Q, [[Q.one(), Q.zero()], [Q.zero(), Q.one().scale(2)]])
    g = sg.GroupElement("g", (0,), [(diag, block.lifts.identity)])
    with pytest.raises(ValidationError, match="identity"):
        sg.validate_group(product, [g])


def test_duplicate_actions_rejected(Q):
    block = sg.Block(Q, 2)
    product = sg.ProductAlgebra([block])
    eye = (sg.MatrixOverD.identity(Q, 2), block.lifts.identity)
    # scalar conjugation is the identity automorphism: same action, new name
    two = (sg.MatrixOverD.scalar(Q, 2, Q.one().scale(2)), block.lifts.identity)
    with pytest.raises(ValidationError, match="identical action"):
        sg.validate_group(product, [
            sg.GroupElement("id", (0,), [eye]),
            sg.GroupElement("dup", (0,), [two]),
        ])


def test_validate_group_rejects_foreign_lift_and_singular_p(Qi):
    # action keys are exact only for sigma from the factor's own lift table
    block = sg.Block(Qi, 2)
    product = sg.ProductAlgebra([block])
    eye = sg.MatrixOverD.identity(Qi, 2)
    ident = sg.GroupElement("id", (0,), [(eye, block.lifts.identity)])
    conj = sg.AlgebraAutomorphism(Qi, [[1, 0], [0, -1]], name="conj")
    with pytest.raises(ValidationError, match="does not act on factor 1"):
        sg.validate_group(product, [ident, sg.GroupElement("c", (0,), [(eye, conj)])])
    zero = sg.MatrixOverD.zeros(Qi, 2, 2)
    with pytest.raises(ValidationError, match="singular"):
        sg.validate_group(product, [ident, sg.GroupElement("z", (0,), [(zero, block.lifts.identity)])])


def quaternion_units_action(H):
    """{1, i, j, k} acting on M_2(H) by conjugation with scalar matrices."""
    block = sg.Block(H, 2)
    product = sg.ProductAlgebra([block])
    elements = [sg.GroupElement(name, (0,), [(sg.MatrixOverD.scalar(H, 2, H.basis_element(u)),
                                              block.lifts.identity)])
                for u, name in enumerate(("id", "i", "j", "k"))]
    return sg.validate_group(product, elements)


def test_validate_group_builds_no_dense_map(H, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense coordinate map was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("skewgrass") and getattr(module, "from_pair", None) is autos.from_pair:
            monkeypatch.setattr(module, "from_pair", refuse)
    monkeypatch.setattr(autos.MatrixAlgebraAutomorphism, "__init__", refuse)
    for demo in sg.DEMO_NAMES:
        assert sg.load_endo_structure(demo).action.order == 2
    action = quaternion_units_action(H)
    # i j = k and i^2 = -1, which is central, so i o i is the identity action
    assert action.composition[("i", "j")] == "k" and action.composition[("j", "i")] == "k"
    assert action.composition[("i", "i")] == "id"
    assert action.inverses == {"id": "id", "i": "i", "j": "j", "k": "k"}


def test_validate_group_composes_only_with_generators(H, monkeypatch):
    calls = []
    compose = groups.compose_elements

    def counting(*args):
        calls.append(args[1].name + "*" + args[2].name)
        return compose(*args)

    monkeypatch.setattr(groups, "compose_elements", counting)
    action = quaternion_units_action(H)
    # the generators are i and j (k = i j is reached); the identity is never composed
    assert sorted(calls) == sorted(f"{a}*{t}" for a in ("i", "j", "k") for t in ("i", "j"))
    assert len(calls) <= (action.order - 1) * 2


def test_type_kernel_checks_the_type_once(Qi, Q, monkeypatch):
    _, action = two_block_action(Qi, Q)
    calls = []
    check = sg.ProductAlgebra.check_type

    def counting(self, kvec):
        calls.append(kvec)
        return check(self, kvec)

    monkeypatch.setattr(sg.ProductAlgebra, "check_type", counting)
    assert sg.type_kernel(action, (1, 1)) == ("id",)
    assert len(calls) == 1
    assert sg.acts_trivially_on_type(action, action.element("c"), (0, 0))
    assert len(calls) == 2


def test_tau_needs_matching_factor_descriptions(Qi, Q):
    b1 = sg.Block(Qi, 2, sg.LiftTable.build(Qi, []))
    b2 = sg.Block(Q, 2)
    product = sg.ProductAlgebra([b1, b2])
    e1 = (sg.MatrixOverD.identity(Qi, 2), b1.lifts.identity)
    e2 = (sg.MatrixOverD.identity(Q, 2), b2.lifts.identity)
    with pytest.raises(ValidationError, match="descriptions differ"):
        sg.validate_group(product, [
            sg.GroupElement("id", (0, 1), [e1, e2]),
            sg.GroupElement("s", (1, 0), [e1, e2]),
        ])


def test_action_on_ideals_and_stabilizer(Qi, Q):
    _, action = two_block_action(Qi, Q)
    c = action.element("c")
    one, i = Qi.one(), Qi.basis_element(1)
    # span (1, i) is moved by entrywise conjugation, span (1, 0) is fixed
    moved = sg.column_echelon(sg.MatrixOverD.from_columns(Qi, [[one, i]], 2))
    fixed = sg.column_echelon(sg.MatrixOverD.from_columns(Qi, [[one, Qi.zero()]], 2))
    any_q = sg.random_subspace(Q, 2, 1, seed=61)

    ideal_moved = sg.ProductIdeal.from_subspaces([moved, any_q])
    image = sg.act_on_ideal(c, ideal_moved)
    assert image != ideal_moved
    assert image.subspaces[1] == any_q
    assert sg.stabilizer(action, ideal_moved) == ["id"]
    assert len(sg.orbit(action, ideal_moved)) == 2

    ideal_fixed = sg.ProductIdeal.from_subspaces([fixed, any_q])
    assert sg.act_on_ideal(c, ideal_fixed) == ideal_fixed
    assert sg.stabilizer(action, ideal_fixed) == ["c", "id"]
    assert len(sg.orbit(action, ideal_fixed)) == 1


def test_orbit_stabilizer_sizes_multiply(Qi, Q):
    _, action = two_block_action(Qi, Q)
    for t in range(6):
        ideal = sg.ProductIdeal.from_subspaces([
            sg.random_subspace(Qi, 2, 1, seed=sg.subseed(71, t, 0)),
            sg.random_subspace(Q, 2, 1, seed=sg.subseed(71, t, 1)),
        ])
        stab = sg.stabilizer(action, ideal)
        orb = sg.orbit(action, ideal)
        assert len(stab) * len(orb) == action.order


def test_acts_trivially_on_type(Qi, Q):
    _, action = two_block_action(Qi, Q)
    c = action.element("c")
    # conjugation moves lines of the first factor, so (1, k2) is never trivial
    assert not sg.acts_trivially_on_type(action, c, (1, 1))
    # on (0, k2) and (2, k2) the first factor is a single point and the second
    # factor map is the identity
    assert sg.acts_trivially_on_type(action, c, (0, 1))
    assert sg.acts_trivially_on_type(action, c, (2, 0))


def test_acts_trivially_needs_matching_extremes(Q):
    _, action = swap_action(Q)
    swap = action.element("swap")
    # exchanged factors with k=0 on one side and k=full on the other cannot
    # be trivial: the swap sends a zero component to a full one
    assert not sg.acts_trivially_on_type(action, swap, (0, 2))
    assert sg.acts_trivially_on_type(action, swap, (0, 0))
    assert sg.acts_trivially_on_type(action, swap, (2, 2))
    assert not sg.acts_trivially_on_type(action, swap, (1, 1))


def test_search_free_on_conjugation_action(Qi, Q):
    _, action = two_block_action(Qi, Q)
    report = sg.search_free(action, (1, 1), count=5, seed=42)
    assert len(report.ideals) == 5
    assert len(set(report.ideals)) == 5
    for ideal in report.ideals:
        assert sg.stabilizer(action, ideal) == ["id"]


def test_search_free_certifies_doomed_type_negative(Qi, Q):
    _, action = two_block_action(Qi, Q)
    cert = sg.search_free(action, (0, 1), count=1, seed=0)
    assert cert.status == "negative"
    assert cert.witness_name == "c"
    assert cert.ideals == () and cert.tries_used == 0


def test_search_free_statuses(Qi, Q):
    _, action = two_block_action(Qi, Q)
    positive = sg.search_free(action, (1, 1), seed=7)
    assert positive.status == "positive"
    assert positive.witness_name is None
    assert len(positive.ideals) == 1
    assert sg.stabilizer(action, positive.ideals[0]) == ["id"]
    assert positive.kernel == ("id",)
    negative = sg.search_free(action, (0, 1), seed=7)
    assert negative.status == "negative"
    assert negative.witness_name == "c"
    assert negative.kernel == ("c", "id")


def test_search_free_rejects_a_bad_budget_on_any_type(Qi, Q):
    _, action = two_block_action(Qi, Q)
    for kvec in ((1, 1), (0, 1)):
        with pytest.raises(ValidationError, match="max_tries must be at least 1"):
            sg.search_free(action, kvec, max_tries=0)
        with pytest.raises(ValidationError, match="count must be at least 1"):
            sg.search_free(action, kvec, count=0, max_tries=0)
    # the type is checked before the budget
    with pytest.raises(ValidationError, match="out of range"):
        sg.search_free(action, (3, 1), count=0, max_tries=0)


def test_swap_group_needs_distinct_components(Q):
    # with swapped equal factors the second component must avoid the image
    # of the first under the cross-factor map, here simply V2 != V1
    _, action = swap_action(Q)
    report = sg.search_free(action, (1, 1), count=20, seed=42)
    assert len(set(report.ideals)) == 20
    for ideal in report.ideals:
        v1, v2 = ideal.subspaces
        assert v1 != v2
        assert sg.stabilizer(action, ideal) == ["id"]


def test_swap_group_diagonal_is_fixed(Q):
    _, action = swap_action(Q)
    v = sg.random_subspace(Q, 2, 1, seed=81)
    diagonal = sg.ProductIdeal.from_subspaces([v, v])
    assert sg.stabilizer(action, diagonal) == ["id", "swap"]


def test_search_exhaustion_is_inconclusive(Q):
    # type (2, 2) leaves single-point Grassmannians on both factors, so the
    # swap fixes everything and the precheck certifies a negative instead
    _, action = swap_action(Q)
    cert = sg.search_free(action, (2, 2), seed=1)
    assert cert.status == "negative"
    assert cert.witness_name == "swap"
    # a genuinely impossible sampling goal must come back inconclusive, not
    # hang: ask for more distinct lines than the budget can provide
    cert = sg.search_free(action, (1, 1), count=10 ** 6, seed=1, max_tries=3)
    assert cert.status == "inconclusive"
    assert 0 < cert.tries_used <= 3
    assert 0 < len(cert.ideals) < 10 ** 6
    for ideal in cert.ideals:
        assert sg.stabilizer(action, ideal) == ["id"]
    assert "3-sample budget" in cert.detail


def test_exhausted_sampler_reports_the_work_done(Qi, Q, monkeypatch):
    # random_subspace gives up (SearchExhausted) on its 7th call; the search
    # must still report the samples it spent and the ideals it found
    _, action = two_block_action(Qi, Q)
    real = sg.search_free(action, (1, 1), count=10, seed=3)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 7:
            raise SearchExhausted("could not sample a rank-1 matrix in 1000 draws")
        return sg.random_subspace(*args, **kwargs)

    monkeypatch.setattr(groups, "random_subspace", flaky)
    cert = sg.search_free(action, (1, 1), count=10, seed=3)
    assert cert.status == "inconclusive"
    assert cert.tries_used == 7
    assert cert.ideals and cert.ideals == real.ideals[:len(cert.ideals)]
    assert "rank-1" in cert.detail
    E = sg.load_endo_structure("remark-A2")
    calls.clear()
    res = sg.subvariety_survey(E, (1, 1), count=10, seed=3)
    assert res["status"] == "inconclusive"
    assert res["tries_used"] == 7
    assert res["found"] > 0


def swapped_quaternion_action(H):
    """M_2(H) x M_2(H): conjugation by i on either factor (a, b), and the swap s."""
    block = sg.Block(H, 2)
    one, by_i = sg.MatrixOverD.identity(H, 2), sg.MatrixOverD.scalar(H, 2, H.basis_element(1))
    elements = []
    for flip, tau in (("", (0, 1)), ("s", (1, 0))):
        for name, ps in (("id", (one, one)), ("a", (by_i, one)), ("b", (one, by_i)), ("ab", (by_i, by_i))):
            elements.append(sg.GroupElement(flip + name, tau, [(p, block.lifts.identity) for p in ps]))
    return sg.validate_group(sg.ProductAlgebra([block, block]), elements)


def test_type_kernel_is_normal_only_where_the_type_is_kept(H):
    # the swap turns type (0, 1) into (1, 0) and conjugates a, which fixes
    # every ideal of type (0, 1), into b, which moves lines of factor 2
    action = swapped_quaternion_action(H)
    table = action.composition
    assert table[(table[("sid", "a")], action.inverses["sid"])] == "b"
    assert sg.type_kernel(action, (0, 1)) == ("a", "id")
    cert = sg.search_free(action, (0, 1))
    assert (cert.status, cert.witness_name, cert.kernel) == ("negative", "a", ("a", "id"))
    for ideal in sampled_ideals(action, (0, 1)):
        assert sg.stabilizer(action, ideal) == ["a", "id"]
    assert sg.type_kernel(action, (1, 0)) == ("b", "id")
    assert sg.type_kernel(action, (1, 1)) == ("id",)


# Generated structures for the type-kernel properties.  Each factor is
# M_n(D) for D in Q, Q(i) (lift: conj) or H (inner automorphisms by i, j, k).
# A factor component is a bit mask: for Q(i) bit 1 is conj; for H the mask
# t in 0..3 is conjugation by the basis element t (1, i, j, k), and masks
# compose by xor because the products of i, j, k agree with it up to a
# central sign.  The group is N, the xor span of one or two drawn component
# vectors, optionally extended by the swap of two identical first factors,
# in which case N is also closed under exchanging their components.

_QI = sg.field_algebra([1, 0, 1])
_H = sg.quaternion_algebra(-1, -1)
_ALGEBRAS = {"Q": sg.rational_algebra(), "Qi": _QI, "H": _H}
_LIFTS = {
    "Q": sg.LiftTable.build(_ALGEBRAS["Q"]),
    "Qi": sg.LiftTable.build(_QI, [sg.AlgebraAutomorphism(_QI, [[1, 0], [0, -1]], name="conj")]),
    "H": sg.LiftTable.build(_H),
}
_MASKS = {"Q": 1, "Qi": 2, "H": 4}  # number of factor components


def _xor_span(vectors):
    span = {tuple(0 for _ in vectors[0])}
    for v in vectors:
        span |= {tuple(a ^ b for a, b in zip(w, v)) for w in span}
    return sorted(span)


def _factor_map(kind, n, mask):
    alg = _ALGEBRAS[kind]
    lifts = _LIFTS[kind]
    if kind == "Qi":
        return sg.MatrixOverD.identity(alg, n), lifts.get("conj" if mask else "id")
    return sg.MatrixOverD.scalar(alg, n, alg.basis_element(mask)), lifts.identity


@st.composite
def generated_actions(draw, min_n=1):
    kinds = draw(st.lists(st.sampled_from(sorted(_ALGEBRAS)), min_size=1, max_size=3))
    sizes = [draw(st.integers(min_n, 3)) for _ in kinds]
    swap = len(kinds) >= 2 and draw(st.booleans())
    if swap:
        kinds[1], sizes[1] = kinds[0], sizes[0]
    gens = [tuple(draw(st.integers(0, _MASKS[kind] - 1)) for kind in kinds)
            for _ in range(1 if swap else 2)]
    if swap:
        gens.append((gens[0][1], gens[0][0]) + gens[0][2:])
    blocks = [sg.Block(_ALGEBRAS[kind], n, _LIFTS[kind]) for kind, n in zip(kinds, sizes)]
    r = len(blocks)
    identity_tau = tuple(range(r))
    swap_tau = (1, 0) + identity_tau[2:]
    elements = []
    for flip in ((0, 1) if swap else (0,)):
        for vec in _xor_span(gens):
            name = "id" if not flip and not any(vec) else f"{'s' if flip else 'g'}{''.join(map(str, vec))}"
            maps = [_factor_map(kind, n, m) for kind, n, m in zip(kinds, sizes, vec)]
            elements.append(sg.GroupElement(name, swap_tau if flip else identity_tau, maps))
    product = sg.ProductAlgebra(blocks)
    action = sg.validate_group(product, elements)
    return kinds, sizes, action


@settings(max_examples=40)
@given(data=st.data())
def test_type_kernel_is_the_generic_stabilizer(data):
    _, sizes, action = data.draw(generated_actions())
    kvec = tuple(data.draw(st.integers(0, n)) for n in sizes)
    kernel = sg.type_kernel(action, kvec)
    members = set(kernel)
    assert action.identity_name in members
    table = action.composition
    keep_type = [g.name for g in action.elements if all(kvec[j] == k for j, k in zip(g.tau, kvec))]
    for a in kernel:
        for b in kernel:
            assert table[(a, b)] in members
        for g in keep_type:
            assert table[(table[(g, a)], action.inverses[g])] in members
    stabs = [set(sg.stabilizer(action, ideal)) for ideal in sampled_ideals(action, kvec)]
    assert all(members <= stab for stab in stabs)
    assert members in stabs
    cert = sg.search_free(action, kvec, seed=0, max_tries=50)
    assert cert.kernel == kernel
    assert (cert.status == "negative") == (len(kernel) > 1)


@settings(max_examples=25)
@given(data=st.data())
def test_types_inside_every_grassmannian_have_trivial_kernel(data):
    # the paper's theorem: with every n_i >= 2 and 0 < k_i < n_i only the
    # identity fixes every ideal, so some ideal of the type is free
    kinds, sizes, action = data.draw(generated_actions(min_n=2))
    kvec = tuple(data.draw(st.integers(1, n - 1)) for n in sizes)
    assert sg.type_kernel(action, kvec) == (action.identity_name,)
    factors = tuple((f"A{i}", 1) for i in range(len(kinds)))
    structure = sg.EndoStructure(product=action.product, action=action, factors=factors,
                                 base_label="Q", full_label="L", field_table=None)
    res = sg.subvariety_survey(structure, kvec, seed=0, max_tries=200)
    assert res["status"] != "negative"
    for w in res.get("witnesses", []):
        assert w["degree_over_base"] <= sg.remond_bound(structure.g_total)


def reference_group_table(product, elements):
    """Composition table and inverses from every pair: the |G|^2 closure check.

    Each pair is composed with groups.compose_elements and matched by
    signature; an unmatched composite is recorded as None.
    """
    pinvs = {g.name: [sg.try_inverse(p) for p, _ in g.maps] for g in elements}
    signatures = {g.signature(): g.name for g in elements}
    table = {}
    for g1 in elements:
        for g2 in elements:
            comp = groups.compose_elements(product, g1, g2, pinvs[g1.name], pinvs[g2.name])
            table[(g1.name, g2.name)] = signatures.get(comp.signature())
    identity = next(g.name for g in elements if g.is_identity_action())
    inverses = {a.name: next(b.name for b in elements
                             if table[(a.name, b.name)] == identity == table[(b.name, a.name)])
                for a in elements}
    return table, inverses


@settings(max_examples=30)
@given(data=st.data())
def test_generator_closure_matches_all_pairs(data):
    _, _, action = data.draw(generated_actions())
    table, inverses = reference_group_table(action.product, action.elements)
    assert list(action.composition.items()) == list(table.items())
    assert action.inverses == inverses


@settings(max_examples=20)
@given(data=st.data())
def test_a_group_missing_one_element_is_not_closed(data):
    # |G| - 1 elements never form a subgroup once |G| > 2 (Lagrange)
    _, _, action = data.draw(generated_actions())
    assume(action.order > 2)
    for drop in action.nontrivial():
        rest = [g for g in action.elements if g is not drop]
        with pytest.raises(ValidationError, match="not closed"):
            sg.validate_group(action.product, rest)
