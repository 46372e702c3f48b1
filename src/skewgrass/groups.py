"""Finite groups acting on products of matrix algebras, and free ideals.

A group element permutes the factors (tau) and carries one decomposed
automorphism per target factor, read as a map from factor tau^{-1}(i) into
factor i.  Factors related by tau must have literally identical
descriptions, so those maps compose inside a single coordinate system.

An ideal is free when its stabilizer is trivial.  The search routine picks
the component subspaces one factor at a time: each candidate must be moved
by every relevant same-factor map and must avoid the images of previously
chosen components under cross-factor maps; a direct stabilizer test
certifies every emitted ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .autos import (
    Block,
    MatrixAlgebraAutomorphism,
    act_on_subspace,
    compose_autos,
    from_pair,
    is_trivial_on_grassmannian,
)
from .errors import SearchExhausted, ValidationError
from .ideals import ProductIdeal
from .linalg import random_subspace, subseed


class ProductAlgebra:
    """A finite product of matrix algebras M_{n_i}(D_i) with lift tables."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = tuple(blocks)
        if not self.blocks:
            raise ValidationError("a product algebra needs at least one factor")
        for b in self.blocks:
            if not isinstance(b, Block):
                raise ValidationError("product factors must be Blocks")

    @property
    def r(self) -> int:
        return len(self.blocks)

    def type_bounds(self) -> tuple[int, ...]:
        return tuple(b.n for b in self.blocks)

    def check_type(self, kvec) -> tuple[int, ...]:
        kvec = tuple(int(k) for k in kvec)
        if len(kvec) != self.r:
            raise ValidationError(f"type vector has length {len(kvec)}; expected {self.r}")
        for i, (k, b) in enumerate(zip(kvec, self.blocks)):
            if not 0 <= k <= b.n:
                raise ValidationError(f"type component {k} out of range 0..{b.n} at factor {i + 1}")
        return kvec

    def __repr__(self):
        return "ProductAlgebra(" + " x ".join(b.label for b in self.blocks) + ")"


class GroupElement:
    """A named group element: a factor permutation plus per-target maps."""

    __slots__ = ("name", "tau", "tau_inv", "maps")

    def __init__(self, name: str, tau, maps):
        self.name = name
        self.tau = tuple(tau)
        r = len(self.tau)
        if sorted(self.tau) != list(range(r)):
            raise ValidationError(f"element {name!r}: tau is not a permutation of the factors")
        inv = [0] * r
        for i, j in enumerate(self.tau):
            inv[j] = i
        self.tau_inv = tuple(inv)
        self.maps = tuple(maps)
        if len(self.maps) != r:
            raise ValidationError(f"element {name!r}: expected {r} factor maps, got {len(self.maps)}")
        for m in self.maps:
            if not isinstance(m, MatrixAlgebraAutomorphism) or m.decomposition is None:
                raise ValidationError(f"element {name!r}: factor maps must be decomposed automorphisms")

    def signature(self):
        return (self.tau, tuple(m.linear_map for m in self.maps))

    def is_identity_action(self) -> bool:
        return all(i == j for i, j in enumerate(self.tau)) and all(m.is_identity() for m in self.maps)

    def __repr__(self):
        return f"GroupElement({self.name!r})"


@dataclass
class GaloisAction:
    """A validated finite group of product-algebra automorphisms."""

    product: ProductAlgebra
    elements: tuple
    identity_name: str
    composition: dict
    inverses: dict
    by_name: dict = field(default_factory=dict)

    def __post_init__(self):
        self.by_name = {g.name: g for g in self.elements}

    @property
    def order(self) -> int:
        return len(self.elements)

    def nontrivial(self):
        return [g for g in self.elements if g.name != self.identity_name]

    def element(self, name: str) -> GroupElement:
        if name not in self.by_name:
            raise ValidationError(f"unknown group element {name!r}; known: {sorted(self.by_name)}")
        return self.by_name[name]


def compose_elements(product: ProductAlgebra, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """The element acting as g1 after g2 (no name; used for table building)."""
    r = product.r
    tau = tuple(g1.tau[g2.tau[i]] for i in range(r))
    maps = []
    for target in range(r):
        mid = g1.tau_inv[target]
        block = product.blocks[target]
        pair = compose_autos(block, g1.maps[target].decomposition, g2.maps[mid].decomposition)
        maps.append(from_pair(block, *pair))
    return GroupElement(f"({g1.name}*{g2.name})", tau, maps)


def validate_group(product: ProductAlgebra, elements) -> GaloisAction:
    """Check permutation compatibility, closure, identity and inverses.

    Every pairwise composition is computed in decomposed form and matched
    against the listed elements by exact action comparison; the resulting
    composition table is stored on the returned GaloisAction.
    """
    elements = tuple(elements)
    names = [g.name for g in elements]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate element names: {sorted(names)}")
    r = product.r
    for g in elements:
        if len(g.tau) != r:
            raise ValidationError(f"element {g.name!r}: tau has length {len(g.tau)}; expected {r}")
        for i, j in enumerate(g.tau):
            if i != j and not product.blocks[i].same_description(product.blocks[j]):
                raise ValidationError(
                    f"element {g.name!r} sends factor {i + 1} to factor {j + 1}, "
                    f"but their descriptions differ"
                )
        for i, m in enumerate(g.maps):
            if m.block != product.blocks[i]:
                raise ValidationError(f"element {g.name!r}: map {i + 1} does not act on factor {i + 1}")
    signatures = {}
    for g in elements:
        sig = g.signature()
        if sig in signatures:
            raise ValidationError(f"elements {signatures[sig]!r} and {g.name!r} have identical actions")
        signatures[sig] = g.name
    identity_names = [g.name for g in elements if g.is_identity_action()]
    if not identity_names:
        raise ValidationError("the identity element is missing from the group")
    identity_name = identity_names[0]
    table = {}
    for g1 in elements:
        for g2 in elements:
            comp = compose_elements(product, g1, g2)
            match = signatures.get(comp.signature())
            if match is None:
                raise ValidationError(
                    f"group is not closed: {g1.name!r} composed with {g2.name!r} "
                    f"is not among the listed elements"
                )
            table[(g1.name, g2.name)] = match
    inverses = {}
    for g in elements:
        inv = next((h.name for h in elements
                    if table[(g.name, h.name)] == identity_name
                    and table[(h.name, g.name)] == identity_name), None)
        if inv is None:
            raise ValidationError(f"element {g.name!r} has no inverse in the group")
        inverses[g.name] = inv
    return GaloisAction(product=product, elements=elements, identity_name=identity_name,
                        composition=table, inverses=inverses)


def act_on_ideal(g: GroupElement, ideal: ProductIdeal) -> ProductIdeal:
    """Apply a group element: component i comes from component tau^{-1}(i)."""
    subspaces = ideal.subspaces
    out = []
    for i in range(len(subspaces)):
        src = g.tau_inv[i]
        p, sigma = g.maps[i].decomposition
        out.append(act_on_subspace(p, sigma, subspaces[src]))
    return ProductIdeal.from_subspaces(out)


def stabilizer(action: GaloisAction, ideal: ProductIdeal) -> list[str]:
    """Names of the elements fixing the ideal, sorted; always a subgroup."""
    names = sorted(g.name for g in action.elements if act_on_ideal(g, ideal) == ideal)
    group = set(names)
    if action.identity_name not in group:
        raise ValidationError("internal: stabilizer does not contain the identity")
    for a in names:
        for b in names:
            if action.composition[(a, b)] not in group:
                raise ValidationError("internal: stabilizer is not closed under composition")
    return names


def orbit(action: GaloisAction, ideal: ProductIdeal) -> list[ProductIdeal]:
    """Distinct images of the ideal under the group."""
    seen = []
    for g in action.elements:
        img = act_on_ideal(g, ideal)
        if img not in seen:
            seen.append(img)
    return seen


def acts_trivially_on_type(action: GaloisAction, g: GroupElement, kvec) -> bool:
    """Whether g fixes every ideal of the given type, decided exactly.

    A factor moved by tau forces movement as soon as either Grassmannian
    involved has more than one point, and also when the two single points
    have different dimensions (zero versus full); a fixed factor defers to
    the exact one-factor triviality test.
    """
    kvec = action.product.check_type(kvec)
    for i, block in enumerate(action.product.blocks):
        j = g.tau[i]
        if j != i:
            target = action.product.blocks[j]
            single_i = kvec[i] in (0, block.n)
            single_j = kvec[j] in (0, target.n)
            if not (single_i and single_j):
                return False
            if kvec[i] != kvec[j]:
                return False
        else:
            p, sigma = g.maps[i].decomposition
            if not is_trivial_on_grassmannian(p, sigma, kvec[i]):
                return False
    return True


def fixing_element(action: GaloisAction, kvec) -> GroupElement | None:
    """First nontrivial element fixing every ideal of the type, or None.

    A returned element certifies that no ideal of the type is free.
    """
    return next((g for g in action.nontrivial() if acts_trivially_on_type(action, g, kvec)), None)


@dataclass
class FreeSearchReport:
    """Outcome of a successful free-ideal search."""

    ideals: tuple
    tries_used: int
    seed: int


@dataclass
class FreeCertificate:
    """Decision for 'does a free ideal of this type exist'.

    status is 'negative' (witness: a nontrivial element fixing every ideal
    of the type), 'positive' (witness ideal attached), or 'inconclusive'
    (search budget exhausted; never treated as a proof of absence).
    """

    status: str
    witness_name: str | None = None
    ideal: ProductIdeal | None = None
    tries_used: int = 0
    detail: str | None = None


def search_free(action: GaloisAction, kvec, count: int, seed: int,
                max_tries: int = 1000) -> FreeSearchReport:
    """Find pairwise distinct free ideals of the given type.

    Components are rejection-sampled factor by factor.  Component i must be
    moved by every same-factor map that is nontrivial on its Grassmannian,
    and must differ from the cross-factor images of the components already
    chosen.  max_tries bounds the total number of subspace samples, so the
    search always terminates; the coordinate height grows 10 -> 100 -> 1000
    across thirds of that budget.  Every assembled ideal is certified free
    by a direct stabilizer test before being emitted.
    """
    kvec = action.product.check_type(kvec)
    if count < 1:
        raise ValidationError("count must be at least 1")
    witness = fixing_element(action, kvec)
    if witness is not None:
        raise ValidationError(
            f"no free ideal of type {kvec} exists: element {witness.name!r} fixes every ideal "
            f"of this type"
        )
    r = action.product.r
    same_factor = []
    cross_factor = []
    for i in range(r):
        seen_maps = set()
        movers = []
        for g in action.nontrivial():
            if g.tau[i] != i:
                continue
            m = g.maps[i]
            p, sigma = m.decomposition
            if is_trivial_on_grassmannian(p, sigma, kvec[i]):
                continue
            if m.linear_map not in seen_maps:
                seen_maps.add(m.linear_map)
                movers.append(m)
        same_factor.append(movers)
        crossings = []
        for g in action.nontrivial():
            j = g.tau_inv[i]
            if j != i and j < i and kvec[j] == kvec[i]:
                crossings.append((j, g.maps[i]))
        cross_factor.append(crossings)
    found: list[ProductIdeal] = []
    seen_ideals = set()
    tries_used = 0
    candidate = 0
    while len(found) < count and tries_used < max_tries:
        chosen = []
        for i, block in enumerate(action.product.blocks):
            forbidden = [act_on_subspace(*cmap.decomposition, chosen[j])
                         for j, cmap in cross_factor[i]]
            picked = None
            attempt = 0
            while tries_used < max_tries:
                if tries_used < max_tries // 3:
                    height = 10
                elif tries_used < (2 * max_tries) // 3:
                    height = 100
                else:
                    height = 1000
                v = random_subspace(block.algebra, block.n, kvec[i],
                                    subseed(seed, 0x5F, candidate, i, attempt), height)
                tries_used += 1
                attempt += 1
                if any(act_on_subspace(*m.decomposition, v) == v for m in same_factor[i]):
                    continue
                if any(v == f for f in forbidden):
                    continue
                picked = v
                break
            if picked is None:
                raise SearchExhausted(
                    f"free-ideal search spent its {max_tries}-sample budget with "
                    f"{len(found)} of {count} ideals found (stuck on factor {i + 1})",
                    partial=found, tries_used=tries_used,
                )
            chosen.append(picked)
        candidate += 1
        ideal = ProductIdeal.from_subspaces(chosen)
        if ideal in seen_ideals:
            continue
        stab = stabilizer(action, ideal)
        if stab != [action.identity_name]:
            raise ValidationError(
                "internal: sampled ideal fails the direct stabilizer test; "
                f"stabilizer {stab}"
            )
        seen_ideals.add(ideal)
        found.append(ideal)
    if len(found) < count:
        raise SearchExhausted(
            f"free-ideal search produced only {len(found)} of {count} distinct ideals "
            f"within the {max_tries}-sample budget",
            partial=found, tries_used=tries_used,
        )
    return FreeSearchReport(ideals=tuple(found), tries_used=tries_used, seed=seed)


def exists_free(action: GaloisAction, kvec, seed: int = 0,
                max_tries: int = 1000) -> FreeCertificate:
    """Certified decision with witness, or an honest 'inconclusive'."""
    kvec = action.product.check_type(kvec)
    witness = fixing_element(action, kvec)
    if witness is not None:
        return FreeCertificate(status="negative", witness_name=witness.name)
    try:
        report = search_free(action, kvec, 1, seed, max_tries=max_tries)
    except SearchExhausted as exc:
        return FreeCertificate(status="inconclusive", tries_used=exc.tries_used, detail=str(exc))
    return FreeCertificate(status="positive", ideal=report.ideals[0], tries_used=report.tries_used)
