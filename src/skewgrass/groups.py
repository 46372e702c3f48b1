"""Finite groups acting on products of matrix algebras, and free ideals.

A group element permutes the factors (tau) and carries one pair (P, sigma)
per target factor, the map M -> P sigma(M) P^{-1} from factor tau^{-1}(i)
into factor i.  Factors related by tau must have literally identical
descriptions, so those pairs compose inside a single factor.  Two elements
act alike exactly when their permutations and the autos.action_key of
every pair agree; the keys are computed once, when an element is built.

An ideal is free when its stabilizer is trivial.  search_free is the one
place that decides whether free ideals of a type exist, and it returns a
FreeCertificate for every outcome: 'negative' when the type_kernel is
nontrivial, 'positive' with the ideals found, or
'inconclusive' when the sample budget runs out.  The search picks the
component subspaces one factor at a time: each candidate must be moved by
every relevant same-factor map and must avoid the images of previously
chosen components under cross-factor maps; a direct stabilizer test
certifies every emitted ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .autos import (
    Block,
    action_key,
    act_on_subspace,
    acts_as_identity,
    compose_autos,
    is_trivial_on_grassmannian,
)
from .errors import SearchExhausted, ValidationError
from .ideals import ProductIdeal
from .linalg import random_subspace, subseed, try_inverse


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
    """A named group element: a factor permutation plus per-target (P, sigma) pairs."""

    __slots__ = ("name", "tau", "tau_inv", "maps", "keys")

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
        self.maps = tuple(tuple(m) for m in maps)
        if len(self.maps) != r:
            raise ValidationError(f"element {name!r}: expected {r} factor maps, got {len(self.maps)}")
        if any(len(m) != 2 for m in self.maps):
            raise ValidationError(f"element {name!r}: factor maps must be (P, sigma) pairs")
        self.keys = tuple(action_key(p, sigma) for p, sigma in self.maps)

    def signature(self):
        return (self.tau, self.keys)

    def is_identity_action(self) -> bool:
        return (all(i == j for i, j in enumerate(self.tau))
                and all(acts_as_identity(p, sigma) for p, sigma in self.maps))

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


def compose_elements(product: ProductAlgebra, g1: GroupElement, g2: GroupElement,
                     pinvs1, pinvs2) -> GroupElement:
    """The element acting as g1 after g2 (used for table building).

    pinvs1 and pinvs2 hold the inverse of every P of g1 and of g2, factor by
    factor; compose_autos checks each composite with them.
    """
    r = product.r
    tau = tuple(g1.tau[g2.tau[i]] for i in range(r))
    maps = []
    for target in range(r):
        mid = g1.tau_inv[target]
        maps.append(compose_autos(product.blocks[target], g1.maps[target], g2.maps[mid],
                                  pinvs1[target], pinvs2[mid]))
    return GroupElement(f"({g1.name}*{g2.name})", tau, maps)


def validate_group(product: ProductAlgebra, elements) -> GaloisAction:
    """Check permutation compatibility, closure, identity and inverses.

    Closure is checked from a generating set T: walking the listed elements
    in order, each one not yet reached from the identity joins T.  Only the
    composites a o t, for a non-identity element a and t in T, are computed,
    each as pairs checked by compose_autos, and matched against the listed
    elements by their action keys; that is exact because every sigma is
    checked to come from its factor's lift table.  S T in S and S in <T>
    give S S in S, so a set that is not closed fails on some a o t.

    The breadth-first pass that reaches every element records a word
    x = y o t for each element x outside T, with y reached earlier, and the
    rest of the table follows by associativity: s o x = (s o y) o t.
    Products with the identity are read off.  The composition table, over
    all pairs in row-major order, is stored on the returned GaloisAction.
    """
    elements = tuple(elements)
    names = [g.name for g in elements]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate element names: {sorted(names)}")
    r = product.r
    inverses = {}
    for g in elements:
        if len(g.tau) != r:
            raise ValidationError(f"element {g.name!r}: tau has length {len(g.tau)}; expected {r}")
        for i, j in enumerate(g.tau):
            if i != j and not product.blocks[i].same_description(product.blocks[j]):
                raise ValidationError(
                    f"element {g.name!r} sends factor {i + 1} to factor {j + 1}, "
                    f"but their descriptions differ"
                )
        pinvs = []
        for i, (p, sigma) in enumerate(g.maps):
            block = product.blocks[i]
            if (p.algebra != block.algebra or (p.rows, p.cols) != (block.n, block.n)
                    or sigma not in block.lifts.entries):
                raise ValidationError(f"element {g.name!r}: map {i + 1} does not act on factor {i + 1}")
            pinv = try_inverse(p)
            if pinv is None:
                raise ValidationError(f"element {g.name!r}: P of map {i + 1} is singular")
            pinvs.append(pinv)
        inverses[g.name] = pinvs
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
    by_name = {g.name: g for g in elements}
    table = {(s, identity_name): s for s in names}
    gens = []
    reached = [identity_name]  # breadth-first order
    words = {identity_name: None}  # None for the identity and the generators
    composed = {}  # how many generators each element has been composed with
    for x in elements:
        if x.name in words:
            continue
        gens.append(x)
        table[(identity_name, x.name)] = x.name
        words[x.name] = None
        reached.append(x.name)
        k = 1
        while k < len(reached):
            a = by_name[reached[k]]
            for t in gens[composed.get(a.name, 0):]:
                comp = compose_elements(product, a, t, inverses[a.name], inverses[t.name])
                match = signatures.get(comp.signature())
                if match is None:
                    raise ValidationError(
                        f"group is not closed: {a.name!r} composed with {t.name!r} "
                        f"is not among the listed elements"
                    )
                table[(a.name, t.name)] = match
                if match not in words:
                    words[match] = (a.name, t.name)
                    reached.append(match)
            composed[a.name] = len(gens)
            k += 1
    for x in reached:
        if words[x] is not None:
            y, t = words[x]
            for s in names:
                table[(s, x)] = table[(table[(s, y)], t)]
    table = {(a, b): table[(a, b)] for a in names for b in names}
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
        out.append(act_on_subspace(*g.maps[i], subspaces[src]))
    return ProductIdeal.from_subspaces(out)


def _is_subgroup(action: GaloisAction, names) -> bool:
    """Whether the named elements hold the identity and are closed under composition."""
    group = set(names)
    return action.identity_name in group and all(
        action.composition[(a, b)] in group for a in group for b in group)


def stabilizer(action: GaloisAction, ideal: ProductIdeal) -> list[str]:
    """Names of the elements fixing the ideal, sorted; always a subgroup."""
    names = sorted(g.name for g in action.elements if act_on_ideal(g, ideal) == ideal)
    if not _is_subgroup(action, names):
        raise ValidationError("internal: stabilizer is not a subgroup")
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
    return _fixes_type(action.product, g, action.product.check_type(kvec))


def _fixes_type(product: ProductAlgebra, g: GroupElement, kvec) -> bool:
    """acts_trivially_on_type for a type vector already checked against the product."""
    for i, block in enumerate(product.blocks):
        j = g.tau[i]
        if j != i:
            target = product.blocks[j]
            single_i = kvec[i] in (0, block.n)
            single_j = kvec[j] in (0, target.n)
            if not (single_i and single_j):
                return False
            if kvec[i] != kvec[j]:
                return False
        else:
            if not is_trivial_on_grassmannian(*g.maps[i], kvec[i]):
                return False
    return True


def type_kernel(action: GaloisAction, kvec) -> tuple[str, ...]:
    """Sorted names of the elements fixing every ideal of the type.

    It lies in the stabilizer of every ideal of the type and equals that of
    a generic one (rational points of Grassmannians are Zariski-dense).  It
    is checked to be a subgroup, normal in the elements that keep the type.
    """
    kvec = action.product.check_type(kvec)
    names = tuple(sorted(g.name for g in action.elements if _fixes_type(action.product, g, kvec)))
    kernel, comp = set(names), action.composition
    keep_type = [g.name for g in action.elements if all(kvec[j] == k for j, k in zip(g.tau, kvec))]
    if not _is_subgroup(action, names) or any(
            comp[(comp[(g, a)], action.inverses[g])] not in kernel for g in keep_type for a in names):
        raise ValidationError("internal: type kernel is not normal in the type-preserving elements")
    return names


@dataclass
class FreeCertificate:
    """Decision for 'does a free ideal of this type exist', from search_free.

    status is 'negative' (witness_name: a nontrivial element fixing every
    ideal of the type; ideals is empty), 'positive' (ideals holds the
    requested number of pairwise distinct ideals, each certified free) or
    'inconclusive' (the sample budget ran out; ideals holds those found so
    far, and the outcome is never a proof of absence).  kernel is the
    type_kernel, for every status; tries_used counts the samples spent.
    """

    status: str
    kernel: tuple
    witness_name: str | None = None
    ideals: tuple = ()
    tries_used: int = 0
    detail: str | None = None


def search_free(action: GaloisAction, kvec, count: int = 1, seed: int = 0,
                max_tries: int = 1000) -> FreeCertificate:
    """Decide whether free ideals of the given type exist, and find `count` of them.

    The type is checked first, then count and max_tries.  A nontrivial
    type_kernel is a certified negative, witnessed by its first nontrivial
    element, and nothing is sampled.  Otherwise components are
    rejection-sampled factor by factor.  Component i must be moved by every
    same-factor map that is nontrivial on its Grassmannian, and must differ
    from the cross-factor images of the components already chosen.
    max_tries bounds the total number of subspace samples, so the search
    always terminates; the coordinate height grows 10 -> 100 -> 1000 across
    thirds of that budget.  Every assembled ideal is certified free by a
    direct stabilizer test before it is kept.  A spent budget, or a sampler
    that cannot draw a subspace of the right rank, ends the search as
    inconclusive with the ideals found so far.
    """
    kvec = action.product.check_type(kvec)
    if count < 1:
        raise ValidationError("count must be at least 1")
    if max_tries < 1:
        raise ValidationError("max_tries must be at least 1")
    kernel = type_kernel(action, kvec)
    if len(kernel) > 1:
        witness = next(g for g in action.nontrivial() if g.name in kernel)
        return FreeCertificate(status="negative", kernel=kernel, witness_name=witness.name)
    same_factor = []
    cross_factor = []
    for i in range(action.product.r):
        # one pair per distinct action (equal keys give equal images)
        movers = {g.keys[i]: g.maps[i] for g in action.nontrivial()
                  if g.tau[i] == i and not is_trivial_on_grassmannian(*g.maps[i], kvec[i])}
        same_factor.append(list(movers.values()))
        cross_factor.append([(j, g.maps[i]) for g in action.nontrivial()
                             if (j := g.tau_inv[i]) < i and kvec[j] == kvec[i]])
    found: list[ProductIdeal] = []
    seen_ideals = set()
    tries_used = 0
    candidate = 0

    def inconclusive(detail: str) -> FreeCertificate:
        return FreeCertificate(status="inconclusive", kernel=kernel, ideals=tuple(found),
                               tries_used=tries_used, detail=detail)

    while len(found) < count and tries_used < max_tries:
        chosen = []
        for i, block in enumerate(action.product.blocks):
            forbidden = [act_on_subspace(*pair, chosen[j]) for j, pair in cross_factor[i]]
            picked = None
            attempt = 0
            while tries_used < max_tries:
                if tries_used < max_tries // 3:
                    height = 10
                elif tries_used < (2 * max_tries) // 3:
                    height = 100
                else:
                    height = 1000
                tries_used += 1
                try:
                    v = random_subspace(block.algebra, block.n, kvec[i],
                                        subseed(seed, 0x5F, candidate, i, attempt), height)
                except SearchExhausted as exc:
                    return inconclusive(
                        f"free-ideal search stopped after {tries_used} samples with "
                        f"{len(found)} of {count} ideals found: {exc} (factor {i + 1})"
                    )
                attempt += 1
                if any(act_on_subspace(*pair, v) == v for pair in same_factor[i]):
                    continue
                if any(v == f for f in forbidden):
                    continue
                picked = v
                break
            if picked is None:
                return inconclusive(
                    f"free-ideal search spent its {max_tries}-sample budget with "
                    f"{len(found)} of {count} ideals found (stuck on factor {i + 1})"
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
        return inconclusive(
            f"free-ideal search produced only {len(found)} of {count} distinct ideals "
            f"within the {max_tries}-sample budget"
        )
    return FreeCertificate(status="positive", kernel=kernel, ideals=tuple(found),
                           tries_used=tries_used)
