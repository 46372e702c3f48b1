"""High-level interface: load an endomorphism document, locate subvarieties.

An EndoStructure packages a product of matrix algebras over division
algebras, a finite group acting on it, and the field labels bookkeeping.
Reports answer: which abelian subvarieties of a given type exist, over
which field each one is defined, and how the degree of that field compares
to the explicit isogeny bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import datasets, schema
from .algebra import center
from .errors import ValidationError
from .groups import GaloisAction, ProductAlgebra, _is_subgroup, search_free, stabilizer, validate_group
from .ideals import ProductIdeal, ideal_type


@dataclass
class EndoStructure:
    """A validated endomorphism-algebra-with-group description."""

    product: ProductAlgebra
    action: GaloisAction
    factors: tuple  # (simple factor label, dimension of that factor) per block
    base_label: str
    full_label: str
    field_table: dict | None

    @property
    def g_total(self) -> int:
        return sum(block.n * dim for block, (_, dim) in zip(self.product.blocks, self.factors))

    def field_label_for(self, subgroup_names) -> str | None:
        if self.field_table is None:
            return None
        return self.field_table.get(tuple(sorted(subgroup_names)))

    def describe(self) -> dict:
        blocks = []
        for block, (label, dim) in zip(self.product.blocks, self.factors):
            blocks.append({
                "factor": label,
                "factor_dim": dim,
                "n": block.n,
                "algebra": block.algebra.label,
                "algebra_dim": block.algebra.dim,
                "center_dim": center(block.algebra).dim,
                "lifts": [e.name for e in block.lifts.entries],
            })
        return {
            "blocks": blocks,
            "group": {
                "order": self.action.order,
                "identity": self.action.identity_name,
                "elements": [g.name for g in self.action.elements],
            },
            "fields": {"base": self.base_label, "full": self.full_label},
            "dim": self.g_total,
        }


def _subgroup_closure(action: GaloisAction, gens) -> set:
    names = {action.identity_name}
    while True:
        new = set()
        for a in names:
            for g in gens:
                c = action.composition[(a, g)]
                if c not in names:
                    new.add(c)
        if not new:
            return names
        names |= new


def subgroup_generators(action: GaloisAction, names) -> tuple:
    """A small deterministic generating set (empty for the trivial subgroup)."""
    gens: list = []
    have = {action.identity_name}
    for name in sorted(names):
        if name not in have:
            gens.append(name)
            have = _subgroup_closure(action, gens)
    return tuple(gens)


def _validate_field_table(action: GaloisAction, table):
    if table is None:
        return None
    known = set(action.by_name)
    out = {}
    for key, label in table.items():
        for name in key:
            if name not in known:
                raise ValidationError(f"field table key {key} names unknown element {name!r}")
        group = set(key)
        if len(key) != len(group):
            raise ValidationError(f"field table key {key} repeats an element")
        if action.identity_name not in group:
            raise ValidationError(f"field table key {key} is not a subgroup: missing the identity")
        if not _is_subgroup(action, group):
            raise ValidationError(f"field table key {key} is not closed under composition")
        out[key] = label
    singleton = (action.identity_name,)
    if singleton not in out:
        raise ValidationError("field table must name the field for the trivial subgroup")
    everyone = tuple(sorted(action.by_name))
    if everyone not in out:
        raise ValidationError("field table must name the field for the whole group")
    return out


def load_endo_structure(source) -> EndoStructure:
    """Build a validated EndoStructure from a document or a demo name."""
    if isinstance(source, str):
        source = datasets.demo_document(source)
    parts = schema.parse_document(source)
    action = validate_group(parts["product"], parts["elements"])
    table = _validate_field_table(action, parts["table"])
    return EndoStructure(
        product=parts["product"],
        action=action,
        factors=parts["factors"],
        base_label=parts["base"],
        full_label=parts["full"],
        field_table=table,
    )


@dataclass
class SubvarietyReport:
    """One abelian subvariety: its type, field of definition, and degree."""

    kvec: tuple
    isogeny_class: str
    dim: int
    stabilizer_names: tuple
    field_label: str | None
    generators: tuple
    degree_over_base: int
    ideal: ProductIdeal

    def to_json(self) -> dict:
        return {
            "type": [int(k) for k in self.kvec],
            "isogeny_class": self.isogeny_class,
            "dim": self.dim,
            "stabilizer": list(self.stabilizer_names),
            "field": self.field_label,
            "stabilizer_generators": list(self.generators),
            "degree_over_base": self.degree_over_base,
            "ideal": schema.ser_ideal(self.ideal),
        }


def _check_ideal_shape(structure: EndoStructure, ideal: ProductIdeal):
    blocks = structure.product.blocks
    if len(ideal.subspaces) != len(blocks):
        raise ValidationError(
            f"ideal has {len(ideal.subspaces)} components; product has {len(blocks)} factors"
        )
    for i, (v, block) in enumerate(zip(ideal.subspaces, blocks)):
        if v.algebra != block.algebra or v.ambient_dim != block.n:
            raise ValidationError(f"ideal component {i + 1} does not live in factor {i + 1}")


def _isogeny_class_label(structure: EndoStructure, kvec) -> str:
    parts = [f"{label}^{k}" for (label, _), k in zip(structure.factors, kvec) if k > 0]
    return " x ".join(parts) if parts else "0"


def field_of_definition(structure: EndoStructure, ideal: ProductIdeal) -> SubvarietyReport:
    """Stabilizer of the ideal, the matching field label, and the degree."""
    _check_ideal_shape(structure, ideal)
    return _subvariety_report(structure, ideal, tuple(stabilizer(structure.action, ideal)))


def _subvariety_report(structure: EndoStructure, ideal: ProductIdeal, stab: tuple) -> SubvarietyReport:
    """The report for an ideal whose sorted stabilizer names are already known."""
    kvec = ideal_type(ideal)
    degree = structure.action.order // len(stab)
    dim = sum(k * dim_c for k, (_, dim_c) in zip(kvec, structure.factors))
    return SubvarietyReport(
        kvec=kvec,
        isogeny_class=_isogeny_class_label(structure, kvec),
        dim=dim,
        stabilizer_names=stab,
        field_label=structure.field_label_for(stab),
        generators=subgroup_generators(structure.action, stab),
        degree_over_base=degree,
        ideal=ideal,
    )


# Past this dimension the bound has thousands of digits: g = 1250 is the
# first whose value json.dumps refuses to print.
MAX_BOUND_DIM = 1000
# Survey budgets: witnesses asked for, and subspace samples spent at most.
MAX_COUNT = 1000
MAX_TRIES = 100_000


def remond_bound(g: int) -> int:
    """Explicit bound on the degree of the field of definition of an
    abelian subvariety of a g-dimensional abelian variety, as a function
    of g alone, for 1 <= g <= MAX_BOUND_DIM."""
    if isinstance(g, bool) or not isinstance(g, int) or g < 1:
        raise ValidationError(f"dimension must be a positive integer, got {g!r}")
    if g > MAX_BOUND_DIM:
        raise ValidationError(f"dimension {g} exceeds the supported maximum {MAX_BOUND_DIM}")
    alpha = {2: Fraction(2), 4: Fraction(5), 6: Fraction(7, 6)}.get(g, Fraction(1))
    value = 2 * alpha * (6 ** (g - 1)) * math.factorial(g)
    if value.denominator != 1:
        raise ValidationError(f"bound for g={g} is not an integer; table error")
    return int(value)


def check_bound(report: SubvarietyReport, g: int) -> bool:
    return report.degree_over_base <= remond_bound(g)


def subvariety_survey(structure: EndoStructure, kvec, count: int = 1, seed: int = 0,
                      max_tries: int = 1000) -> dict:
    """Do subvarieties of this type defined over exactly the full field exist?

    Returns a JSON-ready payload: status 'negative' with a certified witness
    element fixing every ideal of the type and the type kernel (the generic
    stabilizer) with its field, 'positive' with `count` verified
    witnesses and their fields, or 'inconclusive' when the search budget ran
    out (which is never reported as nonexistence).  search_free decides;
    this function only formats its certificate.  A count above MAX_COUNT or
    a max_tries above MAX_TRIES is refused before any sampling.
    """
    action = structure.action
    g = structure.g_total
    bound = remond_bound(g)  # refuses a too-large g before any sampling
    if count > MAX_COUNT:
        raise ValidationError(f"count {count} exceeds the supported maximum {MAX_COUNT}")
    if max_tries > MAX_TRIES:
        raise ValidationError(f"max_tries {max_tries} exceeds the supported maximum {MAX_TRIES}")
    cert = search_free(action, kvec, count, seed, max_tries=max_tries)
    kvec = tuple(int(k) for k in kvec)
    payload = {
        "type": list(kvec),
        "isogeny_class": _isogeny_class_label(structure, kvec),
        "group_order": action.order,
        "bound": {"dim": g, "value": bound},
        "seed": seed,
    }
    if cert.status == "negative":
        payload.update({
            "status": "negative",
            "certificate": {"witness": cert.witness_name},
            "statement": (
                f"element {cert.witness_name!r} fixes every ideal of type {list(kvec)}, so no "
                f"subvariety in this class has field of definition {structure.full_label}"
            ),
            "possible_stabilizers": [list(cert.kernel)],
            "possible_fields": [structure.field_label_for(cert.kernel)],
        })
    elif cert.status == "inconclusive":
        payload.update({
            "status": "inconclusive",
            "detail": cert.detail,
            "tries_used": cert.tries_used,
            "found": len(cert.ideals),
        })
    else:
        # search_free certified every ideal free, so its stabilizer is the identity alone
        free = (action.identity_name,)
        witnesses = []
        for ideal in cert.ideals:
            sub = _subvariety_report(structure, ideal, free)
            entry = sub.to_json()
            entry["bound_ok"] = check_bound(sub, g)
            witnesses.append(entry)
        payload.update({
            "status": "positive",
            "count": count,
            "tries_used": cert.tries_used,
            "witnesses": witnesses,
        })
    return payload
