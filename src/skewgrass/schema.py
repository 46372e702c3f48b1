"""JSON wire format: ingestion with path-carrying errors, and serialization.

Rationals travel as "p/q" strings (integers may be bare ints), elements of D
as length-d coordinate arrays, matrices as row-major nested arrays of
coordinate arrays.  An ideal of a product algebra is a list of per-factor
basis matrices.  Every parse error names the JSON path to the offending
value.
"""

from __future__ import annotations

from .algebra import AlgebraAutomorphism, AlgebraElement, DivisionAlgebra, LiftTable, build_algebra
from .autos import Block
from .errors import ValidationError
from .groups import GroupElement, ProductAlgebra
from .ideals import ProductIdeal
from .linalg import MatrixOverD, RightSubspace, column_echelon
from .rationals import rat_str, to_fraction


def _require_keys(obj: dict, required: set, optional: set, path: str):
    if not isinstance(obj, dict):
        raise ValidationError("expected an object", path)
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"missing required keys: {sorted(missing)}", path)
    unknown = set(obj) - required - optional
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}", path)


def _require_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ValidationError(f"expected an integer >= {minimum}, got {value}", path)
    return value


def _require_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"expected a nonempty string, got {value!r}", path)
    return value


def parse_element(algebra: DivisionAlgebra, data, path: str) -> AlgebraElement:
    if not isinstance(data, list) or len(data) != algebra.dim:
        raise ValidationError(
            f"expected a coordinate array of length {algebra.dim} over {algebra.label}", path
        )
    return algebra.element([to_fraction(c, f"{path}[{i}]") for i, c in enumerate(data)])


def parse_matrix(algebra: DivisionAlgebra, data, path: str,
                 rows: int | None = None, cols: int | None = None) -> MatrixOverD:
    if not isinstance(data, list) or not data:
        raise ValidationError("expected a nonempty array of matrix rows", path)
    if rows is not None and len(data) != rows:
        raise ValidationError(f"expected {rows} rows, got {len(data)}", path)
    width = None
    ents = []
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise ValidationError("expected an array of entries", f"{path}[{i}]")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(f"ragged matrix: row has {len(row)} entries, expected {width}",
                                  f"{path}[{i}]")
        ents.append([parse_element(algebra, e, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    if cols is not None and width != cols:
        raise ValidationError(f"expected {cols} columns, got {width}", path)
    return MatrixOverD(algebra, ents)


def parse_rational_matrix(data, path: str, size: int):
    if not isinstance(data, list) or len(data) != size:
        raise ValidationError(f"expected a {size}x{size} rational matrix", path)
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != size:
            raise ValidationError(f"expected {size} entries", f"{path}[{i}]")
        rows.append([to_fraction(c, f"{path}[{i}][{j}]") for j, c in enumerate(row)])
    return rows


def _parse_lifts(algebra: DivisionAlgebra, data, path: str) -> LiftTable:
    if data is None:
        data = []
    if not isinstance(data, list):
        raise ValidationError("expected an array of lifts", path)
    entries = []
    for i, item in enumerate(data):
        here = f"{path}[{i}]"
        if isinstance(item, dict):
            _require_keys(item, {"matrix"}, {"name"}, here)
            name = _require_str(item["name"], f"{here}.name") if "name" in item else None
            matrix = parse_rational_matrix(item["matrix"], f"{here}.matrix", algebra.dim)
        else:
            name = None
            matrix = parse_rational_matrix(item, here, algebra.dim)
        entries.append(AlgebraAutomorphism(algebra, matrix, name=name))
    try:
        return LiftTable.build(algebra, entries)
    except ValidationError as exc:
        if exc.path:
            raise
        raise ValidationError(str(exc), path) from None


def parse_block(data, idx: int):
    """One product factor: returns (Block, factor_label, factor_dim)."""
    path = f"blocks[{idx}]"
    _require_keys(data, {"n", "algebra", "factor"}, {"lifts"}, path)
    n = _require_int(data["n"], f"{path}.n", minimum=1)
    algebra = build_algebra(data["algebra"], f"{path}.algebra")
    _require_keys(data["factor"], {"label", "dim"}, set(), f"{path}.factor")
    label = _require_str(data["factor"]["label"], f"{path}.factor.label")
    dim = _require_int(data["factor"]["dim"], f"{path}.factor.dim", minimum=1)
    lifts = _parse_lifts(algebra, data.get("lifts"), f"{path}.lifts")
    return Block(algebra, n, lifts), label, dim


def parse_group_element(product: ProductAlgebra, data, idx: int) -> GroupElement:
    path = f"group.elements[{idx}]"
    _require_keys(data, {"name", "tau", "maps"}, set(), path)
    name = _require_str(data["name"], f"{path}.name")
    r = product.r
    tau_raw = data["tau"]
    if not isinstance(tau_raw, list) or len(tau_raw) != r:
        raise ValidationError(f"expected a permutation array of length {r}", f"{path}.tau")
    tau = []
    for i, v in enumerate(tau_raw):
        v = _require_int(v, f"{path}.tau[{i}]")
        if not 1 <= v <= r:
            raise ValidationError(f"factor index {v} out of range 1..{r}", f"{path}.tau[{i}]")
        tau.append(v - 1)
    maps_raw = data["maps"]
    if not isinstance(maps_raw, list) or len(maps_raw) != r:
        raise ValidationError(f"expected one map per factor ({r})", f"{path}.maps")
    maps = []
    for i, item in enumerate(maps_raw):
        here = f"{path}.maps[{i}]"
        block = product.blocks[i]
        _require_keys(item, {"P", "sigma"}, set(), here)
        p = parse_matrix(block.algebra, item["P"], f"{here}.P", rows=block.n, cols=block.n)
        sig_raw = item["sigma"]
        if isinstance(sig_raw, str):
            try:
                sigma = block.lifts.get(sig_raw)
            except ValidationError as exc:
                raise ValidationError(str(exc), f"{here}.sigma") from None
        else:
            matrix = parse_rational_matrix(sig_raw, f"{here}.sigma", block.algebra.dim)
            sigma = block.lifts.match_matrix(matrix)
            if sigma is None:
                raise ValidationError(
                    "sigma matrix is not one of the factor's lifts", f"{here}.sigma"
                )
        if not column_echelon(p).is_full():
            raise ValidationError(f"P is singular over {block.algebra.label}", f"{here}.P")
        maps.append((p, sigma))
    try:
        return GroupElement(name, tau, maps)
    except ValidationError as exc:
        raise ValidationError(str(exc), path) from None


def parse_fields(data):
    path = "fields"
    _require_keys(data, {"base", "full"}, {"table"}, path)
    base = _require_str(data["base"], f"{path}.base")
    full = _require_str(data["full"], f"{path}.full")
    table = None
    if "table" in data:
        raw = data["table"]
        if not isinstance(raw, dict):
            raise ValidationError("expected an object mapping subgroups to field labels", f"{path}.table")
        table = {}
        for key, value in raw.items():
            names = tuple(sorted(part.strip() for part in key.split(",")))
            if any(not n for n in names):
                raise ValidationError(f"malformed subgroup key {key!r}", f"{path}.table")
            table[names] = _require_str(value, f"{path}.table[{key!r}]")
    return base, full, table


def parse_document(doc: dict):
    """Structural pass over a whole endomorphism document.

    Returns the pieces (product, raw group elements, factor info, field
    labels); group-law validation and field-table semantics are the
    caller's next step since they need the composition table.
    """
    _require_keys(doc, {"blocks", "group", "fields"}, set(), "document")
    if not isinstance(doc["blocks"], list) or not doc["blocks"]:
        raise ValidationError("expected a nonempty array of factors", "blocks")
    blocks = []
    factors = []
    for i, raw in enumerate(doc["blocks"]):
        block, label, dim = parse_block(raw, i)
        blocks.append(block)
        factors.append((label, dim))
    product = ProductAlgebra(blocks)
    _require_keys(doc["group"], {"elements"}, set(), "group")
    if not isinstance(doc["group"]["elements"], list) or not doc["group"]["elements"]:
        raise ValidationError("expected a nonempty array of elements", "group.elements")
    elements = [parse_group_element(product, raw, i) for i, raw in enumerate(doc["group"]["elements"])]
    base, full, table = parse_fields(doc["fields"])
    return {
        "product": product,
        "elements": elements,
        "factors": tuple(factors),
        "base": base,
        "full": full,
        "table": table,
    }


def parse_product_ideal(data, product: ProductAlgebra, path: str = "ideal") -> ProductIdeal:
    """A list of per-factor basis matrices; spans are re-canonicalized."""
    if not isinstance(data, list) or len(data) != product.r:
        raise ValidationError(f"expected one basis matrix per factor ({product.r})", path)
    subspaces = []
    for i, raw in enumerate(data):
        block = product.blocks[i]
        here = f"{path}[{i}]"
        if not isinstance(raw, list) or len(raw) != block.n:
            raise ValidationError(f"expected {block.n} rows", here)
        if all(isinstance(row, list) and not row for row in raw):
            subspaces.append(RightSubspace.zero(block.algebra, block.n))
            continue
        matrix = parse_matrix(block.algebra, raw, here, rows=block.n)
        subspaces.append(column_echelon(matrix))
    return ProductIdeal.from_subspaces(subspaces)


# -- serialization -----------------------------------------------------------


def ser_element(e: AlgebraElement):
    return [rat_str(c) for c in e.coords]


def ser_matrix(m: MatrixOverD):
    return [[ser_element(e) for e in row] for row in m.entries]


def ser_sigma(theta: AlgebraAutomorphism):
    return [[rat_str(c) for c in row] for row in theta.matrix]


def ser_subspace(v: RightSubspace):
    return ser_matrix(v.basis)


def ser_ideal(ideal: ProductIdeal):
    return [ser_subspace(v) for v in ideal.subspaces]
