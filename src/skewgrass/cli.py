"""Command-line interface.

Every subcommand prints one JSON object to stdout (compact, sorted keys, so
identical inputs give byte-identical output); --pretty switches to a short
human rendering.  Exit codes: 0 success, 2 invalid input, 3 inconclusive
search.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import datasets, frontend, schema
from .errors import SkewgrassError, ValidationError


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _load_structure(source: str):
    """A path to a JSON document, or the name of a bundled demo."""
    if os.path.exists(source):
        return frontend.load_endo_structure(_load_json_file(source)), source
    if source in datasets.DEMO_NAMES:
        return frontend.load_endo_structure(source), source
    raise ValidationError(
        f"{source!r} is neither a readable file nor a demo name "
        f"(available demos: {', '.join(datasets.DEMO_NAMES)})"
    )


def _parse_type(text: str) -> list:
    parts = [p.strip() for p in text.split(",")]
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--type must be comma-separated integers, got {text!r}") from None


def _cmd_validate(args) -> dict:
    structure, label = _load_structure(args.file)
    return {"command": "validate", "dataset": label, "status": "ok", **structure.describe()}


def _cmd_decompose(args) -> dict:
    structure, label = _load_structure(args.file)
    g = structure.action.element(args.element)
    factors = []
    for i, (_, sigma) in enumerate(g.maps):
        # the stored pair is the decomposition; its action key holds P's central normal form
        factors.append({
            "factor": i + 1,
            "sigma": sigma.name,
            "sigma_matrix": schema.ser_sigma(sigma),
            "P": schema.ser_matrix(structure.product.blocks[i].unflatten(g.keys[i][1])),
            "reconstructed": True,
        })
    return {"command": "decompose", "dataset": label, "element": g.name, "factors": factors}


def _survey_payload(command: str, source: str, args) -> dict:
    structure, label = _load_structure(source)
    kvec = _parse_type(args.type)
    result = frontend.subvariety_survey(structure, kvec, count=args.count, seed=args.seed,
                                        max_tries=args.max_tries)
    return {"command": command, "dataset": label, **result}


def _cmd_survey(args) -> dict:
    return _survey_payload("survey", args.file, args)


def _cmd_field_of_def(args) -> dict:
    structure, label = _load_structure(args.file)
    ideal = schema.parse_product_ideal(_load_json_file(args.ideal), structure.product)
    report = frontend.field_of_definition(structure, ideal)
    return {"command": "field-of-def", "dataset": label, **report.to_json()}


def _cmd_bound(args) -> dict:
    return {"command": "bound", "dim": args.dim, "value": frontend.remond_bound(args.dim)}


def _cmd_demo(args) -> dict:
    if args.name is None:
        return {"command": "demo", "available": list(datasets.DEMO_NAMES)}
    if args.type is not None:
        return _survey_payload("demo", args.name, args)
    return {"command": "demo", "dataset": args.name, "document": datasets.demo_document(args.name)}


def _fmt_stab(names) -> str:
    return "{" + ", ".join(names) + "}"


def _pretty_witness(idx: int, w: dict) -> str:
    field = w["field"] if w["field"] is not None else f"fixed field of {_fmt_stab(w['stabilizer_generators']) or '{}'}"
    return (f"  witness {idx}: field {field}, degree {w['degree_over_base']} over the base, "
            f"stabilizer {_fmt_stab(w['stabilizer'])}, dim {w['dim']}")


def _pretty(payload: dict) -> str:
    cmd = payload.get("command")
    lines = []
    if cmd == "validate":
        lines.append(f"{payload['dataset']}: ok (dimension {payload['dim']})")
        for i, b in enumerate(payload["blocks"], start=1):
            lines.append(
                f"  factor {i}: {b['factor']}^{b['n']} (factor dim {b['factor_dim']}), "
                f"matrices of size {b['n']} over {b['algebra']} "
                f"(dim {b['algebra_dim']}, center dim {b['center_dim']}); "
                f"lifts: {', '.join(b['lifts'])}"
            )
        g = payload["group"]
        lines.append(f"  group of order {g['order']}: {', '.join(g['elements'])} "
                     f"(identity {g['identity']})")
        f = payload["fields"]
        lines.append(f"  fields: base {f['base']}, full {f['full']}")
    elif cmd == "bound":
        lines.append(f"dimension {payload['dim']}: degree bound {payload['value']}")
    elif cmd == "decompose":
        lines.append(f"element {payload['element']!r} of {payload['dataset']}")
        for f in payload["factors"]:
            lines.append(f"  factor {f['factor']}: sigma = {f['sigma']}, "
                         f"P = {json.dumps(f['P'])}, reconstructed exactly")
    elif cmd == "field-of-def":
        lines.append(f"type {payload['type']} ({payload['isogeny_class']}), dim {payload['dim']}")
        lines.append(f"  stabilizer {_fmt_stab(payload['stabilizer'])}, "
                     f"generators {_fmt_stab(payload['stabilizer_generators'])}")
        field = payload["field"] if payload["field"] is not None else "(not in the field table)"
        lines.append(f"  field: {field}; degree {payload['degree_over_base']} over the base")
    elif cmd in ("survey", "demo") and "status" in payload:
        lines.append(
            f"{payload['dataset']}: type {payload['type']} ({payload['isogeny_class']}), "
            f"group order {payload['group_order']}, "
            f"bound f({payload['bound']['dim']}) = {payload['bound']['value']}"
        )
        if payload["status"] == "positive":
            lines.append(f"status: positive ({len(payload['witnesses'])} witnesses, "
                         f"{payload['tries_used']} samples)")
            for idx, w in enumerate(payload["witnesses"], start=1):
                lines.append(_pretty_witness(idx, w))
        elif payload["status"] == "negative":
            lines.append("status: negative")
            lines.append(f"  {payload['statement']}")
            for stab, field in zip(payload["possible_stabilizers"], payload["possible_fields"]):
                shown = field if field is not None else "(not in the field table)"
                lines.append(f"  generic stabilizer {_fmt_stab(stab)} -> field {shown}")
        else:
            lines.append(f"status: inconclusive after {payload['tries_used']} samples")
            lines.append(f"  {payload['detail']}")
    else:
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="skewgrass",
        description="Galois descent bookkeeping for products of matrix algebras "
                    "over division algebras: decompose automorphisms, survey "
                    "abelian subvarieties by type, and compute degree bounds.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="human-readable text instead of compact JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse and fully validate an endomorphism document")
    p.add_argument("file", help="JSON document path or demo name")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("decompose", parents=[common],
                       help="split a group element into inner and lifted parts, factor by factor")
    p.add_argument("file", help="JSON document path or demo name")
    p.add_argument("--element", required=True, help="group element name")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("survey", parents=[common],
                       help="search for subvarieties of a given type with trivial stabilizer")
    p.add_argument("file", help="JSON document path or demo name")
    p.add_argument("--type", required=True, help="comma-separated ideal type, e.g. 1,1")
    p.add_argument("--count", type=int, default=1, help="number of distinct witnesses")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=1000, dest="max_tries")
    p.set_defaults(fn=_cmd_survey)

    p = sub.add_parser("field-of-def", parents=[common],
                       help="stabilizer, field label and degree for one ideal")
    p.add_argument("file", help="JSON document path or demo name")
    p.add_argument("--ideal", required=True, help="path to a JSON ideal (per-factor basis matrices)")
    p.set_defaults(fn=_cmd_field_of_def)

    p = sub.add_parser("bound", parents=[common],
                       help="explicit degree bound for subvarieties of a g-dimensional variety")
    p.add_argument("--dim", type=int, required=True, help="dimension g")
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("demo", parents=[common],
                       help="print a bundled example document, or survey it with --type")
    p.add_argument("name", nargs="?", default=None,
                   help="demo name; omit to list the available demos")
    p.add_argument("--type", default=None, help="comma-separated ideal type, e.g. 1,1")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=1000, dest="max_tries")
    p.set_defaults(fn=_cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = args.fn(args)
    except SkewgrassError as exc:
        error = {"command": args.command, "status": "error", "error": str(exc)}
        print(json.dumps(error, sort_keys=True, separators=(",", ":")))
        return 2
    if args.pretty:
        print(_pretty(payload))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 3 if payload.get("status") == "inconclusive" else 0


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
