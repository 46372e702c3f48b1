"""Bundled example documents, loadable by name from the API and the CLI."""

from __future__ import annotations

import copy

from .errors import ValidationError

# An elliptic curve with CM by Q(i) times a curve with endomorphism ring Q,
# over a ground field where only complex conjugation acts.  The conjugation
# lift on the first factor sends x to -x in Q[x]/(x^2+1).
_REMARK_A = {
    "blocks": [
        {
            "n": 1,
            "algebra": {"field": [1, 0, 1]},
            "factor": {"label": "E", "dim": 1},
            "lifts": [{"name": "conj", "matrix": [[1, 0], [0, -1]]}],
        },
        {
            "n": 2,
            "algebra": {"field": [0, 1]},
            "factor": {"label": "C", "dim": 1},
            "lifts": [],
        },
    ],
    "group": {
        "elements": [
            {
                "name": "id",
                "tau": [1, 2],
                "maps": [
                    {"P": [[[1, 0]]], "sigma": "id"},
                    {"P": [[[1], [0]], [[0], [1]]], "sigma": "id"},
                ],
            },
            {
                "name": "c",
                "tau": [1, 2],
                "maps": [
                    {"P": [[[1, 0]]], "sigma": "conj"},
                    {"P": [[[1], [0]], [[0], [1]]], "sigma": "id"},
                ],
            },
        ]
    },
    "fields": {"base": "Q", "full": "Q(i)", "table": {"id": "Q(i)", "c,id": "Q"}},
}

# Same arithmetic, but the CM factor now appears with multiplicity two, so
# its Grassmannians of intermediate type are genuinely infinite.
_REMARK_A2 = {
    "blocks": [
        {
            "n": 2,
            "algebra": {"field": [1, 0, 1]},
            "factor": {"label": "E", "dim": 1},
            "lifts": [{"name": "conj", "matrix": [[1, 0], [0, -1]]}],
        },
        {
            "n": 2,
            "algebra": {"field": [0, 1]},
            "factor": {"label": "C", "dim": 1},
            "lifts": [],
        },
    ],
    "group": {
        "elements": [
            {
                "name": "id",
                "tau": [1, 2],
                "maps": [
                    {"P": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "sigma": "id"},
                    {"P": [[[1], [0]], [[0], [1]]], "sigma": "id"},
                ],
            },
            {
                "name": "c",
                "tau": [1, 2],
                "maps": [
                    {"P": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "sigma": "conj"},
                    {"P": [[[1], [0]], [[0], [1]]], "sigma": "id"},
                ],
            },
        ]
    },
    "fields": {"base": "Q", "full": "Q(i)", "table": {"id": "Q(i)", "c,id": "Q"}},
}

_DEMOS = {
    "remark-A": _REMARK_A,
    "remark-A2": _REMARK_A2,
}

DEMO_NAMES = tuple(sorted(_DEMOS))


def demo_document(name: str) -> dict:
    if name not in _DEMOS:
        raise ValidationError(f"unknown demo dataset {name!r}; available: {', '.join(DEMO_NAMES)}")
    return copy.deepcopy(_DEMOS[name])
