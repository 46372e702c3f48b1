"""Outside tracing: wrap the package's public functions and record spans.

Nothing in the package is edited.  Each public function of a layer module
is replaced by a timing wrapper in every ``skewgrass`` module namespace
that holds it, because ``from .linalg import column_echelon`` binds the
name in the importing module and patching ``linalg`` alone would miss
those calls.  The D arithmetic lives in methods, so
``DivisionAlgebra.mul_coords`` and ``AlgebraElement.try_inv`` are patched
on their classes.  Work done in methods that are not wrapped (for example
``MatrixOverD.__mul__``) counts as self time of the nearest wrapped caller.

Spans (name, start, end, parent, op id) of the timed ops, and only of
those, are kept in memory in flat integer arrays and written out when the
run ends; self time and call counts are derived from them afterwards.  Two
work counts are taken at the boundary itself: the cells (rows x cols) of
every ``qlinalg.rref`` input, and the samples and accepted ideals of every
``groups.search_free`` result.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "skewgrass"
LAYERS = ("algebra", "qlinalg", "linalg", "autos", "groups", "schema", "frontend", "cli")
METHODS = (("algebra", "DivisionAlgebra", "mul_coords"), ("algebra", "AlgebraElement", "try_inv"))


def _rref_cells(args, result):
    a = args[0]
    return {"qlinalg.rref.cells": len(a) * (len(a[0]) if a else 0)}


def _search_outcome(args, result):
    return {"groups.search_free.samples": result.tries_used,
            "groups.search_free.ideals": len(result.ideals)}


COUNTERS = {"qlinalg.rref": _rref_cells, "groups.search_free": _search_outcome}


def public_functions(module):
    """(name, function) for the plain public functions defined in ``module``."""
    return [(name, obj) for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_") and not inspect.isgeneratorfunction(obj)]


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.counts: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        stack = self._stack
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, ops = self.parent_col, self.op_col
        counts = self.counts

        def traced(*args, **kwargs):
            op_id = self.op_id
            if op_id < 0:  # outside a timed op, e.g. in an output check
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(op_id)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                for key, k in counter(args, result).items():
                    counts[key] = counts.get(key, 0) + k
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for fname, fn in public_functions(module):
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            fn = vars(cls)[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def __len__(self):
        return len(self.start_col)

    def summary(self, op_ns: list[int]):
        """Per-name calls, self and inclusive time, and time outside every span.

        ``op_ns`` holds the timed duration of each op, indexed by op id.
        Inclusive time counts only the outermost span of a name, so a
        recursive or re-entrant call is not counted twice.
        """
        n = len(self)
        names, starts, ends, parents = self.name_col, self.start_col, self.end_col, self.parent_col
        stats = [[0, 0, 0] for _ in self.names]  # calls, self ns, inclusive ns
        child_ns = array("q", bytes(8 * n))
        top_ns = 0
        # spans are appended at entry, so walking them in order replays the
        # call stack: pop until the top is the parent, then push
        stack: list[int] = []
        open_names = [0] * len(self.names)
        for idx in range(n):
            parent = parents[idx]
            while stack and stack[-1] != parent:
                open_names[names[stack.pop()]] -= 1
            dur = ends[idx] - starts[idx]
            if parent < 0:
                top_ns += dur
            else:
                child_ns[parent] += dur
            name_id = names[idx]
            s = stats[name_id]
            s[0] += 1
            if not open_names[name_id]:
                s[2] += dur
            open_names[name_id] += 1
            stack.append(idx)
        for idx in range(n):
            stats[names[idx]][1] += ends[idx] - starts[idx] - child_ns[idx]
        return dict(zip(self.names, stats)), sum(op_ns) - top_ns

    def write(self, path: str):
        """Spans as gzip'd JSON: name table, counts, one integer column per field.

        Columns are written in slices, so no list of every span is built.
        """
        columns = (("name", self.name_col), ("start_ns", self.start_col), ("end_ns", self.end_col),
                   ("parent", self.parent_col), ("op", self.op_col))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f'{{"names":{json.dumps(self.names)},"counts":{json.dumps(self.counts)},"columns":{{')
            for i, (key, col) in enumerate(columns):
                fh.write(f'{"," if i else ""}"{key}":[')
                for start in range(0, len(col), 1 << 16):
                    fh.write(("," if start else "") + ",".join(map(str, col[start:start + (1 << 16)])))
                fh.write("]")
            fh.write("}}")
