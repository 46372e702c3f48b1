"""Reference kernel: a fixed piece of pure-Python work that gauges host speed.

The benchmark runs on a few cores of a shared host, where the same Python
code can take twice or three times as long from one second to the next
while another tenant keeps the core busy; the process cannot see this in
its own CPU time.  The loop runs this kernel after every op and scales the
op's wall time by REFERENCE_NS over the kernel's time measured around it,
so a timing reads as it would on a host where the kernel takes
REFERENCE_NS.  The kernel is the benchmark's own code (Gauss-Jordan
elimination over fractions, the kind of work the program does), so no
change to the program can alter it.
"""

import gc
import time
from fractions import Fraction

# The kernel's time on a 2-vCPU, 2.0 GHz VM in its fast phases (1.7-1.9 ms).
REFERENCE_NS = 2_000_000
SIZE = 9


def _eliminate(n: int):
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, j + 1) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def kernel_ns() -> int:
    """Wall time of one run of the kernel, with the collector held off.

    A collection would scan the program's heap, and time the kernel by the
    program's memory instead of by the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter_ns()
        _eliminate(SIZE)
        return time.perf_counter_ns() - t
    finally:
        if enabled:
            gc.enable()


def scaled(ns: float, before: int, after: int) -> float:
    """``ns`` of wall time at reference speed, gauged by the kernel runs around it."""
    return ns * 2 * REFERENCE_NS / (before + after)
