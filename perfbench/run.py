"""Benchmark of skewgrass: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 30 --trace 0

One caller, no threads: the next op starts only when the previous one has
returned.  A workload is a list of rounds of generated inputs, every round
the same mix (one input per ladder rung, scenario or document).  The loop
runs whole rounds until ``--seconds`` of op time have passed and, when
measuring untraced, at least MIN_OPS ops are done.  Every output is checked
exactly, outside the timed span; an op that raises or fails a check counts
as failed and the run goes on.  The package is imported from ``src/`` of
the checkout this file sits in, and only its public functions are called.

Timings are at reference speed: after every op, and around every set-up,
the loop runs the fixed kernel of reference.py and scales the wall time by
REFERENCE_NS over the kernel's time around it.  On a shared host the same
code runs up to three times slower from one second to the next; the scaled
times follow the program, not the host.  The first stdout line gives the
unscaled wall figures and the kernel's median time.

End-to-end metrics (``--trace 0``):
    ops_per_s    median over rounds of verified ops per second of op time
    op_ms_p50    median over rounds of the round's median op latency
    op_ms_tail   p90 op latency over all ops (at least 10 ops lie beyond it)
    setup_s      import time plus the median of SETUP_REPEATS set-ups, each
                 dropped before the next, so one set of inputs is alive
    peak_rss_mb  ru_maxrss of this process
The first stdout line also names the tail percentile, the op count and the
fail ratio.  With ``--trace 1`` the run measures once untraced and once with
every layer wrapped from the outside (spans.py), prints the per-layer
metrics, and writes the spans to ``.perfbench_work/trace-<workload>.json.gz``.
"""

import time

_T0 = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import reference  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# The tail is p90 with at least 10 ops beyond it.  It is not "the highest
# percentile with 10 ops beyond it": that percentile would rise with the op
# count, which rises as the program gets faster, and a faster program would
# then report a worse tail.
MIN_OPS = 100
SETUP_REPEATS = 3


def import_program():
    """Import skewgrass from this checkout's src/, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "skewgrass", "__init__.py")):
        print(f"perfbench: no package at {SRC}/skewgrass; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import skewgrass

    if os.path.dirname(os.path.dirname(os.path.abspath(skewgrass.__file__))) != SRC:
        print(f"perfbench: imported skewgrass from {skewgrass.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Measurement:
    """Op durations (ns) and outcomes of one measurement, grouped by round.

    Each op is kept as (wall ns, ns at reference speed, verified).
    Throughput and median latency are medians over rounds, each round being
    the same mix of inputs, so a few seconds in which the machine runs slow
    move them less than they move a total over the whole run.
    """

    def __init__(self):
        self.rounds: list[list[tuple[int, float, bool]]] = []
        self.kernel_ns: list[int] = []

    @property
    def lat(self) -> list[int]:
        """Wall ns of every op."""
        return [ns for r in self.rounds for ns, _, _ in r]

    @property
    def scaled(self) -> list[float]:
        """Ns at reference speed of every op."""
        return [ns for r in self.rounds for _, ns, _ in r]

    @property
    def failed(self) -> int:
        return sum(not ok for r in self.rounds for _, _, ok in r)

    def ops_per_s(self, wall: bool = False) -> float:
        """Median over rounds of completed, verified ops per second of op time."""
        t = 0 if wall else 1
        return statistics.median(sum(op[2] for op in r) / (sum(op[t] for op in r) / 1e9)
                                 for r in self.rounds)

    def p50_ms(self, wall: bool = False) -> float:
        """Median over rounds of the round's median op latency."""
        t = 0 if wall else 1
        return statistics.median(statistics.median(op[t] for op in r)
                                 for r in self.rounds) / 1e6


def failure(workload, item, what: str):
    """Report a failed op on stderr, with the traceback if one is active."""
    print(f"perfbench: {workload.name} op on {workload.label(item)} {what}", file=sys.stderr)
    if sys.exc_info()[0] is not None:
        traceback.print_exc(file=sys.stderr)


def measure(workload, seconds: float, min_ops: int = 0, tracer=None) -> Measurement:
    """Closed loop over whole rounds, at least one.

    Stops once ``seconds`` of op time and ``min_ops`` ops are done.  The
    reference kernel runs before the first op and after each one.
    """
    m = Measurement()
    ops = 0
    busy = 0
    before = reference.kernel_ns()
    while not m.rounds or busy < seconds * 1e9 or ops < min_ops:
        outcomes = []
        for item in workload.rounds[len(m.rounds) % len(workload.rounds)]:
            if tracer is not None:
                tracer.op_id = ops
            t0 = time.perf_counter_ns()
            try:
                out = workload.run(item)
                error = False
            except Exception:  # an op that raises is a failed op; the run goes on
                error = True
                failure(workload, item, "raised")
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.op_id = -1
            after = reference.kernel_ns()
            m.kernel_ns.append(after)
            ops += 1
            busy += dt
            ok = False
            if not error:
                try:
                    ok = workload.check(item, out)
                except Exception:  # malformed output is a failed check
                    failure(workload, item, "gave malformed output")
                else:
                    if not ok:
                        failure(workload, item, "failed its output check")
            outcomes.append((dt, reference.scaled(dt, before, after), ok))
            before = after
        m.rounds.append(outcomes)
    return m


def end_to_end(m: Measurement, setup_s: float):
    lat = m.scaled
    metrics = {
        "ops_per_s": (m.ops_per_s(), "1/s"),
        "op_ms_p50": (m.p50_ms(), "ms"),
        "op_ms_tail": (statistics.quantiles(lat, n=10, method="inclusive")[-1] / 1e6, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    note = (f"{len(lat)} ops in {len(m.rounds)} rounds; op_ms_tail is p90 with "
            f"{len(lat) - math.ceil(0.9 * len(lat))} ops beyond it; "
            f"fail_ratio {m.failed / len(lat):.6f} ({m.failed} of {len(lat)}); "
            f"unscaled: ops_per_s {m.ops_per_s(wall=True):.4g}, "
            f"op_ms_p50 {m.p50_ms(wall=True):.4g}; "
            f"reference kernel median {statistics.median(m.kernel_ns) / 1e6:.3g} ms "
            f"(REFERENCE_NS {reference.REFERENCE_NS / 1e6:g} ms)")
    return metrics, note


def per_layer(spec, tracer, m: Measurement, untraced_ops_per_s):
    """Per-op layer metrics from the spans of a traced measurement.

    ``spec`` is the ``per_layer`` list of BENCHMARK.json.  A metric named
    ``<span or module>.<field>`` reads that field of the span statistics,
    where field is calls, self_s or incl_share and a module's self time is
    the sum over its spans; the metrics in ``counted`` come from the
    tracer's work counts or from the measurement itself.
    """
    lat = m.lat
    stats, outside_ns = tracer.summary(lat)
    ops = len(lat)
    op_ns = sum(lat)
    modules = {}
    for name, (_, self_ns, _) in stats.items():
        layer = name.split(".")[0]
        modules[layer] = modules.get(layer, 0) + self_ns
    counts = tracer.counts
    samples = counts.get("groups.search_free.samples", 0)
    counted = {
        "qlinalg.rref.cells": counts.get("qlinalg.rref.cells", 0) / ops,
        "groups.search_free.samples": samples / ops,
        "groups.search_free.accept_ratio":
            counts.get("groups.search_free.ideals", 0) / samples if samples else 0.0,
        "bench.self_s": outside_ns / 1e9 / ops,
        "trace.overhead_ratio": m.ops_per_s() / untraced_ops_per_s,
    }
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name in counted:
            value = counted[name]
        else:
            key, field = name.rsplit(".", 1)
            calls, self_ns, incl_ns = stats.get(key, (0, modules.get(key, 0), 0))
            value = {"calls": calls / ops, "self_s": self_ns / 1e9 / ops,
                     "incl_share": incl_ns / op_ns}[field]
        metrics[name] = (value, entry["unit"])
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="skewgrass benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=("decompose", "survey", "load"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload_cls, seed: int):
    """Build the workload SETUP_REPEATS times; keep the last, time the median.

    Each build is timed at reference speed, gauged by the kernel just before
    and just after it.  Each is closed and dropped before the next starts,
    so no more than one set of inputs is alive at a time and peak_rss_mb
    counts one.
    """
    times = []
    for i in range(SETUP_REPEATS):
        before = reference.kernel_ns()
        t = time.perf_counter_ns()
        workload = workload_cls(seed, WORK)
        dt = time.perf_counter_ns() - t
        times.append(reference.scaled(dt, before, reference.kernel_ns()) / 1e9)
        if i < SETUP_REPEATS - 1:
            workload.close()
            del workload
            gc.collect()
    return workload, statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    import_ns = time.perf_counter_ns() - _T0
    import_s = reference.scaled(import_ns, reference.kernel_ns(), reference.kernel_ns()) / 1e9
    workload, build_s = set_up(workloads.WORKLOADS[args.workload], args.seed)
    try:
        untraced = measure(workload, args.seconds, MIN_OPS)
        metrics, note = end_to_end(untraced, import_s + build_s)
        print(f"{args.workload} seed {args.seed}: {note}")
        measurements = [untraced]
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds, tracer=tracer)
            finally:
                tracer.uninstall()
            os.makedirs(WORK, exist_ok=True)
            tracer.write(os.path.join(WORK, f"trace-{args.workload}.json.gz"))
            with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
                spec = json.load(fh)["per_layer"]
            metrics = per_layer(spec, tracer, traced, metrics["ops_per_s"][0])
            measurements.append(traced)
    finally:
        workload.close()
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted = sum(len(m.lat) for m in measurements)
    failed = sum(m.failed for m in measurements)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
