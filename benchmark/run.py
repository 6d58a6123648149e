"""Seeded benchmark for posetalg: table recovery, the corpus check suite and
the rewriting probe.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload recover_deep --seed 1 --seconds 20 --trace 0

One caller, one process, one thread: a closed loop that starts each op when
the previous one has returned.  The run sets the workload up several times
(median reported as setup_s), then repeats timed passes over the workload's
fixed op list until --seconds is spent.  End-to-end times are wall times
scaled by the speed of a fixed reference loop timed next to them (see
scale_by_reference).  Every op's output goes through the workload's gate.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes, keeps one span per library call in memory, writes the spans
to .bench_trace/ under the checkout when the run ends and reports the
per-layer metrics, each as a median over the traced passes.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

import gates

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up repeats: at least SETUPS, and more until SETUP_SECONDS are spent,
# so that a set-up of a few milliseconds still gets a steady median
SETUPS = 3
SETUP_SECONDS = 1.0
MAX_SETUPS = 50
# the reference loop: the iterations of its two halves, the time it is
# scaled to, and how many of its timings on each side of an op (or a
# set-up) give that op's scale
REF_ARITHMETIC = 4700
REF_LOOKUPS = 3000
REF_SECONDS = 1e-3
REF_WINDOW = 6
# per-layer metrics: seconds per pass spent in each traced call (plus one
# span per check of the suite), counts made at the same boundaries, and
# ratios of the two
SPAN_METRICS = (
    "algebra.ensure_associative", "algebra.from_json_text",
    "algebra.IncidenceAlgebra", "algebra.multiplication_table",
    "recovery.quasi_idempotents", "recovery.recover_by_ideal_products",
    "recovery.recover_by_links", "poset.PairPoset", "poset.format_poset",
    "rewriting.build_rewrite_system", "rewriting.dimension_up_to",
)
COUNT_METRICS = (
    "algebra.entries", "algebra.dim", "recovery.elements", "recovery.refused",
    "poset.pairs", "checks.passed", "checks.skipped", "checks.failed",
    "rewriting.normal_forms",
)
# ratio name -> (span whose microseconds are the numerator, count that is
# the base, unit)
RATIOS = {
    "algebra.ensure_associative.us_per_entry":
        ("algebra.ensure_associative", "algebra.entries", "us/entry"),
    "recovery.recover_by_ideal_products.us_per_entry":
        ("recovery.recover_by_ideal_products", "recovery.ideal_products_entries",
         "us/entry"),
    "recovery.recover_by_links.us_per_entry":
        ("recovery.recover_by_links", "recovery.links_entries", "us/entry"),
    "rewriting.dimension_up_to.us_per_normal_form":
        ("rewriting.dimension_up_to", "rewriting.normal_forms", "us/normal_form"),
}


class NullTracer:
    """Untraced passes: calls go straight through."""

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, value):
        pass

    def begin_op(self, op):
        pass

    def end_op(self, start, end):
        pass


class Tracer:
    """Spans (name, start, end, parent, op) around each library call the
    benchmark makes, plus counters at the same boundaries, all in memory."""

    def __init__(self, origin):
        self.origin = origin
        self.spans = []
        self.counts = {}
        self.op = None
        self.parent = None

    def call(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter(), self.parent, self.op))

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def begin_op(self, op):
        # the op's own span takes its place now so that its calls can name it
        self.op = op
        self.parent = len(self.spans)
        self.spans.append(None)

    def end_op(self, start, end):
        self.spans[self.parent] = ("op", start, end, None, self.op)
        self.op = self.parent = None

    def seconds_by_name(self):
        out = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def records(self):
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            yield {
                "id": i,
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
                "op": op,
            }


# a fixed dict keyed by pairs, for the second half of the reference loop
REF_PAIRS = {(i, j): 8 * i + j for i in range(8) for j in range(8) if (i + j) % 3}


def reference_loop():
    """Fixed interpreter work, independent of posetalg, in two halves of
    about 0.5 ms each on a 2-core virtual machine: integer arithmetic with
    dict stores, then pairs built and looked up in a fixed dict.  Neither
    half grows the heap, so what an op leaves behind barely changes its
    speed.  Across host speed phases the first half alone tracked the
    recover workloads best and the second alone rewrite_dims and
    check_corpus; the two together keep every workload's spread low."""
    d, s = {}, 0
    for i in range(REF_ARITHMETIC):
        d[i & 63] = s
        s = (s + i * i) % 1000003
    pairs = REF_PAIRS
    for i in range(REF_LOOKUPS):
        pair = (i & 7, i >> 3 & 7)
        if pair in pairs:
            s += pairs[pair]
    return s


def time_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scale_by_reference(seconds, refs):
    """Wall seconds scaled to a host on which the reference loop takes
    REF_SECONDS, using the median of the reference timings refs made next to
    them.  On a shared virtual machine the processor's speed swings by up to
    1.5x in phases of seconds to minutes, often as long as a whole run; the
    reference loop slows with it, so the ratio keeps the program's own
    cost."""
    return seconds * REF_SECONDS / statistics.median(refs)


class Pass(NamedTuple):
    """One pass over the op list: each op's wall seconds, the reference
    timings (one before each op and one after the last) and its tracer."""

    times: list
    refs: list
    tracer: object

    def scaled(self):
        """Each op's wall time scaled by the reference timings around it."""
        w = REF_WINDOW
        return [
            scale_by_reference(t, self.refs[max(0, i + 1 - w): i + 1 + w])
            for i, t in enumerate(self.times)
        ]


def load_library():
    """Import posetalg and the workloads from this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "posetalg", "__init__.py")):
        sys.stderr.write("benchmark: no posetalg sources under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import posetalg

    if os.path.dirname(os.path.abspath(posetalg.__file__)) != os.path.join(SRC, "posetalg"):
        sys.stderr.write("benchmark: imported posetalg from %s\n" % posetalg.__file__)
        sys.exit(2)
    import workloads

    return workloads


def set_up(workload, seed):
    """Build the inputs repeatedly, timing each set-up, which includes a
    warm-up on the three smallest ops.  Returns the inputs, the wall time and
    the reference-scaled time of each set-up, and whether every set-up from
    the seed gave the same inputs."""
    times, scaled, prints, inputs = [], [], set(), None
    while len(times) < SETUPS or (
        sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS
    ):
        inputs = None
        gc.collect()
        refs = [time_reference() for _ in range(REF_WINDOW // 2)]
        start = time.perf_counter()
        inputs = workload.setup(seed)
        for inp in sorted(inputs, key=workload.size)[:3]:
            workload.run(NullTracer(), inp)
        times.append(time.perf_counter() - start)
        refs += [time_reference() for _ in range(REF_WINDOW // 2)]
        scaled.append(scale_by_reference(times[-1], refs))
        prints.add(hash(workload.fingerprint(inputs)))
    return inputs, times, scaled, len(prints) == 1


def timed_pass(workload, inputs, tracer, tally, label):
    """One pass over the op list, with the reference loop timed before each
    op and after the last."""
    times, refs = [], []
    gc.collect()
    for i, inp in enumerate(inputs):
        refs.append(time_reference())
        tracer.begin_op("%s.%d" % (label, i))
        start = time.perf_counter()
        try:
            result = workload.run(tracer, inp)
        except Exception as e:  # a crash is a failed op, never a lost run
            traceback.print_exc(file=sys.stderr)
            result = e
        end = time.perf_counter()
        tracer.end_op(start, end)
        times.append(end - start)
        tally.record(i, workload.judge(inp, result), inp.must_refuse)
    refs.append(time_reference())
    return Pass(times, refs, tracer)


def p90(sorted_values):
    """Nearest-rank 90th percentile: over 100 values, ten lie above it."""
    return sorted_values[-(-9 * len(sorted_values) // 10) - 1]


def run_passes(workload, inputs, seconds, traced, tally, origin):
    """Passes until the next one would overrun the budget.  In a traced run
    passes alternate untraced, traced, untraced, ...; at least one of each."""
    deadline = time.perf_counter() + seconds
    plain, tracers = [], []
    while True:
        use_trace = traced and len(plain) > len(tracers)
        tracer = Tracer(origin) if use_trace else NullTracer()
        start = time.perf_counter()
        done = timed_pass(workload, inputs, tracer, tally, "p%d" % (len(plain) + len(tracers)))
        (tracers if use_trace else plain).append(done)
        now = time.perf_counter()
        if traced and not tracers:
            continue
        if now + (now - start) > deadline:
            return plain, tracers


def per_op_times(passes):
    """Each op's median reference-scaled time over the given passes.  A
    median, unlike a minimum, does not drift with the number of passes that
    fit in the time, so a faster program is not also measured more often."""
    return sorted(statistics.median(ts) for ts in zip(*(p.scaled() for p in passes)))


def end_to_end(plain, setup_scaled):
    per_op = per_op_times(plain)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_p90_s": (p90(per_op), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(plain, tracers, check_names):
    spans = SPAN_METRICS + tuple("checks." + name for name in check_names)
    per_pass = []
    for done in tracers:
        tracer = done.tracer
        seconds = tracer.seconds_by_name()
        counts = tracer.counts
        row = {}
        for name in spans:
            row[name + ".s"] = (seconds.get(name, 0.0), "s")
        for name in COUNT_METRICS:
            row[name] = (counts.get(name, 0), "count")
        for name, (span, base, unit) in RATIOS.items():
            b = counts.get(base, 0)
            row[name] = (1e6 * seconds.get(span, 0.0) / b if b else 0.0, unit)
        recovered = counts.get("recovery.recovered", 0)
        row["recovery.agree_ratio"] = (
            counts.get("recovery.agreed", 0) / recovered if recovered else 0.0, "ratio"
        )
        per_pass.append(row)
    untraced = statistics.median(sum(p.scaled()) for p in plain)
    traced = statistics.median(sum(p.scaled()) for p in tracers)
    out = {
        name: (statistics.median(r[name][0] for r in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    out["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return out


def write_spans(workload_name, seed, tracers):
    out_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d.jsonl" % (workload_name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        for done in tracers:
            for record in done.tracer.records():
                fh.write(json.dumps(record) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]
    origin = time.perf_counter()

    inputs, setup_times, setup_scaled, repeatable = set_up(workload, args.seed)
    # the inputs of every op stay alive for the whole run, which a process
    # serving one input never has; keep full collections from rescanning them
    gc.collect()
    gc.freeze()
    tally = gates.Tally()
    plain, tracers = run_passes(
        workload, inputs, args.seconds, bool(args.trace), tally, origin
    )

    shape = workload.describe(inputs)
    print("workload %s seed %d: %s" % (args.workload, args.seed, json.dumps(shape)))
    print("passes: %d untraced, %d traced, %d ops each; op_p50_s and op_p90_s"
          " rest on %d samples, each op's median untraced pass"
          % (len(plain), len(tracers), len(inputs), len(inputs)))
    print("set-ups: %d, wall min %.4f s, median %.4f s, max %.4f s" % (
        len(setup_times), min(setup_times), statistics.median(setup_times),
        max(setup_times)))
    refs = [1e3 * r for p in plain + tracers for r in p.refs]
    q1, q2, q3 = statistics.quantiles(refs, n=4)
    print("reference loop: %d timings, median %.4f ms, quartiles %.4f and %.4f"
          " ms; times are scaled to %.4f ms" % (len(refs), q2, q1, q3, 1e3 * REF_SECONDS))
    wall = sorted(statistics.median(ts) for ts in zip(*(p.times for p in plain)))
    print("unscaled wall: ops_per_s %.4f, op_p50_s %.6f, op_p90_s %.6f" % (
        len(wall) / sum(wall), statistics.median(wall), p90(wall)))
    print("failed_ops_share %.6f ratio (%d of %d ops; %d must be refused)"
          % (len(tally.failed) / len(inputs), len(tally.failed), len(inputs),
             shape["must_refuse"]))
    if not repeatable:
        print("set-ups from one seed gave different inputs")
    if args.trace:
        metrics = per_layer(plain, tracers, workloads.CHECK_NAMES)
        path = write_spans(args.workload, args.seed, tracers)
        print("spans: %s" % os.path.relpath(path, ROOT))
    else:
        metrics = end_to_end(plain, setup_scaled)
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": tally.correct and repeatable,
        "attempted": len(inputs),
        "failed": len(tally.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
