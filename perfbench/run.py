"""Benchmark of modalfib, end to end and per layer.

    python3 perfbench/run.py --workload graph-maps --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there and nowhere else.  Workloads are ``graph-maps``,
``table-suites`` and ``covers-automata`` (see bench_workloads.py for
what each op is and why the workload exists).

The load is a closed loop: one client in this process issues the next
operation only after the previous one returns; no thread or pool is
started.  Every operation's output is checked against an answer known by
construction.  Set-up (import, input generation from the seed, warm-up)
is repeated SETUP_REPEATS times and its median reported.

A round is a fixed list of op slots (see bench_workloads.Stream); each
slot's latency is its median over the rounds.  ops_per_s is slots per
second of summed slot latencies, op_p50_ms and op_p90_ms are percentiles
over the slots.  Times are scaled to a reference machine speed by
bench_speed, which times a fixed loop between the ops; the unscaled
figures are printed above the result.

--trace 0 runs whole rounds of the op stream until --seconds have passed
and reports the end-to-end metrics.  --trace 1 runs a fixed number of
rounds twice each, alternating a plain pass and a pass with the tracer
installed, and reports the per-layer metrics, including the tracing
overhead between the two passes (unscaled, since the passes alternate).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it summarise the
run for a reader: sample counts, failure fraction, peak RSS, the sha256
digest of the first round's canonical outputs, and the environment.
Peak RSS is printed but not a bounded metric: on table-suites it is set
by the rare closure sample that builds a groupoid of 1000+ morphisms
(about one sample in 1500), so it ranged from 34 to 47 MB over ten seeds.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True          # leave the checkout as it was

import bench_speed                                          # noqa: E402
import bench_trace                                          # noqa: E402
from bench_workloads import WORKLOADS, Stream              # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("automata", "classify", "cli", "corpus", "covers", "dot",
           "fingroupoids", "graphs", "groupoids", "hfiber", "quotients",
           "textio", "verdicts", "words")
SETUP_REPEATS = 5
MIN_ROUNDS = 3
SPEED_EVERY = 8                 # ops between two timings of the speed loop
SPEED_SAMPLES = 15              # speed loop timings before each set-up

# Rounds per requested second in a traced run, so that the plain pass
# and the traced pass together take about --seconds on the reference
# machine.  Fixed counts make the per-layer call counts repeat exactly.
TRACE_ROUNDS_PER_S = {"graph-maps": 0.15, "table-suites": 0.1,
                      "covers-automata": 0.2}

# Functions each workload is declared busy in: a traced run fails if one
# of them records no call.
BUSY = {
    "graph-maps": (
        "textio.parse_document", "cli.run", "cli.Report.machine",
        "quotients.graph_action", "quotients.quotient_is_fibration",
        "quotients.fiber_sequence_check", "graphs.FinGraph.init",
        "graphs.GraphMap.init", "graphs.FinGraph.darts", "graphs.fiber",
        "graphs.pi0", "graphs.component_map", "groupoids.shape1",
        "groupoids.induce_functor", "groupoids.image_subgroup",
        "hfiber.GammaAnalyzer", "hfiber.prism", "hfiber.gamma_is_equivalence",
        "classify.classify", "classify.factor0", "classify.criteria",
        "words.mul", "words.reduce_word"),
    "table-suites": (
        "cli.run", "fingroupoids.FinGroupoid.init",
        "fingroupoids.FinFunctor.init", "fingroupoids.homotopy_pullback",
        "fingroupoids.product_groupoid", "fingroupoids.random_functor",
        "fingroupoids.classify_trunc", "fingroupoids.nine_way",
        "fingroupoids.compare_modalities"),
    "covers-automata": (
        "textio.parse_document", "automata.from_words",
        "automata.from_schreier", "automata.contains", "covers.total_space",
        "covers.shape_of_total", "covers.monodromy",
        "covers.universal_cover_ball"),
}

# The layers allowed to hold the largest self-time share.
DOMINANT = {
    "graph-maps": ("graphs", "groupoids", "hfiber", "classify", "words"),
    "table-suites": ("fingroupoids",),
    "covers-automata": ("automata",),
}

# (metric, span, kind) for the per-layer metrics read off the tracer.
# kind: s = busy time, self_s = self time, calls = call count,
# work = summed x of the calls.
LAYER_METRICS = (
    ("textio.parse_document.s", "textio.parse_document", "s"),
    ("textio.parse_document.calls", "textio.parse_document", "calls"),
    ("textio.bytes_parsed", "textio.parse_document", "work"),
    ("cli.run.self_s", "cli.run", "self_s"),
    ("cli.Report.machine.s", "cli.Report.machine", "s"),
    ("quotients.graph_action.s", "quotients.graph_action", "s"),
    ("quotients.quotient_is_fibration.s", "quotients.quotient_is_fibration", "s"),
    ("quotients.fiber_sequence_check.s", "quotients.fiber_sequence_check", "s"),
    ("graphs.FinGraph.init.s", "graphs.FinGraph.init", "s"),
    ("graphs.GraphMap.init.s", "graphs.GraphMap.init", "s"),
    ("graphs.GraphMap.init.calls", "graphs.GraphMap.init", "calls"),
    ("graphs.FinGraph.darts.s", "graphs.FinGraph.darts", "s"),
    ("graphs.FinGraph.darts.calls", "graphs.FinGraph.darts", "calls"),
    ("graphs.fiber.s", "graphs.fiber", "s"),
    ("graphs.fiber.calls", "graphs.fiber", "calls"),
    ("graphs.pi0.s", "graphs.pi0", "s"),
    ("graphs.component_map.s", "graphs.component_map", "s"),
    ("groupoids.shape1.s", "groupoids.shape1", "s"),
    ("groupoids.shape1.calls", "groupoids.shape1", "calls"),
    ("groupoids.induce_functor.s", "groupoids.induce_functor", "s"),
    ("groupoids.induce_functor.calls", "groupoids.induce_functor", "calls"),
    ("groupoids.image_subgroup.s", "groupoids.image_subgroup", "s"),
    ("hfiber.GammaAnalyzer.s", "hfiber.GammaAnalyzer", "s"),
    ("hfiber.prism.s", "hfiber.prism", "s"),
    ("hfiber.gamma_is_equivalence.s", "hfiber.gamma_is_equivalence", "s"),
    ("classify.classify.self_s", "classify.classify", "self_s"),
    ("classify.factor0.self_s", "classify.factor0", "self_s"),
    ("classify.criteria.s", "classify.criteria", "s"),
    ("words.mul.s", "words.mul", "s"),
    ("words.mul.calls", "words.mul", "calls"),
    ("words.reduce_word.calls", "words.reduce_word", "calls"),
    ("automata.from_words.s", "automata.from_words", "s"),
    ("automata.from_words.calls", "automata.from_words", "calls"),
    ("automata.letters_in", "automata.from_words", "work"),
    ("automata.from_schreier.s", "automata.from_schreier", "s"),
    ("automata.contains.s", "automata.contains", "s"),
    ("automata.contains.calls", "automata.contains", "calls"),
    ("covers.total_space.s", "covers.total_space", "s"),
    ("covers.shape_of_total.self_s", "covers.shape_of_total", "self_s"),
    ("covers.monodromy.s", "covers.monodromy", "s"),
    ("covers.universal_cover_ball.s", "covers.universal_cover_ball", "s"),
    ("fingroupoids.FinGroupoid.init.s", "fingroupoids.FinGroupoid.init", "s"),
    ("fingroupoids.FinGroupoid.init.calls", "fingroupoids.FinGroupoid.init",
     "calls"),
    ("fingroupoids.comp_entries", "fingroupoids.FinGroupoid.init", "work"),
    ("fingroupoids.FinFunctor.init.s", "fingroupoids.FinFunctor.init", "s"),
    ("fingroupoids.FinFunctor.init.calls", "fingroupoids.FinFunctor.init",
     "calls"),
    ("fingroupoids.homotopy_pullback.self_s", "fingroupoids.homotopy_pullback",
     "self_s"),
    ("fingroupoids.product_groupoid.self_s", "fingroupoids.product_groupoid",
     "self_s"),
    ("fingroupoids.random_functor.self_s", "fingroupoids.random_functor",
     "self_s"),
    ("fingroupoids.classify_trunc.s", "fingroupoids.classify_trunc", "s"),
    ("fingroupoids.nine_way.self_s", "fingroupoids.nine_way", "self_s"),
    ("fingroupoids.compare_modalities.self_s",
     "fingroupoids.compare_modalities", "self_s"),
)

# (metric, span, op series or None for all): log-log slope of span time
# against the span's size over the workload's size classes.
SLOPES = (
    ("classify.classify.slope", "classify.classify", "cover"),
    ("groupoids.induce_functor.slope", "groupoids.induce_functor", "cover"),
    ("automata.from_words.slope", "automata.from_words", "fold"),
    ("covers.shape_of_total.slope", "covers.shape_of_total", "verify-shape"),
    ("fingroupoids.FinGroupoid.init.slope", "fingroupoids.FinGroupoid.init",
     None),
)

UNITS = {"s": "s", "self_s": "s", "calls": "count", "work": "count"}


class ProgramMissing(Exception):
    pass


def load_program():
    """Import modalfib afresh from the checkout's src/, never from an
    installed copy."""
    if not (SRC / "modalfib" / "__init__.py").is_file():
        raise ProgramMissing("no modalfib package under %s" % SRC)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "modalfib" or n.startswith("modalfib.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module("modalfib." + m)
                              for m in MODULES})
    if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing("modalfib resolved outside %s" % SRC)
    return mods


def set_up(workload, seed):
    """Import, generate the inputs and warm up, SETUP_REPEATS times.
    Returns the last program and stream with the median set-up time,
    scaled to the reference speed and unscaled."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        scale = bench_speed.factor(
            [bench_speed.sample() for _ in range(SPEED_SAMPLES)])
        t0 = time.perf_counter()
        mods = load_program()
        stream = Stream(mods, workload, seed)
        for op in stream.warmup_ops():
            op.run(mods)
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] * scale)
    return mods, stream, statistics.median(times), statistics.median(raw)


class Pass:
    """Latencies (one row per round), failures and the first round's
    output digest of one pass over the stream."""

    def __init__(self):
        self.rows = []
        self.speed = []          # timings of the speed loop between ops
        self.ops = []            # the op of each slot, from the first round
        self.failures = []
        self.digest = hashlib.sha256()

    @property
    def attempted(self):
        return sum(len(row) for row in self.rows)

    @property
    def scale(self):
        """The factor that takes this pass's times to the reference speed."""
        return bench_speed.factor(self.speed)

    def slot_medians(self, raw=False):
        """Each slot's latency as the median over the rounds, so that a
        slowdown of the shared machine during a minority of the rounds
        does not move it; scaled to the reference speed unless raw."""
        scale = 1.0 if raw else self.scale
        return [statistics.median(col) * scale for col in zip(*self.rows)]


def run_round(mods, stream, out, tracer=None):
    """Run the next round of the stream, appending to `out`."""
    clock = time.perf_counter
    r = len(out.rows)
    row = []
    for j, op in enumerate(stream.round(r)):
        if j % SPEED_EVERY == 0:
            out.speed.append(bench_speed.sample())
        if tracer is not None:
            tracer.series = op.series
            tracer.enabled = True
        error = None
        t0 = clock()
        try:
            result = op.run(mods)
        except Exception:
            result = None
            error = "raised:\n" + traceback.format_exc()
        t1 = clock()
        if tracer is not None:
            tracer.enabled = False
        row.append(t1 - t0)
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = "oracle raised:\n" + traceback.format_exc()
        if r == 0:
            out.ops.append(op)
            rendered = "FAILED" if result is None else op.render(result)
            out.digest.update(rendered.encode() + b"\n")
        if error is not None:
            out.failures.append((r, op, error))
    out.rows.append(row)


def run_pass(mods, stream, seconds):
    """Run whole rounds until `seconds` have passed and at least
    MIN_ROUNDS rounds are done."""
    out = Pass()
    start = time.perf_counter()
    while len(out.rows) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        run_round(mods, stream, out)
    return out


def report_failures(workload, seed, failures, limit=3):
    for i, (r, op, error) in enumerate(failures):
        print("FAILED %s seed %d round %d: %s: %s"
              % (workload, seed, r, op.label, error), file=sys.stderr)
        if i < limit:
            print("input:\n%s" % op.input_text, file=sys.stderr)
    if len(failures) > limit:
        print("(inputs of the first %d failures shown)" % limit,
              file=sys.stderr)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def latency_metrics(slots):
    """Throughput, median and 90th percentile of per-slot latencies."""
    deciles = statistics.quantiles(slots, n=10)
    return len(slots) / sum(slots), deciles[4] * 1e3, deciles[8] * 1e3


def end_to_end(mods, stream, seconds, setup):
    p = run_pass(mods, stream, seconds)
    slots = p.slot_medians()
    ops_per_s, p50, p90 = latency_metrics(slots)
    attempted = p.attempted
    failed = len(p.failures)
    metrics = {
        "setup_s": metric(setup[0], "s"),
        "ops_per_s": metric(ops_per_s, "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "ok_frac": metric((attempted - failed) / attempted, "frac"),
    }
    by_command = {}
    for op, t in zip(p.ops, slots):
        by_command.setdefault(op.command, []).append(t)
    notes = ["%d ops per round, %d rounds, %.3f s timed; latencies are per-slot"
             " medians over the rounds; p90 has %d of %d samples beyond it"
             % (len(slots), len(p.rows), sum(map(sum, p.rows)),
                len(slots) - math.ceil(0.9 * len(slots)), len(slots)),
             "unscaled: setup_s %.4f, ops_per_s %.3f, op_p50_ms %.4f,"
             " op_p90_ms %.4f; speed scale %.4f from %d timings"
             % ((setup[1],) + latency_metrics(p.slot_medians(raw=True))
                + (p.scale, len(p.speed))),
             "failed_frac %.6f (%d of %d)" % (failed / attempted, failed,
                                               attempted),
             "peak_rss_mb %.3f MB" % peak_rss_mb()]
    notes += ["%-26s %5d slots, median %9.3f ms"
              % (cmd, len(ts), statistics.median(ts) * 1e3)
              for cmd, ts in sorted(by_command.items(),
                                    key=lambda kv: statistics.median(kv[1]))]
    return p, metrics, notes


def per_layer(mods, stream, workload, seconds):
    rounds = max(MIN_ROUNDS, round(seconds * TRACE_ROUNDS_PER_S[workload]))
    plain, traced = Pass(), Pass()
    tracer = bench_trace.Tracer(mods)
    # Plain and traced rounds alternate, so that a change in the shared
    # machine's speed affects both sides of the overhead alike.
    for _ in range(rounds):
        run_round(mods, stream, plain)
        tracer.install()
        try:
            run_round(mods, stream, traced, tracer)
        finally:
            tracer.uninstall()

    metrics = {}
    scale = traced.scale
    for name, span, kind in LAYER_METRICS:
        value = {"s": tracer.busy, "self_s": tracer.self_time,
                 "calls": tracer.calls, "work": tracer.work}[kind][span]
        if UNITS[kind] == "s":
            value *= scale
        metrics[name] = metric(value, UNITS[kind])
    states = tracer.work["automata.states_out"]
    letters = tracer.work["automata.from_words"]
    metrics["automata.states_out"] = metric(states, "count")
    metrics["automata.fold_ratio"] = metric(
        states / letters if letters else 0.0, "ratio")
    for name, span, series in SLOPES:
        metrics[name] = metric(tracer.slope(span, series), "log/log")
    metrics["trace.overhead_frac"] = metric(
        sum(traced.slot_medians(raw=True))
        / sum(plain.slot_medians(raw=True)) - 1.0, "frac")
    layer_self = tracer.layer_self()
    total = sum(layer_self.values())
    shares = {layer: t / total if total else 0.0
              for layer, t in layer_self.items()}
    for layer, share in shares.items():
        metrics["layer.%s.self_share" % layer] = metric(share, "frac")

    problems = ["%s recorded no call" % name for name in BUSY[workload]
                if tracer.calls[name] == 0]
    top = max(shares, key=shares.get)
    if top not in DOMINANT[workload]:
        problems.append("largest self-time share is %s, expected one of %s"
                        % (top, ", ".join(DOMINANT[workload])))
    notes = ["%d rounds plain and traced, %d ops each, %d spans kept"
             % (rounds, len(plain.ops), len(tracer.spans)),
             "self-time share: " + ", ".join(
                 "%s %.3f" % kv for kv in sorted(shares.items(),
                                                 key=lambda kv: -kv[1]))]
    return [plain, traced], metrics, problems, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        mods, stream, setup_s, raw_setup_s = set_up(args.workload, args.seed)
    except ProgramMissing as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    problems = []
    if args.trace:
        passes, metrics, problems, notes = per_layer(
            mods, stream, args.workload, args.seconds)
    else:
        p, metrics, notes = end_to_end(mods, stream, args.seconds,
                                       (setup_s, raw_setup_s))
        passes = [p]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    report_failures(args.workload, args.seed, failures)
    for problem in problems:
        print("TRACE CHECK FAILED: %s" % problem, file=sys.stderr)

    print("workload %s seed %d trace %d: setup %.4f s (median of %d)"
          % (args.workload, args.seed, args.trace, setup_s, SETUP_REPEATS))
    for note in notes:
        print("  " + note)
    print("  first-round output sha256 %s" % passes[0].digest.hexdigest())
    print("  python %s, nproc %d, --seconds %g"
          % (platform.python_version(), os.cpu_count(), args.seconds))
    for name, m in metrics.items():
        print("  %-42s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
