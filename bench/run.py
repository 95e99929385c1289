#!/usr/bin/env python3
"""torusquot benchmark: one workload per process, one thread.

    python3 bench/run.py --workload paper|catalog --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports torusquot from
./src and writes scratch files under ./.bench_work.  --seed makes the
inputs, --seconds sets how long a run goes on making rounds over them,
and --trace 1 swaps the end-to-end metrics for per-layer ones from a
traced run.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import inputs
from pace import REFERENCE_PROBE_S, Pace, pin_to_one_cpu
from spans import Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

MIN_ROUNDS = 3
SETUP_PER_ROUND = 4

END_TO_END = {
    "setup_s": "s", "verdict_s_p50": "s", "verdict_s_p90": "s", "pass_s": "s",
    "items_per_s": "1/s", "cli_s": "s", "peak_rss_mb": "MB",
}
LAYER_SPANS = (
    "groupfile.parse", "groups.close", "groups.inverse", "groups.classes",
    "groups.power_maps", "chartab.table", "chartab.orthonormality", "torusq.rep",
    "torusq.hcounts", "torusq.classify", "torusq.eigenvalue", "torusq.primitive",
    "torusq.invariant_form", "torusq.checks", "torusq.fibration", "cli.search",
)
LAYER_COUNTS = ("groups.elements", "groups.classes", "chartab.inner_products")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import torusquot from this checkout's src, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "torusquot", "__init__.py")):
        fail(f"no torusquot sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC  # for the subprocesses the benchmark times
    import torusquot
    if os.path.dirname(os.path.dirname(os.path.abspath(torusquot.__file__))) != SRC:
        fail(f"imported torusquot from {torusquot.__file__}, not from {SRC}")


import_program()
import pipeline  # noqa: E402  (these two import torusquot)
from workloads import Bench, run_command  # noqa: E402


def setup_samples(count, pace):
    """Samples of fresh interpreters that import torusquot."""
    samples = []
    for _ in range(count):
        sample, proc = pace.sample(run_command, [sys.executable, "-c", "import torusquot"])
        if proc.returncode != 0:
            fail(f"import torusquot failed: {proc.stderr.strip()}")
        samples.append(sample)
    return samples


def high_percentile(values):
    """p90 by nearest rank, or the highest nearest-rank percentile that
    still has ten values beyond it; the maximum when there are ten or
    fewer values.  Returns (value, percentile)."""
    s = sorted(values)
    k = len(s) - 1 if len(s) <= 10 else min(math.ceil(0.9 * len(s)) - 1, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s)


def rounds_within(seconds, minimum):
    """Round numbers, as long as a round as long as the last one still
    ends within seconds of the first, and at least minimum of them."""
    start = time.perf_counter()
    r, last = 0, 0.0
    while r < minimum or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        yield r
        last = time.perf_counter() - t0
        r += 1


def run_input(bench, item, pace, verdict=None):
    """Run one input, untraced or with the given verdict; returns (its pace
    sample, compact outcome, mismatches with the reference)."""
    verdict = verdict or bench.verdict

    def attempt():
        try:
            return verdict(item), None
        except Exception as exc:  # a raising input is a failed input, not a crash
            return None, exc

    sample, (out, exc) = pace.sample(attempt)
    if exc is not None:
        return sample, None, [("raised", None, repr(exc))]
    return sample, pipeline.compact(out), bench.check(item, out)


class Tally:
    """Attempted and failed inputs, and whether any failure was unexpected."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected = []

    def add(self, item_id, bad):
        self.attempted += 1
        if bad:
            self.failed += 1
            new = [b for b in bad if (item_id, b[0]) not in inputs.KNOWN_MISMATCHES]
            if new:
                self.unexpected.append((item_id, new))


def timed_run(workload, items, seconds, bench):
    """Rounds of: fresh-interpreter imports, the workload's CLI calls, and
    one pass over the inputs, so that every metric's samples are spread
    over the whole run."""
    tally = Tally()
    setup, cli, problems = [], [], set()
    per_input = {item.id: [] for item in items}
    with Pace() as pace:
        setup_samples(1, pace)  # compiles the bytecode once; users do not pay that per call
        for r in rounds_within(seconds, MIN_ROUNDS):
            setup += setup_samples(SETUP_PER_ROUND, pace)
            samples, bad_cli = bench.cli_round(pace)
            cli += samples
            problems.update(bad_cli)
            for item in items:
                gc.collect()  # each input starts from a collected heap
                sample, _, bad = run_input(bench, item, pace)
                per_input[item.id].append(sample)
                tally.add(item.id, bad)
    # every time is taken at the reference pace (see pace.py), and an
    # input's time is its median over the rounds
    typical = sorted(statistics.median(map(pace.seconds, s)) for s in per_input.values())
    p90, pct = high_percentile(typical)
    wall = sum(statistics.median(end - start for start, end, _ in s) for s in per_input.values())
    print(f"# {workload}: {r + 1} rounds x {len(items)} inputs; verdict percentiles over "
          f"n={len(typical)} per-input median times, verdict_s_p90 is the nearest-rank "
          f"p{pct:.1f}; setup_s median of {len(setup)} imports; cli_s median of {len(cli)} "
          f"calls; {len(pace.lengths)} probes, pace factor median "
          f"{statistics.median(REFERENCE_PROBE_S / x for x in pace.lengths):.3f}; "
          f"wall pass (medians) {wall:.4g} s")
    metrics = {
        "setup_s": statistics.median(map(pace.seconds, setup)),
        "verdict_s_p50": statistics.median(typical),
        "verdict_s_p90": p90,
        "pass_s": sum(typical),
        "items_per_s": len(typical) / sum(typical),
        "cli_s": statistics.median(map(pace.seconds, cli)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally, sorted(problems), {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(workload, items, seconds, bench, seed):
    """Alternate untraced and traced passes; the traced pass makes the same
    calls with each layer's calls in that layer's spans, and must
    reproduce the untraced outcomes."""
    tally = Tally()
    tracer = Tracer()
    per_pass, overheads, diverged = [], [], []
    with Pace() as pace:
        for p in rounds_within(seconds, 1):
            base, untraced = {}, []
            for item in items:
                gc.collect()
                sample, base[item.id], _ = run_input(bench, item, pace)
                untraced.append(sample)
            first = len(tracer.spans)
            counts = Counter()

            def staged(item):
                with tracer.span("bench.input"):
                    return bench.staged(item, tracer, counts)

            traced = []
            for item in items:
                tracer.input_id = f"{item.id}#{p}"
                gc.collect()
                sample, out, bad = run_input(bench, item, pace, staged)
                traced.append(sample)
                tally.add(item.id, bad)
                if out is None or base[item.id] is None or not pipeline.same_outcome(base[item.id], out):
                    diverged.append(item.id)
            # span times are scaled by the traced pass's median pace; they
            # include the probes that interrupted them (about 1%)
            factor = pace.factor(traced[0][0], traced[-1][1])
            overheads.append(sum(map(pace.seconds, traced)) - sum(map(pace.seconds, untraced))
                             - factor * tracer.total("chartab.orthonormality", first))
            self_times = tracer.self_times(first)
            values = {f"{name}_s": factor * self_times.get(name, 0.0) for name in LAYER_SPANS}
            values.update({name: counts[name] for name in LAYER_COUNTS})
            values["groups.closure_useful_ratio"] = counts["useful_elements"] / counts["groups.elements"]
            values["chartab.table_reached_ratio"] = counts["tables"] / len(items)
            per_pass.append(values)
    tracer.write(os.path.join(WORK, "trace", f"{workload}-seed{seed}.jsonl"))
    print(f"# {workload}: {len(per_pass)} traced passes, {len(tracer.spans)} spans; "
          f"staged results {'differ on ' + ', '.join(diverged) if diverged else 'equal the untraced ones'}")
    metrics = {name: (statistics.median(v[name] for v in per_pass), layer_unit(name))
               for name in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    problems = [f"staged outcome differs from the untraced one on {i}" for i in diverged]
    return tally, problems, metrics


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description="torusquot benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in inputs.WORKLOADS:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(inputs.WORKLOADS)})")
    items = inputs.WORKLOADS[args.workload](args.seed)
    pin_to_one_cpu()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    bench = Bench(args.workload, items, workdir)
    try:
        if args.trace:
            tally, problems, metrics = traced_run(args.workload, items, args.seconds, bench, args.seed)
        else:
            tally, problems, metrics = timed_run(args.workload, items, args.seconds, bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for item_id, bad in tally.unexpected:
        problems.append(f"{item_id}: " + "; ".join(f"{n}: expected {e!r}, got {a!r}"
                                                   for n, e, a in bad))
    for line in problems:
        print(f"# MISMATCH {line}")
    print(f"# {args.workload}: failed_share {tally.failed}/{tally.attempted} "
          f"= {tally.failed / tally.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
