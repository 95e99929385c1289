#!/usr/bin/env python3
"""Repeatability check: run the benchmark twice over the same seeds and
compare the two sets against the bounds in BENCHMARK.json.

    python3 bench/repeat.py [--runs 10]

Run it from the root of a checkout.  Each set runs every workload once
per seed 1..runs, and every run's metrics go to standard error as it
ends.  For every workload and end-to-end metric it prints
each set's median and quartile spread (q3 - q1 over the median, from
statistics.quantiles(n=4)).  A metric fails when a set's spread exceeds
its bound or when the two medians differ by more than the bound, in
either direction; it is marked unsteady when a spread exceeds a third of
the bound.  Exits 1 on any failure or incorrect run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

SETS = 2


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)

    results = {}  # (set, workload) -> list of result objects
    for s in range(SETS):
        for w in workloads:
            results[s, w] = []
            for seed in seeds:
                r = run_once(spec, w, seed)
                results[s, w].append(r)
                print(f"set {s + 1} {w} seed {seed}: wall {r['wall_s']:.1f} s "
                      + " ".join(f"{k} {v['value']:.4g}" for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        for s in range(SETS):
            bad = [r for r in results[s, w] if not r["correct"]]
            if bad:
                ok = False
                print(f"  set {s + 1}: {len(bad)} incorrect runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in results[s, w]] for s in range(SETS)]
            first, second = (statistics.median(v) for v in values)
            spreads = [spread(v) for v in values]
            moved = (second - first) / first
            fails = abs(moved) > bound or max(spreads) > bound
            ok &= not fails
            flag = "FAIL" if fails else ("unsteady" if max(spreads) > bound / 3 else "ok")
            print(f"  {name:16s} bound {bound:.2f}  medians {first:.5g} {second:.5g}  spreads "
                  + " ".join(f"{x:.3f}" for x in spreads) + f"  moved {moved:+.3f}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
