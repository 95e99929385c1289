"""Per-workload wiring: which pipeline runs an input, how its outcome is
checked, and which `torusquot` command line the workload times."""

from __future__ import annotations

import os
import subprocess
import sys
from functools import partial

import inputs
import pipeline

CLI = [sys.executable, "-m", "torusquot.cli"]
CLI_CALLS = 2  # torusquot subprocesses per round
# the catalog's CLI call searches every fifth catalog entry
CLI_CATALOG_STEP = 5


def run_command(cmd):
    """Run one subprocess to its end (the environment already points
    PYTHONPATH at the checkout's sources)."""
    return subprocess.run(cmd, capture_output=True, text=True)


def _show(value):
    """The CLI's rendering of an expected value."""
    return {True: "yes", False: "no"}[value] if isinstance(value, bool) else repr(value)


def check_example_problems(name, proc):
    """check-example prints one PASS/FAIL line per expectation; compare the
    printed values with the benchmark's copy of the expectations."""
    expect = inputs.PAPER[name]["expect"]
    seen, problems, any_fail = set(), [], False
    for line in proc.stdout.splitlines():
        status, _, rest = line.partition("  ")
        if status not in ("PASS", "FAIL"):
            continue
        check, _, shown = rest.partition(": ")
        seen.add(check)
        if status == "FAIL":
            any_fail = True
            if (f"paper/{name}", check) not in inputs.KNOWN_MISMATCHES:
                problems.append(f"check-example {name}: {line}")
        elif check in expect and shown != _show(expect[check]):
            problems.append(f"check-example {name}: {check} printed {shown}")
    if seen != set(expect):
        problems.append(f"check-example {name}: checks {sorted(seen)}")
    if proc.returncode != (1 if any_fail else 0):
        problems.append(f"check-example {name}: exit {proc.returncode}")
    return problems


def catalog_search_problems(items, proc):
    """Split the whole-catalog search output per file and check each block
    as the in-process runs are checked."""
    blocks, current = {}, None
    for line in proc.stdout.splitlines():
        if not line.startswith("  "):
            current = line.split(".group:")[0]
            blocks[current] = []
        blocks[current].append(line)
    problems = [] if proc.returncode == 0 else [f"search exit {proc.returncode}"]
    for item in items:
        if item.expect["group order"] is None:
            if item.id in blocks or f"{item.id}.group: order exceeds" not in proc.stderr:
                problems.append(f"search: {item.id} not skipped")
            continue
        out = {"rc": 0, "stdout": "\n".join(blocks.get(item.id, [])), "stderr": ""}
        problems += [f"search: {item.id}: {b}" for b in pipeline.search_mismatches(item, out)]
    return problems


class Bench:
    """One workload's in-process calls, untraced and staged, the check of
    their outcome, and the torusquot command line one round times, with
    the check of its output."""

    def __init__(self, workload, items, workdir):
        os.makedirs(workdir, exist_ok=True)
        if workload == "catalog":
            for item in items:
                pipeline.write_catalog([item], pipeline.catalog_dir(workdir, item))
            self.verdict = partial(pipeline.search_verdict, workdir=workdir)
            self.staged = partial(pipeline.search_staged, workdir=workdir)
            self.check = pipeline.search_mismatches
            some = items[::CLI_CATALOG_STEP]
            catalog = pipeline.write_catalog(some, os.path.join(workdir, "catalog"))
            command = (["search", "--catalog", catalog,
                        "--max-order", str(inputs.CATALOG_MAX_ORDER)],
                       partial(catalog_search_problems, some))
        else:
            self.verdict = pipeline.analysis_verdict
            self.staged = pipeline.analysis_staged
            self.check = pipeline.analysis_mismatches
            command = (["check-example", "g216"], partial(check_example_problems, "g216"))
        self.cli_commands = [command] * CLI_CALLS

    def cli_round(self, pace):
        """Pace samples of this round's torusquot subprocesses, and any
        disagreement of their output with the references."""
        samples, problems = [], []
        for args, check in self.cli_commands:
            sample, proc = pace.sample(run_command, CLI + args)
            samples.append(sample)
            problems += check(proc)
        return samples, problems
