#!/usr/bin/env python3
"""Replay every built-in example and print its full analysis report.

Usage: python3 scripts/run_fixture_reports.py [name ...]

With no arguments all three examples run.  For each one the expected
values are compared check by check, then the complete report of the
analyzed representation is printed.
"""

import argparse
import sys
import time

from torusquot.fixtures import FIXTURES, run_fixture


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", default=None,
                        help="subset of: " + ", ".join(sorted(FIXTURES)))
    args = parser.parse_args(argv)
    names = args.names or sorted(FIXTURES)

    bad = [n for n in names if n not in FIXTURES]
    if bad:
        print(f"unknown example(s): {', '.join(bad)}", file=sys.stderr)
        return 2

    any_failed = False
    for name in names:
        start = time.perf_counter()
        result = run_fixture(FIXTURES[name])
        elapsed = time.perf_counter() - start
        print(f"== {name} ({elapsed:.2f}s) ==")
        for check, expected, actual in result.checks:
            mark = "ok" if expected == actual else "MISMATCH"
            print(f"  {check:34s} expected {expected!r:10} actual {actual!r:10} {mark}")
        print()
        print(result.report.to_text())
        print()
        any_failed = any_failed or bool(result.mismatches)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
