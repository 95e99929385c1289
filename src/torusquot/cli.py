"""Command-line front end.

Four subcommands:

    analyze        full pipeline on a group file, text or JSON report
    chartable      print the character table of a group file
    check-example  replay a built-in example and compare expectations
    search         scan a directory of group files for candidates

Exit codes: 0 success, 1 a check-example or search check mismatched,
2 bad input (syntax, degrees, unknown names, empty catalog) or another
error of the package, 3 closure exceeded the element limit.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .chartab import character_table, natural_character
from .errors import GroupFileError, GroupTooLargeError, TorusQuotError
from .groups import DEFAULT_CLOSURE_LIMIT, close
from .groupfile import (
    parse_form_file,
    parse_group,
    parse_lattice_token,
    parse_wedge_pairs,
)
from .fixtures import FIXTURES, run_fixture
from .torusq import (
    SymplecticForm,
    analyze,
    conjugate_pair_rep,
    is_primitive,
    natural_rep,
)

FS_NAMES = {1: "real", 0: "complex", -1: "quaternionic"}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_group(args):
    gf = parse_group(args.group)
    group = close(gf.elements(), limit=args.limit)
    return gf, group


def _resolve_form(args, gf, rep):
    """Flag beats file block; a flag whose first word is `wedge` is an inline
    form, any other a path."""
    if args.form is None:
        form = gf.form
        if form is not None and form.degree != rep.degree:
            raise GroupFileError(
                f"form degree {form.degree} does not match the analyzed degree "
                f"{rep.degree}; pass --form for the doubled representation")
        return form
    parts = args.form.split()
    if parts[:1] == ["wedge"]:
        pairs = parse_wedge_pairs(" ".join(parts[1:]), rep.degree, None)
        return SymplecticForm.wedge_pairs(rep.degree, pairs)
    return parse_form_file(args.form.strip(), gf.conductor, rep.degree)


def cmd_analyze(args) -> int:
    gf, group = _load_group(args)
    rep = natural_rep(group)
    if args.pair:
        rep = conjugate_pair_rep(rep)
    form = _resolve_form(args, gf, rep)
    lattice = gf.lattice
    if args.lattice is not None:
        lattice = parse_lattice_token(args.lattice, gf.conductor, None)
    table = character_table(group)
    report = analyze(rep, table, form=form, lattice=lattice)
    if args.report == "json":
        import json
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_text())
    return 0


def cmd_chartable(args) -> int:
    _, group = _load_group(args)
    table = character_table(group)
    if args.format == "json":
        import json
        print(json.dumps(table.to_dict(), indent=2))
    else:
        print(table.render())
    return 0


def cmd_check_example(args) -> int:
    fixture = FIXTURES.get(args.name)
    if fixture is None:
        known = ", ".join(sorted(FIXTURES))
        return _fail(f"unknown example {args.name!r} (known: {known})", 2)
    result = run_fixture(fixture)
    for name, expected, actual in result.checks:
        if expected == actual:
            print(f"PASS  {name}: {_show(actual)}")
        else:
            print(f"FAIL  {name}: expected {_show(expected)}, got {_show(actual)}")
    bad = result.mismatches
    if bad:
        print(f"{args.name}: {len(bad)} of {len(result.checks)} checks failed")
        return 1
    print(f"{args.name}: all {len(result.checks)} checks passed")
    return 0


def _show(value) -> str:
    if value is True:
        return "yes"
    if value is False:
        return "no"
    return repr(value)


def cmd_search(args) -> int:
    limit = args.max_order
    if limit < 1:
        return _fail(f"--max-order must be at least 1, got {limit}", 2)
    catalog = Path(args.catalog)
    if not catalog.is_dir():
        return _fail(f"catalog {args.catalog!r} is not a directory", 2)
    files = sorted(catalog.glob("*.group"))
    # a closure limit of max_order raises past it, so no larger group is reported
    processed = 0
    for path in files:
        try:
            gf = parse_group(path)
            group = close(gf.elements(), limit=limit)
        except GroupTooLargeError:
            print(f"warning: {path.name}: order exceeds {limit}, skipped", file=sys.stderr)
            continue
        except TorusQuotError as exc:
            print(f"warning: {path.name}: {exc}, skipped", file=sys.stderr)
            continue
        processed += 1
        _search_report(path.name, group)
    if processed == 0:
        return _fail("no group files processed", 2)
    return 0


def _search_report(name: str, group) -> None:
    primitive = is_primitive(group)
    print(f"{name}: order {group.order}, primitive: {_show(primitive)}")
    if not primitive:
        print("  rejected: fails the primitivity criterion")
        return
    table = character_table(group)
    chi_nat = natural_character(group)
    for i, chi in enumerate(table):
        eig_ok = all(table.eigenvalue_one[i])
        note = " [natural]" if chi.values == chi_nat.values else ""
        print(f"  irreducible {i}: degree {chi.degree}, type {FS_NAMES[table.indicator(i)]}, "
              f"eigenvalue-1 all classes: {_show(eig_ok)}, "
              f"candidate: {_show(eig_ok and chi.is_faithful())}{note}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `main` may run many times in one."""
    parser = argparse.ArgumentParser(
        prog="torusquot",
        description="Invariants of complex torus quotients by finite linear groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the full pipeline on a group file")
    pa.add_argument("--group", required=True, help="path to a group file")
    pa.add_argument("--pair", action="store_true",
                    help="analyze the block sum with the conjugate copy")
    pa.add_argument("--form", default=None, metavar="SPEC",
                    help="'wedge 1:2 3:4 ...' inline, or a path to a form file")
    pa.add_argument("--lattice", default=None, metavar="SPEC",
                    help="lattice generator, z^k or 1 (overrides the file)")
    pa.add_argument("--report", choices=("text", "json"), default="text")
    pa.add_argument("--limit", type=int, default=DEFAULT_CLOSURE_LIMIT,
                    help="closure element limit")
    pa.set_defaults(func=cmd_analyze)

    pc = sub.add_parser("chartable", help="print the character table")
    pc.add_argument("--group", required=True, help="path to a group file")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.add_argument("--limit", type=int, default=DEFAULT_CLOSURE_LIMIT)
    pc.set_defaults(func=cmd_chartable)

    pe = sub.add_parser("check-example", help="replay a built-in example")
    pe.add_argument("name", help="s4, g216 or g1280")
    pe.set_defaults(func=cmd_check_example)

    ps = sub.add_parser("search", help="scan a catalog directory of group files")
    ps.add_argument("--catalog", required=True, help="directory with *.group files")
    ps.add_argument("--max-order", type=int, default=DEFAULT_CLOSURE_LIMIT,
                    help="skip groups larger than this order")
    ps.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a package error it raises exits 3 or 2 on one line."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GroupTooLargeError as exc:
        return _fail(str(exc), 3)
    except TorusQuotError as exc:
        return _fail(str(exc), 2)


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
