"""What the benchmark runs on one input, untraced and traced, and how it
checks the outcome against the input's reference values.

The paper workload takes a group file to the finished
`analyze()` report; the catalog workload runs `torusquot search` on a
one-file catalog through the CLI's own `main`.  The traced versions make
the same calls with each call into a layer inside a span named after
that layer, and must reproduce the untraced outcome exactly.
"""

from __future__ import annotations

import io
import os
import re
from contextlib import redirect_stderr, redirect_stdout

from torusquot import chartab, cli, groupfile, groups, torusq
from torusquot.errors import GroupTooLargeError

from spans import patched


# -- analysis workloads


def _form_for(item, gf, rep):
    if gf.form is not None:
        return gf.form
    if item.form_pairs is not None:
        return torusq.SymplecticForm.wedge_pairs(rep.degree, item.form_pairs)
    return None


def _observe(group, table, irreducible, fs, report):
    fib = report.fibration
    return {
        "group order": group.order,
        "conjugacy classes": group.num_classes,
        "table degrees": tuple(sorted(table.degrees)),
        "character irreducible": irreducible,
        "fs indicator": fs,
        "eigenvalue-1 on all classes": report.eigenvalue_one_all,
        "primitive": report.primitive,
        "h10": report.h10,
        "h20": report.h20,
        "symplectic class": str(report.symplectic_class),
        "form preserved": report.form_preserved,
        "lattice preserved": report.lattice_preserved,
        "fibration": None if fib is None else "present",
        "fibration half dimensions": None if fib is None else tuple(len(b) for b in fib),
        "report": report,
    }


def analysis_verdict(item):
    """Group-file text to the finished report, as a user of the library runs it."""
    gf = groupfile.parse_group_text(item.text, source=item.id)
    group = groups.close(gf.elements(), limit=item.closure_limit)
    table = chartab.character_table(group)
    rep = torusq.natural_rep(group)
    if item.pair:
        rep = torusq.conjugate_pair_rep(rep)
    report = torusq.analyze(rep, table, form=_form_for(item, gf, rep), lattice=gf.lattice)
    chi = chartab.natural_character(group)
    return _observe(group, table, chartab.inner_product(chi, chi) == 1,
                    chartab.frobenius_schur(chi), report)


def _warm_groups(group, tr):
    """The lazy group structure every later stage needs, one span each."""
    with tr.span("groups.inverse"):
        group.inv(0)
    with tr.span("groups.classes"):
        group.conjugacy_classes
    with tr.span("groups.power_maps"):
        group.class_orders


def _warm_power_maps(group, tr):
    """The power maps and inverse classes the character table reads."""
    with tr.span("groups.power_maps"):
        group.inverse_class
        for t in range(max(max(group.class_orders), 3)):
            group.power_classes(t)


def _orthonormality(table, tr, counts):
    """Every pairwise inner product of the finished table; False if any
    relation fails."""
    with tr.span("chartab.orthonormality"):
        ok = all(chartab.inner_product(a, b) == (1 if i == j else 0)
                 for i, a in enumerate(table) for j, b in enumerate(table))
    counts["chartab.inner_products"] += len(table) ** 2
    return ok


# the torusq functions analyze() calls by module name, and the span each
# call is recorded in; a call one of them makes to another (the fibration
# checks the form and the class) is recorded in the callee's span
ANALYZE_STAGES = {
    "h0_reflexive_1forms": "torusq.hcounts",
    "h0_reflexive_2forms": "torusq.hcounts",
    "classify_symplectic": "torusq.classify",
    "homogeneous_decomplexification": "torusq.classify",
    "eigenvalue_one_all": "torusq.eigenvalue",
    "is_primitive": "torusq.primitive",
    "invariant_form": "torusq.invariant_form",
    "preserves_form": "torusq.checks",
    "preserves_lattice": "torusq.checks",
    "lagrangian_fibration_data": "torusq.fibration",
}


def _in_span(tr, name, fn):
    def call(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)
    return call


def analysis_staged(item, tr, counts):
    """analysis_verdict with each layer's calls in that layer's spans:
    the stages before analyze() are called one by one, and analyze() itself
    runs with the torusq names it calls replaced by span-recording
    wrappers."""
    with tr.span("groupfile.parse"):
        gf = groupfile.parse_group_text(item.text, source=item.id)
    with tr.span("groups.close"):
        group = groups.close(gf.elements(), limit=item.closure_limit)
    counts["groups.elements"] += group.order
    counts["useful_elements"] += group.order
    _warm_groups(group, tr)
    counts["groups.classes"] += group.num_classes
    _warm_power_maps(group, tr)
    with tr.span("chartab.table"):
        table = chartab.character_table(group)
    counts["tables"] += 1
    orthonormal = _orthonormality(table, tr, counts)
    with tr.span("torusq.rep"):
        rep = torusq.natural_rep(group)
        if item.pair:
            rep = torusq.conjugate_pair_rep(rep)
        rep.faithful
    stages = {name: _in_span(tr, span, getattr(torusq, name))
              for name, span in ANALYZE_STAGES.items()}
    nondegenerate = _in_span(tr, "torusq.checks", torusq.SymplecticForm.is_nondegenerate)
    with patched(torusq, stages), \
            patched(torusq.SymplecticForm, {"is_nondegenerate": nondegenerate}):
        report = torusq.analyze(rep, table, form=_form_for(item, gf, rep), lattice=gf.lattice)
    with tr.span("chartab.natural"):
        chi = chartab.natural_character(group)
        irreducible = chartab.inner_product(chi, chi) == 1
        fs = chartab.frobenius_schur(chi)
    out = _observe(group, table, irreducible, fs, report)
    out["orthonormal"] = orthonormal
    return out


def _isotropic(report):
    form = report.invariant_form
    if report.fibration is None or form is None:
        return False
    return all(form.evaluate(u, v).is_zero()
               for basis in report.fibration for u in basis for v in basis)


def analysis_mismatches(item, out):
    """(check, expected, actual) for every reference value the outcome misses."""
    actual = dict(out)
    if "fibration halves isotropic" in item.expect:
        actual["fibration halves isotropic"] = _isotropic(out["report"])
    bad = [(k, v, actual[k]) for k, v in item.expect.items() if actual[k] != v]
    if not out.get("orthonormal", True):
        bad.append(("table orthonormal", True, False))
    return bad


# -- catalog workload


def catalog_dir(workdir, item):
    return os.path.join(workdir, "items", item.id)


def search_verdict(item, workdir):
    """`torusquot search` on the one-file catalog holding this input."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["search", "--catalog", catalog_dir(workdir, item),
                       "--max-order", str(item.closure_limit)])
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def search_staged(item, tr, counts, workdir):
    """search_verdict with the names `cli` calls into each layer replaced
    by span-recording wrappers; the lazy group structure is built in its
    own spans right after closure and before the table, where the
    untraced run builds it."""
    orig_close, orig_table = cli.close, cli.character_table
    orthonormal = [True]

    def close(gens, limit):
        with tr.span("groups.close"):
            try:
                group = orig_close(gens, limit=limit)
            except GroupTooLargeError:
                counts["groups.elements"] += limit
                raise
        counts["groups.elements"] += group.order
        counts["useful_elements"] += group.order
        _warm_groups(group, tr)
        counts["groups.classes"] += group.num_classes
        return group

    def character_table(group):
        _warm_power_maps(group, tr)
        with tr.span("chartab.table"):
            table = orig_table(group)
        counts["tables"] += 1
        orthonormal[0] = _orthonormality(table, tr, counts)
        return table

    with patched(cli, {"parse_group": _in_span(tr, "groupfile.parse", cli.parse_group),
                       "close": close,
                       "is_primitive": _in_span(tr, "torusq.primitive", cli.is_primitive),
                       "character_table": character_table}):
        with tr.span("cli.search"):
            out = search_verdict(item, workdir)
    out["orthonormal"] = orthonormal[0]
    return out


ORDER_LINE = re.compile(r"^(\S+): order (\d+), primitive: (yes|no)$")
DEGREE = re.compile(r"^  irreducible \d+: degree (\d+),")


def search_mismatches(item, out):
    """Checks the search lines against the benchmark's own closure order:
    the printed order must match it, and the printed degrees of a table
    must square-sum to it.  A group beyond --max-order must be skipped."""
    order = item.expect["group order"]
    lines = out["stdout"].splitlines()
    if order is None:
        skipped = out["rc"] == 2 and not lines and "exceeds" in out["stderr"]
        return [] if skipped else [("skipped beyond max order", True, False)]
    head = ORDER_LINE.match(lines[0]) if out["rc"] == 0 and lines else None
    if head is None:
        return [("search output", "order line", out["stdout"][:80] or out["stderr"][:80])]
    bad = []
    if int(head.group(2)) != order:
        bad.append(("group order", order, int(head.group(2))))
    if head.group(3) == "yes":
        degrees = [int(m.group(1)) for m in map(DEGREE.match, lines[1:]) if m]
        if sum(d * d for d in degrees) != order:
            bad.append(("degree square sum", order, sum(d * d for d in degrees)))
    if not out.get("orthonormal", True):
        bad.append(("table orthonormal", True, False))
    return bad


def write_catalog(items, directory):
    """A catalog directory holding the inputs' group files."""
    os.makedirs(directory, exist_ok=True)
    for item in items:
        with open(os.path.join(directory, f"{item.id}.group"), "w") as fh:
            fh.write(item.text)
    return directory


def compact(out):
    """The outcome with the report as its JSON dict, so that holding it
    keeps no group or matrices alive."""
    if "report" in out:
        return dict(out, report=out["report"].to_dict())
    return out


def same_outcome(a, b):
    """Whether an untraced and a staged outcome agree, report included."""
    return {k: v for k, v in a.items() if k != "orthonormal"} == \
        {k: v for k, v in b.items() if k != "orthonormal"}
