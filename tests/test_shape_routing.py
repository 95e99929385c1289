"""The generators' shape, not the group file's spelling, picks the paths.

A set of generators that are all scaled permutation matrices closes through
the monomial point builder and gets the line-orbit walk for its invariant
form, even when the file writes them as `generator dense`.  The points are
the same vectors in the same BFS order as the vector orbit of
`groups_oracle.dense_points`, so the elements, classes, table and report
equal those of the same group written monomial.  A set with one generator
of another shape closes through the dense point builder, and non-monomial
generators still reach each dense-only path: the dense points, the group
average of `invariant_form`, and both fibration splitters.

The two catalog groups are c23 and c31 of `bench/inputs.catalog_items(1)`,
a real pair and a complex pair, which the benchmark writes dense.
"""

import pytest

import groups_oracle as oracle
from helpers import (
    conjugated,
    conjugated_elements,
    group_elements,
    unimodular,
    wreath_generators,
)
from torusq_oracle import group_average_form

from torusquot import groups, torusq
from torusquot.chartab import character_table
from torusquot.cli import main
from torusquot.groupfile import parse_group_text, serialize_group
from torusquot.groups import DEFAULT_CLOSURE_LIMIT, Dense, Monomial, close
from torusquot.torusq import analyze, conjugate_pair_rep, natural_rep

CATALOG = {
    "c23": ("conductor 2\ndegree 4\n"
            "generator dense\nrow 1; 0; 0; 0\nrow 0; 0; 1; 0\nrow 0; z^1; 0; 0\nrow 0; 0; 0; z^1\n"
            "generator dense\nrow 0; 0; 0; z^1\nrow 0; 1; 0; 0\nrow 1; 0; 0; 0\nrow 0; 0; z^1; 0\n"),
    "c31": ("conductor 4\ndegree 3\n"
            "generator dense\nrow 0; z^2; 0\nrow 0; 0; 1\nrow 1; 0; 0\n"
            "generator dense\nrow z^1; 0; 0\nrow 0; 0; z^3\nrow 0; z^1; 0\n"),
}


def count_calls(monkeypatch, module, name):
    """The list that grows by one entry per call of module.name."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)
    return calls


def written_monomial(text):
    """The same group file re-serialized: every scaled permutation matrix
    with a scalar other than 1 is written `generator monomial`."""
    return serialize_group(parse_group_text(text))


def pair_report(text, tmp_path, capsys):
    path = tmp_path / "group.group"
    path.write_text(text)
    assert main(["analyze", "--group", str(path), "--pair", "--report", "json"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_monomial_group_written_dense_takes_the_monomial_paths(name, monkeypatch, tmp_path,
                                                               capsys):
    dense_text = CATALOG[name]
    mono_text = written_monomial(dense_text)
    assert "generator monomial" in mono_text and "generator dense" not in mono_text
    dense_points = count_calls(monkeypatch, groups, "_dense_points")
    line_orbits = count_calls(monkeypatch, torusq, "_line_orbit")

    dense_gens = parse_group_text(dense_text).elements()
    assert dense_gens == parse_group_text(mono_text).elements()
    dense, mono = close(dense_gens), close(parse_group_text(mono_text).elements())
    assert list(dense._points) == oracle.dense_points(dense_gens, DEFAULT_CLOSURE_LIMIT)[0]
    assert dense._points == mono._points
    assert group_elements(dense) == group_elements(mono)
    assert dense.conjugacy_classes == mono.conjugacy_classes
    assert [chi.values for chi in character_table(dense)] == \
        [chi.values for chi in character_table(mono)]

    assert pair_report(dense_text, tmp_path, capsys) == pair_report(mono_text, tmp_path, capsys)
    assert dense_points == []
    assert line_orbits


def test_one_non_monomial_generator_takes_the_dense_builder(monkeypatch):
    # a transposition and a rotation of order 3 whose second column has two
    # entries: S3 on its reflection lattice
    gens = [Monomial((1, 0), (1, 1)), Dense([[0, 1], [-1, -1]])]
    assert [g.is_monomial() for g in gens] == [True, False]
    calls = count_calls(monkeypatch, groups, "_dense_points")
    group = close(gens)
    assert calls == ["_dense_points"]
    assert group.order == 6
    assert list(group._points) == oracle.dense_points(gens, DEFAULT_CLOSURE_LIMIT)[0]


@pytest.mark.parametrize("m, splitter", [(2, "_spin_halves"), (3, "_complex_halves")],
                         ids=["real-pair", "complex-pair"])
def test_non_monomial_generators_reach_the_dense_paths(monkeypatch, m, splitter):
    # G(m,1,2) conjugated to dense: its natural character is real for m = 2
    # and not for m = 3, so its pair is split by the spin or the class sum.
    # The pair is conjugated too, so that no two coordinate blocks are kept
    gens = conjugated_elements(wreath_generators(m, 2))
    assert not any(g.is_monomial() for g in gens)
    calls = {name: count_calls(monkeypatch, module, name) for module, name in (
        (groups, "_dense_points"), (torusq, "_line_orbit"), (torusq, splitter))}
    group = close(gens)
    rep = conjugated(conjugate_pair_rep(natural_rep(group)),
                     unimodular(4, [(0, 2, 1), (1, 3, 1), (3, 0, 2)]))
    report = analyze(rep, character_table(group))
    assert report.fibration is not None
    assert {name: len(c) for name, c in calls.items()} == {
        "_dense_points": 1, "_line_orbit": 0, splitter: 1}
    assert torusq.invariant_form(rep) == group_average_form(rep)
