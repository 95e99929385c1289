"""Differential tests: conjugacy classes and the abelianization built from
left multiplication along the BFS tree, and the class-matrix rows folded
through the representative's word, against the word-fold bodies kept in
`groups_oracle`; the monomial point set with interned scalars against
the orbit that made one product per point and generator; and the dense
point set held as interned entry indices against the orbit keyed by
`Cyclotomic` vectors; and the class representatives' traces read off the
points against the diagonals of their matrices.

The groups are random two-generator subgroups of G(m,1,n), m, n <= 4, from
monomial generators and from their dense conjugates (a point set of n·|G|
vectors), the three paper fixtures, AGL(1,31) and an abelian group.  The
monomial point sets are compared on the subgroups and on their conjugates
by diag(2, 1, ..., 1), whose scalars are not roots of unity, the dense
ones on the dense conjugates, and each on an infinite group: the monomial
one on that of diag(2, 1), the dense one on that of [[2, 1], [0, 1]].
"""

import pytest
from hypothesis import given, settings

import groups_oracle as oracle
from helpers import affine_generators, conjugated_elements, inverse, wreath_generator_pairs

from torusquot.chartab import _class_matrix_rows
from torusquot.cyclo import Cyclotomic
from torusquot.errors import GroupTooLargeError
from torusquot.fixtures import FIXTURES
from torusquot.groupfile import parse_group_text
from torusquot.groups import DEFAULT_CLOSURE_LIMIT, Dense, Monomial, close


def check_against_oracle(group):
    classes, class_of = oracle.compute_classes(group)
    assert group.conjugacy_classes == classes
    assert group.class_map == class_of
    assert [group.class_of(i) for i in range(group.order)] == list(class_of)
    assert group.abelianization_order() == oracle.abelianization_order(group)
    rows = range(group.num_classes)
    for i in rows:
        assert _class_matrix_rows(group, i, rows) == oracle.class_matrix_rows(group, i, rows)
    traces = oracle.class_traces(group)
    assert group.class_traces == traces
    assert traces == tuple(group.element(r).trace() for r in group.class_representatives)


def test_left_multiply_all_matches_mult(g216_group):
    for h in (0, 1, 17, g216_group.order - 1):
        assert g216_group.left_multiply_all(h) == [
            g216_group.mult(h, x) for x in range(g216_group.order)]


@pytest.mark.parametrize("name", ["s4", "g216", "g1280"])
def test_fixtures_match_word_folds(name):
    fx = FIXTURES[name]
    gens = parse_group_text(fx.file_text, source=name).elements()
    check_against_oracle(close(gens))


@pytest.mark.parametrize("gens", [
    affine_generators(31, 3),
    # diag(i, 1, 1) and diag(1, zeta_6, -1): abelian of order 12
    [Monomial((0, 1, 2), (Cyclotomic.zeta(4), 1, 1)),
     Monomial((0, 1, 2), (1, Cyclotomic.zeta(6), -1))],
], ids=["AGL(1,31)", "abelian"])
def test_affine_and_abelian_groups_match_word_folds(gens):
    check_against_oracle(close(gens))


@settings(max_examples=40, deadline=None)
@given(wreath_generator_pairs())
def test_wreath_subgroups_match_word_folds(gens):
    check_against_oracle(close(gens))


@settings(max_examples=15, deadline=None)
@given(wreath_generator_pairs())
def test_dense_conjugates_match_word_folds(gens):
    check_against_oracle(close(conjugated_elements(gens)))


def check_points_against_oracle(gens, points_of=oracle.monomial_points):
    group = close(gens)
    points, perms = points_of(gens, DEFAULT_CLOSURE_LIMIT)
    assert list(group._points) == points
    assert list(map(list, group._gen_perms)) == perms
    return group


def scaled_by_two(gens):
    """Each generator conjugated by D = diag(2, 1, ..., 1), as D·g·D⁻¹."""
    n = gens[0].degree
    d = Monomial(range(n), (2,) + (1,) * (n - 1))
    return [d * g * inverse(d) for g in gens]


@settings(max_examples=40, deadline=None)
@given(wreath_generator_pairs())
def test_monomial_points_match_the_product_orbit(gens):
    check_points_against_oracle(gens)
    check_points_against_oracle(scaled_by_two(gens))


@settings(max_examples=15, deadline=None)
@given(wreath_generator_pairs())
def test_dense_points_match_the_vector_orbit(gens):
    group = check_points_against_oracle(conjugated_elements(gens), oracle.dense_points)
    assert group.order == close(gens).order


def check_stops_with_oracle(gens, points_of):
    for limit in (1, 7, 50):
        with pytest.raises(GroupTooLargeError) as new:
            close(gens, limit=limit)
        with pytest.raises(GroupTooLargeError) as old:
            points_of(gens, limit)
        assert new.value.limit == old.value.limit == limit


def test_infinite_group_stops_where_the_product_orbit_does():
    check_stops_with_oracle([Monomial((0, 1), (2, 1))], oracle.monomial_points)


def test_infinite_dense_group_stops_where_the_vector_orbit_does():
    check_stops_with_oracle([Dense([[2, 1], [0, 1]])], oracle.dense_points)


def test_dense_closure_compares_no_values(monkeypatch):
    # the powers of 2 collide in hash every 61 steps; interned entries are
    # compared as tuples of ints, never through Cyclotomic.__eq__.  The
    # matrix is not monomial, so its points are vectors
    calls = []
    real = Cyclotomic.__eq__

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Cyclotomic, "__eq__", counting)
    with pytest.raises(GroupTooLargeError):
        close([Dense([[2, 1], [0, 1]])], limit=200)
    assert calls == []


def test_g1280_closure_makes_one_product_per_distinct_pair(monkeypatch):
    # the points carry the scalars 1, -1, i, -i and so do the generators
    fx = FIXTURES["g1280"]
    gens = parse_group_text(fx.file_text, source="g1280").elements()
    products = []
    real = Cyclotomic.__mul__

    def counting(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting)
    group = close(gens)
    assert group.order == 1280
    assert len(products) <= 16
