"""The linear characters read off the abelianization lattice against the
character table's degree-1 rows, and the eigenspace split that starts from
them.

`FiniteGroup.linear_characters` solves L·a = 0 mod e on the Hermite basis
of the Schreier relations; `chartab._split_eigenspaces` keeps their vectors
and splits only the complement.  The table's exact check certifies every
row it returns, so its degree-1 rows are the reference: as exact values,
the lattice's characters must be exactly those rows, on the paper's
groups, an affine group, cyclic and abelian groups, generating sets with a
repeated generator and the identity, and random subgroups of G(m,1,n),
monomial and conjugated to dense.  The Hermite basis itself is checked on
random vectors against the order of the quotient, counted by closing the
vectors' subgroup of (Z/bound)^rank.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartab_oracle as oracle
from helpers import affine_generators, conjugated_elements, wreath_generator_pairs

from torusquot import chartab, groups
from torusquot.chartab import character_table
from torusquot.cyclo import Cyclotomic
from torusquot.errors import GroupTooLargeError
from torusquot.groups import Element, Monomial, close


def _cyclic():
    # one permutation with cycles of lengths 4 and 3: the cyclic group of order 12
    return close([Monomial((1, 2, 3, 0, 5, 6, 4), (1,) * 7)])


def _abelian():
    # diag(i, 1) and diag(1, zeta_6): Z/4 x Z/6 from two generators
    return close([Monomial((0, 1), (Cyclotomic.zeta(4), 1)),
                  Monomial((0, 1), (1, Cyclotomic.zeta(6)))])


def _repeated_and_identity(s4_group):
    # the s4 fixture's generators with the first repeated and the identity added
    a, b = (s4_group.element(i) for i in s4_group.generator_indices)
    return close([a, Element.identity(3), b, a])


def _affine():
    return close(affine_generators(31, 3))


GROUPS = {
    "s4": lambda request: request.getfixturevalue("s4_group"),
    "g216": lambda request: request.getfixturevalue("g216_group"),
    "g1280": lambda request: request.getfixturevalue("g1280_group"),
    "AGL(1,31)": lambda request: _affine(),
    "cyclic-12": lambda request: _cyclic(),
    "Z4xZ6": lambda request: _abelian(),
    "repeated-and-identity": lambda request: _repeated_and_identity(
        request.getfixturevalue("s4_group")),
}


def lattice_rows(group):
    """The lattice's linear characters as exact values per class."""
    e = group.exponent()
    return [tuple(Cyclotomic.zeta(e, t) for t in ts) for ts in group.linear_characters]


def check_linear_characters(group, table=None):
    table = table or character_table(group)
    rows = lattice_rows(group)
    assert len(rows) == len(set(rows)) == group.abelianization_order()
    assert sorted(rows, key=str) == sorted((chi.values for chi in table if chi.degree == 1),
                                           key=str)


@pytest.mark.parametrize("name", list(GROUPS))
def test_lattice_characters_are_the_degree_1_rows(name, request):
    check_linear_characters(GROUPS[name](request))


def test_abelianization_orders():
    assert _cyclic().abelianization_order() == 12
    assert _abelian().abelianization_order() == 24
    assert _affine().abelianization_order() == 30


@settings(max_examples=30, deadline=None)
@given(wreath_generator_pairs())
def test_wreath_subgroups(gens):
    check_linear_characters(close(gens))


@settings(max_examples=10, deadline=None)
@given(wreath_generator_pairs())
def test_dense_conjugates(gens):
    try:
        group = close(conjugated_elements(gens), limit=96)
    except GroupTooLargeError:
        return
    check_linear_characters(group)


def test_abelian_group_builds_no_class_matrix_row(monkeypatch):
    # every irreducible is linear, so the complement is empty
    def refuse(*args):
        raise AssertionError("a class-matrix row was built")

    monkeypatch.setattr(chartab, "_class_matrix_rows", refuse)
    group = _abelian()
    table = character_table(group)
    assert len(table) == group.num_classes == 24
    check_linear_characters(group, table)


def test_split_from_part_of_the_linear_characters(monkeypatch):
    # given only the trivial character and one that is not real, the split
    # must still find every eigenvector: the complement taken under
    # B(u, v) = sum_k u_k v_(k^-1) / |C_k| holds the other linear characters
    # too, and the class matrices split them off
    group = _affine()
    p = next(chartab._admissible_primes(group.exponent(), group.order))
    expected = sorted(oracle._split_eigenspaces(group, p))
    everything = group.linear_characters
    e = group.exponent()
    trivial = tuple([0] * group.num_classes)
    nonreal = next(ts for ts in everything if any(2 * t % e for t in ts))
    for part in ([trivial], [trivial, nonreal], everything[:7]):
        monkeypatch.setattr(group, "linear_characters", part)
        assert sorted(chartab._split_eigenspaces(group, p)) == expected


def _in_span(rows, v):
    """Whether v is an integer combination of the upper triangular rows."""
    v = list(v)
    for i, row in enumerate(rows):
        q, rest = divmod(v[i], row[i])
        if rest:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _quotient_order(vectors, rank, bound):
    """|Z^rank / (span(vectors) + bound·Z^rank)|, counted as bound^rank over
    the subgroup of (Z/bound)^rank that the vectors generate."""
    seen = {(0,) * rank}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for v in vectors:
            y = tuple((a + b) % bound for a, b in zip(x, v))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return bound ** rank // len(seen)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
    st.just(rank), st.integers(1, 12),
    st.lists(st.lists(st.integers(-30, 30), min_size=rank, max_size=rank), max_size=6))))
def test_hermite_basis_spans_the_lattice(case):
    rank, bound, vectors = case
    rows = groups._hermite_basis(vectors, rank, bound)
    for j, row in enumerate(rows):
        assert row[j] > 0 and not any(row[:j])
        assert all(0 <= rows[k][j] < row[j] for k in range(j))
    assert all(_in_span(rows, v) for v in vectors)
    assert all(_in_span(rows, [bound * (i == j) for j in range(rank)]) for i in range(rank))
    det = 1
    for j, row in enumerate(rows):
        det *= row[j]
    assert det == _quotient_order(vectors, rank, bound)
