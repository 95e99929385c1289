"""Differential tests: the integer character sums of `chartab` against the
`Cyclotomic`-chain sums kept in `chartab_oracle`.

The class functions are drawn from the tables' irreducibles, natural
characters, exterior and symmetric squares, the zero function and random
class functions: values with denominators and negative numerators, some at
conductors that do not divide the group's exponent (7, 15, 16, 24), which
makes the evaluation's m larger than the exponent.  On the rational tables
(s4, q8), where the evaluation's modulus is smallest, they are also drawn
with large values.  Results and exceptions must agree exactly.  The
eigenvalue-1 counts, which `torusq` reads off a character's decomposition,
must agree wherever that decomposition exists.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartab_oracle as oracle
from helpers import scale, with_character
from torusquot.chartab import (
    Character,
    decompose,
    exterior_square,
    frobenius_schur,
    inner_product,
    natural_character,
    symmetric_square,
)
from torusquot.cyclo import Cyclotomic, zero
from torusquot.errors import InconsistentCharacterError
from torusquot.torusq import _eigenvalue_one_multiplicities

EXTRA_CONDUCTORS = [3, 4, 7, 15, 16, 24]


@pytest.fixture(scope="module", params=["s4", "q8", "c6", "g216", "g1280"])
def table(request):
    return request.getfixturevalue(f"{request.param}_table")


def _random_value(draw, conductors):
    """A sum of a few terms c/d * zeta_n^k with n drawn from conductors."""
    total = zero()
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.sampled_from(conductors))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
        total = total + c * Cyclotomic.zeta(n, draw(st.integers(0, n - 1)))
    return total


def class_functions(table):
    group = table.group
    irr = st.sampled_from(list(table))
    nat = st.just(natural_character(group))
    zero_chi = Character(group, (zero(),) * group.num_classes)
    zero_fn = st.just(zero_chi)

    @st.composite
    def random_fn(draw):
        # the exponent's divisors and one conductor that may not divide it
        conductors = [1, group.exponent(), draw(st.sampled_from(EXTRA_CONDUCTORS))]
        return Character(group, tuple(_random_value(draw, conductors)
                                      for _ in range(group.num_classes)))

    @st.composite
    def sums(draw):
        # a non-negative combination of irreducibles, so decompose succeeds
        chi = zero_chi
        for c in table:
            m = draw(st.integers(0, 2))
            if m:
                chi = chi + scale(c, m)
        return chi

    base = st.one_of(irr, nat, zero_fn, random_fn(), sums())
    squared = st.tuples(st.sampled_from([exterior_square, symmetric_square]),
                        st.one_of(irr, nat)).map(lambda fc: fc[0](fc[1]))
    return st.one_of(base, squared)


def large_functions(table):
    """Class functions with large values on a rational table, where m = 1
    and the modulus q = 2B + 1 is the smallest: non-negative combinations of
    the irreducibles with multiplicities up to 1000, constants, and random
    rational values."""
    group = table.group
    r = group.num_classes
    rational = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 1000))

    @st.composite
    def sums(draw):
        chi = Character(group, (zero(),) * r)
        for c in table:
            m = draw(st.integers(0, 1000))
            if m:
                chi = chi + scale(c, m)
        return chi

    constant = rational.map(lambda v: [v] * r)
    values = st.one_of(constant, st.lists(rational, min_size=r, max_size=r))
    return st.one_of(sums(), values.map(
        lambda vs: Character(group, tuple(map(Cyclotomic.from_value, vs)))))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InconsistentCharacterError as exc:
        return "error", str(exc)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inner_product_matches_oracle(table, data):
    fns = class_functions(table)
    a, b = data.draw(fns), data.draw(fns)
    assert inner_product(a, b) == oracle.inner_product(a, b)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_indicator_and_eigenvalue_counts_match_oracle(table, data):
    chi = data.draw(class_functions(table))
    assert outcome(frobenius_schur, chi) == outcome(oracle.frobenius_schur, chi)
    # the counts are read off the decomposition, so only a character has them
    status, counts = outcome(_eigenvalue_one_multiplicities, with_character(chi), table)
    if status == "ok":
        assert counts == oracle.eigenvalue_one_counts(chi)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_decompose_matches_oracle(table, data):
    chi = data.draw(class_functions(table))
    assert outcome(decompose, chi, table) == outcome(oracle.decompose, chi, table)


@pytest.mark.parametrize("name", ["s4", "q8"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_large_values_on_the_rational_tables_match_oracle(name, request, data):
    table = request.getfixturevalue(f"{name}_table")
    fns = large_functions(table)
    a, b = data.draw(fns), data.draw(fns)
    assert outcome(decompose, a, table) == outcome(oracle.decompose, a, table)
    assert outcome(frobenius_schur, a) == outcome(oracle.frobenius_schur, a)
    assert inner_product(a, b) == oracle.inner_product(a, b)


def test_every_pair_of_the_tables_matches_oracle(table):
    chars = list(table) + [natural_character(table.group)]
    for a in chars:
        for b in chars:
            assert inner_product(a, b) == oracle.inner_product(a, b)


def test_group_mismatch_raises_alike(s4_table, q8_table):
    chi = natural_character(s4_table.group)
    assert outcome(inner_product, chi, q8_table[0]) == \
        outcome(oracle.inner_product, chi, q8_table[0])
    assert outcome(decompose, chi, q8_table) == outcome(oracle.decompose, chi, q8_table)
