"""Exact checks read off reduced integer numerators, against `Fraction`.

The table's checks and the `search` report test whether a character sum is
an integer from its numerators reduced mod Phi_m: the value is rational
exactly when every entry after the first vanishes, because 1, z, ...,
z^(phi(m)-1) is a basis of Q(zeta_m).  Degrees and sort keys read the
integer numerators when the denominator is 1.  Each is compared with the
earlier `Fraction`-based form (`chartab_oracle`), and the tables of the
benchmark's inputs with the table the earlier steps build.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartab_oracle as oracle
from helpers import with_character

from torusquot import chartab, modp
from torusquot.chartab import (
    Character,
    character_table,
    decompose,
    frobenius_schur,
    natural_character,
)
from torusquot.cyclo import Cyclotomic, normalize
from torusquot.errors import GroupTooLargeError, InconsistentCharacterError
from torusquot.groupfile import parse_group_text
from torusquot.groups import close
from torusquot.torusq import eigenvalue_one_all

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402  (the benchmark's seeded inputs)


@st.composite
def canonical_values(draw):
    """Canonical values from rational coefficient vectors, integral or not,
    at small conductors; conductor 1 gives the rationals."""
    n = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12)))
    den = draw(st.sampled_from((1, 1, 2, 3, 6)))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    return normalize([Fraction(c, den) for c in coeffs], n)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except InconsistentCharacterError as exc:
        return "error", str(exc)


class TestBookkeeping:
    @settings(max_examples=200, deadline=None)
    @given(canonical_values(), canonical_values())
    def test_sort_key_orders_as_the_fraction_key(self, a, b):
        new, old = (a.sort_key(), b.sort_key()), (oracle.sort_key(a), oracle.sort_key(b))
        assert (new[0] < new[1]) == (old[0] < old[1])
        assert (new[0] == new[1]) == (old[0] == old[1]) == (a == b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(canonical_values(), min_size=2, max_size=8))
    def test_sorted_values_agree(self, values):
        assert sorted(values, key=Cyclotomic.sort_key) == sorted(values, key=oracle.sort_key)

    @settings(max_examples=100, deadline=None)
    @given(value=canonical_values())
    def test_degree_reads_the_integer_numerator(self, s4_group, value):
        rest = (Cyclotomic.from_value(0),) * (s4_group.num_classes - 1)
        chi = Character(s4_group, (value,) + rest)
        assert _outcome(lambda c: c.degree, chi) == _outcome(oracle.degree, chi)


def _half_natural(group):
    """½·χ_nat: every character sum of it is rational, some not integers."""
    half = Cyclotomic.from_value(Fraction(1, 2))
    return Character(group, tuple(half * v for v in natural_character(group).values))


def _non_real(group):
    """ζ_3 at the identity class and 0 elsewhere: its averages are not rational."""
    r = group.num_classes
    return Character(group, (Cyclotomic.zeta(3),) + (Cyclotomic.from_value(0),) * (r - 1))


@pytest.mark.parametrize("make", [_half_natural, _non_real], ids=["half-natural", "non-real"])
class TestInexactSums:
    """A class function whose averages are not integers is refused with the
    message the `Fraction`-based bodies gave."""

    def test_indicator(self, make, s4_group):
        chi = make(s4_group)
        assert _outcome(frobenius_schur, chi) == _outcome(oracle.frobenius_schur, chi) \
            == ("error", "indicator is not an integer")

    def test_eigenvalue_one_counts(self, make, s4_group, s4_table):
        # the package reads the counts off the decomposition, which refuses it
        chi = make(s4_group)
        assert _outcome(oracle.eigenvalue_one_counts, chi) == \
            ("error", "eigenvalue-1 multiplicity is not a non-negative integer")
        assert _outcome(eigenvalue_one_all, with_character(chi), s4_table) == \
            ("error", "inner product with an irreducible is not a non-negative integer")

    def test_decompose(self, make, s4_group, s4_table):
        chi = make(s4_group)
        assert _outcome(decompose, chi, s4_table) == \
            _outcome(oracle.decompose, chi, s4_table) == \
            ("error", "inner product with an irreducible is not a non-negative integer")


def test_negative_eigenvalue_one_average_is_refused(s4_group, s4_table):
    # minus the trivial character averages to -1 over every cyclic subgroup,
    # and its decomposition has the multiplicity -1
    chi = Character(s4_group, (Cyclotomic.from_value(-1),) * s4_group.num_classes)
    assert _outcome(oracle.eigenvalue_one_counts, chi)[0] == "error"
    assert _outcome(eigenvalue_one_all, with_character(chi), s4_table)[0] == "error"


# -- the tables of the benchmark's inputs


def _oracle_check(group, chars):
    """The oracle's table check, returning the indicators the table keeps,
    as `chartab._verify_table` does."""
    oracle._verify_table(group, chars)
    return [oracle.frobenius_schur(c) for c in chars]


def _lattice_first(group, p):
    """The oracle's eigenvectors with the lattice's linear characters first,
    where `chartab._table_mod_p` reads them: each of them must be one of the
    oracle's vectors."""
    e = group.exponent()
    w = modp.element_of_order(e, p)
    linear = [[h * pow(w, t, p) % p for h, t in zip(group.class_sizes, ts)]
              for ts in group.linear_characters]
    vectors = oracle._split_eigenspaces(group, p)
    assert all(v in vectors for v in linear)
    return linear + [v for v in vectors if v not in linear]


def _earlier_table(group):
    """`character_table` through the earlier steps: whole class matrices,
    Cantor-Zassenhaus roots, canonical inner products in the check, and
    degrees and sort keys read through `Fraction`.  The linear rows come
    from the lattice, which must give r1 of the split's vectors, and only
    the other r - r1 rows are lifted."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chartab, "_split_eigenspaces", _lattice_first)
        mp.setattr(chartab, "_verify_table", _oracle_check)
        mp.setattr(Character, "degree", property(oracle.degree))
        mp.setattr(Cyclotomic, "sort_key", oracle.sort_key)
        return list(character_table(group))


def _benchmark_groups(workload, seed):
    for item in inputs.WORKLOADS[workload](seed):
        gf = parse_group_text(item.text, source=item.id)
        try:
            yield item.id, close(gf.elements(), limit=item.closure_limit)
        except GroupTooLargeError:
            continue


# the paper inputs do not depend on the seed
@pytest.mark.parametrize("workload, seed",
                         [("paper", 1), ("catalog", 1), ("catalog", 2), ("catalog", 3)])
def test_benchmark_tables_match_the_earlier_steps(workload, seed):
    tabled = 0
    for name, group in _benchmark_groups(workload, seed):
        table = character_table(group)
        earlier = _earlier_table(group)
        assert [c.values for c in table] == [c.values for c in earlier], name
        for i, chi in enumerate(table):
            assert chi.degree == oracle.degree(chi), name
            assert table.indicator(i) == frobenius_schur(chi) == \
                oracle.frobenius_schur(chi), name
            assert table.eigenvalue_one[i] == oracle.eigenvalue_one_counts(chi), name
        nat = natural_character(group)
        assert decompose(nat, table) == oracle.decompose(nat, table), name
        tabled += 1
    assert tabled == (3 if workload == "paper" else 39)
