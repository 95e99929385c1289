"""The exact table check: one Gram product mod q = Phi_m(w), w past the
norm bound, against the pairings it replaced.

`chartab._verify_table` evaluates every value at zeta_m -> w mod q and
compares the Gram matrix of the rows with |G| D^2 times the identity; the
norm bound makes a zero mod q a zero in Z[zeta_m].  It must accept the
tables and reject what is not a table: a value conjugated, moved off the
algebraic integers, or replaced by another root of unity, a row repeated,
a row times -1, rows whose only fault is their norm, and rows that are
orthonormal but have an indicator outside -1, 0, 1.  At m = 1 (s4, q8)
q is w - 1.  On random changes to the tables of the benchmark's seed-1
catalog it must accept and reject exactly where the pairings in
Z[z]/(z^m - 1) (`chartab_oracle._verify_pairings`) do.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartab_oracle as oracle
from helpers import scale

from torusquot import chartab
from torusquot.chartab import Character, character_table
from torusquot.cyclo import Cyclotomic
from torusquot.errors import (
    GroupTooLargeError,
    InconsistentCharacterError,
    TableComputationError,
)
from torusquot.groupfile import parse_group_text
from torusquot.groups import Monomial, close

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import inputs  # noqa: E402  (the benchmark's seeded inputs)

_NAMES = ["s4", "q8", "c6", "g216", "g1280"]


def _verdict(check, group, chars):
    try:
        check(group, chars)
    except (TableComputationError, InconsistentCharacterError):
        return "reject"
    return "accept"


def _replaced(group, chars, i, k, value):
    values = list(chars[i].values)
    values[k] = value
    out = list(chars)
    out[i] = Character(group, tuple(values))
    return out


def _conjugated_value(group, chars):
    """The first value that is not real, conjugated."""
    i, k = next((i, k) for i, c in enumerate(chars) for k, v in enumerate(c.values)
                if v != v.conjugate())
    return _replaced(group, chars, i, k, chars[i].values[k].conjugate())


def _value_over_two(group, chars):
    """The second row's value at class 1 plus 1/2: not an algebraic integer."""
    return _replaced(group, chars, 1, 1, chars[1].values[1] + Fraction(1, 2))


def _root_negated(group, chars):
    """A linear row's value at class 1, a root of unity, times -1."""
    return _replaced(group, chars, 1, 1, -chars[1].values[1])


def _root_times_zeta3(group, chars):
    """A linear row's value at class 1 times zeta_3, moving the conductor."""
    return _replaced(group, chars, 1, 1, chars[1].values[1] * Cyclotomic.zeta(3))


def _duplicated_row(group, chars):
    """The second row replaced by the first: the degrees' squares still sum
    to |G| (both rows are linear)."""
    return [chars[0], chars[0]] + list(chars[2:])


def _negated_row(group, chars):
    """The last row times -1: every relation still holds."""
    return list(chars[:-1]) + [scale(chars[-1], -1)]


_MUTATIONS = {
    "conjugated-value": _conjugated_value,
    "value-over-two": _value_over_two,
    "root-negated": _root_negated,
    "root-times-zeta3": _root_times_zeta3,
    "duplicated-row": _duplicated_row,
    "negated-row": _negated_row,
}


@pytest.mark.parametrize("name", _NAMES)
def test_accepts_the_table_and_reads_its_indicators(name, request):
    table = request.getfixturevalue(f"{name}_table")
    chars = list(table)
    assert chartab._verify_table(table.group, chars) == \
        [table.indicator(i) for i in range(len(chars))] == \
        [oracle.frobenius_schur(c) for c in chars]


# s4 and q8 have only rational values, which conjugation keeps
@pytest.mark.parametrize("name, mutation", [
    (name, mutation) for name in _NAMES for mutation in _MUTATIONS
    if not (mutation == "conjugated-value" and name in ("s4", "q8"))])
def test_rejects_a_mutation(name, mutation, request):
    table = request.getfixturevalue(f"{name}_table")
    chars = list(table)
    assert chars[1].degree == 1
    changed = _MUTATIONS[mutation](table.group, chars)
    with pytest.raises(TableComputationError):
        chartab._verify_table(table.group, changed)


def test_the_rational_tables_are_checked_at_conductor_1(s4_table, q8_table):
    assert all(v.n == 1 for t in (s4_table, q8_table) for c in t for v in c.values)


def test_rejects_rows_whose_only_fault_is_their_norm(s4_table):
    # 2·triv, 2·sign and 2·chi_2 are orthogonal, of positive degrees whose
    # squares sum to 4 + 4 + 16 = 24: only the diagonal of the Gram matrix,
    # 4|G| instead of |G|, rejects them
    sign, triv, chi2 = s4_table[0], s4_table[1], s4_table[2]
    assert (sign.degree, triv.degree, chi2.degree) == (1, 1, 2)
    chars = [scale(triv, 2), scale(sign, 2), scale(chi2, 2)]
    assert _verdict(oracle._verify_pairings, s4_table.group, chars) == "reject"
    with pytest.raises(TableComputationError, match="orthonormal"):
        chartab._verify_table(s4_table.group, chars)


def test_rejects_a_negated_row_that_the_pairings_accept(s4_table):
    chars = _negated_row(s4_table.group, list(s4_table))
    assert _verdict(oracle._verify_pairings, s4_table.group, chars) == "accept"
    with pytest.raises(TableComputationError, match="degree is not positive"):
        chartab._verify_table(s4_table.group, chars)


def test_rejects_an_orthonormal_table_with_an_indicator_off_the_signs():
    # the table of C3 with its values at g doubled and at g^-1 halved stays
    # orthonormal, since the pairing multiplies the two, but the first row's
    # indicator (1 + 2 + 1/2) / 3 is 7/6
    group = close([Monomial((1, 2, 0), (1, 1, 1))])
    g = next(k for k, o in enumerate(group.class_orders) if o == 3)
    ginv = group.inverse_class[g]
    chars = []
    for chi in character_table(group):
        values = list(chi.values)
        values[g], values[ginv] = values[g] * 2, values[ginv] * Fraction(1, 2)
        chars.append(Character(group, tuple(values)))
    assert _verdict(oracle._verify_pairings, group, chars) == "accept"
    with pytest.raises(TableComputationError, match="indicator"):
        chartab._verify_table(group, chars)


# -- against the pairings, on the benchmark's seed-1 catalog


@pytest.fixture(scope="module")
def catalog_tables():
    tables = []
    for item in inputs.WORKLOADS["catalog"](1):
        gf = parse_group_text(item.text, source=item.id)
        try:
            group = close(gf.elements(), limit=item.closure_limit)
        except GroupTooLargeError:
            continue
        tables.append(list(character_table(group)))
    return tables


_KINDS = ("none", "shuffle", "galois", "conjugate", "half", "root", "duplicate", "swap",
          "drop")


def _mutate(data, chars):
    """One random change to a table; shuffling the rows or applying one
    Galois automorphism to all of them leaves a table."""
    group, r = chars[0].group, len(chars)
    rows = [list(c.values) for c in chars]
    kind = data.draw(st.sampled_from(_KINDS))
    i, j, k = (data.draw(st.integers(0, r - 1)) for _ in range(3))
    if kind == "shuffle":
        rows = data.draw(st.permutations(rows))
    elif kind == "galois":
        e = group.exponent()
        u = data.draw(st.sampled_from([u for u in range(1, e + 1) if math.gcd(u, e) == 1]))
        rows = [[v.galois(u) for v in row] for row in rows]
    elif kind == "conjugate":
        rows[i][k] = rows[i][k].conjugate()
    elif kind == "half":
        rows[i][k] = rows[i][k] + Fraction(1, 2)
    elif kind == "root":
        n = data.draw(st.sampled_from((1, 2, 3, 4, 6, 8, 12)))
        rows[i][k] = Cyclotomic.zeta(n, data.draw(st.integers(0, n - 1)))
    elif kind == "duplicate":
        rows[j] = rows[i]
    elif kind == "swap":
        rows[i][k], rows[j][k] = rows[j][k], rows[i][k]
    elif kind == "drop":
        del rows[i]
    return kind, [Character(group, tuple(row)) for row in rows]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_random_changes_to_catalog_tables_match_the_pairings(catalog_tables, data):
    chars = data.draw(st.sampled_from(catalog_tables))
    kind, changed = _mutate(data, chars)
    group = chars[0].group
    verdict = _verdict(chartab._verify_table, group, changed)
    assert verdict == _verdict(oracle._verify_pairings, group, changed)
    if kind in ("none", "shuffle", "galois"):
        assert verdict == "accept"
        assert chartab._verify_table(group, changed) == \
            [oracle.frobenius_schur(c) for c in changed]
