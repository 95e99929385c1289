"""Character table computation and exact character arithmetic."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import embed_float
from helpers import is_real_valued, regular_character, scale, value_at_element

from torusquot import chartab
from torusquot.chartab import (
    Character,
    character_table,
    decompose,
    exterior_square,
    frobenius_schur,
    inner_product,
    natural_character,
    symmetric_square,
    trivial_character,
)
from torusquot.cyclo import Cyclotomic, one, zero
from torusquot.errors import InconsistentCharacterError, TableComputationError
from torusquot.groups import Dense, Element, Monomial, close
from torusquot.torusq import _eigenvalue_one_multiplicities, natural_rep


def perm_monomial(images):
    return Monomial(images, (one(),) * len(images))


# tables are deterministic, so share them across tests
S4 = close([perm_monomial((1, 0, 2, 3)), perm_monomial((1, 2, 3, 0))])
S4_TABLE = character_table(S4)

_i = Cyclotomic.zeta(4)
Q8 = close([Dense([[_i, zero()], [zero(), -_i]]),
            Dense([[zero(), -one()], [one(), zero()]])])
Q8_TABLE = character_table(Q8)

C6 = close([Monomial((0,), (Cyclotomic.zeta(6),))])
C6_TABLE = character_table(C6)

A5 = close([perm_monomial((1, 2, 3, 4, 0)), perm_monomial((1, 2, 0, 3, 4))])
A5_TABLE = character_table(A5)


class TestTableShape:
    def test_degrees(self):
        assert S4_TABLE.degrees == (1, 1, 2, 3, 3)
        assert Q8_TABLE.degrees == (1, 1, 1, 1, 2)
        assert C6_TABLE.degrees == (1,) * 6
        assert A5_TABLE.degrees == (1, 3, 3, 4, 5)

    def test_sum_of_squares(self):
        for g, t in ((S4, S4_TABLE), (Q8, Q8_TABLE), (C6, C6_TABLE), (A5, A5_TABLE)):
            assert sum(d * d for d in t.degrees) == g.order

    def test_orthonormal(self):
        for t in (S4_TABLE, Q8_TABLE, C6_TABLE):
            for i, a in enumerate(t):
                for j, b in enumerate(t):
                    assert inner_product(a, b) == (1 if i == j else 0)

    def test_column_orthogonality(self):
        g, t = S4, S4_TABLE
        for k in range(g.num_classes):
            for l in range(g.num_classes):
                total = sum(
                    (chi.values[k] * chi.values[g.inverse_class[l]] for chi in t),
                    zero())
                expected = Fraction(g.order, g.class_sizes[k]) if k == l else 0
                assert total == expected

    def test_trivial_character_present(self):
        assert S4_TABLE.index_of(trivial_character(S4)) is not None

    def test_deterministic(self):
        again = character_table(S4)
        assert [c.values for c in again] == [c.values for c in S4_TABLE]

    def test_trivial_group(self):
        g = close([Element.identity(1)])
        t = character_table(g)
        assert t.degrees == (1,)

    def test_conjugate_index(self):
        # C6 complex characters pair up; real ones are self-paired
        for i, chi in enumerate(C6_TABLE):
            j = C6_TABLE.conjugate_index(i)
            assert C6_TABLE[j].values == chi.conjugate().values
            assert (i == j) == is_real_valued(chi)

    def test_a5_golden_values(self):
        # degree-3 characters take (1 +- sqrt5)/2 on the 5-cycle classes
        z5 = Cyclotomic.zeta(5)
        golden = -(z5 ** 2) - z5 ** 3
        deg3 = [c for c in A5_TABLE if c.degree == 3]
        assert len(deg3) == 2
        vals = {v for c in deg3 for v in c.values}
        assert golden in vals and one() + z5 ** 2 + z5 ** 3 in vals


class TestIndicator:
    def test_s4_all_real(self):
        assert [frobenius_schur(c) for c in S4_TABLE] == [1] * 5

    def test_q8_quaternionic(self):
        assert [frobenius_schur(c) for c in Q8_TABLE] == [1, 1, 1, 1, -1]

    def test_c6_complex(self):
        assert sorted(frobenius_schur(c) for c in C6_TABLE) == [0, 0, 0, 0, 1, 1]

    def test_indicator_matches_real_valuedness_for_nonzero(self):
        for t in (S4_TABLE, Q8_TABLE, C6_TABLE, A5_TABLE):
            for chi in t:
                fs = frobenius_schur(chi)
                if fs:
                    assert is_real_valued(chi)
                else:
                    assert not is_real_valued(chi)


class TestSquares:
    def test_sum_identity(self):
        for chi in S4_TABLE:
            prod = chi * chi
            total = exterior_square(chi) + symmetric_square(chi)
            assert total.values == prod.values

    def test_exterior_square_of_q8_2dim(self):
        chi = Q8_TABLE[4]
        assert chi.degree == 2
        # determinant character of the 2-dim quaternionic rep is trivial
        assert exterior_square(chi).values == trivial_character(Q8).values

    def test_quaternionic_iff_invariant_antisymmetric_form(self):
        for t in (S4_TABLE, Q8_TABLE, A5_TABLE):
            for chi in t:
                wedge_inv = inner_product(exterior_square(chi), trivial_character(chi.group))
                assert wedge_inv == (1 if frobenius_schur(chi) == -1 else 0)


class TestDecompose:
    def test_natural_s4(self):
        nat = natural_character(S4)
        mult = decompose(nat, S4_TABLE)
        assert sum(m * c.degree for m, c in zip(mult, S4_TABLE)) == 4
        assert mult[S4_TABLE.index_of(trivial_character(S4))] == 1
        assert sum(mult) == 2

    def test_regular(self):
        for g, t in ((S4, S4_TABLE), (Q8, Q8_TABLE)):
            assert decompose(regular_character(g), t) == t.degrees

    def test_rejects_non_character(self):
        bad = Character(S4, tuple([Cyclotomic.from_value(Fraction(1, 3))] * 5))
        with pytest.raises(InconsistentCharacterError):
            decompose(bad, S4_TABLE)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=5, max_size=5))
    def test_round_trip(self, mult):
        chi = None
        for m, irr in zip(mult, S4_TABLE):
            if m:
                part = scale(irr, m)
                chi = part if chi is None else chi + part
        if chi is None:
            return
        assert decompose(chi, S4_TABLE) == tuple(mult)


class TestEigenvalueOneCounts:
    def test_s4_natural(self):
        counts = _eigenvalue_one_multiplicities(natural_rep(S4), S4_TABLE)
        # fixed-point counts of the permutation classes
        by_order_size = {
            (S4.class_orders[k], S4.class_sizes[k]): counts[k]
            for k in range(S4.num_classes)}
        assert by_order_size[(1, 1)] == 4    # identity
        assert by_order_size[(2, 6)] == 3    # transpositions
        assert by_order_size[(2, 3)] == 2    # double transpositions
        assert by_order_size[(3, 8)] == 2    # 3-cycles
        assert by_order_size[(4, 6)] == 1    # 4-cycles

    def test_matches_float_oracle(self):
        for g, t in ((S4, S4_TABLE), (Q8, Q8_TABLE)):
            counts = _eigenvalue_one_multiplicities(natural_rep(g), t)
            for k, rep in enumerate(g.class_representatives):
                m = np.array([[embed_float(x) for x in row]
                              for row in g.element(rep).rows])
                eigs = np.linalg.eigvals(m)
                assert counts[k] == int(np.sum(np.abs(eigs - 1.0) < 1e-8))


class TestCharacterOps:
    def test_inner_product_symmetric(self):
        a, b = S4_TABLE[2], S4_TABLE[3]
        assert inner_product(a, b) == inner_product(b, a)

    def test_value_at_element(self):
        chi = S4_TABLE[4]
        for i in range(S4.order):
            assert value_at_element(chi, i) == chi.values[S4.class_of(i)]

    def test_group_mismatch(self):
        with pytest.raises(InconsistentCharacterError):
            trivial_character(S4) + trivial_character(Q8)

    def test_wrong_length(self):
        with pytest.raises(InconsistentCharacterError):
            Character(S4, (one(),) * 3)


class TestRendering:
    def test_render_contains_all_values(self):
        text = S4_TABLE.render()
        assert "X0" in text and "X4" in text
        assert "size" in text and "order" in text

    def test_to_dict_shape(self):
        import json
        d = S4_TABLE.to_dict()
        assert d["group_order"] == 24
        assert d["num_classes"] == 5
        assert len(d["irreducibles"]) == 5
        assert d["irreducibles"][0]["degree"] == 1
        json.dumps(d)  # must be JSON-serializable


def _moved_eigenvalue(group, chars):
    """The last character's value at the first class of order divisible by
    3 shifted by zeta_3 - 1, as if one eigenvalue 1 had moved to zeta_3."""
    k = next(k for k, o in enumerate(group.class_orders) if o % 3 == 0)
    chi = chars[-1]
    values = list(chi.values)
    values[k] = values[k] - 1 + Cyclotomic.zeta(3)
    return chars[:-1] + [Character(group, tuple(values))]


def _swapped_values(group, chars):
    """Two characters' values exchanged at the first class where they differ."""
    i, j, k = next((i, j, k) for i in range(len(chars)) for j in range(i + 1, len(chars))
                   for k in range(1, group.num_classes)
                   if chars[i].values[k] != chars[j].values[k])
    a, b = list(chars[i].values), list(chars[j].values)
    a[k], b[k] = b[k], a[k]
    out = list(chars)
    out[i], out[j] = Character(group, tuple(a)), Character(group, tuple(b))
    return out


def _halved_values(group, chars):
    """A character of even degree with every value but its degree halved:
    rational values over the denominator 2, and a norm that is not 1."""
    i = next(i for i, c in enumerate(chars) if c.degree % 2 == 0)
    half = Cyclotomic.from_value(Fraction(1, 2))
    values = chars[i].values
    out = list(chars)
    out[i] = Character(group, (values[0],) + tuple(half * v for v in values[1:]))
    return out


def _missing_degree(group, chars):
    """One irreducible left out: still orthonormal, but the degrees' squares
    fall short of |G|."""
    return chars[:-1]


class TestTableCheck:
    """The exact check after the lift rejects tables that are not the table:
    the sum of squared degrees and every orthonormality relation."""

    @pytest.mark.parametrize("name", ["s4", "g216"])
    def test_accepts_the_table(self, name, request):
        table = S4_TABLE if name == "s4" else request.getfixturevalue("g216_table")
        chartab._verify_table(table.group, list(table))

    @pytest.mark.parametrize("perturb", [_moved_eigenvalue, _swapped_values, _missing_degree,
                                         _halved_values],
                             ids=["moved-eigenvalue", "swapped-values", "missing-degree",
                                  "halved-values"])
    @pytest.mark.parametrize("name", ["s4", "g216"])
    def test_rejects_a_perturbed_table(self, name, perturb, request):
        table = S4_TABLE if name == "s4" else request.getfixturevalue("g216_table")
        chars = perturb(table.group, list(table))
        with pytest.raises(TableComputationError):
            chartab._verify_table(table.group, chars)

    def test_rejects_broken_norms(self):
        # 4·triv, 2·sign, chi_2 and two zero functions: the degrees' squares
        # still sum to 24 and distinct functions stay orthogonal, so only the
        # norm relations (a|a) = 1 can reject it
        group = S4_TABLE.group
        sign, triv, chi2 = S4_TABLE[0], S4_TABLE[1], S4_TABLE[2]
        assert (sign.degree, triv.degree, chi2.degree) == (1, 1, 2)
        assert triv.values == trivial_character(group).values
        zero_fn = Character(group, (zero(),) * group.num_classes)
        chars = [scale(triv, 4), scale(sign, 2), chi2, zero_fn, zero_fn]
        assert sum(c.degree ** 2 for c in chars) == group.order
        assert all(inner_product(a, b) == 0
                   for i, a in enumerate(chars) for b in chars[i + 1:])
        with pytest.raises(TableComputationError):
            chartab._verify_table(group, chars)


# the fixtures and the groups the representation corpus is built on
_TABLED_GROUPS = ["s4", "q8", "c6", "g216", "g1280"]


class TestSecondDerivations:
    """Invariants of the table checked against a derivation that does not
    read it, or reads it at another prime."""

    @pytest.mark.parametrize("name", _TABLED_GROUPS)
    def test_linear_characters_count_the_abelianization(self, name, request):
        group = request.getfixturevalue(f"{name}_group")
        table = request.getfixturevalue(f"{name}_table")
        assert sum(1 for d in table.degrees if d == 1) == group.abelianization_order()

    @pytest.mark.parametrize("name", _TABLED_GROUPS)
    def test_next_admissible_prime_gives_the_same_table(self, name, request):
        group = request.getfixturevalue(f"{name}_group")
        table = request.getfixturevalue(f"{name}_table")
        primes = chartab._admissible_primes(group.exponent(), group.order)
        next(primes)
        chars = chartab._table_mod_p(group, next(primes))
        assert [c.values for c in chars] == [c.values for c in table]
        assert chars.eigenvalue_one == table.eigenvalue_one
