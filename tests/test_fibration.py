"""Lagrangian halves of real and trivial pairs, spun from a joint eigenvector.

Every split is checked from its definition: each half is mapped into itself
by every generator, the invariant form vanishes on it, and the two halves
together span C^n.  The earlier commutant split (`fibration_oracle`) is the
reference: wherever it splits a pair, the spin must split it too.
"""

import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fibration_oracle import commutant_split
from helpers import conjugated, mat_rank, mat_vec, unimodular

from torusquot.chartab import character_table, frobenius_schur, inner_product
from torusquot.cyclo import Cyclotomic
from torusquot.errors import TorusQuotError
from torusquot.groupfile import parse_group
from torusquot.groups import Element, Monomial, close
from torusquot.torusq import (
    SymplecticClass,
    _block_halves,
    _spin_halves,
    classify_symplectic,
    conjugate_pair_rep,
    invariant_form,
    lagrangian_fibration_data,
    natural_rep,
)

PAIR_DENSE = Path(__file__).parent / "golden" / "pair_dense.group"


def check_halves(rep, halves):
    n = rep.degree
    form = invariant_form(rep)
    assert form is not None and form.is_nondegenerate()
    v1, v2 = halves
    for basis in (v1, v2):
        assert len(basis) == n // 2
        for g in rep.generator_images():
            images = [mat_vec(g.rows, v) for v in basis]
            assert mat_rank(tuple(basis) + tuple(images)) == n // 2, "half is not invariant"
        assert all(form.evaluate(u, v).is_zero() for u in basis for v in basis)
    assert mat_rank(tuple(v1) + tuple(v2)) == n, "halves are not complementary"


def check_against_oracle(rep, table):
    """The spin splits, its halves pass every check, and so does the
    oracle's split when it has one."""
    assert str(classify_symplectic(rep, table)) in ("ConjugatePair(real)",
                                                     "ConjugatePair(trivial)")
    halves = _spin_halves(rep)
    check_halves(rep, halves)
    assert lagrangian_fibration_data(rep, invariant_form(rep), table) == halves
    try:
        reference = commutant_split(rep, rep.degree // 2)
    except TorusQuotError:
        return halves, None
    check_halves(rep, reference)
    return halves, reference


def coordinate_blocks(n):
    ident = Element.identity(n).rows
    return ident[:n // 2], ident[n // 2:]


# -- random real pairs: irreducible signed-permutation groups, doubled and
#    conjugated by a random unimodular integer matrix


@st.composite
def real_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    gens = [Monomial(tuple(draw(st.permutations(range(n)))),
                     tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    group = close(gens)
    nat = natural_rep(group)
    chi = nat.character
    assume(inner_product(chi, chi) == 1)
    assert frobenius_schur(chi) == 1  # real entries: real type
    ops = draw(st.lists(st.tuples(st.integers(0, 2 * n - 1), st.integers(0, 2 * n - 1),
                                  st.sampled_from((-2, -1, 1, 2))),
                        min_size=2 * n, max_size=4 * n))
    pair = conjugated(conjugate_pair_rep(nat), unimodular(2 * n, ops))
    return pair, character_table(group)


@settings(max_examples=15, deadline=None)
@given(real_pairs())
def test_spin_splits_wherever_the_oracle_does(case):
    check_against_oracle(*case)


# -- explicit cases


def test_corpus_real_and_trivial_pairs(corpus):
    # s4's pairs, among them rho + conj(rho) for a real-type rho with entries
    # in Q(zeta_3), whose two blocks are different matrices, and the trivial
    # pairs of degree 2: block sums split into the coordinate blocks
    checked = 0
    for name, rep, table in corpus:
        if classify_symplectic(rep, table) in (SymplecticClass.REAL_PAIR,
                                               SymplecticClass.TRIVIAL_PAIR):
            halves, _ = check_against_oracle(rep, table)
            assert halves == coordinate_blocks(rep.degree), name
            checked += 1
    assert checked >= 5


def test_rational_pair_keeps_rational_halves(s4_untwisted, s4_table):
    # the first generator has eigenvalues -1, i and -i on V; cutting by the
    # rational eigenvalue first keeps the halves of a rational pair rational
    rng = random.Random(1)
    pair = conjugated(conjugate_pair_rep(s4_untwisted),
                      unimodular(6, [(rng.randrange(6), rng.randrange(6),
                                      rng.choice((-2, -1, 1, 2))) for _ in range(12)]))
    halves, _ = check_against_oracle(pair, s4_table)
    assert all(x.as_rational() is not None for basis in halves for v in basis for x in v)


def test_pair_dense_reproducer():
    # s4's pair conjugated by an integer matrix; the oracle finds no rational
    # eigenvalue that splits it, the spin does
    gf = parse_group(PAIR_DENSE)
    group = close(gf.elements())
    rep = natural_rep(group)
    table = character_table(group)
    assert str(classify_symplectic(rep, table)) == "ConjugatePair(real)"
    # one coordinate block: the fibration spins, and check_against_oracle
    # compares it with the spin
    assert _block_halves(rep, None) is None
    halves, reference = check_against_oracle(rep, table)
    assert reference is None
    assert all(x.as_rational() is not None for basis in halves for v in basis for x in v)


def extraspecial_32():
    """2^{1+4}_+ = D8 o D8 acting on C^2 (x) C^2: a real-type irreducible of
    degree 4 in which no element has a simple eigenvalue."""
    a_i = Monomial((0, 1, 2, 3), (1, 1, -1, -1))   # diag(1, -1) (x) I
    b_i = Monomial((2, 3, 0, 1), (1, 1, 1, 1))     # swap (x) I
    i_a = Monomial((0, 1, 2, 3), (1, -1, 1, -1))   # I (x) diag(1, -1)
    i_b = Monomial((1, 0, 3, 2), (1, 1, 1, 1))     # I (x) swap
    return close([a_i, b_i, i_a, i_b])


@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugated"])
def test_extraspecial_pair(conjugate):
    group = extraspecial_32()
    assert group.order == 32
    nat = natural_rep(group)
    chi = nat.character
    assert inner_product(chi, chi) == 1 and frobenius_schur(chi) == 1
    # traces 4, -4 or 0 and every square central: no eigenvalue is simple
    assert all(chi.values[k] in (Cyclotomic.from_value(v) for v in (4, -4, 0))
               for k in range(group.num_classes))
    pair = conjugate_pair_rep(nat)
    if conjugate:
        # with this P no basis vector of the first generator's eigenspace
        # lies in one copy of V, so the walk has to cut K further
        rng = random.Random(0)
        pair = conjugated(pair, unimodular(8, [(rng.randrange(8), rng.randrange(8),
                                                rng.choice((-2, -1, 1, 2)))
                                               for _ in range(16)]))
    halves, _ = check_against_oracle(pair, character_table(group))
    if not conjugate:
        assert halves == coordinate_blocks(8)

