"""Halves of a conjugate pair read off the generators' coordinate blocks.

When the generators keep exactly two coordinate blocks, the fibration
takes the blocks as the halves.  The class-sum halves of a complex pair and
the spun halves of a real or trivial pair are the reference: on subgroups
of G(m,1,n) = mu_m wr S_n, as block sums, with their coordinates shuffled so
that no block is contiguous, and as dense block sums of integer
conjugates, the blocks must be the same bases in the same order.  The
pairs with one block, which still take the earlier path, are in
`test_analyze_differential` (a rotation) and `test_fibration` (pair_dense).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    complex_constituent,
    conjugated_elements,
    inverse,
    wreath_generator_pairs,
    wreath_generators,
)

from torusquot.chartab import character_table
from torusquot.cyclo import Cyclotomic
from torusquot.errors import GroupTooLargeError, TorusQuotError
from torusquot.groups import Monomial, close
from torusquot.torusq import (
    AnalyticRep,
    SymplecticClass,
    _block_halves,
    _complex_halves,
    _spin_halves,
    classify_symplectic,
    conjugate_pair_rep,
    invariant_form,
    lagrangian_fibration_data,
    natural_rep,
)


def shuffled(rep, rng):
    """Q⁻¹·ρ·Q for a random coordinate permutation Q, built on demand."""
    n = rep.degree
    order = list(range(n))
    rng.shuffle(order)
    q = Monomial(order, [1] * n)
    q_inv = inverse(q)
    return AnalyticRep(rep.group, lambda i: q_inv * rep.matrix(i) * q, rep.character.values)


def check_blocks(rep, table):
    """The block halves equal the earlier path's; the symplectic class, or
    None when the representation is no conjugate pair."""
    cls = classify_symplectic(rep, table)
    if not cls.is_pair:
        return None
    complex_pair = None
    if cls is SymplecticClass.COMPLEX_PAIR:
        complex_pair = complex_constituent(rep, table)
    halves = _block_halves(rep, complex_pair)
    assert halves is not None, "a block sum has two coordinate blocks"
    if complex_pair is not None:
        assert halves == _complex_halves(rep, *complex_pair)
    else:
        assert halves == _spin_halves(rep)
    form = invariant_form(rep)
    assert lagrangian_fibration_data(rep, form, table) == halves
    return cls


def check_pairs(gens, rng, limit):
    """Every kind of block sum of the group the generators make: as built,
    shuffled, and the dense conjugate's, with the dense one shuffled too."""
    types = set()
    for elements in (gens, conjugated_elements(gens)):
        try:
            group = close(elements, limit=limit)
        except GroupTooLargeError:
            continue
        table = character_table(group)
        pair = conjugate_pair_rep(natural_rep(group))
        for rep in (pair, shuffled(pair, rng)):
            types.add(check_blocks(rep, table))
    return types


@settings(max_examples=40, deadline=None)
@given(wreath_generator_pairs(), st.randoms(use_true_random=False))
def test_block_halves_match_the_earlier_path(gens, rng):
    check_pairs(gens, rng, 200)


@pytest.mark.parametrize("m, n, pair_type", [
    (1, 1, "trivial"), (2, 1, "real"), (2, 2, "real"), (2, 3, "real"), (3, 1, "complex"),
    (3, 2, "complex"), (4, 2, "complex"), (6, 2, "complex"), (3, 3, "complex"),
])
def test_block_halves_on_wreath_products(m, n, pair_type):
    assert check_pairs(wreath_generators(m, n), random.Random(m * 10 + n), 400) == \
        {SymplecticClass(f"ConjugatePair({pair_type})")}


def test_block_of_neither_constituent():
    # the pair psi + conj(psi) of C7, psi(g) = zeta_7, asked for the halves
    # of chi = psi^2: at every class but the identity, chi differs from
    # both psi and conj(psi), so neither block has chi's trace
    group = close([Monomial((0,), (Cyclotomic.zeta(7, 1),))])
    table = character_table(group)
    rep = conjugate_pair_rep(natural_rep(group))
    g = group.class_of(group.generator_indices[0])
    chi = next(chi for chi in table if chi.values[g] == Cyclotomic.zeta(7, 2))
    k = next(k for k, v in enumerate(chi.values) if v != v.conjugate())
    with pytest.raises(TorusQuotError):
        _block_halves(rep, (chi, k))
