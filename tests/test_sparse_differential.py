"""Differential tests: the elimination and form checks that read only
nonzero entries, against the earlier bodies that read every entry.

- `cyclo.rref` against `cyclo_oracle.rref`: the same pivots and the same
  exact entries, over Q(zeta_m) and over the rationals, on sparse and
  dense matrices.
- `torusq.preserves_form` against `torusq_oracle.preserves_form_all_entries`
  on the conjugate pairs of random monomial groups and of their dense
  conjugates, under random, invariant and perturbed forms.
- `conjugate()` and `block_sum()`, which build their results unchecked,
  against the validating constructors.
- `entries()`, the nonzero-entry view that `torusq` reads, against the
  nonzero entries of the dense rows.
- `apply()`, `transpose()` and the product, whose columns with one entry
  take a shortcut, against the dense row helpers.
- `SymplecticForm.wedge_pairs`, which builds the form's columns from the
  pairs above the diagonal, against `SymplecticForm` of the dense rows, on
  pair lists with repeated, reversed and cancelling pairs.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclo_oracle as oracle
from helpers import (
    block_diag,
    conj_matrix,
    conjugated_elements,
    mat_mul,
    mat_vec,
    perm_and_scalars,
    wreath_generator_pairs,
)
from torusq_oracle import preserves_form_all_entries

from torusquot.chartab import character_table
from torusquot.cyclo import Cyclotomic, rref, zero
from torusquot.errors import InvalidInputError
from torusquot.groups import Dense, Monomial, close
from torusquot.torusq import (
    SymplecticForm,
    conjugate_pair_rep,
    h0_reflexive_2forms,
    invariant_form,
    natural_rep,
    preserves_form,
)

FIELDS = (1, 3, 4, 5, 8, 12, "Fraction")


# -- row reduction


@st.composite
def matrices(draw, rows=st.integers(0, 5), cols=st.integers(1, 6)):
    """A field, and a matrix over it whose entries are zero with a drawn
    chance out of 10: mostly zero, about half, or mostly nonzero."""
    field = draw(st.sampled_from(FIELDS))
    zero_tenths = draw(st.sampled_from((8, 5, 1)))
    nrows, ncols = draw(rows), draw(cols)

    def entry():
        if draw(st.integers(0, 9)) < zero_tenths:
            return Fraction(0) if field == "Fraction" else Cyclotomic.from_value(0)
        if field == "Fraction":
            return Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        terms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, field - 1)),
                              min_size=1, max_size=2))
        return sum((c * Cyclotomic.zeta(field, k) for c, k in terms), Cyclotomic.from_value(0))

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def assert_same_rref(a):
    red, pivots = rref(a)
    red0, pivots0 = oracle.rref(a)
    assert pivots == pivots0
    assert red == red0
    assert all(not isinstance(x, float) for row in red for x in row)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_dense_oracle(a):
    assert_same_rref(a)


@settings(max_examples=60, deadline=None)
@given(matrices(rows=st.integers(1, 3), cols=st.integers(5, 8)))
def test_rref_matches_dense_oracle_on_wide_matrices(a):
    assert_same_rref(a)


@settings(max_examples=60, deadline=None)
@given(matrices(rows=st.integers(5, 8), cols=st.integers(1, 3)))
def test_rref_matches_dense_oracle_on_tall_matrices(a):
    assert_same_rref(a)


def test_rref_edge_cases_match_dense_oracle():
    z, w = Cyclotomic.from_value(0), Cyclotomic.zeta(3)
    assert rref([]) == oracle.rref([]) == ((), ())
    assert_same_rref([[z] * 4 for _ in range(3)])
    assert_same_rref([[z, w, z], [z, z, z], [z, w + 1, z]])  # zero rows and columns
    # x + w*y = 1 and 2x + 2w*y = 3 have no solution: a pivot in the last column
    system = [[1, w, 1], [2, 2 * w, 3]]
    system = [[Cyclotomic.from_value(x) for x in row] for row in system]
    assert_same_rref(system)
    assert rref(system)[1] == (0, 2)


# -- form preservation


@st.composite
def pair_reps(draw):
    """The conjugate pair of a random subgroup of G(m,1,n), n <= 3, on its
    monomial generators or on their dense conjugates P^-1 x P."""
    m = draw(st.sampled_from((1, 2, 3, 4, 6)))
    n = draw(st.integers(1, 3))
    gens = [Monomial(draw(st.permutations(range(n))),
                     [Cyclotomic.zeta(m, k) for k in
                      draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))])
            for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        gens = conjugated_elements(gens)
    return conjugate_pair_rep(natural_rep(close(gens)))


_ENTRIES = (0, 0, 0, 1, -1, 2, Cyclotomic.zeta(3), Cyclotomic.zeta(4, 3))


@settings(max_examples=60, deadline=None)
@given(pair_reps(), st.data())
def test_preserves_form_matches_all_entries(rep, data):
    n = rep.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = data.draw(st.sampled_from(_ENTRIES))
            rows[j][i] = -rows[i][j]
    forms = [SymplecticForm(rows)]
    invariant = invariant_form(rep)
    if invariant is not None:
        forms.append(invariant)
        # a change only where the invariant form is 0: preserved iff the
        # added wedge is itself invariant, never when the invariant form
        # is unique up to scale
        holes = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if not invariant.matrix[i][j]]
        if holes:
            i, j = data.draw(st.sampled_from(holes))
            c = data.draw(st.sampled_from(_ENTRIES[3:]))
            moved = [list(row) for row in invariant.matrix]
            moved[i][j], moved[j][i] = c, -c
            perturbed = SymplecticForm(moved)
            forms.append(perturbed)
            if h0_reflexive_2forms(rep, character_table(rep.group)) == 1:
                assert not preserves_form(rep, perturbed)
    for form in forms:
        assert preserves_form(rep, form) == preserves_form_all_entries(rep, form)


def test_perturbed_invariant_form_is_not_preserved(g216_group, s4_group):
    # also s4's pair on dense generators, where the perturbed wedge's image
    # fills entries off the perturbed form's support (g216's dense average
    # is slow)
    s4_dense = close(conjugated_elements([s4_group.element(g)
                                          for g in s4_group.generator_indices]))
    for group in (g216_group, s4_dense):
        rep = conjugate_pair_rep(natural_rep(group))
        form = invariant_form(rep)
        assert preserves_form(rep, form)
        n = rep.degree
        holes = [(i, j) for i in range(n) for j in range(i + 1, n) if not form.matrix[i][j]]
        assert holes
        for i, j in holes[:6]:
            moved = [list(row) for row in form.matrix]
            moved[i][j], moved[j][i] = Cyclotomic.from_value(1), Cyclotomic.from_value(-1)
            perturbed = SymplecticForm(moved)
            assert not preserves_form(rep, perturbed)
            assert not preserves_form_all_entries(rep, perturbed)


def test_image_off_the_form_support_is_not_preserved():
    # M = [[1, 0, 1], [0, 1, 0], [0, 0, -1]] has order 2, and M^T (E_01 - E_10) M
    # keeps the entry 1 at (0, 1) but gains -1 at (1, 2), off the support
    group = close([Dense([[1, 0, 1], [0, 1, 0], [0, 0, -1]])])
    rep = natural_rep(group)
    form = SymplecticForm.wedge_pairs(3, [(0, 1)])
    assert not preserves_form(rep, form)
    assert not preserves_form_all_entries(rep, form)


# -- pair blocks


def assert_same_columns(built, checked):
    assert built.columns == checked.columns
    assert type(built.columns) is tuple and all(type(c) is tuple for c in built.columns)


@settings(max_examples=100, deadline=None)
@given(wreath_generator_pairs())
def test_monomial_pair_blocks_match_validated_constructor(pair):
    (x_perm, x_scalars), (y_perm, y_scalars) = map(perm_and_scalars, pair)
    d = pair[0].degree
    assert_same_columns(pair[0].conjugate(),
                        Monomial(x_perm, [s.conjugate() for s in x_scalars]))
    assert_same_columns(pair[0].block_sum(pair[1]),
                        Monomial(x_perm + tuple(p + d for p in y_perm), x_scalars + y_scalars))


@settings(max_examples=60, deadline=None)
@given(wreath_generator_pairs())
def test_dense_pair_blocks_match_validated_constructor(pair):
    x, y = conjugated_elements(pair)
    assert_same_columns(x.conjugate(), Dense(conj_matrix(x.rows)))
    assert_same_columns(x.block_sum(y), Dense(block_diag(x.rows, y.rows)))


@settings(max_examples=60, deadline=None)
@given(wreath_generator_pairs())
def test_entries_are_the_nonzero_dense_entries(pair):
    for m in (*pair, *conjugated_elements(pair)):
        nonzero = {(i, j, x) for i, row in enumerate(m.rows)
                   for j, x in enumerate(row) if x}
        entries = list(m.entries())
        assert set(entries) == nonzero and len(entries) == len(nonzero)
    for m in pair:  # a monomial element has one entry per column
        assert sorted(j for _, j, _ in m.entries()) == list(range(m.degree))


@settings(max_examples=60, deadline=None)
@given(wreath_generator_pairs(), st.data())
def test_apply_and_transpose_match_the_row_helpers(pair, data):
    entry = st.sampled_from(_ENTRIES).map(Cyclotomic.from_value)
    for m in (*pair, *conjugated_elements(pair)):
        n = m.degree
        v = tuple(data.draw(entry) for _ in range(n))
        for w in (v, (zero(),) * n, (1,) + (zero(),) * (n - 1)):
            w = tuple(map(Cyclotomic.from_value, w))
            assert m.apply(w) == mat_vec(m.rows, w)
        assert_same_columns(m.transpose(), Dense(tuple(zip(*m.rows))))


@settings(max_examples=60, deadline=None)
@given(wreath_generator_pairs())
def test_products_match_the_row_helpers(pair):
    # monomial times dense, dense times monomial and monomial times monomial
    # take the one-entry shortcut where the right factor's columns allow it
    x, y = pair
    dense_x, dense_y = conjugated_elements(pair)
    for a, b in ((x, dense_y), (dense_x, y), (x, y), (dense_x, dense_y)):
        assert_same_columns(a * b, Dense(mat_mul(a.rows, b.rows)))


@st.composite
def wedge_pair_lists(draw):
    """A degree and pairs over few coordinates, so that pairs repeat, come
    reversed and cancel."""
    degree = draw(st.integers(2, 6))
    coordinate = st.integers(0, degree - 1)
    pairs = draw(st.lists(st.tuples(coordinate, coordinate).filter(lambda p: p[0] != p[1]),
                          max_size=10))
    reversed_pairs = [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=4))] \
        if pairs else []
    return degree, draw(st.permutations(pairs + reversed_pairs))


@settings(max_examples=100, deadline=None)
@given(wedge_pair_lists())
def test_wedge_pairs_match_the_dense_form(case):
    degree, pairs = case
    rows = [[0] * degree for _ in range(degree)]
    for a, b in pairs:
        rows[a][b] += 1
        rows[b][a] -= 1
    form, dense = SymplecticForm.wedge_pairs(degree, pairs), SymplecticForm(rows)
    assert form.matrix == dense.matrix
    assert_same_columns(form.element, dense.element)
    assert form == dense


@pytest.mark.parametrize("pair", [(0, 0), (-1, 1), (1, 3), (3, 0)])
def test_wedge_pairs_refuse_a_bad_pair(pair):
    with pytest.raises(InvalidInputError, match="bad wedge pair"):
        SymplecticForm.wedge_pairs(3, [(0, 1), pair])
