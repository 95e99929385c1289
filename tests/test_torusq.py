"""Pipeline-level properties: forms, projections, fibrations, verdicts."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import embed_float
from fibration_oracle import isotypic_projections
from helpers import (
    group_elements,
    inverse,
    is_identity,
    one_dim_rep,
    regular_rep,
    rep_from_matrices,
)
from torusq_oracle import bareiss_det, has_eigenvalue_one, lattice_contains

from torusquot.chartab import character_table
from torusquot.cyclo import Cyclotomic, one, rref, zero
from torusquot.errors import InconsistentCharacterError, InvalidInputError, NotAHomomorphismError
from torusquot.groupfile import parse_group_text
from torusquot.groups import Dense, Element, Monomial, close
from torusquot.torusq import (
    AnalyticRep,
    LatticeSpec,
    QuotientReport,
    SymplecticClass,
    SymplecticForm,
    Verdict,
    analyze,
    assemble,
    classify_symplectic,
    conjugate_pair_rep,
    eigenvalue_one_all,
    h0_reflexive_1forms,
    h0_reflexive_2forms,
    homogeneous_decomplexification,
    invariant_form,
    is_primitive,
    lagrangian_fibration_data,
    natural_rep,
    preserves_form,
    preserves_lattice,
    smoothness_verdict,
)

I4 = Cyclotomic.zeta(4, 1)


def _to_complex(x: Cyclotomic) -> complex:
    return embed_float(x)


def _matrix_complex(m):
    rows = m.rows
    return np.array([[_to_complex(x) for x in row] for row in rows])


# -- reflexive form counts


def test_s4_pair_h10_h20(s4_natural, s4_table):
    pair = conjugate_pair_rep(s4_natural)
    assert h0_reflexive_1forms(pair, s4_table) == 0
    assert h0_reflexive_2forms(pair, s4_table) == 1


def test_untwisted_standard_has_no_invariant_2form(s4_untwisted, s4_table):
    assert h0_reflexive_1forms(s4_untwisted, s4_table) == 0
    assert h0_reflexive_2forms(s4_untwisted, s4_table) == 0


def test_trivial_rep_counts(s4_group, s4_table):
    triv = next(c for c in s4_table if all(v == 1 for v in c.values))
    rep = one_dim_rep(s4_group, triv)
    assert h0_reflexive_1forms(rep, s4_table) == 1
    assert h0_reflexive_2forms(rep, s4_table) == 0


def test_regular_rep_has_one_invariant_1form(q8_group, q8_table):
    assert h0_reflexive_1forms(regular_rep(q8_group), q8_table) == 1


def _random_unimodular(n, rng):
    # product of elementary row operations keeps the determinant at 1
    m = [[one() if i == j else zero() for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Cyclotomic.from_value(rng.choice((-2, -1, 1, 2)))
        m[i] = [m[i][k] + c * m[j][k] for k in range(n)]
    return Dense(m)


@settings(deadline=None, max_examples=8)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_h_counts_invariant_under_basis_change(s4_natural, s4_table, seed):
    import random
    rng = random.Random(seed)
    pair = conjugate_pair_rep(s4_natural)
    p = _random_unimodular(pair.degree, rng)
    pinv = inverse(p)
    conj = rep_from_matrices(pair.group, tuple(pinv * (m * p) for m in pair.matrices))
    assert h0_reflexive_1forms(conj, s4_table) == h0_reflexive_1forms(pair, s4_table)
    assert h0_reflexive_2forms(conj, s4_table) == h0_reflexive_2forms(pair, s4_table)


# -- the symplectic trichotomy over the corpus


def test_corpus_classify_iff_h20_and_form(corpus):
    assert len(corpus) >= 30
    for name, rep, table in corpus:
        cls = classify_symplectic(rep, table)
        h20 = h0_reflexive_2forms(rep, table)
        form = invariant_form(rep)
        has_unique = cls is not SymplecticClass.NEITHER
        rhs = h20 == 1 and form is not None and form.is_nondegenerate()
        assert has_unique == rhs, f"{name}: classify={cls} h20={h20} form={form}"


def test_corpus_invariant_form_is_actually_invariant(corpus):
    for name, rep, table in corpus:
        form = invariant_form(rep)
        if form is not None:
            assert preserves_form(rep, form), name


# -- isotypic projections


def test_corpus_projection_properties(corpus):
    for name, rep, table in corpus:
        pieces = isotypic_projections(rep, table)
        acc = [[zero()] * rep.degree for _ in range(rep.degree)]
        seen = []
        for chi, proj in pieces:
            p = Dense(proj)
            assert p * p == p, f"{name}: projection not idempotent"
            for q in seen:
                prod = p * q
                assert all(x.is_zero() for row in prod.rows for x in row), \
                    f"{name}: projections not orthogonal"
            seen.append(p)
            acc = [[acc[i][j] + proj[i][j] for j in range(rep.degree)]
                   for i in range(rep.degree)]
            for g in rep.generator_images():
                assert g * p == p * g, f"{name}: projection does not commute"
        assert Dense(acc) == Element.identity(rep.degree), f"{name}: projections do not sum to I"


def test_c2_regular_rep_projections():
    group = close([Monomial((1, 0), (1, 1))])
    rep = regular_rep(group)
    table = character_table(group)
    pieces = isotypic_projections(rep, table)
    assert len(pieces) == 2
    half = Fraction(1, 2)
    for chi, proj in pieces:
        numeric = [[x.as_rational() for x in row] for row in proj]
        assert sorted(abs(v) for row in numeric for v in row) == [half] * 4


def test_irreducible_projection_is_identity(q8_group, q8_table):
    rep = natural_rep(q8_group)
    pieces = isotypic_projections(rep, q8_table)
    assert len(pieces) == 1
    assert Dense(pieces[0][1]) == Element.identity(2)


# -- eigenvalue-1: exact test against a floating-point oracle


def _float_eig_one(m) -> bool:
    eigs = np.linalg.eigvals(_matrix_complex(m))
    return bool(np.min(np.abs(eigs - 1.0)) < 1e-8)


def test_eigenvalue_one_matches_float_oracle(s4_natural, s4_untwisted, s4_table):
    for rep in (s4_natural, s4_untwisted):
        ok, failures = eigenvalue_one_all(rep, s4_table)
        for c, cls in enumerate(rep.group.conjugacy_classes):
            m = rep.matrix(cls[0])
            assert has_eigenvalue_one(m) == _float_eig_one(m)
        assert ok == (not failures)


def test_untwisted_standard_fails_on_the_4cycle(s4_group, s4_untwisted, s4_table):
    ok, failures = eigenvalue_one_all(s4_untwisted, s4_table)
    assert not ok
    orders = {s4_group.element_order(s4_group.conjugacy_classes[c][0])
              for c in failures}
    assert 4 in orders


# -- forms, lattices


def test_wedge_form_shape():
    form = SymplecticForm.wedge_pairs(4, [(0, 2), (1, 3)])
    assert form.is_nondegenerate()
    assert form.evaluate((one(), zero(), zero(), zero()),
                         (zero(), zero(), one(), zero())) == 1
    assert form.evaluate((zero(), zero(), one(), zero()),
                         (one(), zero(), zero(), zero())) == -1


def test_form_requires_antisymmetry():
    with pytest.raises(InvalidInputError):
        SymplecticForm([[one(), zero()], [zero(), one()]])
    with pytest.raises(InvalidInputError):
        SymplecticForm([[zero(), one()], [zero(), zero()]])
    with pytest.raises(InvalidInputError):
        SymplecticForm.wedge_pairs(3, [(0, 3)])


def test_form_matrix_must_be_square():
    with pytest.raises(InvalidInputError) as exc:
        SymplecticForm([[zero(), one()]])
    assert str(exc.value) == "form matrix must be square"


def test_preserves_form_rejects_a_form_of_another_degree(s4_natural):
    with pytest.raises(InvalidInputError) as exc:
        preserves_form(s4_natural, SymplecticForm.wedge_pairs(2, [(0, 1)]))
    assert str(exc.value) == "form degree does not match the representation"


def test_form_scaling_is_still_preserved(s4_natural):
    pair = conjugate_pair_rep(s4_natural)
    base = SymplecticForm.wedge_pairs(6, [(0, 3), (1, 4), (2, 5)])
    scaled = SymplecticForm([[x + x for x in row] for row in base.matrix])
    assert preserves_form(pair, base)
    assert preserves_form(pair, scaled)


def test_wrong_pairing_is_not_preserved(s4_natural):
    pair = conjugate_pair_rep(s4_natural)
    wrong = SymplecticForm.wedge_pairs(6, [(0, 1), (2, 3), (4, 5)])
    assert not preserves_form(pair, wrong)


def test_zero_form_is_preserved_but_degenerate(s4_natural):
    pair = conjugate_pair_rep(s4_natural)
    z = SymplecticForm([[zero()] * 6 for _ in range(6)])
    assert preserves_form(pair, z)
    assert z.element.columns == ((),) * 6 and not z.is_nondegenerate()


@st.composite
def alternating_forms(draw):
    n = draw(st.integers(1, 6))
    entries = [zero(), zero(), zero(), one(), -one(), I4, one() + I4, Cyclotomic.zeta(3),
               Cyclotomic.from_value(Fraction(1, 2))]
    rows = [[zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(st.sampled_from(entries))
            rows[j][i] = -rows[i][j]
    return rows


@given(alternating_forms())
@settings(max_examples=80, deadline=None)
def test_nondegenerate_by_rank_agrees_with_determinant(rows):
    form = SymplecticForm(rows)
    assert form.is_nondegenerate() == (not bareiss_det(form.matrix).is_zero())


def _full_rank_by_rref(form):
    return len(rref(form.matrix)[1]) == form.degree


@st.composite
def wedge_forms(draw):
    """Wedges over consecutive pairs of a shuffled range(n), some dropped
    (zero rows), plus a few random pairs: a repeated one cancels, a
    crossing one puts two entries in a row."""
    n = draw(st.integers(1, 8))
    order = draw(st.permutations(range(n)))
    pairs = [(order[i], order[i + 1]) for i in range(0, n - 1, 2) if draw(st.booleans())]
    if n > 1:
        pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=2))
    return SymplecticForm.wedge_pairs(n, pairs)


@given(wedge_forms())
@settings(max_examples=150, deadline=None)
def test_nondegenerate_shortcuts_agree_with_rref(form):
    assert form.is_nondegenerate() == _full_rank_by_rref(form)


@pytest.mark.parametrize("degree, pairs, expected", [
    (6, [(0, 3), (1, 4), (2, 5)], True),      # monomial
    (6, [(0, 3), (1, 4)], False),             # zero rows 2 and 5
    (4, [(0, 1), (2, 3), (0, 1)], True),      # the repeat doubles a wedge: still monomial
    (4, [(0, 1), (2, 3), (1, 0)], False),     # (1, 0) cancels (0, 1): zero rows 0 and 1
    (4, [(0, 1), (2, 3), (0, 2)], True),      # Pfaffian 1, rows 0 and 2 not monomial
    (4, [(0, 1), (2, 3), (0, 2), (1, 3)], False),  # Pfaffian 1 - 1 = 0
])
def test_nondegenerate_on_wedge_forms(degree, pairs, expected):
    form = SymplecticForm.wedge_pairs(degree, pairs)
    assert form.is_nondegenerate() is expected
    assert _full_rank_by_rref(form) is expected


def test_lattice_membership_gaussian():
    lat = LatticeSpec(I4)
    assert lat.contains(one())
    assert lat.contains(I4)
    assert lat.contains(Cyclotomic.from_value(3) - I4 - I4)
    assert not lat.contains(Cyclotomic.from_value(Fraction(1, 2)))
    assert not lat.contains(Cyclotomic.zeta(3, 1))


def test_lattice_membership_eisenstein():
    w = Cyclotomic.zeta(3, 1)
    lat = LatticeSpec(w)
    assert lat.contains(w * w)  # -1 - w, still integral over the same lattice
    assert lat.contains(zero())
    assert not lat.contains(w * Cyclotomic.from_value(Fraction(1, 3)))


def test_lattice_membership_cyclotomic8():
    z8 = Cyclotomic.zeta(8, 1)
    lat = LatticeSpec(z8)
    assert not lat.contains(I4)  # not even in Q + Q*z8
    assert lat.contains(2 - 3 * z8)
    assert not lat.contains(z8 * Cyclotomic.from_value(Fraction(1, 2)))


@st.composite
def lattice_entries(draw):
    """A lattice z^k of order 3, 4, 5 or 6, and a + b*z^k with small
    rational a and b, plus sometimes a root of unity of order 1..12."""
    m = draw(st.sampled_from([3, 4, 5, 6]))
    k = draw(st.sampled_from([k for k in range(1, m) if math.gcd(k, m) == 1]))
    w = Cyclotomic.zeta(m, k)
    a, b = (Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 1, 2, 3])))
            for _ in range(2))
    x = a + b * w
    if draw(st.booleans()):
        x = x + draw(st.integers(-2, 2)) * Cyclotomic.zeta(draw(st.integers(1, 12)),
                                                           draw(st.integers(0, 11)))
    return LatticeSpec(w), x


@given(lattice_entries())
@settings(max_examples=200, deadline=None)
def test_lattice_membership_matches_row_reduction(case):
    lat, x = case
    assert lat.contains(x) == lattice_contains(lat, x)


def test_lattice_rejects_bad_generators():
    with pytest.raises(InvalidInputError):
        LatticeSpec(Cyclotomic.from_value(-1))
    with pytest.raises(InvalidInputError):
        LatticeSpec(Cyclotomic.from_value(2))


def test_integer_lattice():
    lat = LatticeSpec(1)
    assert lat.contains(Cyclotomic.from_value(-7))
    assert not lat.contains(Cyclotomic.from_value(Fraction(3, 2)))
    assert not lat.contains(I4)


def test_scaled_generator_breaks_lattice(s4_natural):
    half = Cyclotomic.from_value(Fraction(1, 2))
    scaled = rep_from_matrices(
        s4_natural.group,
        tuple(Dense([[x * half for x in row] for row in m.rows])
              for m in s4_natural.matrices))
    assert preserves_lattice(s4_natural, LatticeSpec(1))
    assert not preserves_lattice(scaled, LatticeSpec(1))


# -- assembling representations


def test_assemble_rejects_non_homomorphism(s4_group):
    # an order-3 image for the order-4 generator cannot extend
    w = Cyclotomic.zeta(3, 1)
    w2 = Cyclotomic.zeta(3, 2)
    with pytest.raises(NotAHomomorphismError):
        assemble(s4_group, [Monomial((0, 1), (w, w2)), Monomial((1, 0), (1, 1))])


def test_assemble_wrong_generator_count(s4_group):
    with pytest.raises(InvalidInputError):
        assemble(s4_group, [Monomial((1, 0), (1, 1))])


def test_assemble_rejects_images_of_two_degrees(s4_group):
    with pytest.raises(InvalidInputError) as exc:
        assemble(s4_group, [Monomial((1, 0), (1, 1)), Monomial((0,), (1,))])
    assert str(exc.value) == "generator images must share one degree"


@pytest.mark.parametrize("count", [4, 6], ids=["one-short", "one-over"])
def test_wrong_trace_count_fails_at_construction(s4_group, count):
    # s4 has 5 classes; nothing is built, the character is checked at once
    with pytest.raises(InconsistentCharacterError):
        AnalyticRep(s4_group, s4_group.element, (one(),) * count)


# -- Lagrangian fibrations


def test_g216_fibration_is_coordinate_blocks(g216_env):
    gf, group = g216_env
    table = character_table(group)
    pair = conjugate_pair_rep(natural_rep(group))
    form = SymplecticForm.wedge_pairs(16, [(i, i + 8) for i in range(8)])
    fib = lagrangian_fibration_data(pair, form, table)
    assert fib is not None
    v1, v2 = fib
    assert len(v1) == len(v2) == 8
    # the doubled representation is block diagonal, so the halves must be
    # the first and last eight coordinates
    def support(basis):
        return {j for vec in basis for j, x in enumerate(vec) if not x.is_zero()}
    assert support(v1) == set(range(8))
    assert support(v2) == set(range(8, 16))
    for basis in (v1, v2):
        for u in basis:
            for v in basis:
                assert form.evaluate(u, v).is_zero()


def test_trivial_degree2_fibration_is_coordinate_lines():
    group = close([Monomial((0, 1), (1, 1))])
    table = character_table(group)
    rep = natural_rep(group)
    form = SymplecticForm.wedge_pairs(2, [(0, 1)])
    fib = lagrangian_fibration_data(rep, form, table)
    assert fib is not None
    v1, v2 = fib
    assert len(v1) == len(v2) == 1


def test_fibration_requires_invariant_form(s4_natural, s4_table):
    pair = conjugate_pair_rep(s4_natural)
    wrong = SymplecticForm.wedge_pairs(6, [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(InvalidInputError):
        lagrangian_fibration_data(pair, wrong, s4_table)


def test_fibration_rejects_a_rep_that_is_not_uni_symplectic(s4_group, s4_table):
    # the natural rep plus the trivial one, doubled: its real matrices keep
    # the wedge form, and it has two constituents, each twice
    plus_trivial = assemble(s4_group, [Monomial((1, 0, 2, 3), (-1, 1, 1, 1)),
                                       Monomial((2, 0, 1, 3), (1, 1, 1, 1))])
    pair = conjugate_pair_rep(plus_trivial)
    form = SymplecticForm.wedge_pairs(8, [(0, 4), (1, 5), (2, 6), (3, 7)])
    assert preserves_form(pair, form)
    assert classify_symplectic(pair, s4_table) is SymplecticClass.NEITHER
    with pytest.raises(InvalidInputError) as exc:
        lagrangian_fibration_data(pair, form, s4_table)
    assert str(exc.value) == "Lagrangian extraction needs a conjugate-pair representation"


def test_real_pair_fibration_survives_scrambling(s4_natural, s4_table):
    # mix the two copies of a real-type pair by an invariant-free basis change,
    # transport the form, and ask for the splitting again
    import random
    rng = random.Random(11)
    pair = conjugate_pair_rep(s4_natural)
    form = SymplecticForm.wedge_pairs(6, [(0, 3), (1, 4), (2, 5)])
    p = _random_unimodular(6, rng)
    pinv = inverse(p)
    scrambled = rep_from_matrices(pair.group, tuple(pinv * (m * p) for m in pair.matrices))
    moved = SymplecticForm(
        (p.transpose() * form.element * p).rows)
    assert preserves_form(scrambled, moved)
    fib = lagrangian_fibration_data(scrambled, moved, s4_table)
    assert fib is not None
    v1, v2 = fib
    assert len(v1) == len(v2) == 3
    for basis in (v1, v2):
        for u in basis:
            for v in basis:
                assert moved.evaluate(u, v).is_zero()


def test_real_pair_fibration_by_monomial_commutant_split(s4_natural, s4_table):
    # the same pair rebuilt as a plain monomial representation
    pair = conjugate_pair_rep(s4_natural)
    rep = rep_from_matrices(pair.group, pair.matrices)
    assert all(m.is_monomial() for m in rep.matrices)
    assert str(classify_symplectic(rep, s4_table)) == "ConjugatePair(real)"
    form = SymplecticForm.wedge_pairs(6, [(0, 3), (1, 4), (2, 5)])
    fib = lagrangian_fibration_data(rep, form, s4_table)
    assert fib is not None
    v1, v2 = fib
    assert len(v1) == len(v2) == 3
    for basis in (v1, v2):
        for u in basis:
            for v in basis:
                assert form.evaluate(u, v).is_zero()


def test_quaternionic_natural_rep_has_no_fibration(q8_group, q8_table):
    rep = natural_rep(q8_group)
    form = invariant_form(rep)
    assert form is not None
    assert lagrangian_fibration_data(rep, form, q8_table) is None


# -- verdicts


def test_corpus_verdict_soundness(corpus):
    uni_symplectic_above_2 = 0
    for name, rep, table in corpus:
        homogeneous = homogeneous_decomplexification(rep, table)
        cls = classify_symplectic(rep, table)
        trivial = h0_reflexive_1forms(rep, table) == rep.degree
        verdict = smoothness_verdict(cls, homogeneous, rep.degree, trivial)
        if homogeneous and not trivial:
            assert verdict.singular_unless_torus, name
        # a uni-symplectic action of degree above 2 is flagged: neither the
        # torus nor the base can be smooth unless the torus is 2-dimensional
        if cls is not SymplecticClass.NEITHER and rep.degree > 2:
            assert verdict is Verdict.TORUS_ONLY, name
            uni_symplectic_above_2 += 1
    assert uni_symplectic_above_2 > 0


def test_trivial_degree2_reports_two_torus():
    group = close([Monomial((0, 1), (1, 1))])
    table = character_table(group)
    rep = natural_rep(group)
    report = analyze(rep, table)
    assert report.h10 == 2
    assert report.h20 == 1
    assert report.verdict is Verdict.TWO_TORUS
    assert str(report.symplectic_class) == "ConjugatePair(trivial)"


def test_inhomogeneous_sum_has_no_recorded_obstruction(s4_group, s4_table):
    triv = next(c for c in s4_table if all(v == 1 for v in c.values))
    sign = next(c for c in s4_table
                if c.degree == 1 and any(v != 1 for v in c.values))
    rep = rep_from_matrices(
        s4_group,
        tuple(one_dim_rep(s4_group, triv).matrix(i).block_sum(
              one_dim_rep(s4_group, sign).matrix(i))
              for i in range(s4_group.order)))
    assert not homogeneous_decomplexification(rep, s4_table)
    report = analyze(rep, s4_table)
    assert report.verdict is Verdict.NO_OBSTRUCTION_RECORDED


def test_three_constituents_are_not_homogeneous():
    # diag(1, ζ₃, ζ₃²) is the trivial character plus a conjugate pair
    group = close([Monomial((0, 1, 2), (1, Cyclotomic.zeta(3, 1), Cyclotomic.zeta(3, 2)))])
    table = character_table(group)
    rep = natural_rep(group)
    assert rep.decomposition(table) == (1, 1, 1)
    assert not homogeneous_decomplexification(rep, table)


# -- primitivity


def test_primitivity_small_cases(s4_group, q8_group, c6_group):
    assert is_primitive(s4_group)
    assert not is_primitive(c6_group)  # cyclic Sylow subgroups, abelian


def test_q8_primitivity_details(q8_group):
    # Sylow 2 of Q8 is Q8 itself, which is not cyclic, and no odd prime divides
    # the order, so the criterion cannot reject it
    assert is_primitive(q8_group)


def test_c2_is_not_primitive():
    group = close([Monomial((0,), (-1,))])
    assert not is_primitive(group)


def test_g1280_sylow5_has_normal_complement(g1280_group, g1280_table):
    # the Hiller-Sah obstruction checked directly, without is_primitive:
    # 5 divides |G/G'| (counted two ways) and the Sylow 5-subgroup is cyclic
    group = g1280_group
    assert group.abelianization_order() == 5
    assert sum(1 for chi in g1280_table if chi.degree == 1) == 5
    assert group.sylow_cyclic(5)
    # the block-preserving elements are the kernel of the action on the five
    # coordinate blocks: a normal subgroup of index 5, complementing Sylow 5
    block_fixing = {i for i, x in enumerate(group_elements(group))
                    if all(i // 4 == j // 4 for i, j, _ in x.entries())}
    assert len(block_fixing) == 256
    for g in group.generator_indices:
        ginv = group.inv(g)
        assert all(group.mult(group.mult(ginv, x), g) in block_fixing
                   for x in block_fixing)
    # trivial centre, as step 1 of the proof in fixtures.py derives
    center = [i for i in range(group.order)
              if all(group.mult(i, g) == group.mult(g, i)
                     for g in group.generator_indices)]
    assert center == [0] and is_identity(group.element(0))


# -- full reports


def test_analyze_rejects_foreign_table(s4_natural, q8_table):
    with pytest.raises(InvalidInputError):
        analyze(s4_natural, q8_table)


def test_report_json_text_consistency(s4_natural, s4_table):
    pair = conjugate_pair_rep(s4_natural)
    form = SymplecticForm.wedge_pairs(6, [(0, 3), (1, 4), (2, 5)])
    report = analyze(pair, s4_table, form=form, lattice=LatticeSpec(1))
    d = report.to_dict()
    text = report.to_text()
    assert str(d["h10"]) in text
    assert d["verdict"] in text
    assert d["form_preserved"] is True
    assert d["lattice_preserved"] is True
    import json
    json.dumps(d)  # must be serializable as-is


def test_report_keys_are_its_fields():
    # the trivial degree-2 pair: every field holds a value of its own kind
    e = Element.identity(2).rows
    report = QuotientReport(
        group_order=1, degree=2, faithful=True, h10=2, h20=1,
        symplectic_class=SymplecticClass.TRIVIAL_PAIR, homogeneous_decomplexification=True,
        eigenvalue_one_all=True, eigenvalue_one_failures=(), primitive=True,
        verdict=Verdict.TWO_TORUS, invariant_form=SymplecticForm.wedge_pairs(2, [(0, 1)]),
        form_provided=False, form_preserved=None, form_degenerate=None,
        lattice_provided=True, lattice_preserved=True, fibration=((e[0],), (e[1],)))
    d = report.to_dict()
    fields = list(QuotientReport._fields)
    at = fields.index("verdict") + 1
    assert list(d) == fields[:at] + ["singular_unless_torus"] + fields[at:]
    assert d["symplectic_class"] == "ConjugatePair(trivial)"
    assert d["verdict"] == "TWO_TORUS" and d["singular_unless_torus"] is False
    assert d["eigenvalue_one_failures"] == []
    assert d["invariant_form"] == [["0", "1"], ["-1", "0"]]
    assert d["fibration"] == [[["1", "0"]], [["0", "1"]]]
    assert d["form_preserved"] is None and d["lattice_preserved"] is True


def test_text_report_says_why_g1280_has_no_fibration(g1280_group, g1280_table):
    lines = analyze(natural_rep(g1280_group), g1280_table).to_text().splitlines()
    assert lines[-1] == "fibration              none (irreducible: no invariant subspace)"


def test_text_report_lists_the_classes_without_eigenvalue_1():
    # C3 acting on C^1 by ζ₃: only the identity class has the eigenvalue 1
    gf = parse_group_text("conductor 3\ndegree 1\ngenerator monomial\nmap 1\nscalars z^1\n")
    group = close(gf.elements())
    lines = analyze(natural_rep(group), character_table(group)).to_text().splitlines()
    assert lines[lines.index("eigenvalue-1 all       no") + 1] == "  failing classes      1, 2"
