"""Pipeline-level properties: forms, projections, fibrations, verdicts."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import embed_float
from helpers import one_dim_rep, regular_rep

from torusquot import linalg
from torusquot.chartab import character_table, natural_character, inner_product
from torusquot.cyclo import Cyclotomic, one, zero
from torusquot.errors import InvalidInputError, NotAHomomorphismError
from torusquot.groups import Dense, Monomial, close
from torusquot.torusq import (
    AnalyticRep,
    LatticeSpec,
    SymplecticForm,
    SymplecticKind,
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
    isotypic_projections,
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
    rows = m.to_dense().rows
    return np.array([[_to_complex(x) for x in row] for row in rows])


# -- reflexive form counts


def test_s4_pair_h10_h20(s4_natural, s4_table):
    pair = conjugate_pair_rep(s4_natural)
    assert h0_reflexive_1forms(pair) == 0
    assert h0_reflexive_2forms(pair) == 1


def test_untwisted_standard_has_no_invariant_2form(s4_untwisted):
    assert h0_reflexive_1forms(s4_untwisted) == 0
    assert h0_reflexive_2forms(s4_untwisted) == 0


def test_trivial_rep_counts(s4_group, s4_table):
    triv = next(c for c in s4_table if all(v == 1 for v in c.values))
    rep = one_dim_rep(s4_group, triv)
    assert h0_reflexive_1forms(rep) == 1
    assert h0_reflexive_2forms(rep) == 0


def test_regular_rep_has_one_invariant_1form(q8_group):
    assert h0_reflexive_1forms(regular_rep(q8_group)) == 1


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
def test_h_counts_invariant_under_basis_change(s4_natural, seed):
    import random
    rng = random.Random(seed)
    pair = conjugate_pair_rep(s4_natural)
    p = _random_unimodular(pair.degree, rng)
    pinv = p.inverse()
    conj = AnalyticRep(pair.group, tuple(pinv * (m * p) for m in pair.matrices))
    assert h0_reflexive_1forms(conj) == h0_reflexive_1forms(pair)
    assert h0_reflexive_2forms(conj) == h0_reflexive_2forms(pair)


# -- the symplectic trichotomy over the corpus


def test_corpus_classify_iff_h20_and_form(corpus):
    assert len(corpus) >= 30
    for name, rep, table in corpus:
        cls = classify_symplectic(rep, table)
        h20 = h0_reflexive_2forms(rep)
        form = invariant_form(rep)
        has_unique = cls.kind is not SymplecticKind.NOT_UNI_SYMPLECTIC
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
                gm = g.to_dense()
                assert gm * p == p * gm, f"{name}: projection does not commute"
        assert Dense(acc) == Dense.identity(rep.degree), f"{name}: projections do not sum to I"


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
    assert Dense(pieces[0][1]) == Dense.identity(2)


# -- eigenvalue-1: exact test against a floating-point oracle


def _float_eig_one(m) -> bool:
    eigs = np.linalg.eigvals(_matrix_complex(m))
    return bool(np.min(np.abs(eigs - 1.0)) < 1e-8)


def test_eigenvalue_one_matches_float_oracle(s4_natural, s4_untwisted):
    for rep in (s4_natural, s4_untwisted):
        ok, failures = eigenvalue_one_all(rep)
        for c, cls in enumerate(rep.group.conjugacy_classes):
            m = rep.matrix(cls[0])
            assert m.has_eigenvalue_one() == _float_eig_one(m)
        assert ok == (not failures)


def test_untwisted_standard_fails_on_the_4cycle(s4_group, s4_untwisted):
    ok, failures = eigenvalue_one_all(s4_untwisted)
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
        SymplecticForm.wedge_pairs(3, [(0, 3)])


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
    assert z.is_zero() and not z.is_nondegenerate()


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
    assert form.is_nondegenerate() == (not linalg.bareiss_det(form.matrix).is_zero())


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
    assert not lat.contains(I4)  # not even in Q + Q*z8: the system is inconsistent
    assert lat.contains(2 - 3 * z8)
    assert not lat.contains(z8 * Cyclotomic.from_value(Fraction(1, 2)))


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
    scaled = AnalyticRep(
        s4_natural.group,
        tuple(Dense([[x * half for x in row] for row in m.to_dense().rows])
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


def test_real_pair_fibration_survives_scrambling(s4_natural, s4_table):
    # mix the two copies of a real-type pair by an invariant-free basis change,
    # transport the form, and ask for the splitting again
    import random
    rng = random.Random(11)
    pair = conjugate_pair_rep(s4_natural)
    form = SymplecticForm.wedge_pairs(6, [(0, 3), (1, 4), (2, 5)])
    p = _random_unimodular(6, rng)
    pinv = p.inverse()
    scrambled = AnalyticRep(pair.group, tuple(pinv * (m * p) for m in pair.matrices))
    moved = SymplecticForm(
        (p.transpose() * Dense(form.matrix) * p).rows)
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
    rep = AnalyticRep(pair.group, pair.matrices)
    assert all(isinstance(m, Monomial) for m in rep.matrices)
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
        verdict = smoothness_verdict(cls, homogeneous, rep.degree, rep.is_trivial())
        if homogeneous and not rep.is_trivial():
            assert verdict.singular_unless_torus, name
        # a uni-symplectic action of degree above 2 is flagged: neither the
        # torus nor the base can be smooth unless the torus is 2-dimensional
        if cls.kind is not SymplecticKind.NOT_UNI_SYMPLECTIC and rep.degree > 2:
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
    rep = AnalyticRep(
        s4_group,
        tuple(one_dim_rep(s4_group, triv).matrix(i).block_sum(
              one_dim_rep(s4_group, sign).matrix(i))
              for i in range(s4_group.order)))
    assert not homogeneous_decomplexification(rep, s4_table)
    report = analyze(rep, s4_table)
    assert report.verdict is Verdict.NO_OBSTRUCTION_RECORDED


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
    block_fixing = {i for i, x in enumerate(group.elements)
                    if all(x.perm[j] // 4 == j // 4 for j in range(20))}
    assert len(block_fixing) == 256
    for g in group.generator_indices:
        ginv = group.inv(g)
        assert all(group.mult(group.mult(ginv, x), g) in block_fixing
                   for x in block_fixing)
    # trivial centre, as step 1 of the proof in fixtures.py derives
    center = [i for i in range(group.order)
              if all(group.mult(i, g) == group.mult(g, i)
                     for g in group.generator_indices)]
    assert center == [0] and group.element(0).is_identity()


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
