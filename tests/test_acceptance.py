"""Acceptance criteria, one test and one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4 expects the order-1280 example group not to be
primitive: its abelianization is C5 and its Sylow 5-subgroup is cyclic,
which the primitivity criterion rejects.  No group of order 1280 with the
example's other expected properties could be primitive; the proof is in
the docstring of `torusquot.fixtures`.
"""

import time
from fractions import Fraction

from fibration_oracle import isotypic_projections
from helpers import inverse, rep_from_matrices

from torusquot.chartab import (
    character_table,
    exterior_square,
    frobenius_schur,
    inner_product,
    symmetric_square,
    trivial_character,
)
from torusquot.cyclo import Cyclotomic, zero, one
from torusquot.fixtures import FIXTURES, run_fixture
from torusquot.groups import Dense, Element, Monomial, close
from torusquot.torusq import (
    SymplecticClass,
    Verdict,
    analyze,
    classify_symplectic,
    conjugate_pair_rep,
    eigenvalue_one_all,
    h0_reflexive_1forms,
    h0_reflexive_2forms,
    homogeneous_decomplexification,
    invariant_form,
    natural_rep,
    smoothness_verdict,
)


def _emit(number: int, label: str, failures, budget: float, elapsed: float):
    """One line per criterion; raises afterwards if anything failed."""
    timing = f"{elapsed:.2f}s/{budget:.0f}s"
    if failures:
        print(f"criterion {number}: FAIL {label} [{timing}] "
              + "; ".join(failures))
    else:
        print(f"criterion {number}: PASS {label} [{timing}]")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _fixture_failures(result):
    return [f"{name}: expected {exp!r}, got {act!r}"
            for name, exp, act in result.mismatches]


def test_criterion_1_order24_real_example():
    start = time.perf_counter()
    result = run_fixture(FIXTURES["s4"])
    elapsed = time.perf_counter() - start
    _emit(1, "order-24 real-type example", _fixture_failures(result), 1.0, elapsed)


def test_criterion_2_untwisted_control(s4_group, s4_untwisted, s4_table):
    start = time.perf_counter()
    failures = []
    ok, witness = eigenvalue_one_all(s4_untwisted, s4_table)
    if ok:
        failures.append("untwisted control unexpectedly passes the eigenvalue test")
    orders = {s4_group.element_order(s4_group.conjugacy_classes[c][0])
              for c in witness}
    if 4 not in orders:
        failures.append(f"expected an order-4 witness class, got orders {orders}")
    elapsed = time.perf_counter() - start
    _emit(2, "untwisted degree-3 control fails with 4-cycle witness",
          failures, 1.0, elapsed)


def test_criterion_3_order216_complex_example():
    start = time.perf_counter()
    result = run_fixture(FIXTURES["g216"])
    elapsed = time.perf_counter() - start
    _emit(3, "order-216 complex-type example", _fixture_failures(result), 30.0, elapsed)


def test_criterion_4_order1280_quaternionic_example():
    start = time.perf_counter()
    result = run_fixture(FIXTURES["g1280"])
    elapsed = time.perf_counter() - start
    _emit(4, "order-1280 quaternionic-type example",
          _fixture_failures(result), 120.0, elapsed)


def _table_failures(name, group, table):
    failures = []
    if sum(chi.degree ** 2 for chi in table) != group.order:
        failures.append(f"{name}: degree squares do not sum to the order")
    # row orthogonality
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            expect = 1 if i == j else 0
            if inner_product(a, b) != expect:
                failures.append(f"{name}: row orthogonality fails at ({i},{j})")
    # column orthogonality against centralizer orders
    sizes = group.class_sizes
    for c in range(group.num_classes):
        for d in range(group.num_classes):
            total = sum((chi.values[c] * chi.values[d].conjugate()
                         for chi in table), zero())
            expect = (Cyclotomic.from_value(Fraction(group.order, sizes[c]))
                      if c == d else zero())
            if total != expect:
                failures.append(f"{name}: column orthogonality fails at ({c},{d})")
                break
    # squares split into symmetric and antisymmetric parts, class-wise
    for i, chi in enumerate(table):
        lhs = exterior_square(chi) + symmetric_square(chi)
        rhs = chi * chi
        if lhs.values != rhs.values:
            failures.append(f"{name}: wedge+sym does not equal the square at {i}")
        wedge_triv = inner_product(exterior_square(chi), trivial_character(group))
        indicator = 1 if frobenius_schur(chi) == -1 else 0
        if wedge_triv != indicator:
            failures.append(
                f"{name}: invariant 2-form count {wedge_triv} does not match "
                f"indicator rule at irreducible {i}")
    return failures


def test_criterion_5_character_properties(s4_group, s4_table, q8_group, q8_table,
                                          c6_group, c6_table, g216_group,
                                          g216_table, g1280_group, g1280_table,
                                          corpus, s4_natural):
    start = time.perf_counter()
    failures = []
    for name, group, table in (("s4", s4_group, s4_table),
                               ("q8", q8_group, q8_table),
                               ("c6", c6_group, c6_table),
                               ("g216", g216_group, g216_table),
                               ("g1280", g1280_group, g1280_table)):
        failures.extend(_table_failures(name, group, table))

    # projection algebra over the corpus
    for name, rep, table in corpus:
        pieces = isotypic_projections(rep, table)
        acc = [[zero()] * rep.degree for _ in range(rep.degree)]
        mats = [Dense(proj) for _, proj in pieces]
        for k, p in enumerate(mats):
            if p * p != p:
                failures.append(f"{name}: projection {k} not idempotent")
            for q in mats[k + 1:]:
                if any(not x.is_zero() for row in (p * q).rows for x in row):
                    failures.append(f"{name}: projections not orthogonal")
            for g in rep.generator_images():
                if g * p != p * g:
                    failures.append(f"{name}: projection does not commute")
        for _, proj in pieces:
            acc = [[acc[i][j] + proj[i][j] for j in range(rep.degree)]
                   for i in range(rep.degree)]
        if Dense(acc) != Element.identity(rep.degree):
            failures.append(f"{name}: projections do not sum to the identity")

    # h10/h20 are basis independent
    pair = conjugate_pair_rep(s4_natural)
    p = Dense([[one() if i == j else (one() if j == i + 1 else zero())
                for j in range(6)] for i in range(6)])
    pinv = inverse(p)
    moved = rep_from_matrices(pair.group, tuple(pinv * (m * p) for m in pair.matrices))
    if h0_reflexive_1forms(moved, s4_table) != h0_reflexive_1forms(pair, s4_table):
        failures.append("1-form count changed under a basis change")
    if h0_reflexive_2forms(moved, s4_table) != h0_reflexive_2forms(pair, s4_table):
        failures.append("2-form count changed under a basis change")

    # the symplectic trichotomy matches the 2-form count and the form search
    if len(corpus) < 30:
        failures.append(f"corpus has only {len(corpus)} entries")
    for name, rep, table in corpus:
        cls = classify_symplectic(rep, table)
        has_unique = cls is not SymplecticClass.NEITHER
        form = invariant_form(rep)
        rhs = (h0_reflexive_2forms(rep, table) == 1
               and form is not None and form.is_nondegenerate())
        if has_unique != rhs:
            failures.append(f"{name}: trichotomy and 2-form count disagree")

    elapsed = time.perf_counter() - start
    _emit(5, "exact character and projection properties", failures, 60.0, elapsed)


def test_criterion_6_verdict_soundness(corpus):
    start = time.perf_counter()
    failures = []
    for name, rep, table in corpus:
        if h0_reflexive_1forms(rep, table) == rep.degree:
            continue
        if not homogeneous_decomplexification(rep, table):
            continue
        verdict = smoothness_verdict(classify_symplectic(rep, table), True,
                                     rep.degree, False)
        if not verdict.singular_unless_torus:
            failures.append(f"{name}: homogeneous non-trivial action not flagged")
    group = close([Monomial((0, 1), (1, 1))])
    report = analyze(natural_rep(group), character_table(group))
    if report.verdict is not Verdict.TWO_TORUS:
        failures.append(f"trivial degree-2 action got {report.verdict}")
    elapsed = time.perf_counter() - start
    _emit(6, "verdict soundness over the corpus", failures, 10.0, elapsed)


def test_criterion_7_scope_note():
    # the geometric existence statements (free actions on explicit tori,
    # simple connectedness of the quotients, fibration geometry beyond the
    # linear model) are not reproducible by finite computation here; they
    # are covered indirectly by criteria 5 and 6, which pin down every
    # linear-algebra fact this package asserts about them.
    print("criterion 7: NOTE geometric statements beyond the linear model "
          "are out of computational scope; covered indirectly by criteria 5 and 6")
