"""`analyze` read from the generators against the earlier group-wide sums.

The invariant form is walked as line orbits under the generator images,
the halves of a complex pair are read off one class sum as column spaces,
faithfulness off the character, h1,0, h2,0 and the eigenvalue-1 test off
its decomposition, the character itself off the group's class traces (a
conjugate pair's as chi + conj(chi)), and element matrices are built only
when a stage reads them.  Each answer is checked against the body that summed over every
element or looked at every class representative's matrix
(`torusq_oracle`, `fibration_oracle`), the counts also against the
character sums they replace (`chartab_oracle`), and the halves against the
class sum's kernels, on random monomial subgroups of G(m,1,n) =
mu_m wr S_n, the corpus, the paper examples and integer conjugates of them.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartab_oracle
from fibration_oracle import isotypic_projections, kernel_halves
from helpers import (
    column_space_basis,
    complex_constituent,
    conjugated,
    conjugated_elements,
    direct_sum,
    one_dim_rep,
    perm_and_scalars,
    regular_rep,
    rep_from_matrices,
    unimodular,
    with_character,
    wreath_generator_pairs,
    wreath_generators,
)
from torusq_oracle import (
    basis_is_lagrangian_all_pairs,
    character_by_matrices,
    evaluate_all_entries,
    faithful_by_matrices,
    group_average_form,
)
from torusq_oracle import eigenvalue_one_all as eigenvalue_one_by_matrices

from torusquot import torusq
from torusquot.chartab import (
    character_table,
    decompose,
    exterior_square,
    inner_product,
    natural_character,
    trivial_character,
)
from torusquot.cyclo import Cyclotomic
from torusquot.fixtures import FIXTURES
from torusquot.groups import FiniteGroup, Monomial, close
from torusquot.torusq import (
    SymplecticForm,
    _block_halves,
    _complex_halves,
    analyze,
    assemble,
    classify_symplectic,
    conjugate_pair_rep,
    eigenvalue_one_all,
    h0_reflexive_1forms,
    h0_reflexive_2forms,
    invariant_form,
    lagrangian_fibration_data,
    natural_rep,
)


@st.composite
def monomial_groups(draw):
    """A subgroup of G(m,1,n) generated by one to three random elements."""
    m = draw(st.sampled_from((1, 2, 3, 4, 6)))
    n = draw(st.integers(min_value=1, max_value=4 if m <= 2 else 3))
    gens = [Monomial(tuple(draw(st.permutations(range(n)))),
                     tuple(Cyclotomic.zeta(m, e) for e in
                           draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    return close(gens)


def _natural_and_pair(group):
    nat = natural_rep(group)
    return nat, conjugate_pair_rep(nat)


def _oracle_halves(rep, table):
    return tuple(column_space_basis(proj) for _, proj in isotypic_projections(rep, table))


# -- the invariant form


@settings(max_examples=40, deadline=None)
@given(monomial_groups())
def test_orbit_form_matches_group_average(group):
    for rep in _natural_and_pair(group):
        assert invariant_form(rep) == group_average_form(rep)


def test_orbit_form_off_the_unit_circle():
    # scalars 2 and 1/2: the swap sends E_01 - E_10 to its negative, so the
    # average is 0 and there is no invariant form
    group = close([Monomial((1, 0), (2, Fraction(1, 2)))])
    for rep in _natural_and_pair(group):
        assert invariant_form(rep) == group_average_form(rep)
    assert invariant_form(natural_rep(group)) is None


@pytest.mark.parametrize("name", ["s4", "g216", "g1280"])
def test_orbit_form_on_the_paper_examples(name, request):
    group = request.getfixturevalue(f"{name}_group")
    for rep in _natural_and_pair(group):
        assert invariant_form(rep) == group_average_form(rep)


# -- the halves of a complex pair


def _check_complex(rep, table):
    assert str(classify_symplectic(rep, table)) == "ConjugatePair(complex)"
    mult = decompose(rep.character, table)
    halves = _complex_halves(rep, *complex_constituent(rep, table))
    assert halves == kernel_halves(rep, table, mult)
    assert halves == _oracle_halves(rep, table)


@settings(max_examples=25, deadline=None)
@given(monomial_groups(), st.randoms(use_true_random=False))
def test_class_sum_halves_match_isotypic_images(group, rng):
    table = character_table(group)
    pair = conjugate_pair_rep(natural_rep(group))
    if str(classify_symplectic(pair, table)) != "ConjugatePair(complex)":
        return
    _check_complex(pair, table)
    n = pair.degree
    p = unimodular(n, [(rng.randrange(n), rng.randrange(n), rng.choice((-2, -1, 1, 2)))
                       for _ in range(2 * n)])
    _check_complex(conjugated(pair, p), table)


@pytest.mark.parametrize("m, n", [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3), (6, 3)])
def test_column_space_halves_match_kernel_halves(m, n):
    """Column spaces of S_k − ω̄ and S_k − ω against the kernels of S_k − ω
    and S_k − ω̄, on the complex pair of G(m,1,n) and an integer conjugate."""
    group = close(wreath_generators(m, n))
    table = character_table(group)
    pair = conjugate_pair_rep(natural_rep(group))
    rng = random.Random(m * 10 + n)
    p = unimodular(2 * n, [(rng.randrange(2 * n), rng.randrange(2 * n), rng.choice((-1, 1, 2)))
                           for _ in range(4 * n)])
    for rep in (pair, conjugated(pair, p)):
        assert str(classify_symplectic(rep, table)) == "ConjugatePair(complex)"
        mult = decompose(rep.character, table)
        assert _complex_halves(rep, *complex_constituent(rep, table)) == \
            kernel_halves(rep, table, mult)


@pytest.mark.parametrize("m", [1, 3, 5, 8])
def test_column_space_halves_of_a_rotation(m):
    """The swap with scalars ζ_m and −ζ_m^-1 squares to −1, so the natural
    character of the C4 it generates is χ + χ̄ with χ(g) = i; unlike the
    block sums above, its class sums are not symmetric matrices.  Its one
    coordinate block leaves the fibration to the class sum."""
    z = Cyclotomic.zeta(m, 1)
    group = close([Monomial((1, 0), (z, -z.inverse()))])
    table = character_table(group)
    rep = natural_rep(group)
    assert str(classify_symplectic(rep, table)) == "ConjugatePair(complex)"
    mult = decompose(rep.character, table)
    halves = _complex_halves(rep, *complex_constituent(rep, table))
    assert halves == kernel_halves(rep, table, mult)
    assert _block_halves(rep, complex_constituent(rep, table)) is None
    assert lagrangian_fibration_data(rep, invariant_form(rep), table) == halves


def test_class_sum_halves_on_the_corpus(corpus):
    checked = 0
    for name, rep, table in corpus:
        if str(classify_symplectic(rep, table)) == "ConjugatePair(complex)":
            _check_complex(rep, table)
            checked += 1
    assert checked >= 4


def test_class_sum_halves_on_g216(g216_group, g216_table):
    _check_complex(conjugate_pair_rep(natural_rep(g216_group)), g216_table)


def test_class_sum_halves_on_dense_conjugates(c6_table, corpus):
    rng = random.Random(3)
    pairs = [rep for name, rep, table in corpus
             if name.startswith("c6-pair")
             and str(classify_symplectic(rep, table)) == "ConjugatePair(complex)"]
    for rep in pairs:
        n = rep.degree
        p = unimodular(n, [(rng.randrange(n), rng.randrange(n), rng.choice((-1, 1, 2)))
                           for _ in range(3 * n)])
        _check_complex(conjugated(rep, p), c6_table)


# -- faithfulness from the character


@settings(max_examples=30, deadline=None)
@given(monomial_groups())
def test_faithful_from_the_character(group):
    linear = [one_dim_rep(group, chi) for chi in character_table(group) if chi.degree == 1]
    for rep in _natural_and_pair(group) + tuple(linear):
        assert rep.faithful == faithful_by_matrices(rep)


def test_faithful_on_the_corpus(corpus):
    verdicts = set()
    for name, rep, table in corpus:
        assert rep.faithful == faithful_by_matrices(rep), name
        verdicts.add(rep.faithful)
    assert verdicts == {True, False}


def test_trivial_plus_sign_is_not_faithful(s4_group, s4_table):
    triv = one_dim_rep(s4_group, trivial_character(s4_group))
    sign = one_dim_rep(s4_group, next(c for c in s4_table
                                      if c.degree == 1 and c != trivial_character(s4_group)))
    rep = rep_from_matrices(s4_group,
                            [a.block_sum(b) for a, b in zip(triv.matrices, sign.matrices)])
    assert rep.faithful is faithful_by_matrices(rep) is False


# -- the character without matrices


def _check_characters(group):
    for rep in _natural_and_pair(group):
        assert rep.character.values == character_by_matrices(rep)


@settings(max_examples=30, deadline=None)
@given(wreath_generator_pairs())
def test_characters_match_the_traces_of_matrices(gens):
    _check_characters(close(gens))


@settings(max_examples=10, deadline=None)
@given(wreath_generator_pairs())
def test_characters_match_the_traces_of_matrices_on_dense_conjugates(gens):
    _check_characters(close(conjugated_elements(gens)))


@pytest.mark.parametrize("name", ["s4", "g216", "g1280"])
def test_characters_match_the_traces_of_matrices_on_the_paper_examples(name, request):
    _check_characters(request.getfixturevalue(f"{name}_group"))


def test_assembled_character_is_the_traces_of_its_matrices(corpus):
    for name, rep, table in corpus:
        assembled = assemble(rep.group, rep.generator_images())
        assert assembled.character.values == character_by_matrices(assembled), name
        assert assembled.character == rep.character, name


@pytest.mark.parametrize("name", ["s4", "g216", "g1280"])
def test_natural_character_is_the_class_traces_after_analyze(name, request):
    group = request.getfixturevalue(f"{name}_group")
    _analyze_fixture(name, group, request.getfixturevalue(f"{name}_table"))
    assert natural_character(group).values is group.class_traces
    assert natural_rep(group).character.values is group.class_traces


# -- eigenvalue 1 from the character


def _check_eigenvalue_one(group):
    table = character_table(group)
    for rep in _natural_and_pair(group):
        assert eigenvalue_one_all(rep, table) == eigenvalue_one_by_matrices(rep)


@settings(max_examples=40, deadline=None)
@given(wreath_generator_pairs())
def test_eigenvalue_one_from_the_character(gens):
    _check_eigenvalue_one(close(gens))


@settings(max_examples=15, deadline=None)
@given(wreath_generator_pairs())
def test_eigenvalue_one_on_dense_conjugates(gens):
    _check_eigenvalue_one(close(conjugated_elements(gens)))


@pytest.mark.parametrize("name", ["s4", "g216", "g1280"])
def test_eigenvalue_one_on_the_paper_examples(name, request):
    _check_eigenvalue_one(request.getfixturevalue(f"{name}_group"))


def test_eigenvalue_one_on_the_untwisted_s4(s4_untwisted, s4_table):
    for rep in (s4_untwisted, conjugate_pair_rep(s4_untwisted)):
        ok, failing = eigenvalue_one_all(rep, s4_table)
        assert (ok, failing) == eigenvalue_one_by_matrices(rep)
        assert not ok and failing


# -- element matrices built on demand


def _counting_builds(monkeypatch):
    built = []
    element = FiniteGroup.element

    def counting(self, i):
        built.append(i)
        return element(self, i)

    monkeypatch.setattr(FiniteGroup, "element", counting)
    return built


def _analyze_fixture(name, group, table):
    """`analyze` as the fixture runs it, with its wedge form if it has one."""
    fixture = FIXTURES[name]
    rep = natural_rep(group)
    if fixture.pair_analysis:
        rep = conjugate_pair_rep(rep)
    form = None
    if fixture.form_pairs is not None:
        form = SymplecticForm.wedge_pairs(rep.degree, fixture.form_pairs)
    return analyze(rep, table, form=form)


def test_g1280_natural_builds_generators_and_representatives(monkeypatch, g1280_group,
                                                             g1280_table):
    built = _counting_builds(monkeypatch)
    report = _analyze_fixture("g1280", g1280_group, g1280_table)
    assert report.invariant_form is not None and report.faithful
    bound = len(g1280_group.generator_indices) + g1280_group.num_classes
    assert len(built) == len(set(built)) <= bound


def test_g1280_with_its_form_and_lattice_builds_the_generators(
        monkeypatch, g1280_env, g1280_table):
    # the degree is read off the character; the form and lattice checks and
    # the monomial invariant form read the generators; the quaternionic
    # character asks for no fibration, so no other matrix is built
    gf, group = g1280_env
    built = _counting_builds(monkeypatch)
    report = analyze(natural_rep(group), g1280_table, form=gf.form, lattice=gf.lattice)
    assert report.form_preserved and report.lattice_preserved and report.fibration is None
    assert sorted(built) == sorted(set(group.generator_indices))


def test_reading_the_character_builds_no_matrix(monkeypatch, g216_group):
    built = _counting_builds(monkeypatch)
    nat = natural_rep(g216_group)
    pair = conjugate_pair_rep(nat)
    assert nat.character.values is g216_group.class_traces
    assert pair.character.degree == 2 * nat.character.degree
    assert pair.faithful and built == []


def test_a_rep_given_only_its_character_has_a_degree(g216_group):
    # with_character's build is None, so reading a matrix would raise
    rep = with_character(conjugate_pair_rep(natural_rep(g216_group)).character)
    assert rep.degree == 16
    assert repr(rep) == "AnalyticRep(order=216, degree=16)"


def test_g216_pair_builds_one_class_more(monkeypatch, g216_group, g216_table):
    chi = natural_rep(g216_group).character
    k = next(k for k, v in enumerate(chi.values) if v != v.conjugate())
    built = _counting_builds(monkeypatch)
    report = _analyze_fixture("g216", g216_group, g216_table)
    assert report.fibration is not None
    bound = (len(g216_group.generator_indices) + g216_group.num_classes
             + g216_group.class_sizes[k])
    assert len(built) == len(set(built)) <= bound < g216_group.order


# -- each stage of analyze runs once


def _counting_calls(monkeypatch, name):
    """Replace torusq.<name> by a wrapper that counts its calls."""
    calls = []
    real = getattr(torusq, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(torusq, name, counting)
    return calls


@pytest.mark.parametrize("with_form", [True, False], ids=["wedge-form", "invariant-form"])
def test_g216_pair_decomposes_and_checks_the_form_once(monkeypatch, g216_group, g216_table,
                                                        with_form):
    # the decomposition is kept on the representation, so each run gets its own
    pair = conjugate_pair_rep(natural_rep(g216_group))
    form = SymplecticForm.wedge_pairs(pair.degree, FIXTURES["g216"].form_pairs) \
        if with_form else None
    expected = analyze(conjugate_pair_rep(natural_rep(g216_group)), g216_table, form=form)
    decompositions = _counting_calls(monkeypatch, "decompose")
    form_checks = _counting_calls(monkeypatch, "preserves_form")
    report = analyze(pair, g216_table, form=form)
    assert str(report.symplectic_class) == "ConjugatePair(complex)"
    assert report.fibration is not None and report.to_dict() == expected.to_dict()
    assert len(decompositions) == 1 and len(form_checks) == 1


# -- h1,0, h2,0 and the eigenvalue-1 counts off the decomposition


def _check_counts(rep, table):
    """The counts read off the decomposition against the character sums:
    (χ|1), (Λ²χ|1) and the average of χ over each ⟨g⟩.  Returns h1,0 and
    h2,0."""
    chi, triv = rep.character, trivial_character(rep.group)
    h10, h20 = h0_reflexive_1forms(rep, table), h0_reflexive_2forms(rep, table)
    assert inner_product(chi, triv) == h10
    assert inner_product(exterior_square(chi), triv) == h20
    assert torusq._eigenvalue_one_multiplicities(rep, table) == \
        chartab_oracle.eigenvalue_one_counts(chi)
    return h10, h20


@settings(max_examples=25, deadline=None)
@given(wreath_generator_pairs())
def test_counts_off_the_decomposition_on_wreath_pairs(gens):
    group = close(gens)
    table = character_table(group)
    for rep in _natural_and_pair(group):
        _check_counts(rep, table)


@pytest.mark.parametrize("name", ["s4", "q8", "c6"])
def test_counts_off_the_decomposition_of_the_regular_rep(name, request):
    # each irreducible appears as often as its degree: s4's of degree 3
    # three times, q8's quaternionic one twice, c6's complex pairs once each
    _check_counts(regular_rep(request.getfixturevalue(f"{name}_group")),
                  request.getfixturevalue(f"{name}_table"))


def test_counts_off_a_complex_pair_and_a_repeated_real_constituent():
    # G(3,1,2): χ + χ̄ + 3·sign + 2·1 with χ its complex natural character.
    # h2,0 = 1 from the pair, 3 from the pairs of sign copies and 1 from the
    # two trivial copies; neither sum term shows on an irreducible
    group = close(wreath_generators(3, 2))
    table = character_table(group)
    triv = trivial_character(group)
    sign = next(c for i, c in enumerate(table)
                if c.degree == 1 and table.indicator(i) == 1 and c != triv)
    s, t = one_dim_rep(group, sign), one_dim_rep(group, triv)
    rep = direct_sum(conjugate_pair_rep(natural_rep(group)), s, s, s, t, t)
    assert _check_counts(rep, table) == (2, 5)


def test_counts_off_a_repeated_quaternionic_constituent(q8_group, q8_table):
    # two copies of q8's quaternionic natural character: 1 + 1 from Λ² of
    # each copy, 1 from the pair of copies
    nat = natural_rep(q8_group)
    assert _check_counts(direct_sum(nat, nat), q8_table) == (0, 3)


# -- h2,0 a second way: orbits of signed coordinate lines


def _line_orbit_count(rep):
    """Invariant 2-vectors of a monomial representation, counted on the basis
    e_i ^ e_j: g sends it to s_i s_j e_p(i) ^ e_p(j).  An orbit of lines
    carries an invariant exactly when no line is reached with two scalars."""
    gens = [perm_and_scalars(g) for g in rep.generator_images()]
    n = rep.degree
    unseen = {(i, j) for i in range(n) for j in range(i + 1, n)}
    count = 0
    while unseen:
        start = min(unseen)
        scalar = {start: Cyclotomic.from_value(1)}
        frontier = [start]
        clean = True
        while frontier:
            line = frontier.pop()
            for perm, scalars in gens:
                i, j = line
                c = scalar[line] * scalars[i] * scalars[j]
                p, q = perm[i], perm[j]
                if p > q:
                    p, q, c = q, p, -c
                if (p, q) not in scalar:
                    scalar[p, q] = c
                    frontier.append((p, q))
                elif scalar[p, q] != c:
                    clean = False
        unseen -= set(scalar)
        count += clean
    return count


def test_h20_counts_clean_line_orbits_on_the_corpus(corpus):
    for name, rep, table in corpus:
        assert all(g.is_monomial() for g in rep.generator_images()), name
        assert h0_reflexive_2forms(rep, table) == _line_orbit_count(rep), name


@pytest.mark.parametrize("name", ["s4", "g216", "g1280"])
def test_h20_counts_clean_line_orbits_on_the_paper_examples(name, request):
    group = request.getfixturevalue(f"{name}_group")
    table = request.getfixturevalue(f"{name}_table")
    for rep in _natural_and_pair(group):
        assert h0_reflexive_2forms(rep, table) == _line_orbit_count(rep)


# -- the Lagrangian check


_ENTRIES = (0, 0, 0, 1, -1, 2, Cyclotomic.zeta(3), Cyclotomic.zeta(4, 3))


@st.composite
def forms_and_bases(draw):
    """An antisymmetric form and up to four vectors in dimension 2h: either
    anything, or vectors of the first half under a form that pairs the
    halves, which is Lagrangian."""
    h = draw(st.integers(1, 3))
    n = 2 * h
    entry = st.sampled_from(_ENTRIES)
    k = draw(st.integers(0, 4))
    if draw(st.booleans()):
        form = SymplecticForm.wedge_pairs(n, [(i, i + h) for i in range(h)])
        return form, [tuple(draw(entry) for _ in range(h)) + (0,) * h for _ in range(k)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    return SymplecticForm(rows), [tuple(draw(entry) for _ in range(n)) for _ in range(k)]


@settings(max_examples=60, deadline=None)
@given(forms_and_bases())
def test_lagrangian_check_matches_all_pairs(case):
    form, basis = case
    basis = [tuple(Cyclotomic.from_value(x) for x in v) for v in basis]
    # the check of lagrangian_fibration_data: the pairs u before v
    pairs_before = not any(form.evaluate(u, v) for a, u in enumerate(basis)
                           for v in basis[a + 1:])
    assert pairs_before == basis_is_lagrangian_all_pairs(basis, form)
    for u in basis:
        for v in basis:
            assert form.evaluate(u, v) == evaluate_all_entries(form, u, v)
