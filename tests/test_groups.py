"""Group closure, index arithmetic, and conjugacy structure.

The S4 reference values (class sizes, order histogram, abelianization) were
frozen from a brute-force oracle over permutations of 4 points, independent of
this package's element types.  ``matrix_bfs`` is the closure by products of
Monomial or Dense matrices that preceded the point-set encoding; it is kept
here as the oracle for random subgroups of G(m,1,n).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import embed_float
from helpers import order_histogram

from torusquot.chartab import character_table
from torusquot.cyclo import Cyclotomic, one, zero
from torusquot.errors import GroupTooLargeError, InvalidInputError
from torusquot.groups import Dense, Monomial, close
from torusquot.linalg import mat_inverse, mat_mul


def perm_monomial(images):
    return Monomial(images, (one(),) * len(images))


def s4_group():
    # natural permutation representation, generators (12) and (1234)
    return close([perm_monomial((1, 0, 2, 3)), perm_monomial((1, 2, 3, 0))])


def q8_group():
    i = Cyclotomic.zeta(4)
    gen_i = Dense([[i, zero()], [zero(), -i]])
    gen_j = Dense([[zero(), -one()], [one(), zero()]])
    return close([gen_i, gen_j])


def c6_group():
    return close([Monomial((0,), (Cyclotomic.zeta(6),))])


class TestClosure:
    def test_s4_order(self):
        assert s4_group().order == 24

    def test_q8_order(self):
        assert q8_group().order == 8

    def test_trivial_group(self):
        g = close([Monomial.identity(2)])
        assert g.order == 1
        assert g.conjugacy_classes == ((0,),)
        g = close([Monomial((), ()), Monomial((), ())])
        assert g.order == 1 and g.generator_indices == (0, 0)

    def test_a5(self):
        g = close([perm_monomial((1, 2, 3, 4, 0)), perm_monomial((1, 2, 0, 3, 4))])
        assert g.order == 60
        assert g.num_classes == 5
        assert g.abelianization_order() == 1

    def test_identity_first(self):
        g = s4_group()
        assert g.element(0).is_identity()

    def test_limit(self):
        with pytest.raises(GroupTooLargeError) as exc:
            close([perm_monomial((1, 0, 2, 3)), perm_monomial((1, 2, 3, 0))], limit=10)
        assert exc.value.limit == 10

    def test_empty_generators(self):
        with pytest.raises(InvalidInputError):
            close([])

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            close([Monomial.identity(2), Monomial.identity(3)])

    def test_singular_dense_generator(self):
        with pytest.raises(InvalidInputError):
            close([Dense([[one(), zero()], [zero(), zero()]])])

    def test_mixed_kinds_promote_to_dense(self):
        i = Cyclotomic.zeta(4)
        g = close([Monomial((0,), (-one(),)), Dense([[i]])])
        assert g.order == 4
        assert all(isinstance(x, Dense) for x in g.elements)

    def test_deterministic(self):
        g1, g2 = s4_group(), s4_group()
        assert g1.elements == g2.elements
        assert g1.conjugacy_classes == g2.conjugacy_classes


class TestIndexArithmetic:
    def test_cayley_consistency(self):
        g = s4_group()
        rng = random.Random(7)
        for _ in range(100):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            assert g.element(g.mult(i, j)) == g.element(i) * g.element(j)

    def test_inverse_table(self):
        g = q8_group()
        for i in range(g.order):
            assert g.mult(i, g.inv(i)) == 0
            assert g.element(g.inv(i)) == g.element(i).inverse()

    def test_power(self):
        g = s4_group()
        for i in range(0, g.order, 5):
            x = 0
            for k in range(5):
                assert g.power(i, k) == x
                x = g.mult(x, i)

    def test_element_order(self):
        g = s4_group()
        for i in range(g.order):
            o = g.element_order(i)
            assert g.power(i, o) == 0
            assert all(g.power(i, k) != 0 for k in range(1, o))


class TestConjugacy:
    def test_s4_class_sizes(self):
        g = s4_group()
        assert sorted(g.class_sizes) == [1, 3, 6, 6, 8]
        assert sum(g.class_sizes) == 24

    def test_q8_class_sizes(self):
        g = q8_group()
        assert sorted(g.class_sizes) == [1, 1, 2, 2, 2]

    def test_classes_partition(self):
        g = s4_group()
        all_members = sorted(i for c in g.conjugacy_classes for i in c)
        assert all_members == list(range(g.order))
        for cid, cls in enumerate(g.conjugacy_classes):
            assert cls[0] == min(cls)
            for i in cls:
                assert g.class_of(i) == cid

    def test_classes_closed_under_conjugation(self):
        g = q8_group()
        for i in range(g.order):
            for j in range(g.order):
                conj = g.mult(g.mult(g.inv(j), i), j)
                assert g.class_of(conj) == g.class_of(i)

    def test_inverse_class(self):
        g = s4_group()
        for cid, rep in enumerate(g.class_representatives):
            assert g.inverse_class[cid] == g.class_of(g.inv(rep))

    def test_power_classes_identity(self):
        g = s4_group()
        assert g.power_classes(1) == tuple(range(g.num_classes))

    def test_power_classes_exponent(self):
        g = s4_group()
        e = g.exponent()
        assert g.power_classes(e) == (g.class_of(0),) * g.num_classes

    def test_s4_four_cycles_square_to_double_transpositions(self):
        g = s4_group()
        sq = g.power_classes(2)
        four_cycle = next(c for c in range(g.num_classes) if g.class_orders[c] == 4)
        target = sq[four_cycle]
        assert g.class_orders[target] == 2
        assert g.class_sizes[target] == 3


class TestInvariants:
    def test_s4_order_histogram(self):
        assert order_histogram(s4_group()) == {1: 1, 2: 9, 3: 8, 4: 6}

    def test_c6_order_histogram(self):
        assert order_histogram(c6_group()) == {1: 1, 2: 1, 3: 2, 6: 2}

    def test_q8_order_histogram(self):
        assert order_histogram(q8_group()) == {1: 1, 2: 1, 4: 6}

    def test_lagrange(self):
        for g in (s4_group(), q8_group(), c6_group()):
            assert all(g.order % o == 0 for o in g.class_orders)

    def test_exponent(self):
        assert s4_group().exponent() == 12
        assert q8_group().exponent() == 4
        assert c6_group().exponent() == 6

    def test_sylow_cyclic(self):
        s4 = s4_group()
        assert s4.sylow_cyclic(3) is True
        assert s4.sylow_cyclic(2) is False
        c6 = c6_group()
        assert c6.sylow_cyclic(2) is True
        assert c6.sylow_cyclic(3) is True
        assert q8_group().sylow_cyclic(2) is False

    def test_sylow_invalid_prime(self):
        with pytest.raises(InvalidInputError):
            s4_group().sylow_cyclic(5)
        with pytest.raises(InvalidInputError):
            s4_group().sylow_cyclic(4)

    def test_abelianization(self):
        assert s4_group().abelianization_order() == 2
        assert q8_group().abelianization_order() == 4
        assert c6_group().abelianization_order() == 6


scalar_strategy = st.sampled_from(
    [Cyclotomic.from_value(1), Cyclotomic.from_value(-1),
     Cyclotomic.zeta(4), Cyclotomic.zeta(3), Cyclotomic.zeta(3) ** 2,
     Cyclotomic.from_value(2)])


@st.composite
def monomials(draw, degree=4):
    perm = draw(st.permutations(range(degree)))
    scalars = draw(st.lists(scalar_strategy, min_size=degree, max_size=degree))
    return Monomial(perm, scalars)


class TestMonomialAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(monomials(), monomials())
    def test_product_matches_dense(self, a, b):
        assert (a * b).to_dense() == a.to_dense() * b.to_dense()

    @settings(max_examples=30, deadline=None)
    @given(monomials())
    def test_inverse(self, a):
        assert (a * a.inverse()).is_identity()
        assert a.inverse().to_dense() == a.to_dense().inverse()

    @settings(max_examples=30, deadline=None)
    @given(monomials())
    def test_transpose_trace_det(self, a):
        assert a.transpose().to_dense() == a.to_dense().transpose()
        assert a.trace() == a.to_dense().trace()
        assert a.det() == a.to_dense().det()
        assert a.conjugate().to_dense() == a.to_dense().conjugate()

    @settings(max_examples=40, deadline=None)
    @given(monomials())
    def test_eigenvalue_one_matches_dense_and_float(self, a):
        exact = a.has_eigenvalue_one()
        assert exact == a.to_dense().has_eigenvalue_one()
        eigs = np.linalg.eigvals(
            np.array([[embed_float(x) for x in row] for row in a.to_dense().rows]))
        assert exact == bool(np.min(np.abs(eigs - 1.0)) < 1e-8)

    def test_block_sum(self):
        a = Monomial((1, 0), (Cyclotomic.zeta(4), one()))
        b = Monomial((0,), (-one(),))
        s = a.block_sum(b)
        assert s.degree == 3
        assert s.to_dense().rows == a.to_dense().block_sum(b).rows

    def test_zero_scalar_rejected(self):
        with pytest.raises(InvalidInputError):
            Monomial((0, 1), (one(), zero()))

    def test_bad_permutation_rejected(self):
        with pytest.raises(InvalidInputError):
            Monomial((0, 0), (one(), one()))


class TestPointSet:
    def test_scalars_off_the_unit_circle(self):
        g = close([Monomial((1, 0), (2, Fraction(1, 2)))])
        assert g.order == 2
        assert g.elements == (Monomial.identity(2), Monomial((1, 0), (2, Fraction(1, 2))))
        assert set(g._points) == {(0, one()), (1, one()), (1, Cyclotomic.from_value(2)),
                                 (0, Cyclotomic.from_value(Fraction(1, 2)))}

    @pytest.mark.parametrize("kind, generator", [
        (Monomial, Monomial((0,), (2,))),
        (Dense, Dense([[1, 1], [0, 1]])),
    ], ids=["scalar-2", "shear"])
    def test_infinite_group_stops_at_the_point_bound(self, monkeypatch, kind, generator):
        acted_on = set()
        act = kind.act

        def recording_act(self, point):
            acted_on.add(point)
            return act(self, point)

        monkeypatch.setattr(kind, "act", recording_act)
        with pytest.raises(GroupTooLargeError) as exc:
            close([generator], limit=50)
        assert exc.value.limit == 50
        assert len(acted_on) <= 50 * generator.degree

    def test_point_set_within_orbit_bound(self):
        for g in (s4_group(), q8_group(), c6_group()):
            assert g.degree <= len(g._points) <= g.order * g.degree

    def test_elements_stored_by_base_images(self):
        # G(2,1,3) conjugated so that every basis vector has a regular orbit:
        # 3 * 48 points, while each element keeps only its 3 base images
        gens = [Monomial((1, 2, 0), (1, 1, 1)), Monomial((1, 0, 2), (1, 1, 1)),
                Monomial((0, 1, 2), (-1, 1, 1))]
        mono, conj = close(gens), close(conjugated(gens))
        assert conj.order == mono.order == 48
        assert len(conj._points) == 3 * 48
        assert all(len(key) == 3 for key in conj._index)
        assert conj.elements == tuple(conjugated(mono.elements))


def conjugated(elements):
    """P⁻¹·x·P for P with entries (i+1)^(j+1): the columns of P have
    coordinates of distinct sizes, so their orbits under G(m,1,n) are regular."""
    n = elements[0].degree
    p = Dense([[(i + 1) ** (j + 1) for j in range(n)] for i in range(n)]).rows
    p_inv = mat_inverse(p)
    return [Dense(mat_mul(mat_mul(p_inv, x.to_dense().rows), p)) for x in elements]


def matrix_bfs(gens, limit):
    """Elements, their index and BFS words by products of matrices."""
    if any(isinstance(g, Dense) for g in gens):
        gens = [g.to_dense() for g in gens]
        identity = Dense.identity(gens[0].degree)
    else:
        identity = Monomial.identity(gens[0].degree)
    elements, index, words = [identity], {identity: 0}, [()]
    for x, word in zip(elements, words):  # both lists grow while the loop runs
        for a, g in enumerate(gens):
            y = x * g
            if y not in index:
                if len(elements) >= limit:
                    raise GroupTooLargeError(limit)
                index[y] = len(elements)
                elements.append(y)
                words.append(word + (a,))
    return elements, index, words


def oracle_classes(elements, index, gens):
    """Orbits under conjugation by the generators, by matrix products."""
    class_of = [-1] * len(elements)
    classes = []
    pairs = [(g.inverse(), g) for g in gens]
    for start in range(len(elements)):
        if class_of[start] >= 0:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = elements[frontier.pop()]
            for ginv, g in pairs:
                y = index[ginv * x * g]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for y in orbit:
            class_of[y] = len(classes)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes), class_of


def oracle_powers(x):
    """x^0, x^1, ... up to the last power before the identity recurs."""
    powers = [Monomial.identity(x.degree)]
    while not (powers[-1] * x).is_identity():
        powers.append(powers[-1] * x)
    return powers


@st.composite
def wreath_generator_pairs(draw):
    """Two random elements of G(m,1,n) = mu_m wr S_n, m <= 4 and n <= 4."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def element():
        perm = draw(st.permutations(range(n)))
        ks = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        return Monomial(perm, [Cyclotomic.zeta(m, k) for k in ks])

    return [element(), element()]


def check_against_oracle(gens, rewrite, limit):
    """Close ``gens`` and ``rewrite(gens)`` and compare both with the oracle:
    the order, generator indices, ``elements`` in BFS order (those of the
    second closure are ``rewrite`` of the oracle's), the words, ``inv``,
    the classes, ``class_orders``, ``power_classes(k)`` up to the exponent,
    and the character tables.  Past ``limit`` all three must raise."""
    writings = (gens, rewrite(gens))
    try:
        elements, index, words = matrix_bfs(gens, limit)
    except GroupTooLargeError:
        for kind_gens in writings:
            with pytest.raises(GroupTooLargeError):
                close(kind_gens, limit=limit)
        return
    classes, class_of = oracle_classes(elements, index, gens)
    powers = [oracle_powers(elements[c[0]]) for c in classes]
    exponent = math.lcm(*map(len, powers))
    mono, other = (close(w, limit=limit) for w in writings)
    assert mono.elements == tuple(elements)
    assert other.elements == tuple(rewrite(elements))
    for g in (mono, other):
        assert g.order == len(elements)
        assert g.generator_indices == tuple(index[x] for x in gens)
        assert [g.word(i) for i in range(g.order)] == words
        assert [g.inv(i) for i in range(g.order)] == [index[x.inverse()] for x in elements]
        assert g.conjugacy_classes == classes
        assert g.class_orders == tuple(map(len, powers))
        for k in range(exponent + 1):
            assert g.power_classes(k) == tuple(class_of[index[p[k % len(p)]]] for p in powers)
    mono_table, other_table = character_table(mono), character_table(other)
    assert other_table.degrees == mono_table.degrees
    assert [chi.values for chi in other_table] == [chi.values for chi in mono_table]


class TestAgainstMatrixClosure:
    # the oracle's closure, classes and power maps cost |G| matrix products
    # and more, and the two tables grow with the class count
    @settings(max_examples=40, deadline=None)
    @given(wreath_generator_pairs())
    def test_monomial_and_dense_match_matrix_bfs(self, gens):
        check_against_oracle(gens, lambda xs: [x.to_dense() for x in xs], limit=400)

    # the conjugated points are generic vectors, each one exact products
    # away, and their orbits reach n·|G| points: a lower limit keeps it quick
    @settings(max_examples=20, deadline=None)
    @given(wreath_generator_pairs())
    def test_conjugated_dense_matches_matrix_bfs(self, gens):
        check_against_oracle(gens, conjugated, limit=96)
