"""Group closure, index arithmetic, and conjugacy structure.

The S4 reference values (class sizes, order histogram, abelianization) were
frozen from a brute-force oracle over permutations of 4 points, independent of
this package's elements.  ``matrix_bfs`` is the closure by products of
matrices that preceded the point-set encoding; it is kept here as the
oracle for random subgroups of G(m,1,n).  The element operations are
checked against the dense row helpers of ``helpers``.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import embed_float
from helpers import (
    block_diag,
    conj_matrix,
    conjugated_elements,
    group_elements,
    inverse,
    is_identity,
    mat_inverse,
    mat_mul,
    order_histogram,
    wreath_generator_pairs,
)
from torusq_oracle import eigenvalue_one_by_det, has_eigenvalue_one

from torusquot import groups
from torusquot.chartab import character_table
from torusquot.cyclo import Cyclotomic, one, zero
from torusquot.errors import GroupTooLargeError, InvalidInputError
from torusquot.groups import Dense, Element, Monomial, close


def perm_monomial(images):
    return Monomial(images, (one(),) * len(images))


def cycles_monomial(*lengths):
    """One permutation of disjoint cycles of the given lengths: it generates
    a cyclic group of order lcm(lengths) whose BFS tree is a path."""
    images = []
    for n in lengths:
        images += [len(images) + (k + 1) % n for k in range(n)]
    return perm_monomial(images)


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
        g = close([Element.identity(2)])
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
        assert is_identity(g.element(0))

    def test_limit(self):
        with pytest.raises(GroupTooLargeError) as exc:
            close([perm_monomial((1, 0, 2, 3)), perm_monomial((1, 2, 3, 0))], limit=10)
        assert exc.value.limit == 10

    def test_empty_generators(self):
        with pytest.raises(InvalidInputError):
            close([])

    def test_degree_mismatch(self):
        with pytest.raises(InvalidInputError):
            close([Element.identity(2), Element.identity(3)])

    def test_singular_dense_generator(self):
        with pytest.raises(InvalidInputError):
            close([Dense([[one(), zero()], [zero(), zero()]])])

    def test_rank_two_dense_generator(self):
        # singular with no zero row or column: row 3 = 2·row 2 - row 1
        with pytest.raises(InvalidInputError, match="dense generator is not invertible"):
            close([Dense([[1, 2, 3], [4, 5, 6], [7, 8, 9]])])

    @pytest.mark.parametrize("build, message", [
        (lambda: Monomial((1, 0), (1,)), "monomial scalar count does not match the degree"),
        (lambda: Dense([[1, 0]]), "dense element must be square"),
        (lambda: close([Element.identity(2)], limit=0), "closure limit must be positive"),
        (lambda: close([[[1]]]), "unsupported generator type list"),
    ], ids=["monomial-scalar-count", "dense-not-square", "limit-zero", "generator-type"])
    def test_rejects_malformed_input_with_its_message(self, build, message):
        with pytest.raises(InvalidInputError) as exc:
            build()
        assert str(exc.value) == message

    def test_dense_generator_with_zero_diagonal(self):
        # invertible, but the first pivot needs a row swap
        i = Cyclotomic.zeta(4)
        assert close([Dense([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]).order == 3
        assert close([Dense([[zero(), i], [i, zero()]])]).order == 4

    def test_mixed_constructors_close_to_one_group(self):
        i = Cyclotomic.zeta(4)
        g = close([Monomial((0,), (-one(),)), Dense([[i]])])
        assert g.order == 4
        assert group_elements(g) == group_elements(close([Monomial((0,), (-one(),)), Monomial((0,), (i,))]))

    def test_monomial_written_dense_is_the_same_element(self):
        # one encoding, so equal matrices hash equal whichever constructor
        # built them
        i = Cyclotomic.zeta(4)
        pairs = [(Monomial((1, 0), (1, 1)), Dense([[0, 1], [1, 0]])),
                 (Monomial((1, 0), (i, 2)), Dense([[0, 2], [i, 0]]))]
        for mono, dense in pairs:
            assert mono == dense and dense == mono
            assert hash(mono) == hash(dense)
            assert dense in {mono} and mono in {dense}
            assert len({mono, dense}) == 1

    def test_deterministic(self):
        g1, g2 = s4_group(), s4_group()
        assert group_elements(g1) == group_elements(g2)
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
            assert g.element(g.inv(i)) == inverse(g.element(i))

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


class TestDeepTree:
    def test_closure_memory_linear_in_order(self):
        # cycles 5, 7, 8, 9: order 2520 and BFS depth 2519, so a stored word
        # per element would hold about 2520**2 / 2 letters
        gen = cycles_monomial(5, 7, 8, 9)
        tracemalloc.start()
        try:
            g = close([gen])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.order == 2520
        assert peak < 4 * 2**20
        for i in (0, 1, 2519):
            assert g.word(i) == (0,) * i
        assert g.inv(2519) == 1


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

    def test_cyclic_classes_count_the_powers(self):
        # per class, the classes of g^0, ..., g^(o-1), which the average over
        # <g> reads off the power maps, against those of the elements
        g = s4_group()
        for k, o in enumerate(g.class_orders):
            x = g.class_representatives[k]
            assert [g.power_classes(t)[k] for t in range(o)] == \
                [g.class_of(g.power(x, t)) for t in range(o)]
        four_cycle = next(c for c in range(g.num_classes) if g.class_orders[c] == 4)
        tally = {}
        for t in range(4):
            d = g.power_classes(t)[four_cycle]
            tally[d] = tally.get(d, 0) + 1
        assert sorted(tally.values()) == [1, 1, 2]


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
        for p in (4, 1, 0, -2, -3):
            with pytest.raises(InvalidInputError):
                s4_group().sylow_cyclic(p)

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


def diagonal_sum(rows):
    total = zero()
    for i, row in enumerate(rows):
        total = total + row[i]
    return total


class TestMonomialAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(monomials(), monomials())
    def test_product_matches_dense(self, a, b):
        assert (a * b).rows == mat_mul(a.rows, b.rows)

    @settings(max_examples=30, deadline=None)
    @given(monomials())
    def test_inverse(self, a):
        assert is_identity(a * inverse(a))
        assert inverse(a).rows == mat_inverse(a.rows)

    @settings(max_examples=30, deadline=None)
    @given(monomials())
    def test_transpose_trace_det(self, a):
        assert a.transpose().rows == tuple(zip(*a.rows))
        assert a.trace() == diagonal_sum(a.rows)
        assert a.conjugate().rows == conj_matrix(a.rows)

    @settings(max_examples=40, deadline=None)
    @given(monomials())
    def test_eigenvalue_one_matches_dense_and_float(self, a):
        exact = has_eigenvalue_one(a)
        assert exact == eigenvalue_one_by_det(a)
        eigs = np.linalg.eigvals(
            np.array([[embed_float(x) for x in row] for row in a.rows]))
        assert exact == bool(np.min(np.abs(eigs - 1.0)) < 1e-8)

    def test_block_sum(self):
        a = Monomial((1, 0), (Cyclotomic.zeta(4), one()))
        b = Monomial((0,), (-one(),))
        s = a.block_sum(b)
        assert s.degree == 3
        assert s.rows == block_diag(a.rows, b.rows)

    @settings(max_examples=30, deadline=None)
    @given(wreath_generator_pairs())
    def test_dense_algebra_matches_the_row_helpers(self, pair):
        # the same operations on elements with several entries per column
        x, y = conjugated_elements(pair)
        assert (x * y).rows == mat_mul(x.rows, y.rows)
        assert inverse(x).rows == mat_inverse(x.rows)
        assert is_identity(x * inverse(x))
        assert x.trace() == diagonal_sum(x.rows)
        assert Dense(x.rows) == x

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
        assert group_elements(g) == (Element.identity(2), Monomial((1, 0), (2, Fraction(1, 2))))
        assert set(g._points) == {((0, one()),), ((1, one()),), ((1, Cyclotomic.from_value(2)),),
                                 ((0, Cyclotomic.from_value(Fraction(1, 2))),)}

    @pytest.mark.parametrize("generator", [
        Monomial((0,), (2,)),
        Dense([[1, 1], [0, 1]]),
    ], ids=["scalar-2", "shear"])
    def test_infinite_group_stops_at_the_point_bound(self, monkeypatch, generator):
        # every step of the point orbit records the point it acts on
        acted_on = set()
        orbit = groups._orbit

        def recording(step):
            def act(point):
                acted_on.add(point)
                return step(point)
            return act

        monkeypatch.setattr(groups, "_orbit", lambda start, steps, cap, limit: orbit(
            start, [recording(s) for s in steps], cap, limit))
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
        mono, conj = close(gens), close(conjugated_elements(gens))
        assert conj.order == mono.order == 48
        assert len(conj._points) == 3 * 48
        assert all(len(key) == 3 for key in conj._index)
        assert group_elements(conj) == tuple(conjugated_elements(group_elements(mono)))


def matrix_bfs(gens, limit):
    """Elements, their index and BFS words by products of matrices."""
    identity = Element.identity(gens[0].degree)
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
    pairs = [(inverse(g), g) for g in gens]
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
    powers = [Element.identity(x.degree)]
    while not is_identity(powers[-1] * x):
        powers.append(powers[-1] * x)
    return powers


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
    assert group_elements(mono) == tuple(elements)
    assert group_elements(other) == tuple(rewrite(elements))
    for g in (mono, other):
        assert g.order == len(elements)
        assert g.generator_indices == tuple(index[x] for x in gens)
        assert [g.word(i) for i in range(g.order)] == words
        assert [g.inv(i) for i in range(g.order)] == [index[inverse(x)] for x in elements]
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
        check_against_oracle(gens, lambda xs: [Dense(x.rows) for x in xs], limit=400)

    # the conjugated points are generic vectors, each one exact products
    # away, and their orbits reach n·|G| points: a lower limit keeps it quick
    @settings(max_examples=20, deadline=None)
    @given(wreath_generator_pairs())
    def test_conjugated_dense_matches_matrix_bfs(self, gens):
        check_against_oracle(gens, conjugated_elements, limit=96)


class TestKeyEncodings:
    # bytes.translate indexes at most 256 points, so a larger point set
    # keeps tuple keys: the cyclic group of zeta_n on C has n points
    @pytest.mark.parametrize("n, key_type", [(256, bytes), (300, tuple)])
    def test_both_key_types_match_matrix_bfs(self, n, key_type):
        gens = [Monomial((0,), (Cyclotomic.zeta(n),))]
        elements, index, words = matrix_bfs(gens, n)
        group = close(gens)
        assert len(group._points) == n
        assert all(type(key) is key_type for key in group._index)
        assert group.order == n
        assert group_elements(group) == tuple(elements)
        assert [group.word(i) for i in range(group.order)] == words
        assert group.generator_indices == tuple(index[x] for x in gens)
        assert [group.inv(i) for i in range(group.order)] == [
            index[inverse(x)] for x in elements]

    def test_g1280_keys_are_bytes(self, g1280_group):
        assert len(g1280_group._points) == 80
        assert all(type(key) is bytes for key in g1280_group._index)
