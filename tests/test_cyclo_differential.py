"""Differential tests: integer-numerator Cyclotomic against the Fraction oracle.

Values are drawn over conductors that reach every descent branch: prime
powers (a support check and a re-index), p exactly dividing n (a Galois
generator test and the cached integer rewrite), n = 2 mod 4 and mixed
conductors.  Galois-orbit sums are drawn on purpose, because they lie in
a proper subfield and must descend.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import cyclo_oracle as oracle
from torusquot.cyclo import format_entry, normalize

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 21, 24, 30, 36, 60]


@st.composite
def raw_vectors(draw):
    """A conductor n and a length-n rational vector, sometimes a Galois-orbit sum."""
    n = draw(st.sampled_from(CONDUCTORS))
    raw = [Fraction(0)] * n
    for _ in range(draw(st.integers(0, 4))):
        raw[draw(st.integers(0, n - 1))] += Fraction(draw(st.integers(-9, 9)),
                                                     draw(st.integers(1, 6)))
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    if draw(st.booleans()) and d < n:
        # trace over Gal(Q(zeta_n)/Q(zeta_d)): the sum lies in Q(zeta_d)
        orbit = [Fraction(0)] * n
        for k in range(1, n + 1, d):
            if math.gcd(k, n) == 1:
                for i, c in enumerate(raw):
                    orbit[i * k % n] += c
        raw = orbit
    return n, raw


@st.composite
def pairs(draw):
    """The same value built by the package and by the oracle."""
    n, raw = draw(raw_vectors())
    return normalize(raw, n), oracle.normalize(raw, n)


def assert_same(new, old):
    assert (new.n, new.coeffs) == (old.n, old.coeffs)
    assert all(c == 0 for c in new.coeffs[len(old.coeffs):])
    assert new.lift_coeffs(2 * new.n) == old.lift_coeffs(2 * old.n)
    assert format_entry(new) == oracle.format_entry(old)
    assert format_entry(new, 3 * new.n) == oracle.format_entry(old, 3 * old.n)
    assert new.as_rational() == old.as_rational()
    if new.n == 1:
        assert hash(new) == hash(old) == hash(new.as_rational())


@given(pairs())
@settings(max_examples=150, deadline=None)
def test_canonical_form_matches_oracle(x):
    assert_same(*x)


@given(pairs(), pairs())
@settings(max_examples=150, deadline=None)
def test_field_operations_match_oracle(x, y):
    (a, a0), (b, b0) = x, y
    assert_same(a + b, a0 + b0)
    assert_same(a - b, a0 - b0)
    assert_same(a * b, a0 * b0)
    assert (a == b) == (a0 == b0)
    assert (a.sort_key() < b.sort_key()) == (a0.sort_key() < b0.sort_key())
    if b0.as_rational() != 0:
        assert_same(a / b, a0 / b0)


@given(pairs(), st.integers(-3, 3), st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_unary_operations_match_oracle(x, power, k):
    a, a0 = x
    assert_same(-a, -a0)
    assert_same(a.conjugate(), a0.conjugate())
    if math.gcd(k % a.n, a.n) == 1:
        assert_same(a.galois(k), a0.galois(k))
    if a0.as_rational() != 0:
        assert_same(a.inverse(), a0.inverse())
        assert_same(a ** power, a0 ** power)
    assert_same(a + 1, a0 + 1)
    assert_same(a * Fraction(-2, 3), a0 * Fraction(-2, 3))


@given(st.sampled_from(CONDUCTORS), st.integers(0, 59), st.sampled_from([1, -1, 2]))
@settings(max_examples=80, deadline=None)
def test_root_of_unity_order_matches_oracle(n, k, scale):
    # scaled roots of unity, plus a non-root with the same support
    a = normalize([scale if i == k % n else 0 for i in range(n)], n)
    a0 = oracle.normalize([scale if i == k % n else 0 for i in range(n)], n)
    assert a.root_of_unity_order() == a0.root_of_unity_order()
    assert (a + 1).root_of_unity_order() == (a0 + 1).root_of_unity_order()
