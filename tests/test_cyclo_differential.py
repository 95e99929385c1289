"""Differential tests: integer-numerator Cyclotomic against the Fraction oracle.

Values are drawn over conductors that reach every descent branch: prime
powers (a support check and a re-index), p exactly dividing n (the
numerators regrouped by the powers of zeta_p, up to three odd primes at
105), n = 2 mod 4 and mixed conductors.  Galois-orbit sums are drawn on
purpose, because they lie in a proper subfield and must descend.  The
entry parser, which gathers integer numerators over one denominator, is
compared with the earlier one, which summed `Fraction` terms, on
well-formed sums and on random strings of the entry syntax's tokens: the
same value, or the same error at the same column.  `add_all`, which
canonicalises a sum once, is compared with the pairwise sum over mixed
conductors up to 930 and their lcm, with denominators, on 0, 1, 2 and
many terms.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import cyclo_oracle as oracle
from helpers import lift_coeffs
from torusquot.cyclo import EntryParseError, add_all, format_entry, normalize, parse_entry, zero

CONDUCTORS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 21, 24, 30, 35, 36, 42, 60, 105]
# the oracles invert by a rational solve of size phi(n), or by multiplying
# the other phi(n) - 1 conjugates in turn, so inverses and orders are
# compared up to conductor 60
INVERSE_MAX = 60


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
    assert lift_coeffs(new, 2 * new.n) == old.lift_coeffs(2 * old.n)
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
    if b0.as_rational() != 0 and b.n <= INVERSE_MAX:
        assert_same(a / b, a0 / b0)


@given(pairs(), st.integers(-3, 3), st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_unary_operations_match_oracle(x, power, k):
    a, a0 = x
    assert_same(-a, -a0)
    assert_same(a.conjugate(), a0.conjugate())
    if math.gcd(k % a.n, a.n) == 1:
        assert_same(a.galois(k), a0.galois(k))
    if a0.as_rational() != 0 and a.n <= INVERSE_MAX:
        assert_same(a.inverse(), a0.inverse())
        assert_same(a ** power, a0 ** power)
    assert_same(a + 1, a0 + 1)
    assert_same(a * Fraction(-2, 3), a0 * Fraction(-2, 3))


@given(raw_vectors())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_conjugate_product(case):
    # inverses by doubling over the cyclic factors of (Z/n)^* against the
    # product of all other conjugates, taken one at a time
    n, raw = case
    a = normalize(raw, n)
    if a and a.n <= INVERSE_MAX:
        assert a.inverse() == oracle.inverse_by_conjugates(a)


@given(st.sampled_from([n for n in CONDUCTORS if n <= INVERSE_MAX]), st.integers(0, 59),
       st.sampled_from([1, -1, 2]))
@settings(max_examples=80, deadline=None)
def test_root_of_unity_order_matches_oracle(n, k, scale):
    # scaled roots of unity, plus a non-root with the same support
    a = normalize([scale if i == k % n else 0 for i in range(n)], n)
    a0 = oracle.normalize([scale if i == k % n else 0 for i in range(n)], n)
    assert a.root_of_unity_order() == a0.root_of_unity_order()
    assert (a + 1).root_of_unity_order() == (a0 + 1).root_of_unity_order()


# the divisors of 930 = 2·3·5·31, where zeta_31 descends by regrouping,
# and 4 and 12, which take the lcm to 1860
SUM_CONDUCTORS = [1, 2, 3, 4, 5, 6, 10, 12, 15, 30, 31, 62, 93, 155, 186, 310, 465, 930]


@st.composite
def summands(draw):
    """A value with up to three terms at one of SUM_CONDUCTORS, over a
    denominator up to 6; a zero now and then."""
    n = draw(st.sampled_from(SUM_CONDUCTORS))
    raw = [0] * n
    for _ in range(draw(st.integers(0, 3))):
        raw[draw(st.integers(0, n - 1))] += Fraction(draw(st.integers(-9, 9)),
                                                     draw(st.integers(1, 6)))
    return normalize(raw, n)


@given(st.one_of(st.lists(summands(), max_size=2), st.lists(summands(), max_size=12)))
@settings(max_examples=150, deadline=None)
def test_add_all_matches_pairwise_sum(terms):
    total = add_all(terms)
    pairwise = sum(terms, zero())
    assert (total.n, total.num, total.den) == (pairwise.n, pairwise.num, pairwise.den)
    assert add_all(iter(terms)) == pairwise
    if len(terms) == 1:
        assert total is terms[0]


@st.composite
def entry_texts(draw):
    """A sum of signed terms a/b*z^k, some parts left out, with random
    spacing; or a random string of the syntax's tokens, mostly malformed."""
    space = st.sampled_from(["", "", " ", "  ", "\t"])
    if draw(st.booleans()):
        parts = []
        for _ in range(draw(st.integers(1, 4))):
            parts.append(draw(st.sampled_from(["", "+", "-", "- -", "+-"])) + draw(space))
            coeff = draw(st.sampled_from(["", "{a}", "{a}/{b}"])).format(
                a=draw(st.integers(0, 40)), b=draw(st.integers(1, 12)))
            power = draw(st.sampled_from(["", "z", "z^{k}", "z ^ {k}"])).format(
                k=draw(st.integers(0, 130)))
            if not coeff and not power:
                power = "z"
            joint = "*" if coeff and power and draw(st.booleans()) else ""
            parts.append(coeff + draw(space) + joint + draw(space) + power + draw(space))
        return "".join(parts)
    tokens = ["1", "2", "17", "0", "/", "/0", "/3", "1/", "*", "z", "^", "z^", "^2", "+", "-",
              " ", "\t", "q", "."]
    return "".join(draw(st.lists(st.sampled_from(tokens), max_size=8)))


def _parsed(parse, text, n):
    try:
        return "ok", parse(text, n)
    except EntryParseError as exc:
        return "error", str(exc), exc.column


@given(entry_texts(), st.sampled_from(CONDUCTORS))
@settings(max_examples=300, deadline=None)
def test_parse_entry_matches_oracle(text, n):
    # values compare by conductor, numerators and denominator
    assert _parsed(parse_entry, text, n) == _parsed(oracle.parse_entry, text, n)
