import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import embed_float, is_integral
from helpers import lift_coeffs

from torusquot import (
    Cyclotomic,
    EntryParseError,
    InvalidInputError,
    cyclotomic_polynomial,
    format_entry,
    normalize,
    parse_entry,
    totient,
)
from torusquot.cyclo import _unit_factors, is_prime

Z = Cyclotomic.zeta
C = Cyclotomic.from_value


# --- canonicalization -------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(105)[7] == -2  # first index with |coeff| > 1


def test_normalize_zeta3_fixed():
    x = normalize([0, 1, 0], 3)
    assert x.n == 3
    assert x.coeffs == (0, 1, 0)


def test_normalize_zeta4_cubed():
    # zeta4^3 reduces to -zeta4 since Phi_4 = x^2 + 1
    x = normalize([0, 0, 0, 1], 4)
    assert x == -Z(4)
    assert x.coeffs == (0, -1, 0, 0)


def test_normalize_idempotent():
    x = normalize([Fraction(1, 2), 0, -3, 0, 0, 1], 6)
    y = normalize(lift_coeffs(x, x.n), x.n)
    assert x == y


def test_normalize_rejects_bad_conductor():
    with pytest.raises(InvalidInputError):
        normalize([], 0)
    with pytest.raises(InvalidInputError):
        normalize([1, 2], 3)


def test_descent_to_minimal_conductor():
    assert Z(6).n == 3          # Q(zeta_6) = Q(zeta_3)
    assert Z(6) == 1 + Z(3)     # zeta_6 = 1 + zeta_3
    assert Z(12, 4) == Z(3)     # zeta_12^4 = zeta_3
    assert Z(4, 2) == -1        # zeta_4^2 = -1, rational
    assert Z(8, 2) == Z(4)
    assert (Z(5) + Z(5, 2) + Z(5, 3) + Z(5, 4)) == -1


@pytest.mark.parametrize("n", [210, 930])
def test_roots_of_unity_at_large_conductors(n):
    # no oracle: zeta_n^t is zeta_(n/g)^(t/g), and the powers multiply like
    # their exponents add, so with zeta_n^n = 1 each is an n-th root of unity
    roots = [Z(n, t) for t in range(n)]
    assert roots[1] ** n == 1
    for t, x in enumerate(roots):
        g = math.gcd(n, t)
        assert x == Z(n // g, t // g)
        for s in (1, 31):
            assert roots[s] * x == roots[(s + t) % n]


# --- arithmetic -------------------------------------------------------------

def test_arith_basics():
    assert Z(4) * Z(4) == -1
    assert Z(3) + Z(3).conjugate() == -1
    assert Z(3) * Z(3, 2) == 1
    assert (Z(3) - Z(3)) == 0
    assert C(Fraction(2, 3)) * C(Fraction(3, 2)) == 1


def test_product_of_coprime_roots():
    # oracle: |zeta3*zeta4 - zeta12^7| ~ 1e-16 in floats
    p = Z(3) * Z(4)
    assert p == Z(12, 7)
    assert abs(embed_float(p) - cmath.exp(2j * cmath.pi * 7 / 12)) < 1e-12


@pytest.mark.parametrize("n", [105, 210, 465, 930])
def test_single_term_inverse(n):
    # no oracle: x * x^-1 = 1; at 210 and 930 the roots descend to half the
    # conductor, where only some stay single terms
    single = 0
    for t in range(1, n, 7):
        for c in (1, -3, Fraction(2, 5), Fraction(-7, 4)):
            x = C(c) * Z(n, t)
            if sum(1 for a in x.num if a) == 1:
                single += 1
                assert x * x.inverse() == 1
    assert single >= n // 7


@pytest.mark.parametrize("n", [105, 210, 465])
def test_inverse_of_sums(n):
    for x in (Z(n) + 2, Z(n, 2) - Z(n, 11) * Fraction(3, 2) + Z(n, 35),
              C(Fraction(1, 3)) + Z(n, 5) + Z(n, 5).conjugate()):
        assert x * x.inverse() == 1


def test_is_prime_against_a_sieve():
    limit = 5000
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, limit, p))
    assert [n for n in range(-5, limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_unit_factors_generate_the_unit_group():
    # each g has exactly the stated order, and the products of powers of all
    # of them reach each of the phi(n) units once
    for n in range(1, 400):
        units = {1 % n}
        for g, order in _unit_factors(n):
            assert [k for k in range(1, order + 1) if pow(g, k, n) == 1] == [order]
            units = {u * pow(g, j, n) % n for u in units for j in range(order)}
            assert all(math.gcd(u, n) == 1 for u in units)
        assert len(units) == totient(n)


def test_inverse_and_division():
    x = 1 + 2 * Z(5) - Z(5, 3)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        C(0).inverse()


def test_pow():
    assert Z(7) ** 7 == 1
    assert Z(7) ** -1 == Z(7, 6)
    assert (1 + Z(3)) ** 0 == 1


# --- galois -----------------------------------------------------------------

def test_galois_examples():
    assert Z(3).galois(-1) == Z(3, 2)
    assert C(Fraction(5, 3)).galois(7) == Fraction(5, 3)
    with pytest.raises(InvalidInputError):
        Z(6).galois(3)  # conductor is 3 after descent; gcd(3,3) != 1
    with pytest.raises(InvalidInputError):
        Z(8).galois(2)


def test_conjugate_is_galois_minus_one():
    x = 1 + Z(8) - 3 * Z(8, 3)
    assert x.conjugate() == x.galois(-1)
    assert abs(embed_float(x.conjugate()) - embed_float(x).conjugate()) < 1e-12


# --- rationality, embedding, roots of unity ---------------------------------

def test_as_rational():
    assert C(Fraction(3, 4)).as_rational() == Fraction(3, 4)
    assert (Z(3) + Z(3, 2)).as_rational() == -1
    assert Z(3).as_rational() is None
    assert (Z(5) * 0).as_rational() == 0


def test_embed_float():
    assert embed_float(Z(4)) == pytest.approx(1j)
    assert embed_float(C(0)) == 0
    x = Fraction(1, 2) * Z(12, 5) - 2
    expected = 0.5 * cmath.exp(2j * cmath.pi * 5 / 12) - 2
    assert abs(embed_float(x) - expected) < 1e-12


def test_root_of_unity_order():
    assert C(1).root_of_unity_order() == 1
    assert C(-1).root_of_unity_order() == 2
    assert Z(12, 7).root_of_unity_order() == 12
    assert Z(6).root_of_unity_order() == 6
    assert C(2).root_of_unity_order() is None
    assert (Z(3) + 1 + -1 * Z(3)).root_of_unity_order() == 1
    assert C(0).root_of_unity_order() is None


def test_is_integral():
    assert is_integral(Z(3), 3)
    assert is_integral(1 + 2 * Z(4), 4)
    assert not is_integral(C(Fraction(1, 2)), 1)
    assert not is_integral(Fraction(1, 3) * Z(3), 3)
    assert is_integral(Z(6), 6)   # 1 + zeta3 lies in Z[zeta_6] = Z[zeta_3]
    assert is_integral(Z(6), 3)
    assert not is_integral(Z(4), 3)  # wrong field entirely


# --- hashing / equality -----------------------------------------------------

def test_structural_equality_across_conductors():
    a = Z(12, 4)
    b = Z(3)
    assert a == b and hash(a) == hash(b)
    assert C(2) == 2 and hash(C(2)) == hash(2)
    assert C(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(C(Fraction(1, 2))) == hash(Fraction(1, 2))
    d = {Z(6): "x"}
    assert d[1 + Z(3)] == "x"


# --- entry syntax -----------------------------------------------------------

def test_parse_entry_examples():
    assert parse_entry("1/2*z^0 + -1/2*z^3", 12) == Fraction(1, 2) - Fraction(1, 2) * Z(12, 3)
    assert parse_entry("  z ^ 2 ", 5) == Z(5, 2)
    assert parse_entry("z", 4) == Z(4)
    assert parse_entry("-z^3", 4) == -Z(4, 3)
    assert parse_entry("3", 7) == 3
    assert parse_entry("2-z", 4) == 2 - Z(4)
    assert parse_entry("z^5", 4) == Z(4)  # exponents wrap modulo the conductor
    assert parse_entry("0", 9) == 0


def test_parse_entry_errors_are_positioned():
    with pytest.raises(EntryParseError) as e:
        parse_entry("1/2*", 4)
    assert e.value.column == 5
    with pytest.raises(EntryParseError):
        parse_entry("", 3)
    with pytest.raises(EntryParseError):
        parse_entry("z^", 3)
    with pytest.raises(EntryParseError):
        parse_entry("1 + ", 3)
    with pytest.raises(EntryParseError):
        parse_entry("q", 3)
    with pytest.raises(EntryParseError):
        parse_entry("1/0", 3)


def test_format_entry_round_trip():
    vals = [C(0), C(-3), Z(3), -Z(4), Fraction(2, 3) * Z(8, 5) - 1, Z(12, 7) + Fraction(1, 2)]
    for v in vals:
        n = 24
        assert parse_entry(format_entry(v, n), n) == v
        assert parse_entry(format_entry(v), v.n) == v


# --- property tests ---------------------------------------------------------

_CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12]


@st.composite
def cyclotomics(draw):
    n = draw(st.sampled_from(_CONDUCTORS))
    coeffs = [Fraction(0)] * n
    for _ in range(draw(st.integers(0, 3))):
        idx = draw(st.integers(0, n - 1))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        coeffs[idx] += Fraction(num, den)
    return normalize(coeffs, n)


@given(cyclotomics(), cyclotomics(), cyclotomics())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0
    if b:
        assert (a * b) / b == a


@given(cyclotomics())
@settings(max_examples=60, deadline=None)
def test_canonical_form_unique(x):
    # renormalizing at any lifted conductor lands on the identical object state
    for mult in (1, 2, 3):
        m = x.n * mult
        y = normalize(lift_coeffs(x, m), m)
        assert y.n == x.n and y.coeffs == x.coeffs
    assert all(x.coeffs[i] == 0 for i in range(totient(x.n), x.n))


@given(cyclotomics(), cyclotomics())
@settings(max_examples=60, deadline=None)
def test_conjugation_is_ring_homomorphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@given(cyclotomics(), cyclotomics())
@settings(max_examples=60, deadline=None)
def test_embed_float_is_ring_homomorphism(a, b):
    assert abs(embed_float(a + b) - (embed_float(a) + embed_float(b))) < 1e-10
    assert abs(embed_float(a * b) - embed_float(a) * embed_float(b)) < 1e-10


@given(cyclotomics(), st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_galois_composition(x, k1, k2):
    n = x.n
    if math.gcd(k1 % n, n) != 1 or math.gcd(k2 % n, n) != 1:
        return
    y = x.galois(k1)
    # the first map may shrink the conductor; k2 stays coprime to any divisor
    assert y.galois(k2) == x.galois((k1 * k2) % n if n > 1 else 1)
