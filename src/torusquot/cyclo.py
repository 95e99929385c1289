"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is held as integer numerators num[0..n-1] over one positive
common denominator den, x = sum(num[i] * z^i) / den with z = zeta_n =
exp(2*pi*i/n) and gcd(num..., den) = 1, in canonical form:

- the numerators are reduced modulo the n-th cyclotomic polynomial, so
  num[i] = 0 from i = phi(n) on;
- n is the minimal conductor, the smallest n with x in Q(zeta_n).

Canonical form makes equality (and hashing) a structural comparison, so
values can key dictionaries across mixed conductors.  `coeffs` gives the
rational coefficients num[i] / den.

Descent to the minimal conductor takes one prime p of n at a time:

- p^2 divides n: Phi_n(x) = Phi_{n/p}(x^p), so Q(zeta_{n/p}) is exactly
  the span of the basis powers z^(p*j).  Membership is a support check and
  the rewrite a re-index.
- p exactly divides n: z^i = zeta_p^j * zeta_{n/p}^k for one pair (j, k),
  so x regroups as sum(zeta_p^j * A_j) with A_j in Z[zeta_{n/p}], and
  zeta_p, ..., zeta_p^(p-1) are a basis over Q(zeta_{n/p}).  Membership
  compares A_1, ..., A_(p-1), and the rewrite is A_0 - A_1, integer
  numerators over the same denominator.

Rational factors and summands, and Galois automorphisms, keep the
conductor and need no descent.  Values are immutable and every operation
is pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError

_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# small number-theory helpers (shared by the group modules)

@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    if n < 1:
        raise InvalidInputError(f"prime_factors needs a positive integer, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def totient(n: int) -> int:
    t = n
    for p in prime_factors(n):
        t = t // p * (p - 1)
    return t


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % p == 0:
            return False
        p += 2
    return True


def _int_poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division must be exact
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            off = i - dd
            for j, pj in enumerate(den):
                if pj:
                    num[off + j] -= c * pj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree.

    Computed by exact division of x^n - 1 by the product of Phi_d over
    proper divisors d of n.
    """
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            num = _int_poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


# ---------------------------------------------------------------------------
# exact row reduction

def rref(a) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices, exactly.

    Entries are all Fractions (or ints) or all Cyclotomic values.  An
    augmented system [A | t] is inconsistent exactly when a pivot lands in
    the last column.  Only nonzero entries are worked on: the pivot row is
    scaled where it is nonzero, and the other rows change only there.
    """
    rows = [list(r) for r in a]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        inv = p.inverse() if isinstance(p, Cyclotomic) else _F1 / p
        pivot = rows[r] = [v * inv if v else v for v in rows[r]]
        support = [(j, y) for j, y in enumerate(pivot) if y]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


# ---------------------------------------------------------------------------
# canonicalization, on integer numerators

@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Degree of Phi_n and its nonzero terms (j, coefficient) below the leading one."""
    phi = cyclotomic_polynomial(n)
    t = len(phi) - 1
    return t, tuple((j, c) for j, c in enumerate(phi[:t]) if c)


def _reduce(num: list[int], n: int) -> list[int]:
    """Reduce a length-n integer vector modulo Phi_n, in place."""
    t, terms = _phi_terms(n)
    for i in range(n - 1, t - 1, -1):
        c = num[i]
        if c:
            num[i] = 0
            off = i - t
            for j, pj in terms:
                num[off + j] -= c * pj
    return num


def _galois_num(num, n: int, k: int) -> list[int]:
    """Numerators of zeta_n -> zeta_n^k applied to reduced numerators."""
    out = [0] * n
    for i, c in enumerate(num):
        if c:
            out[i * k % n] = c
    return _reduce(out, n)


@lru_cache(maxsize=None)
def _coprime_split(n: int, p: int) -> tuple[int, ...]:
    """For p exactly dividing n and d = n/p, entry i is j*d + k with
    z^i = zeta_p^j * zeta_d^k, i < phi(n).

    Take a = 1/d mod p and b = 1/p mod d, so a*d + b*p = 1 mod n and
    z = zeta_p^a * zeta_d^b: then j = a*i mod p and k = b*i mod d.
    """
    d = n // p
    a, b = pow(d, -1, p), pow(p, -1, d)
    return tuple(a * i % p * d + b * i % d for i in range(totient(n)))


def _canonical(num: list[int], den: int, n: int) -> "Cyclotomic":
    """The canonical value num/den, num a length-n list reduced mod Phi_n.

    For a prime p exactly dividing n and d = n/p, the numerators regroup
    as x = sum(zeta_p^j * A_j(zeta_d), j = 0..p-1), each A_j reduced mod
    Phi_d.  Since [Q(zeta_n) : Q(zeta_d)] = p - 1, the powers zeta_p, ...,
    zeta_p^(p-1) are a basis of Q(zeta_n) over Q(zeta_d), and they sum to
    -1.  So x = sum(zeta_p^j * (A_j - A_0), j >= 1) lies in Q(zeta_d)
    exactly when A_1 = ... = A_(p-1), and then x = A_0 - A_1.  For p = 2
    there is nothing to compare.
    """
    while n > 1:
        support = [i for i in range(totient(n)) if num[i]]
        if not support:
            return _ZERO
        if support == [0]:
            n, num = 1, num[:1]
            break
        if len(support) == 1 and math.gcd(support[0], n) == 1 and n % 4 != 2:
            break  # a multiple of a primitive n-th root of unity
        for p in prime_factors(n):
            d = n // p
            if d % p == 0:
                # Phi_n(x) = Phi_d(x^p): Q(zeta_d) is the span of the powers z^(p*j)
                if all(i % p == 0 for i in support):
                    num = num[::p]
                    break
            elif d > 1:
                split = _coprime_split(n, p)
                raw = [0] * n
                for i in support:
                    raw[split[i]] = num[i]
                a1 = _reduce(raw[d:2 * d], d)
                if all(_reduce(raw[j:j + d], d) == a1 for j in range(2 * d, n, d)):
                    num = [x - y for x, y in zip(_reduce(raw[:d], d), a1)]
                    break
        else:
            break
        n = d
    return _lowest_terms(n, num, den)


def _lowest_terms(n: int, num, den: int) -> "Cyclotomic":
    """The value num/den at conductor n, with the common factor cancelled."""
    g = math.gcd(den, *num)
    if g > 1:
        return Cyclotomic(n, tuple(c // g for c in num), den // g)
    return Cyclotomic(n, tuple(num), den)


def _reciprocal(p: int, q: int) -> "Cyclotomic":
    """The value q/p for coprime p != 0 and q > 0."""
    return Cyclotomic(1, (q,), p) if p > 0 else Cyclotomic(1, (-q,), -p)


def _coerce(v) -> "Cyclotomic | None":
    if isinstance(v, Cyclotomic):
        return v
    if isinstance(v, (int, Fraction)):
        return Cyclotomic(1, (v.numerator,), v.denominator)
    return None


def normalize(coeffs, conductor: int) -> "Cyclotomic":
    """Canonicalize a rational coefficient vector at the given conductor.

    The sequence length must equal the conductor; entries may be ints or
    Fractions.  Idempotent: normalizing a canonical value returns an equal
    value.
    """
    if not isinstance(conductor, int) or conductor < 1:
        raise InvalidInputError(f"conductor must be a positive integer, got {conductor!r}")
    coeffs = list(coeffs)
    if len(coeffs) != conductor:
        raise InvalidInputError(
            f"coefficient sequence has length {len(coeffs)}, conductor is {conductor}")
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    num = [c.numerator * (den // c.denominator) for c in coeffs]
    return _canonical(_reduce(num, conductor), den, conductor)


# ---------------------------------------------------------------------------

class Cyclotomic:
    """An exact element of some Q(zeta_n), always held in canonical form.

    The value is sum(num[i] * zeta_n^i) / den.  Do not call the constructor
    directly; use :func:`normalize`, :meth:`Cyclotomic.zeta`, or
    :meth:`Cyclotomic.from_value`.
    """

    __slots__ = ("n", "num", "den", "_coeffs", "_hash")

    def __init__(self, n: int, num: tuple[int, ...], den: int):
        self.n = n
        self.num = num
        self.den = den
        self._coeffs = None
        self._hash = None

    # -- constructors

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_n^k, built as zeta_(n/g)^(k/g), g = gcd(n, k)."""
        if not isinstance(n, int) or n < 1:
            raise InvalidInputError(f"zeta needs a positive conductor, got {n!r}")
        k %= n
        g = math.gcd(n, k)
        n, k = n // g, k // g
        raw = [0] * n
        raw[k] = 1
        return _canonical(_reduce(raw, n), 1, n)

    @staticmethod
    def from_value(v) -> "Cyclotomic":
        x = _coerce(v)
        if x is None:
            raise InvalidInputError(f"cannot coerce {type(v).__name__} to Cyclotomic")
        return x

    # -- structure

    @property
    def conductor(self) -> int:
        return self.n

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients num[i] / den, one per power of zeta_n."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(c, den) if c else _F0 for c in self.num)
        return self._coeffs

    def is_zero(self) -> bool:
        return self.n == 1 and not self.num[0]

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if self.n == 1:
            return Fraction(self.num[0], self.den)
        return None

    def root_of_unity_order(self) -> int | None:
        """Multiplicative order if the value is a root of unity, else None."""
        if self.is_zero():
            return None
        if self.n == 1:
            return {1: 1, -1: 2}.get(self.num[0]) if self.den == 1 else None
        m = self.n if self.n % 2 == 0 else 2 * self.n
        if self ** m != _ONE:
            return None
        for d in divisors(m):
            if self ** d == _ONE:
                return d
        return None  # pragma: no cover

    def sort_key(self):
        """(n, coefficients), the integer numerators standing for them when
        den = 1: an int c compares as Fraction(c, 1) does."""
        return (self.n, self.num) if self.den == 1 else (self.n, self.coeffs)

    # -- field operations

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = (self, o) if self.n >= o.n else (o, self)
        if b.n == 1:
            p, q = b.num[0], b.den
            if not p:
                return a
            # adding a rational keeps the conductor
            num = [c * q for c in a.num]
            num[0] += p * a.den
            return _lowest_terms(a.n, num, a.den * q)
        if a.n == b.n:
            if a.den == b.den:
                raw = [x + y for x, y in zip(a.num, b.num)]
                den = a.den
            else:
                raw = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
                den = a.den * b.den
            return _canonical(raw, den, a.n)
        m = math.lcm(a.n, b.n)
        raw = [0] * m
        for x, fx, fy in ((a, m // a.n, b.den), (b, m // b.n, a.den)):
            for i, c in enumerate(x.num):
                if c:
                    raw[i * fx] += c * fy
        return _canonical(_reduce(raw, m), a.den * b.den, m)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = (self, o) if self.n >= o.n else (o, self)
        if b.n == 1:
            p, q = b.num[0], b.den
            if not p:
                return _ZERO
            # a nonzero rational factor keeps the conductor
            return _lowest_terms(a.n, [c * p for c in a.num], a.den * q)
        m = math.lcm(a.n, b.n)
        fa, fb = m // a.n, m // b.n
        bterms = [(j * fb, c) for j, c in enumerate(b.num) if c]
        raw = [0] * m
        for i, ci in enumerate(a.num):
            if ci:
                ia = i * fa
                for jb, cj in bterms:
                    k = ia + jb
                    if k >= m:
                        k -= m
                    raw[k] += ci * cj
        return _canonical(_reduce(raw, m), a.den * b.den, m)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse.  A single term c·z^i inverts as
        (1/c)·z^(-i), which lies in the same field and so keeps the minimal
        conductor; any other value as its other Galois conjugates over the
        norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        n = self.n
        if n == 1:
            return _reciprocal(self.num[0], self.den)
        support = [i for i, c in enumerate(self.num) if c]
        if len(support) == 1:
            i = support[0]
            c = self.num[i]
            raw = [0] * n
            raw[-i % n] = self.den if c > 0 else -self.den
            return _lowest_terms(n, _reduce(raw, n), abs(c))
        rest = _ONE
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = rest * self.galois(k)
        norm = self * rest
        return rest * _reciprocal(norm.num[0], norm.den)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- galois action

    def galois(self, k: int) -> "Cyclotomic":
        """Apply the automorphism zeta_n -> zeta_n^k (k coprime to n).

        The minimal conductor is Galois-invariant and the power basis is a
        Z-basis of Z[zeta_n], so the image keeps n and the denominator.
        """
        n = self.n
        kk = k % n
        if math.gcd(kk, n) != 1:
            raise InvalidInputError(f"{k} is not coprime to the conductor {n}")
        if n <= 2 or kk == 1:
            return self
        return Cyclotomic(n, tuple(_galois_num(self.num, n, kk)), self.den)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation (the automorphism k = -1)."""
        if self.n <= 2:
            return self
        return self.galois(-1)

    # -- comparisons

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.n == other.n and self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return (self.n == 1 and self.num[0] == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __bool__(self):
        return self.n != 1 or self.num[0] != 0

    def __hash__(self):
        if self._hash is None:
            if self.n == 1:
                # rationals must hash like their Fraction so int/Fraction keys match
                self._hash = hash(Fraction(self.num[0], self.den))
            else:
                self._hash = hash((self.n, self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"Cyclotomic({format_entry(self)!r})"

    def __str__(self):
        return format_entry(self)


_ZERO = Cyclotomic(1, (0,), 1)
_ONE = Cyclotomic(1, (1,), 1)


def zero() -> Cyclotomic:
    return _ZERO


def one() -> Cyclotomic:
    return _ONE


# ---------------------------------------------------------------------------
# entry syntax: sums of terms  a/b*z^k  with z the ambient primitive root

class EntryParseError(InvalidInputError):
    """Syntax error in a cyclotomic entry; column is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def parse_entry(text: str, conductor: int) -> Cyclotomic:
    """Parse `a/b*z^k` sums at the given conductor.  Whitespace-insensitive.
    The terms are summed as integer numerators over their denominators' lcm."""
    if not isinstance(conductor, int) or conductor < 1:
        raise InvalidInputError(f"conductor must be a positive integer, got {conductor!r}")
    terms = []  # (power of z, signed numerator, denominator)
    length = len(text)

    def skip_ws(p):
        while p < length and text[p].isspace():
            p += 1
        return p

    def read_int(p):
        start = p
        while p < length and text[p].isdigit():
            p += 1
        if p == start:
            raise EntryParseError("expected a digit", start + 1)
        return int(text[start:p]), p

    pos = skip_ws(0)
    if pos == length:
        raise EntryParseError("empty entry", pos + 1)
    while pos < length:
        sign = 1
        while pos < length and text[pos] in "+-":
            if text[pos] == "-":
                sign = -sign
            pos = skip_ws(pos + 1)
        if pos >= length:
            raise EntryParseError("dangling sign", pos + 1)
        num = None
        if text[pos].isdigit():
            num, pos = read_int(pos)
            den = 1
            if pos < length and text[pos] == "/":
                den, pos = read_int(pos + 1)
                if den == 0:
                    raise EntryParseError("zero denominator", pos)
            pos = skip_ws(pos)
            if pos < length and text[pos] == "*":
                pos = skip_ws(pos + 1)
                if pos >= length or text[pos] != "z":
                    raise EntryParseError("expected z after *", pos + 1)
        if pos < length and text[pos] == "z":
            pos = skip_ws(pos + 1)
            k = 1
            if pos < length and text[pos] == "^":
                k, pos = read_int(skip_ws(pos + 1))
            if num is None:
                num, den = 1, 1
            terms.append((k % conductor, sign * num, den))
        elif num is not None:
            terms.append((0, sign * num, den))
        else:
            raise EntryParseError(f"unexpected character {text[pos]!r}", pos + 1)
        pos = skip_ws(pos)
        if pos < length and text[pos] not in "+-":
            raise EntryParseError(f"unexpected character {text[pos]!r}", pos + 1)
    den = math.lcm(*(d for _, _, d in terms))
    raw = [0] * conductor
    for i, c, d in terms:
        raw[i] += c * (den // d)
    return _canonical(_reduce(raw, conductor), den, conductor)


def format_entry(x: Cyclotomic, conductor: int | None = None) -> str:
    """Render a value in entry syntax, relative to the given conductor."""
    n = conductor if conductor is not None else x.n
    if n % x.n:
        raise InvalidInputError(
            f"value of conductor {x.n} cannot be written at conductor {n}")
    step = n // x.n
    terms = []
    for i, c in enumerate(x.coeffs):
        if not c:
            continue
        k = i * step
        if k == 0:
            terms.append(str(c))
        elif c == 1:
            terms.append(f"z^{k}")
        elif c == -1:
            terms.append(f"-z^{k}")
        else:
            terms.append(f"{c}*z^{k}")
    if not terms:
        return "0"
    return " + ".join(terms)
