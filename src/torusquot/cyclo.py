"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A value is a rational coefficient vector over the power basis
1, z, ..., z^(n-1) of z = zeta_n = exp(2*pi*i/n), kept in canonical form:
reduced modulo the n-th cyclotomic polynomial and then descended to the
smallest conductor whose field contains the value.  Canonical form makes
equality (and hashing) a structural comparison, so values can key
dictionaries across mixed conductors.

Values are immutable and every operation is pure.
"""

from __future__ import annotations

import cmath
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
# canonicalization

def _reduce(coeffs: list[Fraction], n: int) -> list[Fraction]:
    """Reduce a length-n coefficient vector modulo Phi_n, in place."""
    phi = cyclotomic_polynomial(n)
    t = len(phi) - 1
    for i in range(n - 1, t - 1, -1):
        c = coeffs[i]
        if c:
            off = i - t
            for j, pj in enumerate(phi):
                if pj:
                    coeffs[off + j] -= c * pj
    return coeffs


def _galois_raw(n: int, coeffs: list[Fraction], k: int) -> list[Fraction]:
    out = [_F0] * n
    for i, c in enumerate(coeffs):
        if c:
            out[(i * k) % n] += c
    return _reduce(out, n)


def _fixed_by_subfield(n: int, coeffs: list[Fraction], d: int) -> bool:
    # fixed by every automorphism k = 1 (mod d) <=> value lies in Q(zeta_d)
    for k in range(d + 1, n, d):
        if math.gcd(k, n) == 1 and _galois_raw(n, coeffs, k) != coeffs:
            return False
    return True


def rref(a) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices, exactly.

    Entries are all Fractions or all Cyclotomic values.  An augmented
    system [A | t] is inconsistent exactly when a pivot lands in the last
    column.
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
        inv = p.inverse() if isinstance(p, Cyclotomic) else 1 / p
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def _solve_columns(cols: list[list[Fraction]], target: list[Fraction]) -> list[Fraction]:
    # solve sum_j x_j * cols[j] = target; the system is consistent by construction
    red, pivots = rref([[col[i] for col in cols] + [t] for i, t in enumerate(target)])
    if pivots and pivots[-1] == len(cols):
        raise ArithmeticError("inconsistent rational system")
    sol = [_F0] * len(cols)
    for row, c in zip(red, pivots):
        sol[c] = row[-1]
    return sol


def _rewrite_in_subfield(n: int, coeffs: list[Fraction], d: int) -> list[Fraction]:
    t_n, t_d = totient(n), totient(d)
    step = n // d
    cols = []
    for j in range(t_d):
        raw = [_F0] * n
        raw[j * step] = _F1
        _reduce(raw, n)
        cols.append(raw[:t_n])
    sol = _solve_columns(cols, coeffs[:t_n])
    out = [_F0] * d
    out[:t_d] = sol
    return out


def _descend(n: int, coeffs: list[Fraction]) -> tuple[int, list[Fraction]]:
    """Descend a canonical vector to the smallest conductor containing it."""
    while True:
        if n == 1:
            return 1, coeffs[:1]
        support = [i for i in range(totient(n)) if coeffs[i]]
        if not support:
            return 1, [_F0]
        if support == [0]:
            return 1, [coeffs[0]]
        if len(support) == 1:
            j = support[0]
            c = coeffs[j]
            g = math.gcd(j, n)
            if g > 1:
                n, j = n // g, j // g
                coeffs = [_F0] * n
                coeffs[j] = c
                _reduce(coeffs, n)
                continue
            if n % 4 == 2:
                # zeta_{2m} = -zeta_m^((m+1)/2) for odd m, so fold into conductor m
                m = n // 2
                jj = (j * ((m + 1) // 2)) % m
                coeffs = [_F0] * m
                coeffs[jj] = -c
                _reduce(coeffs, m)
                n = m
                continue
            return n, coeffs
        moved = False
        for p in prime_factors(n):
            d = n // p
            if _fixed_by_subfield(n, coeffs, d):
                coeffs = _rewrite_in_subfield(n, coeffs, d)
                n = d
                moved = True
                break
        if not moved:
            return n, coeffs


def _make(coeffs: list[Fraction], n: int) -> "Cyclotomic":
    if len(coeffs) < n:
        coeffs = coeffs + [_F0] * (n - len(coeffs))
    _reduce(coeffs, n)
    n, coeffs = _descend(n, coeffs)
    return Cyclotomic(n, tuple(coeffs))


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
    return _make([Fraction(c) for c in coeffs], conductor)


# ---------------------------------------------------------------------------

class Cyclotomic:
    """An exact element of some Q(zeta_n), always held in canonical form.

    Do not call the constructor directly; use :func:`normalize`,
    :meth:`Cyclotomic.zeta`, or :meth:`Cyclotomic.from_value`.
    """

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n: int, coeffs: tuple[Fraction, ...]):
        self.n = n
        self.coeffs = coeffs
        self._hash = None

    # -- constructors

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        """The root of unity zeta_n^k."""
        if not isinstance(n, int) or n < 1:
            raise InvalidInputError(f"zeta needs a positive conductor, got {n!r}")
        raw = [_F0] * n
        raw[k % n] = _F1
        return _make(raw, n)

    @staticmethod
    def from_value(v) -> "Cyclotomic":
        if isinstance(v, Cyclotomic):
            return v
        if isinstance(v, (int, Fraction)):
            return Cyclotomic(1, (Fraction(v),))
        raise InvalidInputError(f"cannot coerce {type(v).__name__} to Cyclotomic")

    # -- structure

    @property
    def conductor(self) -> int:
        return self.n

    def lift_coeffs(self, m: int) -> list[Fraction]:
        """Coefficient vector of this value at conductor m (n must divide m)."""
        if m % self.n:
            raise InvalidInputError(f"cannot lift conductor {self.n} value to conductor {m}")
        step = m // self.n
        out = [_F0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        """The value as a Fraction when it is rational, else None."""
        if self.n == 1:
            return self.coeffs[0]
        return None

    def is_integral(self, m: int) -> bool:
        """True iff the value lies in the ring Z[zeta_m]."""
        if m % self.n:
            return False
        raw = self.lift_coeffs(m)
        _reduce(raw, m)
        return all(c.denominator == 1 for c in raw)

    def root_of_unity_order(self) -> int | None:
        """Multiplicative order if the value is a root of unity, else None."""
        if self.is_zero():
            return None
        if self.n == 1:
            if self.coeffs[0] == 1:
                return 1
            if self.coeffs[0] == -1:
                return 2
            return None
        m = self.n if self.n % 2 == 0 else 2 * self.n
        if self ** m != _ONE:
            return None
        for d in divisors(m):
            if self ** d == _ONE:
                return d
        return None  # pragma: no cover

    def sort_key(self):
        return (self.n, self.coeffs)

    # -- field operations

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(1, (Fraction(other),))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = math.lcm(self.n, o.n)
        raw = self.lift_coeffs(m)
        for i, c in enumerate(o.lift_coeffs(m)):
            if c:
                raw[i] += c
        return _make(raw, m)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = math.lcm(self.n, o.n)
        sa = self.n
        sb = o.n
        fa = m // sa
        fb = m // sb
        raw = [_F0] * m
        for i, ci in enumerate(self.coeffs):
            if ci:
                ia = i * fa
                for j, cj in enumerate(o.coeffs):
                    if cj:
                        raw[(ia + j * fb) % m] += ci * cj
        return _make(raw, m)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse, by an exact linear solve in the power basis."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        if self.n == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],))
        n = self.n
        t = totient(n)
        cur = list(self.coeffs)
        cols = []
        for _ in range(t):
            cols.append(cur[:t])
            nxt = [_F0] * n
            for i, c in enumerate(cur):
                if c:
                    nxt[(i + 1) % n] += c
            cur = _reduce(nxt, n)
        e0 = [_F1] + [_F0] * (t - 1)
        sol = _solve_columns(cols, e0)
        return _make(sol, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
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
        """Apply the automorphism zeta_n -> zeta_n^k (k coprime to n)."""
        n = self.n
        kk = k % n
        if math.gcd(kk, n) != 1:
            raise InvalidInputError(f"{k} is not coprime to the conductor {n}")
        if n <= 2 or kk == 1:
            return self
        raw = [_F0] * n
        for i, c in enumerate(self.coeffs):
            if c:
                raw[(i * kk) % n] += c
        return _make(raw, n)

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation (the automorphism k = -1)."""
        if self.n <= 2:
            return self
        return self.galois(-1)

    # -- numeric embedding

    def embed_float(self) -> complex:
        """Float embedding sending zeta_n to exp(2*pi*i/n)."""
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(2j * cmath.pi * i / self.n)
        return total

    # -- comparisons

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.n == other.n and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.n == 1 and self.coeffs[0] == other
        return NotImplemented

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        if self._hash is None:
            if self.n == 1:
                # rationals must hash like their Fraction so int/Fraction keys match
                self._hash = hash(self.coeffs[0])
            else:
                self._hash = hash((self.n, self.coeffs))
        return self._hash

    def __repr__(self):
        return f"Cyclotomic({format_entry(self)!r})"

    def __str__(self):
        return format_entry(self)


_ZERO = Cyclotomic(1, (_F0,))
_ONE = Cyclotomic(1, (_F1,))
_MINUS_ONE = Cyclotomic(1, (Fraction(-1),))


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
    """Parse `a/b*z^k` sums at the given conductor.  Whitespace-insensitive."""
    if not isinstance(conductor, int) or conductor < 1:
        raise InvalidInputError(f"conductor must be a positive integer, got {conductor!r}")
    n = conductor
    raw = [_F0] * n
    pos = 0
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

    pos = skip_ws(pos)
    if pos == length:
        raise EntryParseError("empty entry", pos + 1)
    saw_term = False
    while pos < length:
        sign = 1
        while pos < length and text[pos] in "+-":
            if text[pos] == "-":
                sign = -sign
            pos = skip_ws(pos + 1)
        if pos >= length:
            raise EntryParseError("dangling sign", pos + 1)
        coeff = None
        if text[pos].isdigit():
            num, pos = read_int(pos)
            den = 1
            if pos < length and text[pos] == "/":
                den, pos = read_int(pos + 1)
                if den == 0:
                    raise EntryParseError("zero denominator", pos)
            coeff = Fraction(num, den)
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
            if coeff is None:
                coeff = _F1
            raw[k % n] += sign * coeff
        elif coeff is not None:
            raw[0] += sign * coeff
        else:
            raise EntryParseError(f"unexpected character {text[pos]!r}", pos + 1)
        saw_term = True
        pos = skip_ws(pos)
        if pos < length and text[pos] not in "+-":
            raise EntryParseError(f"unexpected character {text[pos]!r}", pos + 1)
    if not saw_term:
        raise EntryParseError("empty entry", 1)
    return _make(raw, n)


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
