"""Test-only cyclotomic helpers: the Fraction-based reference arithmetic.

`Cyclotomic` here is the earlier implementation of
:class:`torusquot.cyclo.Cyclotomic`: a tuple of `Fraction` coefficients,
reduced modulo Phi_n and descended to the minimal conductor by testing
every automorphism of Q(zeta_n)/Q(zeta_d) and solving a rational system.
It is slow and simple, and the differential tests compare the integer
implementation against it.

`embed_float` and `is_integral` act on :mod:`torusquot` values.  Only
tests need them: the package itself decides everything exactly.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from torusquot.cyclo import cyclotomic_polynomial, divisors, prime_factors, rref, totient

_F0 = Fraction(0)
_F1 = Fraction(1)


def embed_float(x) -> complex:
    """Float embedding of a torusquot value, sending zeta_n to exp(2*pi*i/n)."""
    total = 0j
    for i, c in enumerate(x.coeffs):
        if c:
            total += float(c) * cmath.exp(2j * cmath.pi * i / x.n)
    return total


def is_integral(x, m: int) -> bool:
    """True iff the torusquot value x lies in the ring Z[zeta_m]."""
    if m % x.n:
        return False
    return all(c.denominator == 1 for c in _reduce(x.lift_coeffs(m), m))


# ---------------------------------------------------------------------------
# the reference arithmetic

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


def _solve_columns(cols: list[list[Fraction]], target: list[Fraction]) -> list[Fraction]:
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
    """Canonicalize a rational coefficient vector of length `conductor`."""
    return _make([Fraction(c) for c in coeffs], conductor)


class Cyclotomic:
    """A canonical element of Q(zeta_n) with Fraction coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[Fraction, ...]):
        self.n = n
        self.coeffs = coeffs

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        raw = [_F0] * n
        raw[k % n] = _F1
        return _make(raw, n)

    @staticmethod
    def from_value(v) -> "Cyclotomic":
        if isinstance(v, Cyclotomic):
            return v
        return Cyclotomic(1, (Fraction(v),))

    def lift_coeffs(self, m: int) -> list[Fraction]:
        step = m // self.n
        out = [_F0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * step] = c
        return out

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def as_rational(self) -> Fraction | None:
        return self.coeffs[0] if self.n == 1 else None

    def root_of_unity_order(self) -> int | None:
        if self.is_zero():
            return None
        if self.n == 1:
            return {1: 1, -1: 2}.get(self.coeffs[0])
        m = self.n if self.n % 2 == 0 else 2 * self.n
        if self ** m != 1:
            return None
        return next(d for d in divisors(m) if self ** d == 1)

    def sort_key(self):
        return (self.n, self.coeffs)

    def __add__(self, other):
        o = Cyclotomic.from_value(other)
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
        return self + (-Cyclotomic.from_value(other))

    def __rsub__(self, other):
        return Cyclotomic.from_value(other) + (-self)

    def __mul__(self, other):
        o = Cyclotomic.from_value(other)
        m = math.lcm(self.n, o.n)
        fa = m // self.n
        fb = m // o.n
        raw = [_F0] * m
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(o.coeffs):
                    if cj:
                        raw[(i * fa + j * fb) % m] += ci * cj
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
        sol = _solve_columns(cols, [_F1] + [_F0] * (t - 1))
        return _make(sol, n)

    def __truediv__(self, other):
        return self * Cyclotomic.from_value(other).inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic(1, (_F1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, k: int) -> "Cyclotomic":
        n = self.n
        if n <= 2 or k % n == 1:
            return self
        return _make(_galois_raw(n, list(self.coeffs), k % n), n)

    def conjugate(self) -> "Cyclotomic":
        return self.galois(-1)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic):
            return self.n == other.n and self.coeffs == other.coeffs
        return self.n == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(self.coeffs[0]) if self.n == 1 else hash((self.n, self.coeffs))


def format_entry(x: Cyclotomic, conductor: int | None = None) -> str:
    """Render a value in entry syntax, relative to the given conductor."""
    n = conductor if conductor is not None else x.n
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
    return " + ".join(terms) if terms else "0"
