"""Exact character tables of finite matrix groups.

The table is computed by the classical class-matrix method: class sums act on
the r-dimensional space of class functions over a prime field F_p with
p = 1 mod exponent(G) and p > 2*ceil(sqrt(|G|)), their common eigenvectors are
(after normalization) the irreducible characters reduced mod p, and each value
is lifted exactly to a sum of roots of unity by finite-field Fourier
inversion of the eigenvalue multiplicities.  The lift is exact because every
multiplicity is at most the degree, which is below p.

Character values are exact `Cyclotomic` values.  The sums over classes
(inner products, indicators, eigenvalue-1 counts and the table check) do
not chain field operations: each class function is lifted once to integer
numerators over one common denominator in Z[z]/(z^m - 1), z = zeta_m with
m = lcm(exponent, value conductors), the sum is accumulated there in
integers, and the total is reduced mod Phi_m and canonicalised once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import modp
from .cyclo import Cyclotomic, _canonical, _reduce, format_entry, is_prime, one, zero
from .errors import InconsistentCharacterError, TableComputationError
from .groups import FiniteGroup

MAX_PRIME_ATTEMPTS = 4


@dataclass(frozen=True)
class Character:
    """A class function with cyclotomic values, one per conjugacy class."""

    group: FiniteGroup
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if len(self.values) != self.group.num_classes:
            raise InconsistentCharacterError(
                "value count does not match the number of conjugacy classes")

    @property
    def degree(self) -> int:
        d = self.values[0].as_rational()
        if d is None or d.denominator != 1:
            raise InconsistentCharacterError("identity value is not an integer")
        return int(d)

    def value_at_element(self, i: int) -> Cyclotomic:
        return self.values[self.group.class_of(i)]

    def conjugate(self) -> "Character":
        return Character(self.group, tuple(v.conjugate() for v in self.values))

    def is_real_valued(self) -> bool:
        return all(v == v.conjugate() for v in self.values)

    def __add__(self, other: "Character") -> "Character":
        if self.group is not other.group:
            raise InconsistentCharacterError("characters belong to different groups")
        return Character(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "Character") -> "Character":
        if self.group is not other.group:
            raise InconsistentCharacterError("characters belong to different groups")
        return Character(self.group, tuple(a * b for a, b in zip(self.values, other.values)))

    def scale(self, m: int) -> "Character":
        c = Cyclotomic.from_value(m)
        return Character(self.group, tuple(c * v for v in self.values))


def trivial_character(group: FiniteGroup) -> Character:
    return Character(group, (one(),) * group.num_classes)


def natural_character(group: FiniteGroup) -> Character:
    """Trace of a class representative, per class."""
    return Character(group, tuple(group.element(r).trace() for r in group.class_representatives))


def _conductor(group: FiniteGroup, functions) -> int:
    """m for the lift: the exponent, unless a value's conductor does not divide it."""
    m = group.exponent()
    for chi in functions:
        for v in chi.values:
            if m % v.n:
                m = math.lcm(m, v.n)
    return m


def _lift(chi: Character, m: int) -> tuple[int, list]:
    """A common denominator D and, per class, the nonzero numerators (i, c)
    with chi(k) = sum(c * z^i) / D in Z[z]/(z^m - 1), z = zeta_m."""
    den = 1
    for v in chi.values:
        if den % v.den:
            den = math.lcm(den, v.den)
    rows = []
    for v in chi.values:
        num, f = v.num, den // v.den
        if v.n == 1:
            rows.append([(0, num[0] * f)] if num[0] else [])
        else:
            step = m // v.n
            rows.append([(i * step, c * f) for i, c in enumerate(num) if c])
    return den, rows


def _class_pairs(group: FiniteGroup) -> tuple[tuple[int, int], ...]:
    """(|C_k|, index of the class of k^-1) for each class k."""
    return tuple(zip(group.class_sizes, group.inverse_class))


def _pairing(group: FiniteGroup, m: int, classes, a, b) -> Cyclotomic:
    """(1/|G|) sum_k |C_k| a(k) b(k^-1) of two lifted class functions,
    accumulated in Z[z]/(z^m - 1) and reduced once."""
    (da, ra), (db, rb) = a, b
    acc = [0] * m
    for (h, kinv), xs in zip(classes, ra):
        ys = rb[kinv]
        if not ys:
            continue
        for i, c in xs:
            hc = h * c
            for j, d in ys:
                t = i + j
                if t >= m:
                    t -= m
                acc[t] += hc * d
    return _canonical(_reduce(acc, m), group.order * da * db, m)


def _average(m: int, lifted, terms, size: int) -> Fraction | None:
    """(1/size) sum of w * chi(k) over (w, k) in terms, for a lifted chi,
    when that is rational."""
    den, rows = lifted
    acc = [0] * m
    for w, k in terms:
        for i, c in rows[k]:
            acc[i] += w * c
    return _canonical(_reduce(acc, m), size * den, m).as_rational()


def inner_product(a: Character, b: Character) -> Cyclotomic:
    """(a|b) = (1/|G|) sum over classes of size * a(g) * b(g^-1).

    Coincides with the Hermitian product of characters since character values
    at inverses are complex conjugates; stated this way it stays exact for any
    pair of class functions without a conjugation pass.
    """
    g = a.group
    if g is not b.group:
        raise InconsistentCharacterError("characters belong to different groups")
    m = _conductor(g, (a, b))
    return _pairing(g, m, _class_pairs(g), _lift(a, m), _lift(b, m))


def frobenius_schur(chi: Character) -> int:
    """(1/|G|) sum of chi(g^2): 1 real type, 0 complex, -1 quaternionic."""
    g = chi.group
    m = _conductor(g, (chi,))
    val = _average(m, _lift(chi, m), zip(g.class_sizes, g.power_classes(2)), g.order)
    if val is None or val.denominator != 1:
        raise InconsistentCharacterError("indicator is not an integer")
    return int(val)


def exterior_square(chi: Character) -> Character:
    g = chi.group
    sq = g.power_classes(2)
    half = Cyclotomic.from_value(Fraction(1, 2))
    return Character(g, tuple(
        half * (chi.values[k] * chi.values[k] - chi.values[sq[k]])
        for k in range(g.num_classes)))


def symmetric_square(chi: Character) -> Character:
    g = chi.group
    sq = g.power_classes(2)
    half = Cyclotomic.from_value(Fraction(1, 2))
    return Character(g, tuple(
        half * (chi.values[k] * chi.values[k] + chi.values[sq[k]])
        for k in range(g.num_classes)))


def eigenvalue_one_counts(chi: Character) -> tuple[int, ...]:
    """Multiplicity of eigenvalue 1 per class, from character values alone.

    For g of order o the multiplicity is the average of chi over the cyclic
    group generated by g.
    """
    g = chi.group
    m = _conductor(g, (chi,))
    lifted = _lift(chi, m)
    powers = [g.power_classes(t) for t in range(max(g.class_orders))]
    counts = []
    for k, o in enumerate(g.class_orders):
        val = _average(m, lifted, ((1, powers[t][k]) for t in range(o)), o)
        if val is None or val.denominator != 1 or val < 0:
            raise InconsistentCharacterError(
                "eigenvalue-1 multiplicity is not a non-negative integer")
        counts.append(int(val))
    return tuple(counts)


def decompose(chi: Character, table: "CharacterTable") -> tuple[int, ...]:
    """Multiplicities of chi in the irreducibles; verified by reconstruction."""
    g = chi.group
    if any(irr.group is not g for irr in table.irreducibles):
        raise InconsistentCharacterError("characters belong to different groups")
    m = _conductor(g, (chi, *table.irreducibles))
    a = _lift(chi, m)
    classes = _class_pairs(g)
    mult = []
    for irr in table.irreducibles:
        v = _pairing(g, m, classes, a, _lift(irr, m)).as_rational()
        if v is None or v.denominator != 1 or v < 0:
            raise InconsistentCharacterError(
                "inner product with an irreducible is not a non-negative integer")
        mult.append(int(v))
    rebuilt = [zero()] * g.num_classes
    for c, irr in zip(mult, table.irreducibles):
        if c:
            rebuilt = [acc + c * v for acc, v in zip(rebuilt, irr.values)]
    if tuple(rebuilt) != chi.values:
        raise InconsistentCharacterError("multiplicities do not reconstruct the character")
    return tuple(mult)


class CharacterTable:
    """All irreducible characters, sorted by degree then value order."""

    def __init__(self, group: FiniteGroup, irreducibles):
        self.group = group
        self.irreducibles = tuple(irreducibles)

    def __len__(self):
        return len(self.irreducibles)

    def __iter__(self):
        return iter(self.irreducibles)

    def __getitem__(self, i):
        return self.irreducibles[i]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(chi.degree for chi in self.irreducibles)

    def index_of(self, chi: Character) -> int | None:
        for i, irr in enumerate(self.irreducibles):
            if irr.values == chi.values:
                return i
        return None

    def conjugate_index(self, i: int) -> int:
        j = self.index_of(self.irreducibles[i].conjugate())
        if j is None:
            raise InconsistentCharacterError("table is not closed under conjugation")
        return j

    def to_dict(self) -> dict:
        g = self.group
        return {
            "group_order": g.order,
            "num_classes": g.num_classes,
            "class_sizes": list(g.class_sizes),
            "class_orders": list(g.class_orders),
            "irreducibles": [
                {
                    "degree": chi.degree,
                    "indicator": frobenius_schur(chi),
                    "values": [format_entry(v) for v in chi.values],
                }
                for chi in self.irreducibles
            ],
        }

    def render(self) -> str:
        g = self.group
        cols = [[f"class {k}", str(g.class_sizes[k]), str(g.class_orders[k])]
                for k in range(g.num_classes)]
        for chi in self.irreducibles:
            for k, v in enumerate(chi.values):
                cols[k].append(format_entry(v))
        # row-major cells, first column is labels
        rows = [[""] + [c[0] for c in cols],
                ["size"] + [c[1] for c in cols],
                ["order"] + [c[2] for c in cols]]
        for i in range(len(self.irreducibles)):
            rows.append([f"X{i}"] + [c[3 + i] for c in cols])
        widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip()
                 for r in rows]
        return "\n".join(lines)


def _class_matrix(group: FiniteGroup, i: int):
    r = group.num_classes
    reps = group.class_representatives
    mat = [[0] * r for _ in range(r)]
    for x in group.conjugacy_classes[i]:
        xinv = group.inv(x)
        for k, z in enumerate(reps):
            mat[group.class_of(group.mult(xinv, z))][k] += 1
    return mat


def _admissible_primes(exponent: int, group_order: int):
    lower = 2 * math.isqrt(group_order)
    if lower * lower < 4 * group_order:
        lower += 2  # strict: p > 2*ceil(sqrt(|G|))
    p = exponent + 1
    while p <= max(lower, 2):
        p += exponent
    while True:
        if is_prime(p):
            yield p
        p += exponent


def _split_eigenspaces(group: FiniteGroup, p: int):
    """Common eigenvectors (columns, normalized at the identity class) of all
    class matrices mod p, via deterministic iterated splitting."""
    r = group.num_classes
    spaces = [[[1 if i == j else 0 for i in range(r)] for j in range(r)]]
    for ci in range(1, r):
        if all(len(b) == 1 for b in spaces):
            break
        mat = _class_matrix(group, ci)
        refined = []
        for basis in spaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            cols = [list(col) for col in zip(*basis)]  # r x s, columns = basis
            image = modp.mat_mul_mod(mat, cols, p)
            restriction = modp.solve_unique_mod(cols, image, p)
            for lam in modp.roots_mod(modp.charpoly_mod(restriction, p), p):
                s = len(basis)
                shifted = [[(restriction[a][b] - (lam if a == b else 0)) % p
                            for b in range(s)] for a in range(s)]
                # the whole eigenspace stays one subspace; later class
                # matrices keep refining it
                eigenspace = []
                for coeffs in modp.kernel_mod(shifted, p):
                    eigenspace.append(
                        [sum(c * basis[m][j] for m, c in enumerate(coeffs)) % p
                         for j in range(r)])
                refined.append(eigenspace)
        spaces = refined
    if any(len(b) != 1 for b in spaces) or len(spaces) != r:
        raise TableComputationError(
            f"class matrices failed to split into {r} one-dimensional eigenspaces mod {p}")
    vectors = []
    for (v,) in spaces:
        if v[0] % p == 0:
            raise TableComputationError("eigenvector vanishes at the identity class")
        inv0 = modp.inv_mod(v[0], p)
        vectors.append([x * inv0 % p for x in v])
    return vectors


def _lift_character(group: FiniteGroup, xk: list[int], d: int, p: int, omega: int):
    """Exact values from mod-p values: Fourier-invert eigenvalue multiplicities.

    At a class of order o the value is sum(mults[j] * zeta_o^j), built by
    one reduction of the multiplicity vector.
    """
    e = group.exponent()
    values = []
    for k, o in enumerate(group.class_orders):
        winv = modp.inv_mod(pow(omega, e // o, p), p)
        oinv = modp.inv_mod(o, p)
        xs = [xk[group.power_classes(t)[k]] for t in range(o)]
        wpow = [pow(winv, t, p) for t in range(o)]
        mults = [sum(x * wpow[j * t % o] for t, x in enumerate(xs)) * oinv % p
                 for j in range(o)]
        if sum(mults) != d or any(m > d for m in mults):
            raise TableComputationError(
                "eigenvalue multiplicities do not sum to the degree")
        values.append(_canonical(_reduce(mults, o), 1, o))
    return tuple(values)


def _table_mod_p(group: FiniteGroup, p: int) -> list[Character]:
    r = group.num_classes
    sizes = group.class_sizes
    inv_class = group.inverse_class
    order = group.order
    vectors = _split_eigenspaces(group, p)
    size_inv = [modp.inv_mod(h % p, p) for h in sizes]
    omega = modp.element_of_order(group.exponent(), p)
    chars = []
    max_d = math.isqrt(order)
    for v in vectors:
        t = sum(v[k] * v[inv_class[k]] % p * size_inv[k] for k in range(r)) % p
        if t == 0:
            raise TableComputationError("degree normalization sum vanished")
        d_sq = order % p * modp.inv_mod(t, p) % p
        d = next((c for c in range(1, max_d + 1) if c * c % p == d_sq), None)
        if d is None:
            raise TableComputationError("no admissible degree matches the eigenvector")
        xk = [d * v[k] % p * size_inv[k] % p for k in range(r)]
        chars.append(Character(group, _lift_character(group, xk, d, p, omega)))
    _verify_table(group, chars)
    return chars


def _verify_table(group: FiniteGroup, chars: list[Character]):
    """Exact check of the lifted table: the degrees' squares sum to |G|, and
    every one of the r^2 orthonormality relations holds.

    Only the pairs j >= i are summed: the pairing sum_k |C_k| a(k) b(k^-1)
    is symmetric in a and b, since k -> k^-1 maps classes to classes of the
    same size, so (b|a) repeats (a|b) exactly."""
    if sum(c.degree ** 2 for c in chars) != group.order:
        raise TableComputationError("degrees do not satisfy the sum-of-squares identity")
    m = _conductor(group, chars)
    lifted = [_lift(c, m) for c in chars]
    classes = _class_pairs(group)
    for i, a in enumerate(lifted):
        for j, b in enumerate(lifted[i:], i):
            if _pairing(group, m, classes, a, b) != (1 if i == j else 0):
                raise TableComputationError("lifted characters are not orthonormal")


def character_table(group: FiniteGroup) -> CharacterTable:
    """Compute all irreducible characters exactly."""
    if group.num_classes == 1:
        return CharacterTable(group, [trivial_character(group)])
    failures = []
    primes = _admissible_primes(group.exponent(), group.order)
    for _ in range(MAX_PRIME_ATTEMPTS):
        p = next(primes)
        try:
            chars = _table_mod_p(group, p)
        except TableComputationError as exc:
            failures.append(f"p={p}: {exc}")
            continue
        chars.sort(key=lambda c: (c.degree, tuple(v.sort_key() for v in c.values)))
        return CharacterTable(group, chars)
    raise TableComputationError(
        "character table failed for all primes tried: " + "; ".join(failures))
