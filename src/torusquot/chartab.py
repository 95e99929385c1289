"""Exact character tables of finite matrix groups.

The table is computed by the classical class-matrix method (Dixon, Numer.
Math. 10, 1967; Schneider, J. Symb. Comp. 9, 1990): class sums act on the
class functions over F_p, p = 1 mod exponent(G) and p > 2*ceil(sqrt(|G|)),
and their common eigenvectors are (after normalization) the irreducible
characters mod p.  The linear characters come exactly from the
abelianization, as zeta_e^(t_k); the complement of their span is split one
class sum at a time with one Hessenberg reduction per space, eigenvalues
found by evaluation over F_p.  Each value of the others is lifted exactly
to a sum of roots of unity by Fourier inversion of the eigenvalue
multiplicities, each at most the degree, which is below p.  The table
keeps them and the eigenvalue-1 multiplicities the lift finds.

Every integer sum over classes is read off one evaluation of the values at
an integer point past a norm bound (`_evaluate`, `_read`): the exact check's
Gram product mod q and its indicators (`_verify_table`), the decomposition
and the Frobenius-Schur indicator.  `inner_product`, whose value need not
be rational, sums exact products.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction

from . import modp
from .cyclo import (Cyclotomic, _canonical, _reduce, add_all, cyclotomic_polynomial,
                    format_entry, is_prime, one, zero)
from .errors import InconsistentCharacterError, TableComputationError
from .groups import FiniteGroup

MAX_PRIME_ATTEMPTS = 4


class Character:
    """A class function with cyclotomic values, one per conjugacy class.
    Equal and hashed by its group and values."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: tuple[Cyclotomic, ...]):
        if len(values) != group.num_classes:
            raise InconsistentCharacterError(
                "value count does not match the number of conjugacy classes")
        self.group = group
        self.values = values

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.group == other.group and self.values == other.values

    def __hash__(self):
        return hash((self.group, self.values))

    @property
    def degree(self) -> int:
        d = self.values[0]
        if d.n != 1 or d.den != 1:
            raise InconsistentCharacterError("identity value is not an integer")
        return d.num[0]

    def conjugate(self) -> "Character":
        return Character(self.group, tuple(v.conjugate() for v in self.values))

    def is_faithful(self) -> bool:
        """ρ(g) = I exactly when χ(g) = χ(1), so the kernel is read off the
        character: faithful when only the identity class reaches χ(1)."""
        d = self.values[0]
        return all(v != d for v in self.values[1:])

    def __add__(self, other: "Character") -> "Character":
        if self.group is not other.group:
            raise InconsistentCharacterError("characters belong to different groups")
        return Character(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __mul__(self, other: "Character") -> "Character":
        if self.group is not other.group:
            raise InconsistentCharacterError("characters belong to different groups")
        return Character(self.group, tuple(a * b for a, b in zip(self.values, other.values)))


def trivial_character(group: FiniteGroup) -> Character:
    return Character(group, (one(),) * group.num_classes)


def natural_character(group: FiniteGroup) -> Character:
    """Trace of a class representative, per class."""
    return Character(group, group.class_traces)


def _evaluate(group: FiniteGroup, functions):
    """The class functions times D, their values' common denominator, at
    zeta_m -> w mod q = Phi_m(w), m the values' conductor: one row of
    integers per function, then D, q and the bound B that `_read` takes.

    A conjugate of D chi(k) is at most L, the largest L1 norm of its
    numerators, so each sum read off the rows has conjugates of size at most
    B = |G| (L^2 + D^2): a Gram entry and |G| D^2 (chi|chi_i), for any class
    functions, at most |G| L^2, and sum_k |C_k| D chi(g_k^2) at most |G| L.
    For w = 2B + 2 the map (q need not be prime) has kernel (zeta_m - w), of
    norm q >= (w - 1)^phi(m) > (2B)^phi(m).  Each distinct value is
    evaluated once."""
    values = {id(v): v for chi in functions for v in chi.values}  # shared values once
    m = math.lcm(*(v.n for v in values.values()))
    den = math.lcm(*(v.den for v in values.values()))
    top = max(sum(map(abs, v.num)) * (den // v.den) for v in values.values())
    bound = group.order * (top * top + den * den)
    w = 2 * bound + 2
    q = sum(c * w ** j for j, c in enumerate(cyclotomic_polynomial(m)))
    powers = [pow(w, t, q) for t in range(m)]
    at = {k: sum(c * powers[i * (m // v.n)] for i, c in enumerate(v.num) if c)
          * (den // v.den) % q for k, v in values.items()}
    return [[at[id(v)] for v in chi.values] for chi in functions], den, q, bound


def _read(x: int, q: int, bound: int) -> int | None:
    """The integer c that a sum s over classes, evaluated to x by
    `_evaluate`, equals: the centred residue of x mod q when |c| <= B, else
    None.  s - c has conjugates of size at most 2B, so its norm is below q,
    and it lies in the kernel only if it is 0: s = c exactly when c is
    returned, and an integer s, of size at most B, is always returned."""
    c = x % q
    if c > q // 2:
        c -= q
    return c if abs(c) <= bound else None


def inner_product(a: Character, b: Character) -> Cyclotomic:
    """(a|b) = (1/|G|) sum over classes of size * a(g) * b(g^-1).

    Coincides with the Hermitian product of characters since character values
    at inverses are complex conjugates; stated this way it stays exact for any
    pair of class functions without a conjugation pass.
    """
    g = a.group
    if g is not b.group:
        raise InconsistentCharacterError("characters belong to different groups")
    return add_all(h * x * b.values[k] for h, x, k in
                   zip(g.class_sizes, a.values, g.inverse_class)) * Fraction(1, g.order)


def frobenius_schur(chi: Character) -> int:
    """(1/|G|) sum of chi(g^2): 1 real type, 0 complex, -1 quaternionic,
    read off one evaluation as sum_k |C_k| D chi(g_k^2) = |G| D nu."""
    g = chi.group
    (row,), den, q, bound = _evaluate(g, (chi,))
    unit = g.order * den
    val = _read(sum(h * row[k] for k, h in zip(g.power_classes(2), g.class_sizes)), q, bound)
    if val is None or val % unit:
        raise InconsistentCharacterError("indicator is not an integer")
    return val // unit


def _square(chi: Character, sign: int) -> Character:
    """(chi(g)^2 + sign * chi(g^2)) / 2 per class."""
    half = Cyclotomic.from_value(Fraction(1, 2))
    return Character(chi.group, tuple(
        half * (v * v + sign * chi.values[s])
        for v, s in zip(chi.values, chi.group.power_classes(2))))


def exterior_square(chi: Character) -> Character:
    return _square(chi, -1)


def symmetric_square(chi: Character) -> Character:
    return _square(chi, 1)


def decompose(chi: Character, table: "CharacterTable") -> tuple[int, ...]:
    """Multiplicities of chi in the irreducibles, each read off one
    evaluation as sum_k |C_k| D chi(k^-1) D chi_i(k) = |G| D^2 (chi|chi_i);
    verified by reconstruction."""
    g = chi.group
    if any(irr.group is not g for irr in table.irreducibles):
        raise InconsistentCharacterError("characters belong to different groups")
    (row, *irreducibles), den, q, bound = _evaluate(g, (chi, *table.irreducibles))
    left = [h * row[k] for h, k in zip(g.class_sizes, g.inverse_class)]
    unit = g.order * den * den
    mult = []
    for irr in irreducibles:
        v = _read(sum(map(operator.mul, left, irr)), q, bound)
        if v is None or v < 0 or v % unit:
            raise InconsistentCharacterError(
                "inner product with an irreducible is not a non-negative integer")
        mult.append(v // unit)
    rebuilt = [zero()] * g.num_classes
    for c, irr in zip(mult, table.irreducibles):
        if c:
            rebuilt = [acc + c * v for acc, v in zip(rebuilt, irr.values)]
    if tuple(rebuilt) != chi.values:
        raise InconsistentCharacterError("multiplicities do not reconstruct the character")
    return tuple(mult)


class CharacterTable:
    """All irreducible characters, sorted by degree then value order, with
    ``eigenvalue_one[i]``, irreducible i's eigenvalue-1 multiplicity per
    class, and their Frobenius-Schur indicators."""

    def __init__(self, group: FiniteGroup, irreducibles, eigenvalue_one, indicators):
        self.group = group
        self.irreducibles = tuple(irreducibles)
        self.eigenvalue_one = tuple(eigenvalue_one)
        self._indicators = tuple(indicators)

    def __len__(self):
        return len(self.irreducibles)

    def __iter__(self):
        return iter(self.irreducibles)

    def __getitem__(self, i):
        return self.irreducibles[i]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(chi.degree for chi in self.irreducibles)

    def indicator(self, i: int) -> int:
        """Frobenius-Schur indicator of irreducible i, read off the check."""
        return self._indicators[i]

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
                    "indicator": self.indicator(i),
                    "values": [format_entry(v) for v in chi.values],
                }
                for i, chi in enumerate(self.irreducibles)
            ],
        }

    def render(self) -> str:
        g = self.group
        rows = [["", *(f"class {k}" for k in range(g.num_classes))],
                ["size", *map(str, g.class_sizes)],
                ["order", *map(str, g.class_orders)]]
        rows += [[f"X{i}", *map(format_entry, chi.values)]
                 for i, chi in enumerate(self.irreducibles)]
        widths = [max(map(len, column)) for column in zip(*rows)]
        return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip()
                         for r in rows)


def _class_matrix_rows(group: FiniteGroup, i: int, rows) -> list[list[int]]:
    """Rows j in ``rows`` of class matrix i, whose entry (j, k) is the
    coefficient of C_k in the product of class sums C_i * C_j.

    Class sums are central, so C_i * C_j = C_j * C_i, and the pairs (y, x)
    in C_j x C_i with y * x in C_k number |C_k| times that coefficient.
    Conjugation permutes C_i and C_j, so every x in C_i pairs with as many
    y as the representative g_i does: the entry is |C_i| times the number
    of y in C_j with y * g_i in C_k, over |C_k|.  Only the members of the
    classes j are multiplied, each folded through the right-multiplication
    table along g_i's BFS word, which is short: g_i is its class's
    smallest index, the first member BFS reached (Schneider, J. Symb.
    Comp. 9, 1990)."""
    members = group.conjugacy_classes
    sizes = group.class_sizes
    class_of = group.class_map
    columns = [group.right_table[a] for a in group.word(group.class_representatives[i])]
    out = []
    for j in rows:
        products = members[j]
        for column in columns:
            products = map(column.__getitem__, products)
        row = [0] * len(sizes)
        for k, c in Counter(map(class_of.__getitem__, products)).items():
            row[k], rest = divmod(sizes[i] * c, sizes[k])
            if rest:
                raise TableComputationError("class matrix entry is not an integer")
        out.append(row)
    return out


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
    """Common eigenvectors (normalized at the identity class) of all class
    matrices mod p: v_k = |C_k| chi(g_k) / chi(1), one per irreducible chi.

    The linear characters come from the abelianization lattice, reduced at
    w of order e = exponent(G): v_k = |C_k| w^(t_k).  By the row
    orthogonality relations the vectors are orthogonal under
    B(u, v) = sum_k u_k v_(k^-1) / |C_k|, with |G|/chi(1)^2, a unit mod p,
    on the diagonal.  So the others span the u with B(u, v_lambda) = 0 for
    every lambda, one `rref_mod` of an r1 x r system, and only that
    complement is split.

    A space is held as its pivot columns P, the other columns N and, per
    basis vector, its entries at N; the vector is 1 at its own pivot and 0
    at the other pivots, so the complement's vectors have 1 + r1 entries.
    The class matrices commute, so each space is invariant: M * B = B * R,
    and at the rows P this reads R = M[P, :] * B, built from the rows of M
    at the pivots of the spaces still to split.  One Hessenberg reduction
    H = S^-1 * R * S gives every eigenspace, as S * ker(H - lam), brought
    to the identity at its new pivots by `rref_mod`.

    A class with |G| = r1 |C_k| is skipped before its rows are built: the
    r1 linear characters use up the column orthogonality sum
    sum_chi |chi(g_k)|^2 = |C_G(g_k)| = r1, so every other chi vanishes
    there and the class matrix acts as 0 on the complement."""
    r = group.num_classes
    sizes, inv_class = group.class_sizes, group.inverse_class
    e = group.exponent()
    w = modp.element_of_order(e, p)
    vectors = [[h * pow(w, t, p) % p for h, t in zip(sizes, ts)]
               for ts in group.linear_characters]
    r1 = len(vectors)
    weights = [modp.inv_mod(h % p, p) for h in sizes]
    system, others = modp.rref_mod(
        [[v[inv_class[k]] * weights[k] % p for k in range(r)] for v in vectors], p)
    if len(others) != len(vectors):
        raise TableComputationError(f"linear characters are dependent mod {p}")
    taken = set(others)
    pivots = [k for k in range(r) if k not in taken]
    spaces = []
    if pivots:  # the complement, empty when every irreducible is linear
        spaces.append((pivots, others, [[-row[f] % p for row in system] for f in pivots]))
    for ci in range(1, r):
        if all(len(pivots) == 1 for pivots, _, _ in spaces):
            break
        if group.order == r1 * sizes[ci]:
            continue
        needed = sorted(j for pivots, _, _ in spaces if len(pivots) > 1 for j in pivots)
        rows = dict(zip(needed, _class_matrix_rows(group, ci, needed)))
        refined = []
        for pivots, others, basis in spaces:
            if len(pivots) == 1:
                refined.append((pivots, others, basis))
                continue
            restriction = []
            for j in pivots:
                row = rows[j]
                at_others = [row[k] for k in others]
                restriction.append([(row[f] + sum(map(operator.mul, at_others, v))) % p
                                    for f, v in zip(pivots, basis)])
            lam = restriction[0][0]
            if all(x == (lam if a == b else 0)
                   for a, row in enumerate(restriction) for b, x in enumerate(row)):
                refined.append((pivots, others, basis))  # M acts as lam: one eigenspace
                continue
            h, transform = modp.hessenberg_mod(restriction, p)
            columns = list(zip(*basis))
            for lam in modp.roots_mod(modp.hessenberg_charpoly(h, p), p):
                # the whole eigenspace stays one subspace; later class
                # matrices keep refining it.  A kernel vector y is 0 past
                # its free column, so S * y reads only the columns up to it
                kernel = [[sum(map(operator.mul, row, y)) % p for row in transform]
                          for y in map(modp.poly_trim, modp.hessenberg_kernel(h, lam, p))]
                coeffs, free = modp.rref_mod(kernel, p)
                kept = set(free)
                rest = [b for b in range(len(pivots)) if b not in kept]
                refined.append(([pivots[f] for f in free], [pivots[b] for b in rest] + others,
                                [[c[b] for b in rest] + [sum(map(operator.mul, c, col)) % p
                                                         for col in columns] for c in coeffs]))
        spaces = refined
    if any(len(pivots) != 1 for pivots, _, _ in spaces):
        raise TableComputationError(
            f"class matrices failed to split into {r} one-dimensional eigenspaces mod {p}")
    # the lattice's vectors are 1 at the identity class already
    for (pivot,), others, (entries,) in spaces:
        v = [0] * r
        v[pivot] = 1
        for k, x in zip(others, entries):
            v[k] = x
        if v[0] % p == 0:
            raise TableComputationError("eigenvector vanishes at the identity class")
        inv0 = modp.inv_mod(v[0], p)
        vectors.append([x * inv0 % p for x in v])
    return vectors


def _lift_plan(group: FiniteGroup, p: int, omega: int):
    """What the lift of every character reads, per class of order o: o,
    1/o mod p, the classes of g^t for t < o, the rows w^(-jt) for j < o,
    with w = omega^(e/o) of order o, and the lifts found so far, keyed by
    the values at the powers; classes of one order share the rows and the
    lifts."""
    e = group.exponent()
    of_order = {}
    plan = []
    for k, o in enumerate(group.class_orders):
        shared = of_order.get(o)
        if shared is None:
            winv = modp.inv_mod(pow(omega, e // o, p), p)
            wpow = [pow(winv, t, p) for t in range(o)]
            shared = of_order[o] = ([[wpow[j * t % o] for t in range(o)] for j in range(o)], {})
        powers = [group.power_classes(t)[k] for t in range(o)]
        plan.append((o, modp.inv_mod(o, p), powers) + shared)
    return plan


def _lift_character(plan, p: int, xk: list[int], d: int):
    """Exact values from mod-p values: Fourier-invert eigenvalue multiplicities.

    At a class of order o the value is sum(mults[j] * zeta_o^j), built by
    one reduction of the multiplicity vector, kept in the plan for the next
    class or character with the same values at the powers.  Also returns
    mults[0] per class, the multiplicity of eigenvalue 1: it is in [0, d]
    and d < p, so it is exact once the table check accepts the values.
    """
    values, ones = [], []
    for o, oinv, powers, rows, known in plan:
        xs = tuple(xk[c] for c in powers)
        lift = known.get(xs)
        if lift is None:
            mults = [sum(map(operator.mul, row, xs)) * oinv % p for row in rows]
            # mults[0] is read before _reduce folds the list in place
            lift = known[xs] = (sum(mults), max(mults), mults[0],
                                _canonical(_reduce(mults, o), 1, o))
        total, largest, fixed, value = lift
        if total != d or largest > d:
            raise TableComputationError(
                "eigenvalue multiplicities do not sum to the degree")
        values.append(value)
        ones.append(fixed)
    return tuple(values), tuple(ones)


def _table_mod_p(group: FiniteGroup, p: int) -> CharacterTable:
    """The linear rows from the lattice, zeta_e^(t_k) with eigenvalue-1
    counts [t_k = 0]; the others lifted from the split's vectors past them."""
    r, sizes, inv_class = group.num_classes, group.class_sizes, group.inverse_class
    order, e = group.order, group.exponent()
    linear = group.linear_characters
    vectors = _split_eigenspaces(group, p)[len(linear):]
    roots = {t: Cyclotomic.zeta(e, t) for t in {t for ts in linear for t in ts}}
    chars = [Character(group, tuple(map(roots.__getitem__, ts))) for ts in linear]
    ones = [tuple(int(t == 0) for t in ts) for ts in linear]
    if vectors:
        size_inv = [modp.inv_mod(h % p, p) for h in sizes]
        plan = _lift_plan(group, p, modp.element_of_order(e, p))
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
            values, fixed = _lift_character(plan, p, xk, d)
            chars.append(Character(group, values))
            ones.append(fixed)
    indicators = _verify_table(group, chars)
    rows = sorted(zip(chars, ones, indicators),
                  key=lambda row: (row[0].degree, tuple(v.sort_key() for v in row[0].values)))
    return CharacterTable(group, *zip(*rows))


def _verify_table(group: FiniteGroup, chars) -> list[int]:
    """Exact check of the lifted table: the degrees' squares sum to |G|,
    the rows are orthonormal, and the degrees are positive (a row times -1
    keeps the relations).  Returns the rows' indicators.

    The rows are read off one evaluation (`_evaluate`).  The Gram matrix is
    one product mod q, each entry sum_k |C_k| D chi_i(k) D chi_j(k^-1) read
    as |G| D^2 delta_ij, at j >= i (x_ji = x_ij, as k -> k^-1 keeps class
    sizes).  The indicator nu is read as sum_k |C_k| D chi(g_k^2) = |G| D nu."""
    order = group.order
    if sum(c.degree ** 2 for c in chars) != order:
        raise TableComputationError("degrees do not satisfy the sum-of-squares identity")
    evaluated, den, q, bound = _evaluate(group, chars)
    right = [list(map(row.__getitem__, group.inverse_class)) for row in evaluated]
    sizes, unit = group.class_sizes, order * den
    for i, row in enumerate(evaluated):
        left = list(map(operator.mul, sizes, row))
        for j in range(i, len(chars)):
            if _read(sum(map(operator.mul, left, right[j])), q, bound) != \
                    (unit * den if i == j else 0):
                raise TableComputationError("lifted characters are not orthonormal")
    if any(c.degree < 1 for c in chars):
        raise TableComputationError("a degree is not positive")
    squares = [0] * len(sizes)  # sum_k |C_k| chi(g_k^2) = sum_j squares[j] chi(g_j)
    for h, k in zip(sizes, group.power_classes(2)):
        squares[k] += h
    signs = {unit: 1, 0: 0, -unit: -1}
    indicators = [signs.get(_read(sum(map(operator.mul, squares, row)), q, bound))
                  for row in evaluated]
    if None in indicators:
        raise TableComputationError("an indicator is not -1, 0 or 1")
    return indicators


def character_table(group: FiniteGroup) -> CharacterTable:
    """Compute all irreducible characters exactly."""
    failures = []
    primes = _admissible_primes(group.exponent(), group.order)
    for _ in range(MAX_PRIME_ATTEMPTS):
        p = next(primes)
        try:
            return _table_mod_p(group, p)
        except TableComputationError as exc:
            failures.append(f"p={p}: {exc}")
    raise TableComputationError(
        "character table failed for all primes tried: " + "; ".join(failures))
