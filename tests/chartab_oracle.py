"""Test-only reference bodies for the character table and its sums.

The character sums are the earlier bodies of
:func:`torusquot.chartab.inner_product`,
:func:`~torusquot.chartab.frobenius_schur` and
:func:`~torusquot.chartab.decompose`, and :func:`eigenvalue_one_counts`,
the average of a character over each cyclic subgroup ⟨g⟩, which the package
reads off the table instead: every class sum is a chain of exact
`Cyclotomic` products and sums, canonicalised at each step.

The table steps are the earlier :func:`_class_matrix`, which builds every
row of a class matrix from the inverses of the class members,
:func:`_split_eigenspaces`, which restricts each class matrix to a space by
a full product and a row reduction, finds eigenvalues by the
Cantor-Zassenhaus root finder of `modp_oracle` and row-reduces once per
eigenvalue (`modp_oracle.kernel_mod`), :func:`_lift_character`,
which sets up the Fourier inversion again for each character, and
:func:`_verify_table`, which compares canonical inner products.
:func:`_verify_pairings` is the check that followed it: each of the
r(r+1)/2 pairings accumulated in integers in Z[z]/(z^m - 1) and read off
its numerators reduced mod Phi_m (:func:`_lift`, :func:`_pairing`), as the
decomposition and the indicator were summed too.  The table's bookkeeping
read degrees and sort keys through `Fraction` (:func:`degree`,
:func:`sort_key`).

They are slow and simple, and the differential tests compare `chartab`
against them; :func:`check_table_reads` compares what a finished table
stores with them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import modp_oracle
from helpers import mat_mul_mod, solve_unique_mod

from torusquot import chartab, modp
from torusquot.chartab import Character
from torusquot.cyclo import Cyclotomic, _canonical, _reduce, zero
from torusquot.errors import InconsistentCharacterError, TableComputationError


def inner_product(a: Character, b: Character) -> Cyclotomic:
    """(a|b) = (1/|G|) sum over classes of size * a(g) * b(g^-1)."""
    g = a.group
    if g is not b.group:
        raise InconsistentCharacterError("characters belong to different groups")
    inv = g.inverse_class
    total = sum(
        (Cyclotomic.from_value(h) * x * b.values[inv[k]]
         for k, (h, x) in enumerate(zip(g.class_sizes, a.values))),
        zero())
    return total * Cyclotomic.from_value(Fraction(1, g.order))


def frobenius_schur(chi: Character) -> int:
    """(1/|G|) sum of chi(g^2): 1 real type, 0 complex, -1 quaternionic."""
    g = chi.group
    sq = g.power_classes(2)
    total = sum(
        (Cyclotomic.from_value(h) * chi.values[sq[k]]
         for k, h in enumerate(g.class_sizes)),
        zero())
    val = (total * Cyclotomic.from_value(Fraction(1, g.order))).as_rational()
    if val is None or val.denominator != 1:
        raise InconsistentCharacterError("indicator is not an integer")
    return int(val)


def eigenvalue_one_counts(chi: Character) -> tuple[int, ...]:
    """Multiplicity of eigenvalue 1 per class: the average of chi over <g>."""
    g = chi.group
    counts = []
    for k in range(g.num_classes):
        o = g.class_orders[k]
        total = sum((chi.values[g.power_classes(t)[k]] for t in range(o)), zero())
        val = (total * Cyclotomic.from_value(Fraction(1, o))).as_rational()
        if val is None or val.denominator != 1 or val < 0:
            raise InconsistentCharacterError(
                "eigenvalue-1 multiplicity is not a non-negative integer")
        counts.append(int(val))
    return tuple(counts)


def decompose(chi: Character, table) -> tuple[int, ...]:
    """Multiplicities of chi in the irreducibles; verified by reconstruction."""
    mult = []
    for irr in table.irreducibles:
        m = inner_product(chi, irr).as_rational()
        if m is None or m.denominator != 1 or m < 0:
            raise InconsistentCharacterError(
                "inner product with an irreducible is not a non-negative integer")
        mult.append(int(m))
    rebuilt = [zero()] * chi.group.num_classes
    for m, irr in zip(mult, table.irreducibles):
        if m:
            c = Cyclotomic.from_value(m)
            rebuilt = [acc + c * v for acc, v in zip(rebuilt, irr.values)]
    if tuple(rebuilt) != chi.values:
        raise InconsistentCharacterError("multiplicities do not reconstruct the character")
    return tuple(mult)


def _class_matrix(group, i: int):
    r = group.num_classes
    reps = group.class_representatives
    mat = [[0] * r for _ in range(r)]
    for x in group.conjugacy_classes[i]:
        xinv = group.inv(x)
        for k, z in enumerate(reps):
            mat[group.class_of(group.mult(xinv, z))][k] += 1
    return mat


def _split_eigenspaces(group, p: int):
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
            image = mat_mul_mod(mat, cols, p)
            restriction = solve_unique_mod(cols, image, p)
            for lam in modp_oracle.roots_mod(modp_oracle.charpoly_mod(restriction, p), p):
                s = len(basis)
                shifted = [[(restriction[a][b] - (lam if a == b else 0)) % p
                            for b in range(s)] for a in range(s)]
                eigenspace = []
                for coeffs in modp_oracle.kernel_mod(shifted, p)[0]:
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


def _lift_character(group, xk: list[int], d: int, p: int, omega: int):
    """Exact values from mod-p values: Fourier-invert eigenvalue multiplicities."""
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


def _verify_table(group, chars):
    """The degrees' squares sum to |G|, and every pair is orthonormal."""
    if sum(degree(c) ** 2 for c in chars) != group.order:
        raise TableComputationError("degrees do not satisfy the sum-of-squares identity")
    for i, a in enumerate(chars):
        for j, b in enumerate(chars):
            if inner_product(a, b) != (1 if i == j else 0):
                raise TableComputationError("lifted characters are not orthonormal")


def _lift(chi: Character, m: int) -> tuple[int, list]:
    """A common denominator D and, per class, the nonzero numerators (i, c)
    with chi(k) = sum(c * z^i) / D in Z[z]/(z^m - 1), z = zeta_m."""
    den = math.lcm(*(v.den for v in chi.values))
    rows = []
    for v in chi.values:
        step, f = m // v.n, den // v.den
        rows.append([(i * step, c * f) for i, c in enumerate(v.num) if c])
    return den, rows


def _pairing(group, m: int, a, b) -> int | None:
    """(1/|G|) sum_k |C_k| a(k) b(k^-1) of two lifted class functions as an
    int, or None when it is not one: numerators accumulated in
    Z[z]/(z^m - 1) and reduced mod Phi_m once.  The powers 1, z, ...,
    z^(phi(m)-1) are a basis of Q(zeta_m), so the value is rational exactly
    when the reduced numerators vanish after entry 0."""
    (da, ra), (db, rb) = a, b
    acc = [0] * m
    for h, kinv, xs in zip(group.class_sizes, group.inverse_class, ra):
        for i, c in xs:
            for j, d in rb[kinv]:
                acc[(i + j) % m] += h * c * d
    num = _reduce(acc, m)
    if any(num[1:]):
        return None
    q, rest = divmod(num[0], group.order * da * db)
    return None if rest else q


def _verify_pairings(group, chars):
    """The degrees' squares sum to |G|, and each pairing (a|b), j >= i,
    summed in Z[z]/(z^m - 1), m the values' conductor, is the integer
    delta_ij."""
    if sum(c.degree ** 2 for c in chars) != group.order:
        raise TableComputationError("degrees do not satisfy the sum-of-squares identity")
    m = math.lcm(*(v.n for c in chars for v in c.values))
    lifted = [_lift(c, m) for c in chars]
    for i, a in enumerate(lifted):
        for j, b in enumerate(lifted[i:], i):
            if _pairing(group, m, a, b) != (1 if i == j else 0):
                raise TableComputationError("lifted characters are not orthonormal")


def degree(chi: Character) -> int:
    d = chi.values[0].as_rational()
    if d is None or d.denominator != 1:
        raise InconsistentCharacterError("identity value is not an integer")
    return int(d)


def sort_key(v: Cyclotomic):
    return (v.n, v.coeffs)


def check_table_reads(table):
    """Each irreducible's stored eigenvalue-1 counts equal this module's
    average, and its indicator both per-character sums, `chartab`'s and this
    module's."""
    for i, chi in enumerate(table):
        assert table.eigenvalue_one[i] == eigenvalue_one_counts(chi)
        assert table.indicator(i) == chartab.frobenius_schur(chi) == frobenius_schur(chi)
