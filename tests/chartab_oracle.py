"""Test-only character sums: the `Cyclotomic`-chain reference arithmetic.

These are the earlier bodies of :func:`torusquot.chartab.inner_product`,
:func:`~torusquot.chartab.frobenius_schur`,
:func:`~torusquot.chartab.eigenvalue_one_counts` and
:func:`~torusquot.chartab.decompose`: every class sum is a chain of exact
`Cyclotomic` products and sums, canonicalised at each step.  They are slow
and simple, and the differential tests compare the integer sums of
`chartab` against them.
"""

from __future__ import annotations

from fractions import Fraction

from torusquot.chartab import Character
from torusquot.cyclo import Cyclotomic, zero
from torusquot.errors import InconsistentCharacterError


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
