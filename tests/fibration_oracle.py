"""Test-only fibration splitters, the earlier bodies of
:func:`torusquot.torusq.lagrangian_fibration_data`.

Real pairs: the commutant split, used before the halves were spun from a
joint eigenvector.  It averages every coordinate seed E_ab over the group
into the commutant and looks for two rational eigenspaces of half
dimension, so it fails on pairs whose splitting commutant elements all
have irrational spectrum.  The differential tests require the spin to
split wherever this does.

Complex pairs: the isotypic projections, summed over every group element,
used before the halves were read off one class sum.  Their images must
equal the class-sum halves.  And the class-sum halves as eigenspaces, the
kernels of S_k − ω and S_k − ω̄, used before they were read as column
spaces; the row-reduced bases must be the same.
"""

from __future__ import annotations

import math
from fractions import Fraction

from helpers import mat_mul, perm_and_scalars

from torusquot.chartab import CharacterTable, decompose
from torusquot.cyclo import Cyclotomic, divisors, kernel_basis, rref, zero
from torusquot.errors import TorusQuotError
from torusquot.groups import Element
from torusquot.torusq import AnalyticRep


def min_poly(t, cap: int = 8):
    """Monic minimal polynomial of a square cyclotomic matrix, as a
    coefficient tuple (index = degree); None if the degree exceeds cap."""
    n = len(t)
    powers = [Element.identity(n).rows]
    for _ in range(cap):
        powers.append(mat_mul(powers[-1], t))
        cols = [[p[i][j] for p in powers] for i in range(n) for j in range(n)]
        dep = kernel_basis(cols)
        if dep:
            coeffs = dep[0]
            lead = coeffs[-1]
            if lead.is_zero():  # kernel vector from a free middle column
                continue
            inv = lead.inverse()
            return tuple(inv * c for c in coeffs)
    return None


def rational_roots(poly) -> list[Fraction]:
    """Rational roots of a polynomial with rational cyclotomic coefficients;
    empty when any coefficient is irrational."""
    rat = []
    for c in poly:
        r = c.as_rational()
        if r is None:
            return []
        rat.append(r)
    while rat and rat[-1] == 0:
        rat.pop()
    if len(rat) <= 1:
        return []
    roots = []
    if rat[0] == 0:
        roots.append(Fraction(0))
        while rat and rat[0] == 0:
            rat.pop(0)
    lcm = math.lcm(*(c.denominator for c in rat))
    ints = [int(c * lcm) for c in rat]
    lead, const = abs(ints[-1]), abs(ints[0])
    for q in divisors(lead):
        for p in divisors(const):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if sum(c * cand ** k for k, c in enumerate(ints)) == 0:
                    roots.append(cand)
    return sorted(roots)


def commutant_split(rep: AnalyticRep, half: int):
    """Split C^n into two half-dimensional invariant subspaces by averaging
    coordinate seeds into the commutant and taking rational eigenspaces.

    Only rational eigenvalues are searched: when every splitting element of
    the commutant has irrational spectrum (a quadratic extension would be
    needed), this reports failure instead of guessing.
    """
    group, n = rep.group, rep.degree
    inv_of = [group.inv(i) for i in range(group.order)]
    mono = all(m.is_monomial() for m in rep.matrices)
    if mono:
        views = [perm_and_scalars(m) for m in rep.matrices]
    for a in range(n):
        for b in range(n):
            acc = [[zero()] * n for _ in range(n)]
            for gi in range(group.order):
                m = rep.matrices[gi]
                minv = rep.matrices[inv_of[gi]]
                if mono:
                    # M·E_ab·M⁻¹ = (s_a/s_b)·E_{p(a),p(b)}; minv holds 1/s_b at column p(b)
                    (perm, scalars), (_, inv_scalars) = views[gi], views[inv_of[gi]]
                    i, j = perm[a], perm[b]
                    acc[i][j] = acc[i][j] + scalars[a] * inv_scalars[j]
                else:
                    cola = [m.rows[r][a] for r in range(n)]
                    rowb = minv.rows[b]
                    for r in range(n):
                        if cola[r]:
                            for s in range(n):
                                if rowb[s]:
                                    acc[r][s] = acc[r][s] + cola[r] * rowb[s]
            t = tuple(map(tuple, acc))
            poly = min_poly(t)
            if poly is None or len(poly) <= 2:
                continue  # scalar or out of reach
            roots = rational_roots(poly)
            for ri in range(len(roots)):
                for rj in range(ri + 1, len(roots)):
                    v1 = eigenspace(t, roots[ri])
                    v2 = eigenspace(t, roots[rj])
                    if len(v1) == half and len(v2) == half:
                        return v1, v2
    raise TorusQuotError(
        "could not split the conjugate pair over the rationals; the invariant "
        "halves need an eigenvalue in a quadratic extension")


def eigenspace(t, lam: Fraction):
    n = len(t)
    c = Cyclotomic.from_value(lam)
    shifted = tuple(
        tuple(t[i][j] - c if i == j else t[i][j] for j in range(n))
        for i in range(n))
    return tuple(tuple(v) for v in kernel_basis(shifted))


def isotypic_projections(rep: AnalyticRep, table: CharacterTable):
    """(character, projection) for each constituent: the image of the
    averaged conjugate-character sum."""
    group = rep.group
    n = rep.degree
    mult = decompose(rep.character, table)
    out = []
    for i, m in enumerate(mult):
        if not m:
            continue
        irr = table[i]
        scale = Cyclotomic.from_value(Fraction(irr.degree, group.order))
        coeff = [scale * irr.values[k].conjugate() for k in range(group.num_classes)]
        acc = [[zero()] * n for _ in range(n)]
        for gi in range(group.order):
            c = coeff[group.class_of(gi)]
            if c.is_zero():
                continue
            for r, s, x in rep.matrix(gi).entries():
                acc[r][s] = acc[r][s] + c * x
        out.append((irr, tuple(map(tuple, acc))))
    return out


def kernel_halves(rep: AnalyticRep, table: CharacterTable, mult: tuple[int, ...]):
    """The halves of a complex pair as ker(S_k − ω) and ker(S_k − ω̄), each
    row-reduced, for the first class k where the χ of ``mult`` is not real."""
    group, n = rep.group, rep.degree
    chi = table[mult.index(1)]
    k = next(k for k, v in enumerate(chi.values) if v != v.conjugate())
    acc = [[zero()] * n for _ in range(n)]
    for g in group.conjugacy_classes[k]:
        for i, j, x in rep.matrix(g).entries():
            acc[i][j] = acc[i][j] + x
    omega = Cyclotomic.from_value(Fraction(group.class_sizes[k], chi.degree)) * chi.values[k]
    halves = []
    for w in (omega, omega.conjugate()):
        shifted = [[x - w if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(acc)]
        kernel = kernel_basis(shifted)
        if len(kernel) != n // 2:
            raise TorusQuotError("class sum eigenspaces do not split into halves")
        halves.append(rref(kernel)[0])
    return tuple(halves)
