"""Test-only fibration splitter: the earlier commutant split of real pairs.

This is the body that :func:`torusquot.torusq.lagrangian_fibration_data`
used for real-type pairs before the halves were spun from a joint
eigenvector.  It averages every coordinate seed E_ab over the group into
the commutant and looks for two rational eigenspaces of half dimension,
so it fails on pairs whose splitting commutant elements all have
irrational spectrum.  The differential tests require the spin to split
wherever this does.
"""

from __future__ import annotations

import math
from fractions import Fraction

from torusquot import linalg
from torusquot.cyclo import Cyclotomic, divisors, zero
from torusquot.errors import TorusQuotError
from torusquot.groups import Monomial
from torusquot.torusq import AnalyticRep


def min_poly(t, cap: int = 8):
    """Monic minimal polynomial of a square cyclotomic matrix, as a
    coefficient tuple (index = degree); None if the degree exceeds cap."""
    n = len(t)
    powers = [linalg.identity_matrix(n)]
    for _ in range(cap):
        powers.append(linalg.mat_mul(powers[-1], t))
        cols = [[p[i][j] for p in powers] for i in range(n) for j in range(n)]
        dep = linalg.kernel_basis(linalg.as_matrix(cols))
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
    mono = all(isinstance(m, Monomial) for m in rep.matrices)
    for a in range(n):
        for b in range(n):
            acc = [[zero()] * n for _ in range(n)]
            for gi in range(group.order):
                m = rep.matrices[gi]
                minv = rep.matrices[inv_of[gi]]
                if mono:
                    # M·E_ab·M⁻¹ = (s_a/s_b)·E_{p(a),p(b)}; minv holds 1/s_b at column p(b)
                    i, j = m.perm[a], m.perm[b]
                    acc[i][j] = acc[i][j] + m.scalars[a] * minv.scalars[j]
                else:
                    cola = [m.rows[r][a] for r in range(n)]
                    rowb = minv.rows[b]
                    for r in range(n):
                        if cola[r]:
                            for s in range(n):
                                if rowb[s]:
                                    acc[r][s] = acc[r][s] + cola[r] * rowb[s]
            t = linalg.as_matrix(acc)
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
    return tuple(tuple(v) for v in linalg.kernel_basis(shifted))
