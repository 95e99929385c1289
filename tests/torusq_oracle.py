"""Test-only bodies that read every element matrix: the earlier
:func:`torusquot.torusq.invariant_form` and ``AnalyticRep.faithful``.

The library now walks line orbits under the generators and reads the
kernel off the character; the differential tests require the same answers
as these group-wide sums.  Also here: the earlier Lagrangian check, which
evaluates the form on every ordered pair of basis vectors.
"""

from __future__ import annotations

from torusquot.cyclo import zero
from torusquot.groups import Monomial
from torusquot.torusq import AnalyticRep, SymplecticForm


def group_average_form(rep: AnalyticRep) -> SymplecticForm | None:
    """Group-average antisymmetric coordinate seeds; first nonzero average,
    rescaled so its first nonzero entry is 1."""
    n = rep.degree
    mono = all(isinstance(m, Monomial) for m in rep.matrices)
    if mono:
        support = [m.row_entries() for m in rep.matrices]
    for a in range(n):
        for b in range(a + 1, n):
            acc = [[zero()] * n for _ in range(n)]
            if mono:
                for col, s in support:
                    i, j = col[a], col[b]
                    v = s[a] * s[b]
                    acc[i][j] = acc[i][j] + v
                    acc[j][i] = acc[j][i] - v
            else:
                for m in rep.matrices:
                    ra, rb = m.rows[a], m.rows[b]
                    for i in range(n):
                        if ra[i] or rb[i]:
                            for j in range(n):
                                acc[i][j] = acc[i][j] + ra[i] * rb[j] - rb[i] * ra[j]
            scale = None
            for row in acc:
                for x in row:
                    if x:
                        scale = x.inverse()
                        break
                if scale is not None:
                    break
            if scale is not None:
                return SymplecticForm([[scale * x for x in row] for row in acc])
    return None


def faithful_by_matrices(rep: AnalyticRep) -> bool:
    """No element other than the identity has the identity matrix."""
    return all(not rep.matrix(i).is_identity() for i in range(1, rep.group.order))


def basis_is_lagrangian_all_pairs(basis, form: SymplecticForm) -> bool:
    return all(form.evaluate(u, v).is_zero() for u in basis for v in basis)
