"""Test-only bodies that read every element matrix: the earlier
:func:`torusquot.torusq.invariant_form` and ``AnalyticRep.faithful``.

The library now walks line orbits under the generators and reads the
kernel off the character; the differential tests require the same answers
as these group-wide sums.  Also here: the earlier Lagrangian check, which
evaluates the form on every ordered pair of basis vectors through every
entry of the form; the earlier eigenvalue-1 test, which looks at the
matrix of each class representative (a cycle walk for a monomial matrix,
a fraction-free determinant of M - I for a dense one), where the library
averages the character over <g>; and the earlier form-preservation check,
which compares every entry of M^T * Omega * M with Omega, where the
library reads only the form's nonzero entries.  And the earlier lattice
membership test, which solves a + b*w = x over Q by a row reduction of
coefficient vectors, where the library reads b off the imaginary parts.
And the earlier character, the traces of the class representatives'
matrices, where the library reads a natural representation's off the
group and a conjugate pair's as chi + conj(chi).
"""

from __future__ import annotations

from helpers import is_identity, lift_coeffs, mat_mul, perm_and_scalars
from torusquot.cyclo import one, rref, zero
from torusquot.errors import InvalidInputError
from torusquot.groups import Element
from torusquot.torusq import AnalyticRep, LatticeSpec, SymplecticForm


def lattice_contains(lattice: LatticeSpec, x) -> bool:
    """Exact membership of x in Z + wZ, w = lattice.omega."""
    if lattice.order == 1:
        r = x.as_rational()
        return r is not None and r.denominator == 1
    if lattice.order % x.conductor:
        return False
    target = lift_coeffs(x, lattice.order)
    one_vec = lift_coeffs(one(), lattice.order)
    omega_vec = lift_coeffs(lattice.omega, lattice.order)
    # solve a*1 + b*omega = x over Q, then require integer a, b
    red, pivots = rref([[one_vec[k], omega_vec[k], target[k]] for k in range(len(target))])
    if pivots[-1] == 2:
        return False  # inconsistent: x is not in Q + Q*omega
    return all(row[2].denominator == 1 for row in red[:len(pivots)])


def group_average_form(rep: AnalyticRep) -> SymplecticForm | None:
    """Group-average antisymmetric coordinate seeds; first nonzero average,
    rescaled so its first nonzero entry is 1."""
    n = rep.degree
    mono = all(m.is_monomial() for m in rep.matrices)
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


def preserves_form_all_entries(rep: AnalyticRep, form: SymplecticForm) -> bool:
    """M^T * Omega * M == Omega for every generator M, entry by entry."""
    omega = form.matrix
    for m in rep.generator_images():
        if m.is_monomial():
            columns = tuple(zip(*perm_and_scalars(m)))
            for j, (pj, sj) in enumerate(columns):
                for k, (pk, sk) in enumerate(columns):
                    lhs = omega[pj][pk]
                    if lhs:
                        lhs = sj * sk * lhs
                    if lhs != omega[j][k]:
                        return False
        elif mat_mul(tuple(zip(*m.rows)), mat_mul(omega, m.rows)) != omega:
            return False
    return True


def character_by_matrices(rep: AnalyticRep) -> tuple:
    """The trace of each class representative's matrix."""
    return tuple(rep.matrix(r).trace() for r in rep.group.class_representatives)


def faithful_by_matrices(rep: AnalyticRep) -> bool:
    """No element other than the identity has the identity matrix."""
    return all(not is_identity(rep.matrix(i)) for i in range(1, rep.group.order))


def evaluate_all_entries(form: SymplecticForm, u, v):
    """u^T * Omega * v, summed over every entry of Omega."""
    return sum((ui * row[j] * v[j] for ui, row in zip(u, form.matrix) for j in range(len(v))),
               zero())


def basis_is_lagrangian_all_pairs(basis, form: SymplecticForm) -> bool:
    return all(evaluate_all_entries(form, u, v).is_zero() for u in basis for v in basis)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def bareiss_det(a):
    """Determinant by fraction-free (Bareiss) elimination; exact."""
    n = len(a)
    if n == 0:
        return one()
    if any(len(row) != n for row in a):
        raise InvalidInputError("determinant needs a square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = one()
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pkk - mik * m[k][j]) / prev
            m[i][k] = zero()
        prev = pkk
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def eigenvalue_one_by_det(m) -> bool:
    """Exact: det(M - I) = 0 for the matrix of any element."""
    return bareiss_det(mat_sub(m.rows, Element.identity(m.degree).rows)).is_zero()


def has_eigenvalue_one(m) -> bool:
    """Exact: a monomial matrix has eigenvalue 1 when some permutation cycle
    has scalar product 1; another one when det(M - I) = 0."""
    if not m.is_monomial():
        return eigenvalue_one_by_det(m)
    perm, scalars = perm_and_scalars(m)
    seen = [False] * m.degree
    for start in range(m.degree):
        if seen[start]:
            continue
        prod = one()
        j = start
        while not seen[j]:
            seen[j] = True
            prod = prod * scalars[j]
            j = perm[j]
        if prod == 1:
            return True
    return False


def eigenvalue_one_all(rep: AnalyticRep) -> tuple[bool, tuple[int, ...]]:
    """Exact eigenvalue-1 test on the matrix of one representative per class;
    returns the overall answer and the failing class indices."""
    failing = tuple(
        k for k, r in enumerate(rep.group.class_representatives)
        if not has_eigenvalue_one(rep.matrix(r)))
    return (not failing, failing)
