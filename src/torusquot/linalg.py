"""Exact dense linear algebra over cyclotomic entries.

Matrices are immutable row-major tuples of tuples of Cyclotomic values.
Everything here is exact; nothing falls back to floats.
"""

from __future__ import annotations

from .cyclo import Cyclotomic, one, rref, zero
from .errors import InvalidInputError

Matrix = tuple  # tuple[tuple[Cyclotomic, ...], ...]


def as_matrix(rows) -> Matrix:
    return tuple(tuple(Cyclotomic.from_value(v) for v in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(one() if i == j else zero() for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise InvalidInputError("matrix dimensions do not match")
    bt = list(zip(*b))
    return tuple(mat_vec(bt, row) for row in a)


def mat_vec(a: Matrix, v) -> tuple:
    """The product a·v of a matrix and a column vector given as a tuple."""
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), zero()) for row in a)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def conj_matrix(a: Matrix) -> Matrix:
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def bareiss_det(a: Matrix) -> Cyclotomic:
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


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = tuple(tuple(a[i]) + tuple(identity_matrix(n)[i]) for i in range(n))
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise InvalidInputError("matrix is singular")
    return tuple(row[n:] for row in red[:n])


def column_space_basis(a: Matrix) -> tuple[tuple[Cyclotomic, ...], ...]:
    """A deterministic echelonized basis of the column space (vectors as rows)."""
    red, pivots = rref(transpose(a))
    return tuple(red[i] for i in range(len(pivots)))


def kernel_basis(a: Matrix) -> tuple[tuple[Cyclotomic, ...], ...]:
    """Basis of the right kernel, one vector per free column."""
    red, pivots = rref(a)
    ncols = len(a[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [zero()] * ncols
        v[free] = one()
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(tuple(v))
    return tuple(basis)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    z = zero()
    top = tuple(tuple(a[i]) + (z,) * nb for i in range(na))
    bottom = tuple((z,) * na + tuple(b[i]) for i in range(nb))
    return top + bottom
