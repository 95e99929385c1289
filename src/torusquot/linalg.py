"""Exact dense linear algebra over cyclotomic entries.

Matrices are immutable row-major tuples of tuples of Cyclotomic values.
Everything here is exact; nothing falls back to floats.
"""

from __future__ import annotations

from .cyclo import Cyclotomic, add_all, one, rref, zero
from .errors import InvalidInputError

Matrix = tuple  # tuple[tuple[Cyclotomic, ...], ...]


def as_matrix(rows) -> Matrix:
    return tuple(tuple(Cyclotomic.from_value(v) for v in row) for row in rows)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(one() if i == j else zero() for j in range(n)) for i in range(n))


def mat_vec(a: Matrix, v) -> tuple:
    """The product a·v of a matrix and a column vector given as a tuple."""
    return tuple(add_all([x * y for x, y in zip(row, v) if x and y]) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = tuple(tuple(a[i]) + tuple(identity_matrix(n)[i]) for i in range(n))
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise InvalidInputError("matrix is singular")
    return tuple(row[n:] for row in red[:n])


def kernel_basis(a: Matrix) -> tuple[tuple[Cyclotomic, ...], ...]:
    """Basis of the right kernel, one vector per free column; only the
    nonzero entries of the reduced form are negated into it."""
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
            if red[r][free]:
                v[pc] = -red[r][free]
        basis.append(tuple(v))
    return tuple(basis)
