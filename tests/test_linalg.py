"""Exact linear algebra over cyclotomic entries: the dense row helpers of
the tests, and the row reduction and kernel of `torusquot.cyclo`."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import embed_float
from helpers import (
    block_diag,
    column_space_basis,
    conj_matrix,
    mat_add,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_scale,
)
from torusq_oracle import bareiss_det, mat_sub

from torusquot.cyclo import Cyclotomic, kernel_basis, one, rref, zero
from torusquot.errors import InvalidInputError
from torusquot.groups import Element


def to_numpy(m):
    return np.array([[embed_float(x) for x in row] for row in m], dtype=complex)


def rational_matrix(rng_rows):
    return tuple(tuple(Cyclotomic.from_value(Fraction(v)) for v in row) for row in rng_rows)


small_entry = st.integers(min_value=-4, max_value=4)


def square(n):
    return st.lists(st.lists(small_entry, min_size=n, max_size=n), min_size=n, max_size=n)


class TestDeterminant:
    """The Bareiss determinant of `torusq_oracle`, the oracle of the rank checks."""

    def test_hand_values(self):
        m = rational_matrix([[1, 2], [3, 4]])
        assert bareiss_det(m) == -2
        m = rational_matrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
        assert bareiss_det(m) == 30
        assert bareiss_det(Element.identity(4).rows) == 1
        assert bareiss_det(()) == 1

    def test_singular(self):
        m = rational_matrix([[1, 2], [2, 4]])
        assert bareiss_det(m).is_zero()
        # column of zeros forces an all-zero pivot column mid-elimination
        m = rational_matrix([[0, 1], [0, 2]])
        assert bareiss_det(m).is_zero()

    def test_cyclotomic_entries(self):
        z = Cyclotomic.zeta(4)
        m = ((z, one()), (-one(), z))
        # det = z^2 + 1 = 0 for z = i
        assert bareiss_det(m).is_zero()
        m = ((z, zero()), (zero(), z.conjugate()))
        assert bareiss_det(m) == 1

    @settings(max_examples=40, deadline=None)
    @given(square(3))
    def test_against_float_oracle(self, rows):
        m = rational_matrix(rows)
        exact = embed_float(bareiss_det(m))
        approx = np.linalg.det(to_numpy(m))
        assert abs(exact - approx) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(square(3), square(3))
    def test_multiplicative(self, ra, rb):
        a, b = rational_matrix(ra), rational_matrix(rb)
        assert bareiss_det(mat_mul(a, b)) == bareiss_det(a) * bareiss_det(b)


class TestArithmetic:
    def test_mul_identity(self):
        m = rational_matrix([[1, 2], [3, 4]])
        eye = Element.identity(2).rows
        assert mat_mul(m, eye) == m
        assert mat_mul(eye, m) == m

    def test_add_sub_scale(self):
        a = rational_matrix([[1, 2], [3, 4]])
        b = rational_matrix([[5, 6], [7, 8]])
        assert mat_sub(mat_add(a, b), b) == a
        assert mat_scale(a, 2) == mat_add(a, a)

    def test_transpose_conj(self):
        z = Cyclotomic.zeta(3)
        m = ((z, one()), (zero(), -z))
        t = tuple(zip(*m))
        assert t[0][1] == zero() and t[1][0] == one()
        c = conj_matrix(m)
        assert c[0][0] == z.conjugate()

    def test_block_diag(self):
        a = rational_matrix([[1, 2], [3, 4]])
        b = rational_matrix([[5]])
        d = block_diag(a, b)
        assert len(d) == 3 and d[2][2] == 5 and d[0][2].is_zero() and d[2][0].is_zero()


class TestSolveAndRank:
    def test_inverse_round_trip(self):
        z = Cyclotomic.zeta(8)
        m = ((z, one()), (one(), -z))
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == Element.identity(2).rows
        assert mat_mul(inv, m) == Element.identity(2).rows

    def test_inverse_singular_raises(self):
        m = rational_matrix([[1, 2], [2, 4]])
        with pytest.raises(InvalidInputError):
            mat_inverse(m)

    @settings(max_examples=25, deadline=None)
    @given(square(3))
    def test_rank_kernel_dimensions(self, rows):
        m = rational_matrix(rows)
        r = mat_rank(m)
        ker = kernel_basis(m)
        assert r + len(ker) == 3
        for v in ker:
            image = [sum((m[i][j] * v[j] for j in range(3)), zero()) for i in range(3)]
            assert all(x.is_zero() for x in image)

    def test_rref_pivots(self):
        m = rational_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        red, pivots = rref(m)
        assert pivots == (0, 1)
        for r, c in enumerate(pivots):
            assert red[r][c] == 1
            assert all(red[k][c].is_zero() for k in range(len(m)) if k != r)

    def test_rref_of_ints_is_exact(self):
        red, pivots = rref([[2, 4], [1, 3]])
        assert pivots == (0, 1)
        assert red == ((1, 0), (0, 1))
        assert not any(isinstance(x, float) for row in red for x in row)

    def test_column_space(self):
        m = rational_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        basis = column_space_basis(m)
        assert len(basis) == mat_rank(m) == 2
