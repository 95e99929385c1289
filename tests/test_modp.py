"""Prime-field helpers backing the character table computation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modp_oracle
from helpers import mat_mul_mod, solve_unique_mod
from modp_oracle import kernel_mod, poly_divmod, poly_gcd_mod, poly_mul_mod, poly_powmod
from torusquot import modp

P = 101


def det_mod(mat, p):
    """Gaussian-elimination determinant, used as an oracle for charpoly_mod."""
    a = [list(r) for r in mat]
    n = len(a)
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] % p), None)
        if pr is None:
            return 0
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = modp.inv_mod(a[c][c], p)
        for i in range(c + 1, n):
            f = a[i][c] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


_HESSENBERG_PRIMES = (7, 13, 101)


@st.composite
def _square_matrices(draw):
    """(p, A), n x n with n <= 12: random entries, P * D * P^-1 with
    repeated diagonal entries (whose Hessenberg form has zero subdiagonal
    entries), or random blocks on the diagonal."""
    p = draw(st.sampled_from(_HESSENBERG_PRIMES))
    n = draw(st.integers(1, 12))
    entry = st.integers(0, p - 1)
    kind = draw(st.sampled_from(["random", "diagonalizable", "blocks"]))
    if kind == "random":
        return p, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "diagonalizable":
        # P = lower * upper, both unit triangular, so P is invertible
        values = draw(st.lists(entry, min_size=1, max_size=3))
        diag = [draw(st.sampled_from(values)) for _ in range(n)]
        lower = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)]
                 for i in range(n)]
        upper = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)]
                 for i in range(n)]
        base = mat_mul_mod(lower, upper, p)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        scaled = [[x * d % p for x, d in zip(row, diag)] for row in base]
        return p, mat_mul_mod(scaled, solve_unique_mod(base, identity, p), p)
    mat = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size = draw(st.integers(1, n - start))
        for i in range(start, start + size):
            mat[i][start:start + size] = draw(
                st.lists(entry, min_size=size, max_size=size))
        start += size
    return p, mat


class TestCharpoly:
    @settings(max_examples=120, deadline=None)
    @given(_square_matrices(), st.integers(0, 100))
    def test_matches_det_oracle(self, case, x):
        p, a = case
        n = len(a)
        x %= p
        shifted = [[(x * (i == j) - a[i][j]) % p for j in range(n)] for i in range(n)]
        f = modp_oracle.charpoly_mod(a, p)
        assert len(f) == n + 1 and f[-1] == 1
        assert modp.poly_eval(f, x, p) == det_mod(shifted, p)

    def test_monic_and_degree(self):
        mat = [[1, 2], [3, 4]]
        f = modp_oracle.charpoly_mod(mat, P)
        assert len(f) == 3 and f[-1] == 1
        # x^2 - 5x - 2
        assert f == [(-2) % P, (-5) % P, 1]

    def test_empty(self):
        assert modp_oracle.charpoly_mod([], P) == [1]


class TestHessenberg:
    """One reduction H = S^-1 * A * S gives every eigenspace (and, in
    TestCharpoly, the characteristic polynomial)."""

    @settings(max_examples=120, deadline=None)
    @given(_square_matrices())
    def test_similarity(self, case):
        p, a = case
        n = len(a)
        h, s = modp.hessenberg_mod(a, p)
        assert all(h[i][j] == 0 for i in range(n) for j in range(i - 1))
        assert len(modp.rref_mod(s, p)[1]) == n
        assert mat_mul_mod(a, s, p) == mat_mul_mod(s, h, p)

    @settings(max_examples=120, deadline=None)
    @given(_square_matrices())
    def test_kernels_match_row_reduction(self, case):
        p, a = case
        n = len(a)
        h, _ = modp.hessenberg_mod(a, p)
        roots = modp.roots_mod(modp.hessenberg_charpoly(h, p), p)
        for lam in roots:
            shifted = [[(x - lam * (i == j)) % p for j, x in enumerate(row)]
                       for i, row in enumerate(h)]
            expected, _ = kernel_mod(shifted, p)
            found = modp.hessenberg_kernel(h, lam, p)
            assert found and modp.rref_mod(found, p) == modp.rref_mod(expected, p)
        # at a non-root the kernel is empty
        other = next((x for x in range(p) if x not in roots), None)
        if other is not None:
            assert modp.hessenberg_kernel(h, other, p) == []


class TestRoots:
    def test_known_roots(self):
        # (x-3)(x-7)^2 (x^2+1), p = 101: x^2+1 factors since -1 is a QR mod 101
        f = [1]
        for r in (3, 7, 7):
            f = poly_mul_mod(f, [(-r) % P, 1], P)
        f = poly_mul_mod(f, [1, 0, 1], P)
        roots = modp.roots_mod(f, P)
        assert 3 in roots and 7 in roots
        for r in roots:
            assert modp.poly_eval(f, r, P) == 0

    def test_zero_root(self):
        f = [0, 0, 1]  # x^2
        assert modp.roots_mod(f, P) == [0]

    def test_no_roots(self):
        # x^2 - 2 mod 3 has no roots
        assert modp.roots_mod([1, 0, 1], 3) == []

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.integers(0, P - 1), min_size=1, max_size=6))
    def test_product_of_linears(self, root_set):
        f = [1]
        for r in root_set:
            f = poly_mul_mod(f, [(-r) % P, 1], P)
        assert modp.roots_mod(f, P) == sorted(root_set)


# the admissible primes of the benchmark's tables, and two above them
_ROOT_PRIMES = (3, 7, 13, 17, 37, 73, 101, 1861, 20201)


def _nonresidue(p):
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


@st.composite
def _split_times_quadratic(draw):
    """(p, f): a nonzero multiple of linear factors, repeats and the root 0
    allowed, times an irreducible x^2 - a when asked."""
    p = draw(st.sampled_from(_ROOT_PRIMES))
    f = [draw(st.integers(1, p - 1))]
    for r in draw(st.lists(st.integers(0, p - 1) | st.just(0), max_size=7)):
        f = poly_mul_mod(f, [(-r) % p, 1], p)
    if draw(st.booleans()):
        f = poly_mul_mod(f, [(-_nonresidue(p)) % p, 0, 1], p)
    return p, f


class TestRootsAgainstOracle:
    """Roots by evaluation against the Cantor-Zassenhaus root finder."""

    @settings(max_examples=80, deadline=None)
    @given(_split_times_quadratic())
    def test_matches_cantor_zassenhaus(self, case):
        p, f = case
        assert modp.roots_mod(f, p) == modp_oracle.roots_mod(f, p)

    @pytest.mark.parametrize("p", _ROOT_PRIMES)
    @pytest.mark.parametrize("f", [[], [0], [0, 0], [1], [5], [-1, 0, 0]],
                             ids=["empty", "zero", "zeros", "one", "five", "minus-one"])
    def test_zero_and_constant_polynomials(self, f, p):
        assert modp.roots_mod(f, p) == modp_oracle.roots_mod(f, p) == []

    def test_no_linear_factor(self):
        # x^2 + 1 mod 3 and x^2 - a for a non-residue a mod 20201
        assert modp.roots_mod([1, 0, 1], 3) == []
        assert modp.roots_mod([-_nonresidue(20201), 0, 1], 20201) == []


class TestLinear:
    def test_kernel(self):
        mat = [[1, 2, 3], [2, 4, 6]]
        basis, free = kernel_mod(mat, P)
        assert len(basis) == 2
        for v in basis:
            assert all(sum(r * x for r, x in zip(row, v)) % P == 0 for row in mat)

    def test_kernel_free_columns(self):
        # rref [[1, 0, 2], [0, 1, 3]]: column 2 is free
        mat = [[1, 0, 2], [2, 1, 7]]
        basis, free = kernel_mod(mat, P)
        assert free == [2]
        assert basis == [[(-2) % P, (-3) % P, 1]]

    def test_solve_unique(self):
        rng = random.Random(3)
        a = [[rng.randrange(P) for _ in range(2)] for _ in range(4)]
        x_true = [[5, 6], [7, 8]]
        b = mat_mul_mod(a, x_true, P)
        x = solve_unique_mod(a, b, P)
        assert x == x_true

    def test_rref_pivots(self):
        rows, pivots = modp.rref_mod([[0, 1], [0, 2]], P)
        assert pivots == [1]
        assert rows[0] == [0, 1]

    def test_rref_reads_entries_mod_p(self):
        # P and -P are 0 mod P: no pivot in column 0, as for [[0, 1], [0, 2]]
        assert modp.rref_mod([[P, 1], [-P, P + 2]], P) == modp.rref_mod([[0, 1], [0, 2]], P)


class TestPoly:
    def test_divmod(self):
        f = poly_mul_mod([1, 1], [2, 3], P)
        q, r = poly_divmod(f, [1, 1], P)
        assert q == [2, 3] and r == []

    def test_gcd(self):
        a = poly_mul_mod([1, 1], [3, 1], P)
        b = poly_mul_mod([1, 1], [5, 1], P)
        assert poly_gcd_mod(a, b, P) == [1, 1]

    def test_powmod(self):
        base, mod = [1, 1], [2, 0, 1]
        naive = [1]
        for _ in range(9):
            naive = poly_divmod(poly_mul_mod(naive, base, P), mod, P)[1]
        assert poly_powmod(base, 9, mod, P) == naive

    def test_element_of_order(self):
        w = modp.element_of_order(5, 11)
        assert pow(w, 5, 11) == 1 and all(pow(w, k, 11) != 1 for k in range(1, 5))
        assert modp.element_of_order(1, 11) == 1
