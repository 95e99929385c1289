"""Character tables of generalised symmetric groups against references made
without torusquot.

The irreducible characters of G(m,1,n) = mu_m wr S_n are indexed by the
m-tuples of partitions (lambda_0, ..., lambda_{m-1}) of total size n, and
the one of such a tuple has degree n! / prod |lambda_i|! * prod f(lambda_i),
with f(lambda) the number of standard Young tableaux of shape lambda (the
hook-length formula).  The class count, the degree multiset and
sum d^2 = m^n * n! are computed here from partitions alone.
"""

import math
from collections import Counter
from itertools import product

import pytest

import chartab_oracle as oracle
from helpers import affine_generators

from torusquot import chartab
from torusquot.cyclo import Cyclotomic, one
from torusquot.groups import Monomial, close


def wreath(m, n):
    """Generators of G(m,1,n): zeta_m in the first coordinate, a
    transposition and an n-cycle."""
    ones = (one(),) * n
    return [Monomial(tuple(range(n)), (Cyclotomic.zeta(m),) + ones[1:]),
            Monomial((1, 0) + tuple(range(2, n)), ones),
            Monomial(tuple(range(1, n)) + (0,), ones)]


def partitions(n, largest=None):
    """The partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def standard_tableaux(shape):
    """f(lambda) = |lambda|! / prod of the hook lengths."""
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0)]
    hooks = math.prod(row - j + conjugate[j] - i - 1
                      for i, row in enumerate(shape) for j in range(row))
    return math.factorial(sum(shape)) // hooks


def reference_degrees(m, n):
    """Degrees of the irreducibles of G(m,1,n), one per m-multipartition of n."""
    by_size = [list(partitions(k)) for k in range(n + 1)]
    degrees = []
    for sizes in product(range(n + 1), repeat=m):
        if sum(sizes) != n:
            continue
        for shapes in product(*(by_size[k] for k in sizes)):
            degrees.append(math.factorial(n)
                           // math.prod(math.factorial(k) for k in sizes)
                           * math.prod(standard_tableaux(s) for s in shapes))
    return degrees


def test_reference_degrees_of_small_cases():
    # S_4: 1, 1, 2, 3, 3; the hyperoctahedral group B_2 = G(2,1,2): 1, 1, 1, 1, 2
    assert sorted(reference_degrees(1, 4)) == [1, 1, 2, 3, 3]
    assert sorted(reference_degrees(2, 2)) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("m, n", [(2, 5), (3, 4), (6, 3)],
                         ids=["G(2,1,5)", "G(3,1,4)", "G(6,1,3)"])
def test_ladder_rung(m, n):
    group = close(wreath(m, n))
    table = chartab.character_table(group)
    expected = reference_degrees(m, n)
    assert group.order == m ** n * math.factorial(n) == sum(d * d for d in expected)
    assert group.num_classes == len(expected)
    assert Counter(table.degrees) == Counter(expected)


@pytest.mark.parametrize("m, n", [(3, 4), (6, 3)], ids=["G(3,1,4)", "G(6,1,3)"])
def test_sums_over_the_natural_character_match_oracle(m, n):
    # the natural character, its pair and the squares of both: values at
    # conductor m, up to the degree 2n and its square
    table = chartab.character_table(close(wreath(m, n)))
    chi = chartab.natural_character(table.group)
    for f in (chi, chi + chi.conjugate()):
        for psi in (f, chartab.exterior_square(f), chartab.symmetric_square(f)):
            assert chartab.decompose(psi, table) == oracle.decompose(psi, table)
            assert chartab.frobenius_schur(psi) == oracle.frobenius_schur(psi)


def test_split_matches_oracle_on_g314():
    group = close(wreath(3, 4))
    p = next(chartab._admissible_primes(group.exponent(), group.order))
    assert group.num_classes == 51
    assert sorted(chartab._split_eigenspaces(group, p)) == \
        sorted(oracle._split_eigenspaces(group, p))


def test_split_matches_oracle_on_agl_1_31():
    # 30 of the 31 irreducibles are linear, so only one vector comes from
    # the complement of their span
    group = close(affine_generators(31, 3))
    p = next(chartab._admissible_primes(group.exponent(), group.order))
    assert (group.num_classes, group.abelianization_order()) == (31, 30)
    assert sorted(chartab._split_eigenspaces(group, p)) == \
        sorted(oracle._split_eigenspaces(group, p))
