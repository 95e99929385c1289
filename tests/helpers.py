"""Constructions and matrix helpers that only the tests use."""

from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from torusquot import modp
from torusquot.chartab import Character
from torusquot.cyclo import Cyclotomic, add_all, one, rref, zero
from torusquot.errors import InvalidInputError
from torusquot.groups import Dense, Element, FiniteGroup, Monomial
from torusquot.torusq import AnalyticRep


def lift_coeffs(x: Cyclotomic, m: int) -> list[Fraction]:
    """The rational coefficients of x at conductor m, a multiple of its
    conductor, one per power of zeta_m and not reduced mod Phi_m."""
    if m % x.n:
        raise InvalidInputError(f"cannot lift conductor {x.n} value to conductor {m}")
    step = m // x.n
    out = [Fraction(0)] * m
    for i, c in enumerate(x.coeffs):
        out[i * step] = c
    return out


def readme_group_example() -> str:
    """The example group file of README.md's "Group files" section."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Group files"):]
    start = section.index("```\n") + 4
    return section[start:section.index("```", start)]


@st.composite
def wreath_generator_pairs(draw):
    """Two random elements of G(m,1,n) = mu_m wr S_n, m <= 4 and n <= 4."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def element():
        perm = draw(st.permutations(range(n)))
        ks = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        return Monomial(perm, [Cyclotomic.zeta(m, k) for k in ks])

    return [element(), element()]


def wreath_generators(m, n):
    """G(m,1,n) = mu_m wr S_n from diag(zeta_m, 1, ..., 1), a transposition
    and an n-cycle; its natural character is irreducible for m >= 2 or
    n = 1, and not real for m >= 3."""
    ones = (one(),) * n
    gens = [Monomial(tuple(range(n)), (Cyclotomic.zeta(m, 1),) + ones[1:])]
    if n > 1:
        gens += [Monomial((1, 0) + tuple(range(2, n)), ones),
                 Monomial(tuple((i + 1) % n for i in range(n)), ones)]
    return gens


def affine_generators(q, g):
    """Generators of AGL(1,q) on F_q as permutation matrices: x -> x + 1 and
    x -> g*x, g of order q - 1; its abelianization is cyclic of order q - 1."""
    ones = (one(),) * q
    return [Monomial(tuple((x + 1) % q for x in range(q)), ones),
            Monomial(tuple(g * x % q for x in range(q)), ones)]


def conjugated_elements(elements):
    """P⁻¹·x·P for P with entries (i+1)^(j+1): the columns of P have
    coordinates of distinct sizes, so their orbits under G(m,1,n) are regular."""
    n = elements[0].degree
    p = Dense([[(i + 1) ** (j + 1) for j in range(n)] for i in range(n)]).rows
    p_inv = mat_inverse(p)
    return [Dense(mat_mul(mat_mul(p_inv, x.rows), p)) for x in elements]


def one_dim_rep(group: FiniteGroup, chi: Character) -> AnalyticRep:
    if chi.group is not group:
        raise InvalidInputError("character belongs to a different group")
    if chi.degree != 1:
        raise InvalidInputError("need a degree-1 character")
    return rep_from_matrices(
        group, (Monomial((0,), (value_at_element(chi, i),)) for i in range(group.order)))


def value_at_element(chi: Character, i: int) -> Cyclotomic:
    """chi at the element with index i: the value at its class."""
    return chi.values[chi.group.class_of(i)]


def is_real_valued(chi: Character) -> bool:
    return all(v == v.conjugate() for v in chi.values)


def complex_constituent(rep: AnalyticRep, table) -> tuple[Character, int]:
    """(χ, k) of a complex pair χ + χ̄ as the fibration finds them: χ the
    constituent the table lists first, k the first class where χ is not real."""
    chi = table[rep.decomposition(table).index(1)]
    return chi, next(k for k, v in enumerate(chi.values) if v != v.conjugate())


def regular_rep(group: FiniteGroup) -> AnalyticRep:
    ones = (one(),) * group.order
    return rep_from_matrices(
        group,
        (Monomial(tuple(group.mult(g, j) for j in range(group.order)), ones)
         for g in range(group.order)))


def scale(chi: Character, m: int) -> Character:
    """m times the class function chi."""
    c = Cyclotomic.from_value(m)
    return Character(chi.group, tuple(c * v for v in chi.values))


def with_character(chi: Character) -> AnalyticRep:
    """A representation whose matrices are never built and whose character
    is the class function chi, for the counts read off its decomposition."""
    return AnalyticRep(chi.group, None, chi.values)


def rep_from_matrices(group: FiniteGroup, matrices) -> AnalyticRep:
    """The representation with the given matrices, one per element in BFS
    order; its character is the traces of the class representatives'."""
    matrices = tuple(matrices)
    if len(matrices) != group.order:
        raise InvalidInputError("need one matrix per group element")
    return AnalyticRep(group, matrices.__getitem__,
                       (matrices[r].trace() for r in group.class_representatives))


def direct_sum(*reps: AnalyticRep) -> AnalyticRep:
    """The block sum of representations of one group, in the given order."""
    group = reps[0].group

    def build(i):
        m = reps[0].matrix(i)
        for rep in reps[1:]:
            m = m.block_sum(rep.matrix(i))
        return m
    traces = (add_all(vs) for vs in zip(*(rep.character.values for rep in reps)))
    return AnalyticRep(group, build, traces)


def regular_character(group: FiniteGroup) -> Character:
    vals = [zero()] * group.num_classes
    vals[group.class_of(0)] = Cyclotomic.from_value(group.order)
    return Character(group, tuple(vals))


def order_histogram(group: FiniteGroup) -> dict[int, int]:
    """Element order -> count, aggregated over conjugacy classes."""
    hist: dict[int, int] = {}
    for o, size in zip(group.class_orders, group.class_sizes):
        hist[o] = hist.get(o, 0) + size
    return hist


def perm_and_scalars(m):
    """A monomial element's column j as (perm[j], scalars[j]), the pair of
    tuples that a Monomial(perm, scalars) call takes."""
    return tuple(i for ((i, _),) in m.columns), tuple(s for ((_, s),) in m.columns)


# -- dense row-major matrix helpers, the references for the element
# product, conjugate and block sum


def mat_vec(a, v) -> tuple:
    """The product a·v of a matrix and a column vector given as a tuple."""
    return tuple(add_all([x * y for x, y in zip(row, v) if x and y]) for row in a)


def mat_inverse(a):
    n = len(a)
    unit = Element.identity(n).rows
    red, pivots = rref(tuple(tuple(a[i]) + unit[i] for i in range(n)))
    if pivots[:n] != tuple(range(n)):
        raise InvalidInputError("matrix is singular")
    return tuple(row[n:] for row in red[:n])


def inverse(x):
    """The inverse of an element: a monomial one from its row view."""
    if x.is_monomial():
        return Element(tuple(((j, s.inverse()),) for j, s in zip(*x.row_entries())))
    return Dense(mat_inverse(x.rows))


def is_identity(x) -> bool:
    return x == Element.identity(x.degree)


def group_elements(group: FiniteGroup) -> tuple:
    """Every element's matrix, in BFS order."""
    return tuple(group.element(i) for i in range(group.order))


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise InvalidInputError("matrix dimensions do not match")
    bt = list(zip(*b))
    return tuple(mat_vec(bt, row) for row in a)


def conj_matrix(a):
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def block_diag(a, b):
    na, nb = len(a), len(b)
    z = zero()
    top = tuple(tuple(a[i]) + (z,) * nb for i in range(na))
    bottom = tuple((z,) * na + tuple(b[i]) for i in range(nb))
    return top + bottom


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    c = Cyclotomic.from_value(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_rank(a) -> int:
    return len(rref(a)[1])


def column_space_basis(a):
    """The RREF basis of the column space, vectors as rows."""
    red, pivots = rref(tuple(zip(*a)))
    return red[:len(pivots)]


def unimodular(n, ops):
    """Product of elementary row operations row_i += c * row_j: determinant 1."""
    m = [[one() if i == j else zero() for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        if i % n != j % n:
            i, j = i % n, j % n
            m[i] = [m[i][k] + c * m[j][k] for k in range(n)]
    return Dense(m)


def conjugated(rep, p):
    """The representation P^-1 rho P, with nothing left of its block shape."""
    pinv = inverse(p)
    return AnalyticRep(rep.group, lambda i: pinv * (rep.matrix(i) * p), rep.character.values)


def mat_mul_mod(a, b, p):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % p for col in bt] for row in a]


def solve_unique_mod(a, b, p):
    """Solve A X = B with A of full column rank; X returned row-major."""
    n = len(a)
    s = len(a[0])
    width = len(b[0])
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    rows, pivots = modp.rref_mod(aug, p)
    if pivots[:s] != list(range(s)) or len(pivots) != s:
        raise ValueError("coefficient matrix is rank deficient")
    return [rows[r][s:s + width] for r in range(s)]
