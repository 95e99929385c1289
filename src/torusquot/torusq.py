"""Torus-quotient analysis of a finite group's analytic representation.

Given a finite group G acting linearly on C^n, the quotient of a complex
torus C^n/Lambda by G carries reflexive differential forms whose dimensions
are pure character theory: the invariant 1-forms count the trivial
constituents of the representation, the invariant 2-forms the trivial
constituents of its exterior square.  When the invariant 2-form is unique and
non-degenerate, the representation is either quaternionic irreducible or a
sum of two conjugate irreducibles, and the conjugate-pair case carries a
canonical pair of half-dimensional invariant subspaces on which the form
vanishes (the fibers of a Lagrangian fibration).  This module computes all of
that exactly, plus the smoothness obstructions: the eigenvalue-1 test per
conjugacy class and the cyclic-Sylow primitivity criterion.  Every count
that is a function of the character is read off one decomposition into the
table's irreducibles (:meth:`AnalyticRep.decomposition`).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .chartab import Character, CharacterTable, decompose, trivial_character
from .cyclo import Cyclotomic, add_all, format_entry, kernel_basis, one, prime_factors, rref, zero
from .errors import InvalidInputError, NotAHomomorphismError, TorusQuotError
from .groups import Dense, Element, FiniteGroup


class AnalyticRep:
    """A matrix representation of a closed group with its character.

    Element i's matrix is build(i), built on first use and kept, so a stage
    that reads only the generators and the class representatives builds
    only those.  ``traces`` are the character's values, one per class, so
    reading the character builds no matrix.
    """

    def __init__(self, group: FiniteGroup, build, traces):
        self.group = group
        self._build = build
        self._matrices = {}
        self.character = Character(group, tuple(traces))
        self._decomposition = None

    @property
    def degree(self) -> int:
        return self.character.degree

    def matrix(self, i: int):
        m = self._matrices.get(i)
        if m is None:
            m = self._matrices[i] = self._build(i)
        return m

    @property
    def matrices(self) -> tuple:
        return tuple(self.matrix(i) for i in range(self.group.order))

    def generator_images(self):
        return tuple(self.matrix(i) for i in self.group.generator_indices)

    def decomposition(self, table: CharacterTable) -> tuple[int, ...]:
        """The character's multiplicity in each irreducible of ``table``,
        kept for the last table asked for."""
        if self._decomposition is None or self._decomposition[0] is not table:
            self._decomposition = table, decompose(self.character, table)
        return self._decomposition[1]

    @property
    def faithful(self) -> bool:
        return self.character.is_faithful()

    def __repr__(self):
        return f"AnalyticRep(order={self.group.order}, degree={self.degree})"


def assemble(group: FiniteGroup, images) -> AnalyticRep:
    """Extend generator images to the whole group along the BFS tree.

    Every product relation M(x·g) = M(x)·M(g) is checked afterwards, so an
    inconsistent assignment cannot slip through on a subset of relations.
    """
    images = list(images)
    if len(images) != len(group.generator_indices):
        raise InvalidInputError(
            f"expected {len(group.generator_indices)} generator images, got {len(images)}")
    deg = images[0].degree
    if any(m.degree != deg for m in images):
        raise InvalidInputError("generator images must share one degree")

    mats = [Element.identity(deg)]
    for parent, a in zip(group.parents[1:], group.letters[1:]):
        mats.append(mats[parent] * images[a])

    for i in range(group.order):
        for a, gi in enumerate(group.generator_indices):
            if mats[group.mult(i, gi)] != mats[i] * images[a]:
                raise NotAHomomorphismError(
                    "generator images do not respect the multiplication table")
    return AnalyticRep(group, mats.__getitem__,
                       (mats[r].trace() for r in group.class_representatives))


def natural_rep(group: FiniteGroup) -> AnalyticRep:
    """The group acting by its own matrices; its character is the group's
    class traces."""
    return AnalyticRep(group, group.element, group.class_traces)


def conjugate_pair_rep(rep: AnalyticRep) -> AnalyticRep:
    """Block sum of a representation with its entrywise conjugate, whose
    character is χ + χ̄: tr(M ⊕ M̄) = tr M + conj(tr M)."""
    def build(i):
        m = rep.matrix(i)
        return m.block_sum(m.conjugate())
    return AnalyticRep(rep.group, build, (v + v.conjugate() for v in rep.character.values))


class SymplecticForm:
    """An antisymmetric bilinear form in coordinates, held as ``element``,
    the element whose columns are those of the form's matrix Omega."""

    def __init__(self, rows):
        rows = tuple(map(tuple, rows))
        if any(len(row) != len(rows) for row in rows):
            raise InvalidInputError("form matrix must be square")
        element = Dense(rows)
        negated = tuple(tuple((i, -w) for i, w in column) for column in element.columns)
        if element.transpose().columns != negated:
            raise InvalidInputError("form matrix must be antisymmetric")
        self.element = element

    @staticmethod
    def _from_upper(degree: int, upper) -> "SymplecticForm":
        """The form with the nonzero entries {(i, j): c} above the diagonal,
        c at (i, j) and -c at (j, i).  Taken in sorted order, the pairs put
        each column's entries in row order: those above the diagonal come
        from earlier first coordinates."""
        columns = [[] for _ in range(degree)]
        for (i, j), c in sorted(upper.items()):
            columns[j].append((i, c))
            columns[i].append((j, -c))
        form = object.__new__(SymplecticForm)
        form.element = Element(tuple(map(tuple, columns)))
        return form

    @staticmethod
    def wedge_pairs(degree: int, pairs) -> "SymplecticForm":
        """Sum of coordinate wedges dz_a ^ dz_b over 0-based index pairs,
        counted in integers above the diagonal."""
        counts = {}
        for a, b in pairs:
            if not (0 <= a < degree and 0 <= b < degree) or a == b:
                raise InvalidInputError(f"bad wedge pair ({a}, {b}) for degree {degree}")
            key, sign = ((a, b), 1) if a < b else ((b, a), -1)
            counts[key] = counts.get(key, 0) + sign
        return SymplecticForm._from_upper(
            degree, {key: Cyclotomic.from_value(c) for key, c in counts.items() if c})

    @property
    def degree(self) -> int:
        return self.element.degree

    @property
    def matrix(self) -> tuple:
        """Omega as row-major tuples, zeros included."""
        return self.element.rows

    def is_nondegenerate(self) -> bool:
        """Full rank.  A monomial Omega (every wedge form) has full rank;
        any other form is decided by the one exact row reduction."""
        return self.element.is_monomial() or len(rref(self.matrix)[1]) == self.degree

    def evaluate(self, u, v) -> Cyclotomic:
        """u^T * Omega * v: v[j]·u[i]·Omega[i][j] over the nonzero entries
        (i, Omega[i][j]) of each column j with v[j] nonzero."""
        return add_all([u[i] * w * y
                        for y, column in zip(v, self.element.columns) if y
                        for i, w in column if u[i]])

    def __eq__(self, other):
        if isinstance(other, SymplecticForm):
            return self.element == other.element
        return NotImplemented

    def __repr__(self):
        return f"SymplecticForm(degree={self.degree})"


class LatticeSpec:
    """Product lattice (Z + wZ)^n, with w = 1 meaning plain integer entries
    (an integer matrix preserves every product lattice)."""

    def __init__(self, omega):
        omega = Cyclotomic.from_value(omega)
        if omega == 1:
            order = 1
        else:
            order = omega.root_of_unity_order()
            if order is None:
                raise InvalidInputError("lattice generator must be a root of unity")
            if order == 2:
                raise InvalidInputError("lattice generator -1 does not span a lattice")
        self.omega = omega
        self.order = order
        self._scale = None if order == 1 else (omega - omega.conjugate()).inverse()

    def contains(self, x: Cyclotomic) -> bool:
        """Exact membership in Z + wZ.

        A w other than 1 is not real, so x = a + b*w with rational a and b
        exactly when b = (x - conj(x)) / (w - conj(w)) and a = x - b*w are
        both rational; then a and b must be integers.  1 / (w - conj(w)) is
        computed once, with the lattice.
        """
        if self.order == 1:
            r = x.as_rational()
            return r is not None and r.denominator == 1
        b = ((x - x.conjugate()) * self._scale).as_rational()
        if b is None or b.denominator != 1:
            return False
        a = (x - b * self.omega).as_rational()
        return a is not None and a.denominator == 1

    def __repr__(self):
        return f"LatticeSpec(omega={self.omega})"


# -- reflexive form dimensions


def h0_reflexive_1forms(rep: AnalyticRep, table: CharacterTable) -> int:
    """Dimension of the invariant 1-forms: multiplicity of the trivial
    character in the representation."""
    return rep.decomposition(table)[table.index_of(trivial_character(rep.group))]


def h0_reflexive_2forms(rep: AnalyticRep, table: CharacterTable) -> int:
    """Dimension of the invariant 2-forms: multiplicity of the trivial
    character in the exterior square, read off the decomposition
    V = ⊕ m_i V_i.

    Λ²(A ⊕ B) = Λ²A ⊕ Λ²B ⊕ A⊗B, so Λ²V is the sum of m_i Λ²V_i and
    m_i(m_i − 1)/2 copies of V_i⊗V_i over i, and of m_i m_j copies of
    V_i⊗V_j over i < j.  ⟨χ_i χ_j, 1⟩ = [χ_j = χ̄_i], so V_i⊗V_i holds the
    trivial character once when χ_i is real (indicator ν_i = ±1), and
    V_i⊗V_j with i ≠ j once when they are a complex pair.  Λ²χ_i =
    (χ_i² − χ_i(g²))/2 holds it ([χ_i real] − ν_i)/2 times, once when
    ν_i = −1.  So h2,0 = Σ_{ν_i=−1} m_i + Σ_{ν_i=±1} m_i(m_i − 1)/2 +
    Σ_{pairs {i, ī}} m_i m_ī."""
    mult = rep.decomposition(table)
    total = 0
    for i, m in enumerate(mult):
        if not m:
            continue
        nu = table.indicator(i)
        if nu == -1:
            total += m
        if nu:
            total += m * (m - 1) // 2
        else:
            j = table.conjugate_index(i)
            if i < j:
                total += m * mult[j]
    return total


# -- symplectic classification


class SymplecticClass(Enum):
    """Quaternionic irreducible, a conjugate pair named by the type of its
    constituent, or neither; each value is the report's string."""

    QUATERNIONIC_IRREDUCIBLE = "QuaternionicIrreducible"
    REAL_PAIR = "ConjugatePair(real)"
    COMPLEX_PAIR = "ConjugatePair(complex)"
    TRIVIAL_PAIR = "ConjugatePair(trivial)"
    NEITHER = "NotUniSymplectic"

    def __str__(self):
        return self.value

    @property
    def is_pair(self) -> bool:
        return self.value.startswith("ConjugatePair")


def classify_symplectic(rep: AnalyticRep, table: CharacterTable) -> SymplecticClass:
    """Trichotomy for a unique symplectic structure: quaternionic irreducible,
    or a sum of two conjugate irreducibles (real/complex/trivial), or neither."""
    mult = rep.decomposition(table)
    support = [i for i, m in enumerate(mult) if m]
    if len(support) == 1:
        i = support[0]
        if mult[i] == 1:
            if table.indicator(i) == -1:
                return SymplecticClass.QUATERNIONIC_IRREDUCIBLE
            return SymplecticClass.NEITHER
        if mult[i] == 2:
            if table[i].values == trivial_character(rep.group).values:
                return SymplecticClass.TRIVIAL_PAIR
            if table.indicator(i) == 1:
                return SymplecticClass.REAL_PAIR
        return SymplecticClass.NEITHER
    if len(support) == 2:
        i, j = support
        if mult[i] == mult[j] == 1 and table.conjugate_index(i) == j:
            return SymplecticClass.COMPLEX_PAIR
    return SymplecticClass.NEITHER


def homogeneous_decomplexification(rep: AnalyticRep, table: CharacterTable) -> bool:
    """True when all constituents agree up to complex conjugation."""
    support = [i for i, m in enumerate(rep.decomposition(table)) if m]
    if len(support) == 1:
        return True
    if len(support) == 2:
        return table.conjugate_index(support[0]) == support[1]
    return False


# -- invariant forms and their preservation


def _line_orbit(gens, a: int, b: int):
    """Walk the orbit of the signed line E_ab − E_ba under monomial
    generators, given by their row views (col, s).

    A generator maps c·(E_ij − E_ji) to c·s_i·s_j·(E_col[i],col[j] −
    E_col[j],col[i]).  Returns ({(i, j): c} with i < j, True) for the whole
    orbit: the group average of the seed is a positive multiple of its sum.
    Returns (the lines reached so far, False) as soon as a line is reached
    with two scalars: its stabiliser then scales it by a root of unity
    other than 1, and the average is 0."""
    orbit = {(a, b): one()}
    todo = [(a, b)]
    while todo:
        i, j = todo.pop()
        c = orbit[i, j]
        for col, s in gens:
            ii, jj, cc = col[i], col[j], c * s[i] * s[j]
            if ii > jj:
                ii, jj, cc = jj, ii, -cc
            seen = orbit.get((ii, jj))
            if seen is None:
                orbit[ii, jj] = cc
                todo.append((ii, jj))
            elif seen != cc:
                return orbit, False
    return orbit, True


def invariant_form(rep: AnalyticRep) -> SymplecticForm | None:
    """Group-average antisymmetric coordinate seeds; first nonzero average,
    rescaled so its first nonzero entry is 1.  None when every seed dies,
    which happens exactly when there is no invariant 2-form.  An average is
    kept as its nonzero entries {(i, j): c} above the diagonal; the form is
    antisymmetric, so the first nonzero entry in row order is the one at
    the least (i, j).

    On monomial generators the average of a seed is read off its line orbit
    (:func:`_line_orbit`).  A line reached from a dead seed lies in its
    orbit, so its own average is 0 too, and it is skipped.  Otherwise the
    average sums the wedges of rows a and b of every matrix, the columns a
    and b of its transpose."""
    n = rep.degree
    gens = rep.generator_images()
    mono = all(m.is_monomial() for m in gens)
    if mono:
        gens = [m.row_entries() for m in gens]
        dead = set()
    else:
        matrices = [m.transpose().columns for m in rep.matrices]
    for a in range(n):
        for b in range(a + 1, n):
            if mono and (a, b) in dead:
                continue
            if mono:
                upper, alive = _line_orbit(gens, a, b)
                if not alive:
                    dead.update(upper)
                    continue
            else:
                terms = {}
                for rows in matrices:
                    for i, x in rows[a]:
                        for j, y in rows[b]:
                            if i < j:
                                terms.setdefault((i, j), []).append(x * y)
                            elif i > j:
                                terms.setdefault((j, i), []).append(-(x * y))
                sums = ((key, add_all(values)) for key, values in terms.items())
                upper = {key: c for key, c in sums if c}
            if upper:
                scale = upper[min(upper)].inverse()
                return SymplecticForm._from_upper(
                    n, {key: scale * c for key, c in upper.items()})
    return None


def preserves_form(rep: AnalyticRep, form: SymplecticForm) -> bool:
    """Exact congruence check M^T * Omega * M = Omega on generators; the
    homomorphism property extends it to the whole group."""
    if form.degree != rep.degree:
        raise InvalidInputError("form degree does not match the representation")
    omega = form.element
    return all(m.transpose() * (omega * m) == omega for m in rep.generator_images())


def preserves_lattice(rep: AnalyticRep, lattice: LatticeSpec) -> bool:
    """True iff every generator entry lies in Z + wZ, each distinct entry
    tested once."""
    entries = {x for m in rep.generator_images() for _, _, x in m.entries()}
    return all(lattice.contains(x) for x in entries)


# -- smoothness obstructions


def _eigenvalue_one_multiplicities(rep: AnalyticRep, table: CharacterTable) -> tuple[int, ...]:
    """Multiplicity of eigenvalue 1 of ρ(g_k) per class k.  It adds over
    constituents, so it is Σ_i m_i·e_i(k), with e_i(k) irreducible i's count
    that the table's lift keeps (the average of χ_i over ⟨g_k⟩; Serre,
    *Linear Representations of Finite Groups*, §2.3)."""
    counts = [0] * rep.group.num_classes
    for m, ones in zip(rep.decomposition(table), table.eigenvalue_one):
        if m:
            counts = [c + m * e for c, e in zip(counts, ones)]
    return tuple(counts)


def eigenvalue_one_all(rep: AnalyticRep, table: CharacterTable) -> tuple[bool, tuple[int, ...]]:
    """Exact eigenvalue-1 test per class.  Returns the overall answer and
    the class indices where the multiplicity of eigenvalue 1 is 0."""
    failing = tuple(k for k, c in enumerate(_eigenvalue_one_multiplicities(rep, table))
                    if c == 0)
    return (not failing, failing)


def is_primitive(group: FiniteGroup) -> bool:
    """No prime divides both a cyclic-Sylow direction and the abelianization."""
    ab = None
    for p in prime_factors(group.order):
        if group.sylow_cyclic(p):
            if ab is None:
                ab = group.abelianization_order()
            if ab % p == 0:
                return False
    return True


# -- verdicts


class Verdict(Enum):
    TORUS_ONLY = "TORUS_ONLY"
    TWO_TORUS = "TWO_TORUS"
    NO_OBSTRUCTION_RECORDED = "NO_OBSTRUCTION_RECORDED"

    @property
    def singular_unless_torus(self) -> bool:
        return self is Verdict.TORUS_ONLY


def smoothness_verdict(symplectic_class: SymplecticClass, homogeneous: bool,
                       degree: int, trivial: bool) -> Verdict:
    """Obstruction summary.  Never claims a smooth quotient exists.

    A uni-symplectic class is always homogeneous, and it is trivial only as
    the degree-2 trivial pair, so above degree 2 it always gets TORUS_ONLY.
    """
    if symplectic_class is SymplecticClass.TRIVIAL_PAIR and degree == 2:
        return Verdict.TWO_TORUS
    if homogeneous and not trivial:
        return Verdict.TORUS_ONLY
    return Verdict.NO_OBSTRUCTION_RECORDED


# -- Lagrangian fibrations


def _complex_halves(rep: AnalyticRep, chi: Character, k: int):
    """The constituents of a complex pair χ + χ̄, as RREF bases, χ first;
    k is a class where χ is not real.

    The class sum S_k = Σ_{g ∈ C_k} ρ(g) is central, so it acts on the copy
    of χ as ω = |C_k|·χ(g_k)/χ(1) and on the copy of χ̄ as ω̄, and the two
    differ.  S_k − ω̄ then kills the copy of χ̄ and acts as ω − ω̄ ≠ 0 on
    the copy of χ, so the χ half is the column space of S_k − ω̄, and the χ̄
    half that of S_k − ω: one row reduction of the transpose each.  Only
    the members of C_k are read."""
    group, n = rep.group, rep.degree
    acc = [[zero()] * n for _ in range(n)]  # the transpose of S_k
    for g in group.conjugacy_classes[k]:
        for i, j, x in rep.matrix(g).entries():
            acc[j][i] = acc[j][i] + x
    omega = Cyclotomic.from_value(Fraction(group.class_sizes[k], chi.degree)) * chi.values[k]
    halves = []
    for w in (omega.conjugate(), omega):
        shifted = [[x - w if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(acc)]
        red, pivots = rref(shifted)
        if len(pivots) != n // 2:
            raise TorusQuotError("class sum eigenspaces do not split into halves")
        halves.append(red[:n // 2])
    return tuple(halves)


def _spin(gens, v, half: int):
    """(pivots, RREF basis) of the span of v under gens; None once that span
    passes half.  Each round reduces the basis with its images."""
    red, pivots = rref([v])
    while True:
        basis = red[:len(pivots)]
        red, grown = rref(basis + tuple(g.apply(w) for w in basis for g in gens))
        if len(grown) > half:
            return None
        if len(grown) == len(pivots):
            return pivots, basis
        pivots = grown


def _spin_halves(rep: AnalyticRep):
    """The two invariant Lagrangian halves of a real or trivial pair V + V,
    spun from joint eigenvectors (the spinning step of the MeatAxe).

    Every rho(x) is A_x (x) I on V (x) C^2, so each intersection K of C^n
    with eigenspaces of group elements has the form U (x) C^2.  Elements are
    walked in BFS order, each cutting K by its first eigenvalue that splits
    it, rational ones first, until dim K = 2.  Then U is a line, so each
    vector of K lies in one copy of V and spins to that copy: invariant,
    half-dimensional, and Lagrangian, because a real-type V carries no
    invariant alternating form.  Two distinct copies meet only in 0.
    Pairs whose generators keep two coordinate blocks never come here
    (:func:`_block_halves`).
    """
    group, n = rep.group, rep.degree
    basis = Element.identity(n).rows  # of K, as rows
    for x in range(1, group.order):
        if len(basis) <= 2:
            break
        m = rep.matrix(x)
        images = [m.apply(v) for v in basis]
        o = group.element_order(x)
        for lam in sorted((Cyclotomic.zeta(o, j) for j in range(o)), key=lambda z: z.conductor):
            shifted = tuple(zip(
                *[tuple(y - lam * c for y, c in zip(img, v)) for img, v in zip(images, basis)]))
            kernel = kernel_basis(shifted)
            if 0 < len(kernel) < len(basis):
                # column r of `spanning` is basis row r, so spanning·k combines the rows
                spanning = Element(tuple(tuple((i, c) for i, c in enumerate(v) if c)
                                         for v in basis) + ((),) * (n - len(basis)))
                basis = [spanning.apply(k) for k in kernel]
                break
    gens = rep.generator_images()
    halves = []
    for v in basis:
        span = _spin(gens, v, n // 2)
        if span is not None and span not in halves:
            halves.append(span)
    if len(halves) < 2:
        raise TorusQuotError(
            "could not split the pair: no joint eigenvector spins to two "
            "invariant halves")
    halves.sort(key=lambda h: (h[0], tuple(x.sort_key() for row in h[1] for x in row)))
    return halves[0][1], halves[1][1]


def _block_halves(rep: AnalyticRep, complex_pair):
    """The halves of a conjugate pair as unit-vector rows, when its
    generators keep exactly two coordinate blocks; None otherwise.
    ``complex_pair`` is (χ, k) for a complex pair χ + χ̄ and k a class where
    χ is not real, None for a real or trivial pair.

    The blocks are the connected components of the coordinates, i and j
    joined where a generator has a nonzero entry at (i, j): the orbits of
    the permutations of monomial generators, the support graph of dense
    ones.  The span of a block is invariant, so two blocks are two
    invariant subspaces of a sum of two irreducibles, and each is one of
    them.  They are the halves :func:`_complex_halves` and
    :func:`_spin_halves` find, in the same order:

    - complex χ + χ̄: the only half-dimensional subrepresentations are the
      two isotypic components, and an RREF basis is unique.  The χ half
      goes first: its trace at class k is χ(g_k), the other's χ̄(g_k).
    - real or trivial V + V: on a matrix that is block diagonal up to a
      permutation of coordinates, row reduction never mixes blocks, so
      every kernel vector the spin cuts K with stays inside one block and
      spins to all of it.  The spin sorts its halves by pivots, so the
      block with the smaller first coordinate goes first.
    """
    n = rep.degree
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for m in rep.generator_images():
        for i, j, _ in m.entries():
            root[find(i)] = find(j)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    if len(blocks) != 2:
        return None
    first, second = sorted(blocks.values())
    if complex_pair is not None:
        chi, k = complex_pair
        m = rep.matrix(rep.group.class_representatives[k])
        trace = add_all([x for i, j, x in m.entries() if i == j and i in first])
        if trace == chi.values[k].conjugate():
            first, second = second, first
        elif trace != chi.values[k]:
            raise TorusQuotError("a coordinate block is neither constituent of the pair")
    unit = Element.identity(n).rows
    return tuple(unit[i] for i in first), tuple(unit[i] for i in second)


def lagrangian_fibration_data(rep: AnalyticRep, form: SymplecticForm,
                              table: CharacterTable, *, form_preserved: bool = False):
    """Bases of the two invariant half-dimensional subspaces on which the
    form vanishes; None for the quaternionic irreducible case, which has no
    invariant subspace at all.  A caller that has checked the form passes
    ``form_preserved``."""
    if not form_preserved and not preserves_form(rep, form):
        raise InvalidInputError("form is not invariant under the representation")
    cls = classify_symplectic(rep, table)
    if cls is SymplecticClass.QUATERNIONIC_IRREDUCIBLE:
        return None
    if not cls.is_pair:
        raise InvalidInputError(
            "Lagrangian extraction needs a conjugate-pair representation")
    complex_pair = None
    if cls is SymplecticClass.COMPLEX_PAIR:  # χ listed first, k its first non-real class
        chi = table[rep.decomposition(table).index(1)]
        complex_pair = chi, next(k for k, v in enumerate(chi.values) if v != v.conjugate())
    halves = _block_halves(rep, complex_pair)
    if halves is None:
        if complex_pair is not None:
            halves = _complex_halves(rep, *complex_pair)
        else:  # real or trivial: character theory sees one constituent twice
            halves = _spin_halves(rep)
    # antisymmetry gives w(u, u) = 0 and w(v, u) = -w(u, v): the pairs u before v suffice
    for basis in halves:
        if any(form.evaluate(u, v) for a, u in enumerate(basis) for v in basis[a + 1:]):
            raise TorusQuotError("extracted invariant subspace is not Lagrangian")
    return halves


# -- the full pipeline


class QuotientReport(namedtuple(
        "QuotientReport",
        "group_order degree faithful h10 h20 symplectic_class homogeneous_decomplexification"
        " eigenvalue_one_all eigenvalue_one_failures primitive verdict invariant_form"
        " form_provided form_preserved form_degenerate lattice_provided lattice_preserved"
        " fibration")):
    """What :func:`analyze` finds, each field named by its key in
    :meth:`to_dict`.  The form and lattice fields are set when one is
    given, the fibration for a pair with a non-degenerate form."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields as JSON values, with the verdict's
        ``singular_unless_torus`` right after it."""
        d = {}
        for name, value in zip(self._fields, self):
            d[name] = _json_value(value)
            if name == "verdict":
                d["singular_unless_torus"] = value.singular_unless_torus
        return d

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [
            f"group order            {d['group_order']}",
            f"degree                 {d['degree']}",
            f"faithful               {_yn(d['faithful'])}",
            f"h1,0 (1-forms)         {d['h10']}",
            f"h2,0 (2-forms)         {d['h20']}",
            f"symplectic class       {d['symplectic_class']}",
            f"homogeneous            {_yn(d['homogeneous_decomplexification'])}",
            f"eigenvalue-1 all       {_yn(d['eigenvalue_one_all'])}",
        ]
        if d["eigenvalue_one_failures"]:
            lines.append(
                "  failing classes      " + ", ".join(map(str, d["eigenvalue_one_failures"])))
        lines.append(f"primitive              {_yn(d['primitive'])}")
        lines.append(f"verdict                {d['verdict']}")
        lines.append(f"singular unless torus  {_yn(d['singular_unless_torus'])}")
        if d["form_provided"]:
            lines.append(f"form preserved         {_yn(d['form_preserved'])}")
            lines.append(f"form degenerate        {_yn(d['form_degenerate'])}")
        if d["lattice_provided"]:
            lines.append(f"lattice preserved      {_yn(d['lattice_preserved'])}")
        if d["invariant_form"] is not None:
            lines.append("invariant form")
            for row in d["invariant_form"]:
                lines.append("  [" + ", ".join(row) + "]")
        if d["fibration"] is not None:
            for bi, basis in enumerate(d["fibration"]):
                lines.append(f"lagrangian half {bi + 1}")
                for vec in basis:
                    lines.append("  [" + ", ".join(vec) + "]")
        elif self.symplectic_class is SymplecticClass.QUATERNIONIC_IRREDUCIBLE:
            lines.append("fibration              none (irreducible: no invariant subspace)")
        return "\n".join(lines)


def _json_value(v):
    """An enum as its value, a form as its matrix, and a sequence as a list
    of such values, with a vector's exact entries in entry syntax."""
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, SymplecticForm):
        v = v.matrix
    if isinstance(v, (tuple, list)):
        if v and isinstance(v[0], Cyclotomic):
            return [format_entry(x) for x in v]
        return [_json_value(x) for x in v]
    return v


def _yn(v) -> str:
    return {True: "yes", False: "no", None: "-"}[v]


def analyze(rep: AnalyticRep, table: CharacterTable,
            form: SymplecticForm | None = None,
            lattice: LatticeSpec | None = None) -> QuotientReport:
    """Run the whole pipeline and collect one report."""
    if table.group is not rep.group:
        raise InvalidInputError("character table belongs to a different group")
    h10 = h0_reflexive_1forms(rep, table)
    h20 = h0_reflexive_2forms(rep, table)
    cls = classify_symplectic(rep, table)
    homog = homogeneous_decomplexification(rep, table)
    eig_all, eig_fail = eigenvalue_one_all(rep, table)
    prim = is_primitive(rep.group)
    verdict = smoothness_verdict(cls, homog, rep.degree, h10 == rep.degree)

    inv_form = invariant_form(rep) if h20 > 0 else None

    form_preserved = form_degenerate = None
    if form is not None:
        form_preserved = preserves_form(rep, form)
        form_degenerate = not form.is_nondegenerate()

    lattice_preserved = None
    if lattice is not None:
        lattice_preserved = preserves_lattice(rep, lattice)

    fibration = None
    if cls.is_pair:
        candidate = None
        if form is not None and form_preserved and not form_degenerate:
            candidate = form
        elif inv_form is not None and inv_form.is_nondegenerate():
            candidate = inv_form
        if candidate is not None:
            fibration = lagrangian_fibration_data(rep, candidate, table,
                                                  form_preserved=candidate is form)

    return QuotientReport(
        group_order=rep.group.order,
        degree=rep.degree,
        faithful=rep.faithful,
        h10=h10,
        h20=h20,
        symplectic_class=cls,
        homogeneous_decomplexification=homog,
        eigenvalue_one_all=eig_all,
        eigenvalue_one_failures=eig_fail,
        primitive=prim,
        verdict=verdict,
        invariant_form=inv_form,
        form_provided=form is not None,
        form_preserved=form_preserved,
        form_degenerate=form_degenerate,
        lattice_provided=lattice is not None,
        lattice_preserved=lattice_preserved,
        fibration=fibration,
    )
