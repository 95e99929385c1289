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
conjugacy class and the cyclic-Sylow primitivity criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import linalg
from .chartab import (
    Character,
    CharacterTable,
    decompose,
    frobenius_schur,
    inner_product,
    trivial_character,
)
from .cyclo import Cyclotomic, format_entry, one, prime_factors, rref, zero
from .errors import (
    InconsistentCharacterError,
    InvalidInputError,
    NotAHomomorphismError,
    TorusQuotError,
)
from .groups import Dense, FiniteGroup, Monomial


class AnalyticRep:
    """A matrix representation of a closed group, one matrix per element."""

    def __init__(self, group: FiniteGroup, matrices):
        self.group = group
        self.matrices = tuple(matrices)
        if len(self.matrices) != group.order:
            raise InvalidInputError("need one matrix per group element")
        self._character = None
        self._faithful = None

    @property
    def degree(self) -> int:
        return self.matrices[0].degree

    def matrix(self, i: int):
        return self.matrices[i]

    def generator_images(self):
        return tuple(self.matrices[i] for i in self.group.generator_indices)

    @property
    def character(self) -> Character:
        if self._character is None:
            self._character = Character(
                self.group,
                tuple(self.matrices[r].trace() for r in self.group.class_representatives))
        return self._character

    @property
    def faithful(self) -> bool:
        if self._faithful is None:
            self._faithful = all(
                not self.matrices[i].is_identity() for i in range(1, self.group.order))
        return self._faithful

    def is_trivial(self) -> bool:
        d = Cyclotomic.from_value(self.degree)
        return all(v == d for v in self.character.values)

    def __repr__(self):
        return f"AnalyticRep(order={self.group.order}, degree={self.degree})"


def assemble(group: FiniteGroup, images) -> AnalyticRep:
    """Extend generator images to the whole group along BFS words.

    Every product relation M(x·g) = M(x)·M(g) is checked afterwards, so an
    inconsistent assignment cannot slip through on a subset of relations.
    """
    images = list(images)
    if len(images) != len(group.generator_indices):
        raise InvalidInputError(
            f"expected {len(group.generator_indices)} generator images, got {len(images)}")
    if not images:
        raise InvalidInputError("group has no generators")
    deg = images[0].degree
    if any(m.degree != deg for m in images):
        raise InvalidInputError("generator images must share one degree")
    if any(isinstance(m, Dense) for m in images):
        images = [m.to_dense() for m in images]
        ident = Dense.identity(deg)
    else:
        ident = Monomial.identity(deg)

    mats = [None] * group.order
    mats[0] = ident
    index_by_word = {group.word(i): i for i in range(group.order)}
    for i in range(1, group.order):
        w = group.word(i)
        parent = index_by_word[w[:-1]]
        mats[i] = mats[parent] * images[w[-1]]

    for i in range(group.order):
        for a, gi in enumerate(group.generator_indices):
            if mats[group.mult(i, gi)] != mats[i] * images[a]:
                raise NotAHomomorphismError(
                    "generator images do not respect the multiplication table")
    return AnalyticRep(group, mats)


def natural_rep(group: FiniteGroup) -> AnalyticRep:
    """The group acting by its own matrices."""
    return AnalyticRep(group, group.elements)


def conjugate_pair_rep(rep: AnalyticRep) -> AnalyticRep:
    """Block sum of a representation with its entrywise conjugate."""
    return AnalyticRep(
        rep.group,
        tuple(m.block_sum(m.conjugate()) for m in rep.matrices))


class SymplecticForm:
    """An antisymmetric bilinear form in coordinates."""

    def __init__(self, matrix):
        self.matrix = linalg.as_matrix(matrix)
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise InvalidInputError("form matrix must be square")
        for i in range(n):
            for j in range(i, n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise InvalidInputError("form matrix must be antisymmetric")
        self._nondegenerate = None

    @staticmethod
    def wedge_pairs(degree: int, pairs) -> "SymplecticForm":
        """Sum of coordinate wedges dz_a ^ dz_b over 0-based index pairs."""
        rows = [[zero()] * degree for _ in range(degree)]
        for a, b in pairs:
            if not (0 <= a < degree and 0 <= b < degree) or a == b:
                raise InvalidInputError(f"bad wedge pair ({a}, {b}) for degree {degree}")
            rows[a][b] = rows[a][b] + one()
            rows[b][a] = rows[b][a] - one()
        return SymplecticForm(rows)

    @property
    def degree(self) -> int:
        return len(self.matrix)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.matrix for x in row)

    def is_nondegenerate(self) -> bool:
        """Full rank, decided by the one exact row reduction."""
        if self._nondegenerate is None:
            self._nondegenerate = len(rref(self.matrix)[1]) == self.degree
        return self._nondegenerate

    def evaluate(self, u, v) -> Cyclotomic:
        return sum(
            (ui * self.matrix[i][j] * v[j]
             for i, ui in enumerate(u) if ui
             for j in range(self.degree) if self.matrix[i][j]),
            zero())

    def __eq__(self, other):
        if isinstance(other, SymplecticForm):
            return self.matrix == other.matrix
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

    def contains(self, x: Cyclotomic) -> bool:
        """Exact membership in Z + wZ."""
        if self.order == 1:
            r = x.as_rational()
            return r is not None and r.denominator == 1
        if self.order % x.conductor:
            return False
        target = x.lift_coeffs(self.order)
        one_vec = one().lift_coeffs(self.order)
        omega_vec = self.omega.lift_coeffs(self.order)
        # solve a*1 + b*omega = x over Q, then require integer a, b
        red, pivots = rref([[one_vec[k], omega_vec[k], target[k]] for k in range(len(target))])
        if pivots[-1] == 2:
            return False  # inconsistent: x is not in Q + Q*omega
        return all(row[2].denominator == 1 for row in red[:len(pivots)])

    def __repr__(self):
        return f"LatticeSpec(omega={self.omega})"


# -- reflexive form dimensions


def _integer_inner(chi: Character, other: Character, what: str) -> int:
    val = inner_product(chi, other).as_rational()
    if val is None or val.denominator != 1 or val < 0:
        raise InconsistentCharacterError(f"{what} is not a non-negative integer")
    return int(val)


def h0_reflexive_1forms(rep: AnalyticRep) -> int:
    """Dimension of the invariant 1-forms: multiplicity of the trivial
    character in the representation."""
    return _integer_inner(rep.character, trivial_character(rep.group),
                          "invariant 1-form dimension")


def h0_reflexive_2forms(rep: AnalyticRep) -> int:
    """Dimension of the invariant 2-forms: multiplicity of the trivial
    character in the exterior square."""
    from .chartab import exterior_square
    return _integer_inner(exterior_square(rep.character), trivial_character(rep.group),
                          "invariant 2-form dimension")


# -- symplectic classification


class SymplecticKind(Enum):
    QUATERNIONIC_IRREDUCIBLE = "QuaternionicIrreducible"
    CONJUGATE_PAIR = "ConjugatePair"
    NOT_UNI_SYMPLECTIC = "NotUniSymplectic"


@dataclass(frozen=True)
class SymplecticClass:
    kind: SymplecticKind
    pair_type: str | None = None  # real | complex | trivial, pairs only

    def __str__(self):
        if self.kind is SymplecticKind.CONJUGATE_PAIR:
            return f"ConjugatePair({self.pair_type})"
        return self.kind.value


QUATERNIONIC = SymplecticClass(SymplecticKind.QUATERNIONIC_IRREDUCIBLE)
NOT_UNI_SYMPLECTIC = SymplecticClass(SymplecticKind.NOT_UNI_SYMPLECTIC)


def classify_symplectic(rep: AnalyticRep, table: CharacterTable) -> SymplecticClass:
    """Trichotomy for a unique symplectic structure: quaternionic irreducible,
    or a sum of two conjugate irreducibles (real/complex/trivial), or neither."""
    mult = decompose(rep.character, table)
    support = [i for i, m in enumerate(mult) if m]
    if len(support) == 1:
        i = support[0]
        irr = table[i]
        if mult[i] == 1:
            if frobenius_schur(irr) == -1:
                return QUATERNIONIC
            return NOT_UNI_SYMPLECTIC
        if mult[i] == 2:
            if irr.values == trivial_character(rep.group).values:
                return SymplecticClass(SymplecticKind.CONJUGATE_PAIR, "trivial")
            if frobenius_schur(irr) == 1:
                return SymplecticClass(SymplecticKind.CONJUGATE_PAIR, "real")
        return NOT_UNI_SYMPLECTIC
    if len(support) == 2:
        i, j = support
        if mult[i] == mult[j] == 1 and table.conjugate_index(i) == j:
            return SymplecticClass(SymplecticKind.CONJUGATE_PAIR, "complex")
    return NOT_UNI_SYMPLECTIC


def homogeneous_decomplexification(rep: AnalyticRep, table: CharacterTable) -> bool:
    """True when all constituents agree up to complex conjugation."""
    mult = decompose(rep.character, table)
    support = [i for i, m in enumerate(mult) if m]
    if len(support) == 1:
        return True
    if len(support) == 2:
        return table.conjugate_index(support[0]) == support[1]
    return False


# -- invariant forms and their preservation


def invariant_form(rep: AnalyticRep) -> SymplecticForm | None:
    """Group-average antisymmetric coordinate seeds; first nonzero average,
    rescaled so its first nonzero entry is 1.  None when every seed dies,
    which happens exactly when there is no invariant 2-form."""
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


def preserves_form(rep: AnalyticRep, form: SymplecticForm) -> bool:
    """Exact congruence check on generators; the homomorphism property
    extends it to the whole group."""
    if form.degree != rep.degree:
        raise InvalidInputError("form degree does not match the representation")
    omega = form.matrix
    n = rep.degree
    for m in rep.generator_images():
        if isinstance(m, Monomial):
            for j in range(n):
                for k in range(n):
                    lhs = m.scalars[j] * m.scalars[k] * omega[m.perm[j]][m.perm[k]]
                    if lhs != omega[j][k]:
                        return False
        else:
            congr = linalg.mat_mul(linalg.transpose(m.rows),
                                   linalg.mat_mul(omega, m.rows))
            if not linalg.mat_eq(congr, omega):
                return False
    return True


def preserves_lattice(rep: AnalyticRep, lattice: LatticeSpec) -> bool:
    """True iff every generator entry lies in Z + wZ."""
    for m in rep.generator_images():
        entries = m.scalars if isinstance(m, Monomial) else \
            tuple(x for row in m.rows for x in row if x)
        if not all(lattice.contains(x) for x in entries):
            return False
    return True


# -- smoothness obstructions


def eigenvalue_one_all(rep: AnalyticRep) -> tuple[bool, tuple[int, ...]]:
    """Exact eigenvalue-1 test on one representative per class; returns the
    overall answer and the failing class indices."""
    failing = tuple(
        k for k, r in enumerate(rep.group.class_representatives)
        if not rep.matrices[r].has_eigenvalue_one())
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
    if symplectic_class == SymplecticClass(SymplecticKind.CONJUGATE_PAIR, "trivial") \
            and degree == 2:
        return Verdict.TWO_TORUS
    if homogeneous and not trivial:
        return Verdict.TORUS_ONLY
    return Verdict.NO_OBSTRUCTION_RECORDED


# -- isotypic structure and Lagrangian fibrations


def isotypic_projections(rep: AnalyticRep, table: CharacterTable):
    """(character, projection) for each constituent: the image of the
    averaged conjugate-character sum."""
    group = rep.group
    n = rep.degree
    mult = decompose(rep.character, table)
    out = []
    for i, m in enumerate(mult):
        if not m:
            continue
        irr = table[i]
        scale = Cyclotomic.from_value(Fraction(irr.degree, group.order))
        coeff = [scale * irr.values[k].conjugate() for k in range(group.num_classes)]
        acc = [[zero()] * n for _ in range(n)]
        for gi in range(group.order):
            c = coeff[group.class_of(gi)]
            if c.is_zero():
                continue
            mat = rep.matrices[gi]
            if isinstance(mat, Monomial):
                for j, pj in enumerate(mat.perm):
                    acc[pj][j] = acc[pj][j] + c * mat.scalars[j]
            else:
                for r in range(n):
                    row = mat.rows[r]
                    arow = acc[r]
                    for s in range(n):
                        if row[s]:
                            arow[s] = arow[s] + c * row[s]
        out.append((irr, linalg.as_matrix(acc)))
    return out


def _basis_is_lagrangian(basis, form: SymplecticForm) -> bool:
    return all(form.evaluate(u, v).is_zero() for u in basis for v in basis)


def _spin(gens, v, half: int):
    """(pivots, RREF basis) of the span of v under gens; None once that span
    passes half.  Each new image is reduced against the pivots found so far."""
    echelon = []  # (pivot, row with 1 there and 0 at every earlier pivot)
    todo = [v]
    while todo:
        w = todo.pop()
        for p, row in echelon:
            if w[p]:
                c = w[p]
                w = tuple(a - c * b if b else a for a, b in zip(w, row))
        p = next((i for i, a in enumerate(w) if a), None)
        if p is None:
            continue
        if len(echelon) == half:
            return None
        inv = w[p].inverse()
        w = tuple(inv * a for a in w)
        echelon.append((p, w))
        todo.extend(linalg.mat_vec(g, w) for g in gens)
    red, pivots = rref([row for _, row in echelon])
    return pivots, red


def _spin_halves(rep: AnalyticRep):
    """The two invariant Lagrangian halves of a real or trivial pair V + V,
    spun from joint eigenvectors (the spinning step of the MeatAxe).

    Every rho(x) is A_x (x) I on V (x) C^2, so each intersection K of C^n
    with eigenspaces of group elements has the form U (x) C^2.  Elements are
    walked in BFS order, each cutting K by its first eigenvalue that splits
    it, rational ones first, until dim K = 2.  Then U is a line, so each
    vector of K lies in one copy of V and spins to that copy: invariant,
    half-dimensional, and Lagrangian, because a real-type V carries no
    invariant alternating form.  Two distinct copies meet only in 0.  On a
    block sum every kernel vector stays inside one block, so the halves are
    the coordinate blocks.
    """
    group, n = rep.group, rep.degree
    basis = linalg.identity_matrix(n)  # of K, as rows
    for x in range(1, group.order):
        if len(basis) <= 2:
            break
        rows = rep.matrices[x].to_dense().rows
        images = [linalg.mat_vec(rows, v) for v in basis]
        o = group.element_order(x)
        for lam in sorted((Cyclotomic.zeta(o, j) for j in range(o)), key=lambda z: z.conductor):
            shifted = linalg.transpose(
                [tuple(y - lam * c for y, c in zip(img, v)) for img, v in zip(images, basis)])
            kernel = linalg.kernel_basis(shifted)
            if 0 < len(kernel) < len(basis):
                columns = linalg.transpose(basis)
                basis = [linalg.mat_vec(columns, k) for k in kernel]
                break
    gens = [m.to_dense().rows for m in rep.generator_images()]
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


def lagrangian_fibration_data(rep: AnalyticRep, form: SymplecticForm,
                              table: CharacterTable):
    """Bases of the two invariant half-dimensional subspaces on which the
    form vanishes; None for the quaternionic irreducible case, which has no
    invariant subspace at all."""
    if not preserves_form(rep, form):
        raise InvalidInputError("form is not invariant under the representation")
    cls = classify_symplectic(rep, table)
    if cls.kind is SymplecticKind.QUATERNIONIC_IRREDUCIBLE:
        return None
    if cls.kind is not SymplecticKind.CONJUGATE_PAIR:
        raise InvalidInputError(
            "Lagrangian extraction needs a conjugate-pair representation")
    n = rep.degree
    half = n // 2
    if cls.pair_type == "complex":
        projections = isotypic_projections(rep, table)
        bases = [linalg.column_space_basis(proj) for _, proj in projections]
        if len(bases) != 2 or any(len(b) != half for b in bases):
            raise TorusQuotError("isotypic images do not split into halves")
        v1, v2 = tuple(map(tuple, bases[0])), tuple(map(tuple, bases[1]))
    else:  # real or trivial: character theory sees one constituent twice
        v1, v2 = _spin_halves(rep)
    for v in (v1, v2):
        if not _basis_is_lagrangian(v, form):
            raise TorusQuotError("extracted invariant subspace is not Lagrangian")
    return v1, v2


# -- the full pipeline


@dataclass
class QuotientReport:
    group_order: int
    degree: int
    faithful: bool
    h10: int
    h20: int
    symplectic_class: SymplecticClass
    homogeneous: bool
    eigenvalue_one_all: bool
    eigenvalue_one_failures: tuple[int, ...]
    primitive: bool
    verdict: Verdict
    invariant_form: SymplecticForm | None = None
    form_provided: bool = False
    form_preserved: bool | None = None
    form_degenerate: bool | None = None
    lattice_provided: bool = False
    lattice_preserved: bool | None = None
    fibration: tuple | None = None

    def to_dict(self) -> dict:
        def form_entries(m):
            return [[format_entry(x) for x in row] for row in m]

        d = {
            "group_order": self.group_order,
            "degree": self.degree,
            "faithful": self.faithful,
            "h10": self.h10,
            "h20": self.h20,
            "symplectic_class": str(self.symplectic_class),
            "homogeneous_decomplexification": self.homogeneous,
            "eigenvalue_one_all": self.eigenvalue_one_all,
            "eigenvalue_one_failures": list(self.eigenvalue_one_failures),
            "primitive": self.primitive,
            "verdict": self.verdict.value,
            "singular_unless_torus": self.verdict.singular_unless_torus,
            "invariant_form": form_entries(self.invariant_form.matrix)
                if self.invariant_form is not None else None,
            "form_provided": self.form_provided,
            "form_preserved": self.form_preserved,
            "form_degenerate": self.form_degenerate,
            "lattice_provided": self.lattice_provided,
            "lattice_preserved": self.lattice_preserved,
            "fibration": [[ [format_entry(x) for x in vec] for vec in basis]
                          for basis in self.fibration]
                if self.fibration is not None else None,
        }
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
        elif self.symplectic_class.kind is SymplecticKind.QUATERNIONIC_IRREDUCIBLE:
            lines.append("fibration              none (irreducible: no invariant subspace)")
        return "\n".join(lines)


def _yn(v) -> str:
    return {True: "yes", False: "no", None: "-"}[v]


def analyze(rep: AnalyticRep, table: CharacterTable,
            form: SymplecticForm | None = None,
            lattice: LatticeSpec | None = None) -> QuotientReport:
    """Run the whole pipeline and collect one report."""
    if table.group is not rep.group:
        raise InvalidInputError("character table belongs to a different group")
    h10 = h0_reflexive_1forms(rep)
    h20 = h0_reflexive_2forms(rep)
    cls = classify_symplectic(rep, table)
    homog = homogeneous_decomplexification(rep, table)
    eig_all, eig_fail = eigenvalue_one_all(rep)
    prim = is_primitive(rep.group)
    verdict = smoothness_verdict(cls, homog, rep.degree, rep.is_trivial())

    inv_form = invariant_form(rep) if h20 > 0 else None

    form_preserved = form_degenerate = None
    if form is not None:
        form_preserved = preserves_form(rep, form)
        form_degenerate = not form.is_nondegenerate()

    lattice_preserved = None
    if lattice is not None:
        lattice_preserved = preserves_lattice(rep, lattice)

    fibration = None
    if cls.kind is SymplecticKind.CONJUGATE_PAIR:
        candidate = None
        if form is not None and form_preserved and not form_degenerate:
            candidate = form
        elif inv_form is not None and inv_form.is_nondegenerate():
            candidate = inv_form
        if candidate is not None:
            fibration = lagrangian_fibration_data(rep, candidate, table)

    return QuotientReport(
        group_order=rep.group.order,
        degree=rep.degree,
        faithful=rep.faithful,
        h10=h10,
        h20=h20,
        symplectic_class=cls,
        homogeneous=homog,
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
