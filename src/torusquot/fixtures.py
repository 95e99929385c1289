"""Built-in example groups with their expected analysis results.

Three embedded group files cover the three Frobenius-Schur types that
admit the invariants this package computes: a real-type degree-3 action
of a group of order 24, a complex-type degree-8 action of a group of
order 216, and a quaternionic-type degree-20 action of a group of order
1280.  `run_fixture` replays the whole pipeline on one of them and
compares every recorded quantity, so the same code backs both the
`check-example` subcommand and the acceptance tests.

Why the order-1280 entry is not primitive.  The group closed from its two
generator maps has abelianization C5, its Sylow 5-subgroup is cyclic, and
the elements that map every coordinate block {4k+1, ..., 4k+4} to itself
form a normal subgroup of order 256 and index 5: a normal complement to
the Sylow 5-subgroup.  Primitivity here is the Hiller-Sah criterion for
flat manifolds with b1 = 0 (Hiller and Sah, Quart. J. Math. Oxford 37,
1986): no cyclic Sylow p-subgroup has a normal complement.  By Burnside's
transfer theorem a cyclic Sylow p-subgroup has one exactly when p divides
|G/G'|, which is what `is_primitive` tests.  So `primitive` is `False`,
and no other group could have given `True`:

Claim.  If G has order 1280 = 2^8 * 5 and a faithful irreducible
representation in which every element has eigenvalue 1, then G has a
normal Sylow 2-subgroup, so 5 divides |G/G'| and G is not primitive.

1. Z(G) = 1.  By Schur's lemma a central element acts as a scalar; that
   scalar has eigenvalue 1, so it is 1, and the element is trivial
   because the representation is faithful.
2. Suppose the Sylow 2-subgroup is not normal.  Then n_2 = 5, and G acts
   on its Sylow 2-subgroups.  Each is its own normaliser, so the kernel
   is their intersection L = O_2(G).  G/L is a transitive subgroup of S5
   whose order divides 1280, so C5, D10 or F20.  It is not C5, for then
   L would be a normal Sylow 2-subgroup.  So |L| is 128 or 64.
3. Let C be a Sylow 5-subgroup.  LC/L is the normal Sylow 5-subgroup of
   G/L, so LC is normal and G = L N_G(C) by the Frattini argument.
   Hence A = C_{Z(L)}(C) is normal in G.  If A != 1, a
   Sylow 2-subgroup Q of N_G(C) fixes some a != 1 in A; then a commutes
   with L, C and Q, which generate G, against step 1.  So C acts without
   fixed points on Z(L) - {1}, hence |Z(L)| = 1 (mod 5).  As a power of
   2 between 2 and 128, |Z(L)| = 16.
4. |L/Z(L)| <= 8, and no group of order at most 8 has an automorphism of
   order 5, so [L, C] <= Z(L).  By coprime action L = C_L(C) Z(L), and
   C_L(C) meets Z(L) trivially by step 3.  The centre of C_L(C) commutes
   with C_L(C) and with Z(L), so it lies in Z(L) and is trivial.  A
   2-group with trivial centre is trivial, so L = Z(L) has order 16,
   against step 2.

The fixture also expects its character irreducible and eigenvalue 1 on
every class of a faithful matrix group of order 1280, so `True` would
contradict its own other expectations.
"""

from __future__ import annotations

from collections import namedtuple

from .chartab import character_table, frobenius_schur, inner_product, natural_character
from .groups import close
from .torusq import (
    SymplecticForm,
    analyze,
    conjugate_pair_rep,
    natural_rep,
)
from .groupfile import parse_group_text


S4_FILE = """\
# order 24, twisted degree-3 action (permutation part times parity)
conductor 1
degree 3

generator monomial
map 2 1 3
scalars 1; -1; 1

generator perm
map 2 3 1
"""

G216_FILE = """\
# order 216, degree 8, scalars in Z[w] for w a primitive cube root of unity
conductor 3
degree 8

generator monomial
map 3 6 2 5 8 1 4 7
scalars 1; 1; 1; z^1; -1 + -z^1; 1; -1 + -z^1; z^1

generator monomial
map 1 2 4 5 3 8 6 7
scalars -1 + -z^1; -1 + -z^1; 1; 1; 1; 1; 1; 1

generator monomial
map 1 2 3 4 5 6 7 8
scalars 1; 1; z^1; z^1; z^1; -1 + -z^1; -1 + -z^1; -1 + -z^1

lattice z^1
"""

G1280_FILE = """\
# order 1280, degree 20, scalars are powers of i
conductor 4
degree 20

generator perm
map 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 1 2 3 4

generator monomial
map 1 2 3 4 6 5 8 7 10 9 12 11 16 15 14 13 20 19 18 17
scalars -z^1; z^1; z^1; -z^1; -1; 1; 1; -1; -z^1; -z^1; z^1; z^1; -z^1; -z^1; -z^1; -z^1; -z^1; -z^1; z^1; z^1

form wedge 1:2 3:4 5:6 7:8 9:10 11:12 13:14 15:16 17:18 19:20

lattice z^1
"""


class Fixture(namedtuple("Fixture", "name file_text pair_analysis form_pairs expected")):
    """An example group file and what its analysis must give.  With
    ``pair_analysis`` the block sum with the conjugate copy is analyzed;
    ``form_pairs`` are the wedge pairs for the analyzed degree when the
    file has no form; ``expected`` holds ordered (check name, value) pairs."""

    __slots__ = ()


FIXTURES = {
    "s4": Fixture(
        name="s4",
        file_text=S4_FILE,
        pair_analysis=True,
        form_pairs=((0, 3), (1, 4), (2, 5)),
        expected=(
            ("group order", 24),
            ("conjugacy classes", 5),
            ("table degrees", (1, 1, 2, 3, 3)),
            ("character irreducible", True),
            ("fs indicator", 1),
            ("eigenvalue-1 on all classes", True),
            ("primitive", True),
            ("h10", 0),
            ("h20", 1),
            ("form preserved", True),
        ),
    ),
    "g216": Fixture(
        name="g216",
        file_text=G216_FILE,
        pair_analysis=True,
        form_pairs=tuple((i, i + 8) for i in range(8)),
        expected=(
            ("group order", 216),
            ("character irreducible", True),
            ("fs indicator", 0),
            ("eigenvalue-1 on all classes", True),
            ("primitive", True),
            ("h10", 0),
            ("h20", 1),
            ("form preserved", True),
            ("lattice preserved", True),
            ("fibration half dimensions", (8, 8)),
            ("fibration halves isotropic", True),
        ),
    ),
    "g1280": Fixture(
        name="g1280",
        file_text=G1280_FILE,
        pair_analysis=False,
        form_pairs=None,
        expected=(
            ("group order", 1280),
            ("character irreducible", True),
            ("fs indicator", -1),
            ("eigenvalue-1 on all classes", True),
            ("primitive", False),
            ("h10", 0),
            ("h20", 1),
            ("form preserved", True),
            ("lattice preserved", True),
            ("fibration", None),
        ),
    ),
}


class FixtureResult(namedtuple("FixtureResult", "report checks")):
    """One replayed fixture: the QuotientReport of the analyzed
    representation, and (name, expected, actual) checks with
    actual == expected iff passing."""

    __slots__ = ()

    @property
    def mismatches(self):
        return [(n, e, a) for n, e, a in self.checks if e != a]


def _fibration_checks(report):
    if report.fibration is None:
        return None, None
    dims = tuple(len(basis) for basis in report.fibration)
    isotropic = True
    form = report.invariant_form
    if form is None:
        isotropic = False
    else:
        for basis in report.fibration:
            for u in basis:
                for v in basis:
                    if not form.evaluate(u, v).is_zero():
                        isotropic = False
    return dims, isotropic


def run_fixture(fixture: Fixture) -> FixtureResult:
    """Close the group, run the pipeline, and compare every expectation."""
    gf = parse_group_text(fixture.file_text, source=fixture.name)
    group = close(gf.elements())
    table = character_table(group)
    chi = natural_character(group)

    rep = natural_rep(group)
    if fixture.pair_analysis:
        rep = conjugate_pair_rep(rep)

    form = gf.form
    if form is None and fixture.form_pairs is not None:
        form = SymplecticForm.wedge_pairs(rep.degree, fixture.form_pairs)
    report = analyze(rep, table, form=form, lattice=gf.lattice)

    actual = {
        "group order": group.order,
        "conjugacy classes": group.num_classes,
        "table degrees": tuple(sorted(table.degrees)),
        "character irreducible": inner_product(chi, chi) == 1,
        "fs indicator": frobenius_schur(chi),
        "eigenvalue-1 on all classes": report.eigenvalue_one_all,
        "primitive": report.primitive,
        "h10": report.h10,
        "h20": report.h20,
        "form preserved": report.form_preserved,
        "lattice preserved": report.lattice_preserved,
        "fibration": report.fibration,
    }
    dims, isotropic = _fibration_checks(report)
    actual["fibration half dimensions"] = dims
    actual["fibration halves isotropic"] = isotropic

    checks = [(name, exp, actual[name]) for name, exp in fixture.expected]
    return FixtureResult(report=report, checks=checks)
