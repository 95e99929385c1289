"""Exact invariants of finite group actions on complex tori.

The package enumerates a finite matrix group from generators, computes its
character table with exact cyclotomic values, and decides the invariants of
the associated torus quotients: reflexive-form dimensions, symplectic
classification, smoothness obstructions, primitivity, and Lagrangian
fibration data.
"""

from .cyclo import (
    Cyclotomic,
    EntryParseError,
    cyclotomic_polynomial,
    divisors,
    format_entry,
    normalize,
    parse_entry,
    prime_factors,
    totient,
)
from .errors import (
    GroupFileError,
    GroupTooLargeError,
    InconsistentCharacterError,
    InvalidInputError,
    NotAHomomorphismError,
    TableComputationError,
    TorusQuotError,
)
from .groups import Dense, Element, FiniteGroup, Monomial, close
from .chartab import (
    Character,
    CharacterTable,
    character_table,
    exterior_square,
    frobenius_schur,
    inner_product,
    symmetric_square,
)
from .torusq import (
    AnalyticRep,
    LatticeSpec,
    QuotientReport,
    SymplecticForm,
    analyze,
    assemble,
    classify_symplectic,
    conjugate_pair_rep,
    eigenvalue_one_all,
    h0_reflexive_1forms,
    h0_reflexive_2forms,
    is_primitive,
    lagrangian_fibration_data,
    natural_rep,
    preserves_form,
    preserves_lattice,
)
from .groupfile import GroupFile, parse_group, parse_group_text, serialize_group
from .fixtures import FIXTURES, run_fixture

__all__ = [
    "Cyclotomic",
    "EntryParseError",
    "cyclotomic_polynomial",
    "divisors",
    "format_entry",
    "normalize",
    "parse_entry",
    "prime_factors",
    "totient",
    "GroupFileError",
    "GroupTooLargeError",
    "InconsistentCharacterError",
    "InvalidInputError",
    "NotAHomomorphismError",
    "TableComputationError",
    "TorusQuotError",
    "Dense",
    "Element",
    "FiniteGroup",
    "Monomial",
    "close",
    "Character",
    "CharacterTable",
    "character_table",
    "exterior_square",
    "frobenius_schur",
    "inner_product",
    "symmetric_square",
    "AnalyticRep",
    "LatticeSpec",
    "QuotientReport",
    "SymplecticForm",
    "analyze",
    "assemble",
    "classify_symplectic",
    "conjugate_pair_rep",
    "eigenvalue_one_all",
    "h0_reflexive_1forms",
    "h0_reflexive_2forms",
    "is_primitive",
    "lagrangian_fibration_data",
    "natural_rep",
    "preserves_form",
    "preserves_lattice",
    "GroupFile",
    "parse_group",
    "parse_group_text",
    "serialize_group",
    "FIXTURES",
    "run_fixture",
]
