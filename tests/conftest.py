"""Shared groups, tables, and a corpus of assembled representations."""

import pytest

from torusquot.chartab import character_table
from torusquot.cyclo import Cyclotomic
from torusquot.groups import Monomial, close
from torusquot.fixtures import FIXTURES
from torusquot.groupfile import parse_group_text
from torusquot.torusq import (
    assemble,
    conjugate_pair_rep,
    natural_rep,
)

from helpers import one_dim_rep

W3 = Cyclotomic.zeta(3, 1)
W3SQ = Cyclotomic.zeta(3, 2)
I4 = Cyclotomic.zeta(4, 1)


# -- small groups


@pytest.fixture(scope="session")
def s4_group():
    # order-4 rotation and a 3-cycle; closure is the order-24 cube rotation group
    a = Monomial((1, 0, 2), (-1, 1, 1))
    b = Monomial((2, 0, 1), (1, 1, 1))
    return close([a, b])


@pytest.fixture(scope="session")
def s4_table(s4_group):
    return character_table(s4_group)


@pytest.fixture(scope="session")
def s4_natural(s4_group):
    return natural_rep(s4_group)


@pytest.fixture(scope="session")
def s4_untwisted(s4_group):
    # same permutations with the sign twist removed; 4-cycles lose eigenvalue 1
    a2 = Monomial((1, 0, 2), (1, -1, -1))
    b = Monomial((2, 0, 1), (1, 1, 1))
    return assemble(s4_group, [a2, b])


@pytest.fixture(scope="session")
def s4_degree2(s4_group):
    # factors through the symmetric group on 3 letters
    r = Monomial((1, 0), (1, 1))
    t = Monomial((0, 1), (W3, W3SQ))
    return assemble(s4_group, [r, t])


@pytest.fixture(scope="session")
def q8_group():
    gi = Monomial((0, 1), (I4, -I4))
    gj = Monomial((1, 0), (1, -1))
    return close([gi, gj])


@pytest.fixture(scope="session")
def q8_table(q8_group):
    return character_table(q8_group)


@pytest.fixture(scope="session")
def c6_group():
    return close([Monomial((0,), (Cyclotomic.zeta(6, 1),))])


@pytest.fixture(scope="session")
def c6_table(c6_group):
    return character_table(c6_group)


# -- embedded example groups


def _fixture_env(name):
    fx = FIXTURES[name]
    gf = parse_group_text(fx.file_text, source=name)
    group = close(gf.elements(), limit=fx.closure_limit)
    return gf, group


@pytest.fixture(scope="session")
def g216_env():
    return _fixture_env("g216")


@pytest.fixture(scope="session")
def g216_group(g216_env):
    return g216_env[1]


@pytest.fixture(scope="session")
def g216_table(g216_group):
    return character_table(g216_group)


@pytest.fixture(scope="session")
def g1280_env():
    return _fixture_env("g1280")


@pytest.fixture(scope="session")
def g1280_group(g1280_env):
    return g1280_env[1]


@pytest.fixture(scope="session")
def g1280_table(g1280_group):
    return character_table(g1280_group)


# -- representation corpus: all irreducibles of three small groups as
#    explicit matrix models, plus every conjugate-pair double


def _irreducible_models(group, table, extra):
    reps = []
    for chi in table:
        if chi.degree == 1:
            reps.append(one_dim_rep(group, chi))
    reps.extend(extra)
    assert len(reps) == len(table), "corpus is missing an irreducible model"
    return reps


@pytest.fixture(scope="session")
def corpus(s4_group, s4_table, s4_natural, s4_untwisted, s4_degree2,
           q8_group, q8_table, c6_group, c6_table):
    entries = []

    def add(prefix, group, table, irreducibles):
        for k, rep in enumerate(irreducibles):
            entries.append((f"{prefix}-irr{k}", rep, table))
        for k, rep in enumerate(irreducibles):
            entries.append((f"{prefix}-pair{k}", conjugate_pair_rep(rep), table))

    add("s4", s4_group, s4_table,
        _irreducible_models(s4_group, s4_table,
                            [s4_degree2, s4_natural, s4_untwisted]))
    add("q8", q8_group, q8_table,
        _irreducible_models(q8_group, q8_table, [natural_rep(q8_group)]))
    add("c6", c6_group, c6_table,
        _irreducible_models(c6_group, c6_table, []))
    assert len(entries) >= 30
    return entries
