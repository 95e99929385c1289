"""The steps of the character table against their earlier bodies.

`chartab` takes the linear characters from the abelianization lattice,
splits only their complement, builds class-matrix rows only at the pivot
rows of the spaces still to split, counted without inverses, reads each
restriction off those rows, and lifts every other character through one
plan.
The earlier steps (`chartab_oracle`) built whole class matrices from the inverses of
the class members, restricted each space by a full product and a row
reduction, and set the lift up again for each character.  On random
subgroups of G(m,1,n) = mu_m wr S_n, written monomial and conjugated to
dense, on the corpus groups and on s4, g216 and g1280, every requested row
must equal the oracle's matrix row, the split must return the same set of
vectors (their order follows the split, and the table sorts its rows),
the linear rows must be the lattice's characters, and the lifted values
of the other rows must be equal.  The eigenvalue-1
counts the table keeps must equal the oracle's averages over the cyclic
subgroups, and the indicators its check reads both per-character sums,
`chartab`'s and the oracle's.  No rows are built for a class with
|G| = r1 |C_k|, and every nonlinear character of the finished table must
vanish there.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chartab_oracle as oracle
from helpers import conjugated_elements, wreath_generator_pairs

from torusquot import chartab, modp
from torusquot.cyclo import Cyclotomic
from torusquot.errors import GroupTooLargeError, TableComputationError
from torusquot.fixtures import FIXTURES
from torusquot.groupfile import parse_group_text
from torusquot.groups import Element, FiniteGroup, close


def _recording(mp, name):
    """Replace chartab.<name> by a wrapper that keeps (args, result) of each call."""
    calls = []
    real = getattr(chartab, name)

    def record(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    mp.setattr(chartab, name, record)
    return calls


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TableComputationError as exc:
        return "error", str(exc)


def check_table_steps(group):
    """The table at the first admissible prime, each step against the oracle."""
    r = group.num_classes
    for i in range(r):
        assert chartab._class_matrix_rows(group, i, range(r)) == oracle._class_matrix(group, i)
    if r == 1:
        # character_table answers without a split
        oracle.check_table_reads(chartab.character_table(group))
        return
    p = next(chartab._admissible_primes(group.exponent(), group.order))
    omega = modp.element_of_order(group.exponent(), p)
    with pytest.MonkeyPatch.context() as mp:
        rows = _recording(mp, "_class_matrix_rows")
        splits = _recording(mp, "_split_eigenspaces")
        lifts = _recording(mp, "_lift_character")
        chars = chartab._table_mod_p(group, p)
    # rows are built only when the complement of the linear characters
    # has a space of dimension 2 or more to split, and only the complement
    # is lifted: the linear rows are the lattice's characters
    r1 = group.abelianization_order()
    assert bool(rows) == (r - r1 > 1)
    assert len(splits) == 1 and len(lifts) == r - r1 and len(chars) == r
    e = group.exponent()
    lattice = [tuple(Cyclotomic.zeta(e, t) for t in ts) for ts in group.linear_characters]
    assert sorted((c.values for c in chars if c.degree == 1), key=str) == \
        sorted(lattice, key=str)
    for (_, i, requested), out in rows:
        matrix = oracle._class_matrix(group, i)
        assert out == [matrix[j] for j in requested]
    assert sorted(splits[0][1]) == sorted(oracle._split_eigenspaces(group, p))
    for (_, _, xk, d), (values, _) in lifts:
        assert values == oracle._lift_character(group, xk, d, p, omega)
    oracle.check_table_reads(chars)
    idle = idle_classes(chars)
    assert not idle & {i for (_, i, _), _ in rows}


def idle_classes(table):
    """The classes with |G| = r1 |C_k|, r1 the finished table's count of
    linear characters, after checking that every other character vanishes
    on each of them: the split skips their class matrices."""
    group = table.group
    r1 = sum(chi.degree == 1 for chi in table)
    idle = {k for k, h in enumerate(group.class_sizes) if group.order == r1 * h}
    for chi in table:
        if chi.degree > 1:
            assert all(chi.values[k].is_zero() for k in idle)
    return idle


def _lifted_values(plan, p, xk, d):
    """chartab's lift without the eigenvalue-1 counts it also returns."""
    return chartab._lift_character(plan, p, xk, d)[0]


def _close_or_none(gens, limit):
    try:
        return close(gens, limit=limit)
    except GroupTooLargeError:
        return None


@settings(max_examples=40, deadline=None)
@given(wreath_generator_pairs())
def test_random_monomial_subgroups(gens):
    group = _close_or_none(gens, 400)
    if group is not None:
        check_table_steps(group)


# conjugated points are generic vectors, each one exact products away
@settings(max_examples=15, deadline=None)
@given(wreath_generator_pairs())
def test_random_subgroups_conjugated_to_dense(gens):
    group = _close_or_none(conjugated_elements(gens), 96)
    if group is not None:
        check_table_steps(group)


@pytest.mark.parametrize("name", ["s4", "q8", "c6", "g216", "g1280"])
def test_corpus_and_paper_groups(name, request):
    check_table_steps(request.getfixturevalue(f"{name}_group"))


def test_trivial_group():
    # one class: character_table answers without a split or a prime
    check_table_steps(close([Element.identity(1)]))


@pytest.fixture(scope="module")
def g216_lift(g216_group):
    """The plan and the mod-p irreducibles (values, degree) of g216's table."""
    group = g216_group
    p = next(chartab._admissible_primes(group.exponent(), group.order))
    omega = modp.element_of_order(group.exponent(), p)
    with pytest.MonkeyPatch.context() as mp:
        lifts = _recording(mp, "_lift_character")
        chartab._table_mod_p(group, p)
    return group, p, omega, [(xk, d) for (_, _, xk, d), _ in lifts]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lift_of_sums_and_noise_matches_oracle(g216_lift, data):
    # a sum of irreducibles lifts to its values; one moved value mod p is
    # usually no character, and both sides must then refuse alike
    group, p, omega, irreducibles = g216_lift
    xk, d = [0] * group.num_classes, 0
    for values, degree in irreducibles:
        c = data.draw(st.integers(0, 2))
        xk = [(a + c * b) % p for a, b in zip(xk, values)]
        d += c * degree
    noise = data.draw(st.booleans())
    if noise:
        k = data.draw(st.integers(0, group.num_classes - 1))
        xk[k] = (xk[k] + data.draw(st.integers(1, p - 1))) % p
    plan = chartab._lift_plan(group, p, omega)
    assert _outcome(_lifted_values, plan, p, xk, d) == \
        _outcome(oracle._lift_character, group, xk, d, p, omega)
    if not noise and d < p:
        # a character of degree below p lifts exactly, and the counts it
        # keeps are its eigenvalue-1 multiplicities
        values, ones = chartab._lift_character(plan, p, xk, d)
        assert ones == oracle.eigenvalue_one_counts(chartab.Character(group, values))


def test_inexact_class_matrix_entry_raises():
    # a stand-in in which the members 1, 2, 3 of class 1 times the
    # representative of class 0, folded along its one-letter word through
    # the right-multiplication table, give 0, 2, 3, so two of them seem to
    # land in class 1 = {1, 2, 3}: the entry |C_0| * 2 / |C_1| = 2/3 of
    # row 1 is not an integer
    fake = SimpleNamespace(
        num_classes=2, conjugacy_classes=((0,), (1, 2, 3)), class_representatives=(0, 1),
        class_sizes=(1, 3), class_map=(0, 1, 1, 1),
        word=lambda i: (0,), right_table=([0, 0, 2, 3],))
    with pytest.raises(TableComputationError, match="not an integer"):
        chartab._class_matrix_rows(fake, 0, [1])


def test_g1280_table_never_left_multiplies_the_whole_group(monkeypatch):
    # the classes left-multiply to conjugate by the generators; once they
    # exist, the class-matrix rows fold only class members
    fx = FIXTURES["g1280"]
    group = close(parse_group_text(fx.file_text, source="g1280").elements())
    group.conjugacy_classes
    calls = []
    monkeypatch.setattr(FiniteGroup, "left_multiply_all", lambda self, h: calls.append(h))
    chartab.character_table(group)
    assert calls == []


def test_g1280_split_builds_rows_for_three_classes(monkeypatch, g1280_group):
    # classes 1, 3, 5 and 6 have |G| / |C_k| = 5 = r1, so every nonlinear
    # character vanishes there and the split skips them
    calls = _recording(monkeypatch, "_class_matrix_rows")
    table = chartab.character_table(g1280_group)
    assert [i for (_, i, _), _ in calls] == [2, 4, 7]
    assert idle_classes(table) == {1, 3, 5, 6}


def test_g1280_table_computes_few_inverses(monkeypatch):
    computed = []
    images = FiniteGroup._images

    def counting(self, i):
        computed.append(i)
        return images(self, i)

    monkeypatch.setattr(FiniteGroup, "_images", counting)
    fx = FIXTURES["g1280"]
    group = close(parse_group_text(fx.file_text, source="g1280").elements())
    chartab.character_table(group)
    assert len(computed) == len(set(computed))
    assert len(computed) <= len(group.generator_indices) + group.num_classes
