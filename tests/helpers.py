"""Constructions and matrix helpers that only the tests use."""

from torusquot.chartab import Character
from torusquot.cyclo import Cyclotomic, one, rref, zero
from torusquot.errors import InvalidInputError
from torusquot.groups import FiniteGroup, Monomial
from torusquot.torusq import AnalyticRep


def one_dim_rep(group: FiniteGroup, chi: Character) -> AnalyticRep:
    if chi.group is not group:
        raise InvalidInputError("character belongs to a different group")
    if chi.degree != 1:
        raise InvalidInputError("need a degree-1 character")
    return AnalyticRep(
        group,
        tuple(Monomial((0,), (chi.value_at_element(i),)) for i in range(group.order)))


def regular_rep(group: FiniteGroup) -> AnalyticRep:
    ones = (one(),) * group.order
    return AnalyticRep(
        group,
        tuple(Monomial(tuple(group.mult(g, j) for j in range(group.order)), ones)
              for g in range(group.order)))


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


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, c):
    c = Cyclotomic.from_value(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_rank(a) -> int:
    return len(rref(a)[1])
