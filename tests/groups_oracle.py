"""Test-only reference bodies for the conjugacy structure of `groups`.

They are the earlier bodies of :attr:`FiniteGroup.conjugacy_classes`,
which conjugates by each generator as two products of indices, each folded
through a generator word; of :meth:`FiniteGroup.abelianization_order`,
which closed the normal closure of the generators' commutators to the
subgroup [G,G] (the package now reads |G/[G,G]| off the Hermite basis of
the Schreier relations between the tree words' exponent sums); of
:func:`torusquot.chartab._class_matrix_rows`, which counts the class of
x·g_j for each member x of class i, folding g_j's word once per member;
and of the point orbits of :func:`torusquot.groups.close`: the monomial
one made one `Cyclotomic` product per point and generator, and the dense
one keyed its vectors by their `Cyclotomic` entries.  And the earlier
natural character, which built each class representative's matrix and
summed its diagonal, where :attr:`FiniteGroup.class_traces` reads the
diagonal off the points.  The differential tests compare `groups` and
`chartab` against them.
"""

from __future__ import annotations

from helpers import mat_vec, perm_and_scalars

from torusquot.cyclo import one, zero
from torusquot.errors import GroupTooLargeError, InvalidInputError, TableComputationError
from torusquot.groups import Element


def monomial_points(gens, limit: int):
    """The points (coordinate, scalar) reached from e_1..e_n by BFS under
    monomial generators, g sending c·e_i to c·s_i·e_perm[i], and each
    generator's permutation of them, each point as the sparse column
    ((coordinate, scalar),).  Raises GroupTooLargeError(limit) past
    ``limit * degree`` points."""
    degree = gens[0].degree
    points = [(j, one()) for j in range(degree)]
    index = {x: i for i, x in enumerate(points)}
    perms = [[] for _ in gens]
    gens = [perm_and_scalars(g) for g in gens]
    for i, c in points:  # the loop reaches the points appended while it runs
        for (g_perm, g_scalars), perm in zip(gens, perms):
            y = g_perm[i], c * g_scalars[i]
            if y not in index:
                if len(points) >= limit * degree:
                    raise GroupTooLargeError(limit)
                index[y] = len(points)
                points.append(y)
            perm.append(index[y])
    return [(point,) for point in points], perms


def dense_points(gens, limit: int):
    """The vectors reached from e_1..e_n by BFS under dense generators,
    g sending v to g·v, and each generator's permutation of them, each
    point as the sparse column of its nonzero entries (coordinate, value).
    Raises GroupTooLargeError(limit) past ``limit * degree`` points."""
    degree = gens[0].degree
    points = list(Element.identity(degree).rows)
    index = {x: i for i, x in enumerate(points)}
    perms = [[] for _ in gens]
    for v in points:  # the loop reaches the points appended while it runs
        for g, perm in zip(gens, perms):
            y = mat_vec(g.rows, v)
            if y not in index:
                if len(points) >= limit * degree:
                    raise GroupTooLargeError(limit)
                index[y] = len(points)
                points.append(y)
            perm.append(index[y])
    return [tuple((i, x) for i, x in enumerate(v) if x) for v in points], perms


def compute_classes(group):
    """The classes as sorted index tuples, ordered by smallest member, and
    the class index of every element."""
    n = group.order
    class_of = [-1] * n
    classes = []
    gen_pairs = [(group.inv(g), g) for g in group.generator_indices]
    for start in range(n):
        if class_of[start] >= 0:
            continue
        cid = len(classes)
        orbit = [start]
        class_of[start] = cid
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for ginv, g in gen_pairs:
                y = group.mult(group.mult(ginv, x), g)
                if class_of[y] < 0:
                    class_of[y] = cid
                    orbit.append(y)
                    frontier.append(y)
        classes.append(tuple(sorted(orbit)))
    return tuple(classes), tuple(class_of)


def abelianization_order(group) -> int:
    """|G| / |[G,G]|, with [G,G] the normal closure of generator commutators."""
    seeds = set()
    gi = group.generator_indices
    for a in gi:
        for b in gi:
            c = group.mult(group.mult(group.mult(group.inv(a), group.inv(b)), a), b)
            if c:
                seeds.add(c)
    orbit = set(seeds)
    frontier = list(seeds)
    gen_pairs = [(group.inv(g), g) for g in gi]
    while frontier:
        x = frontier.pop()
        for ginv, g in gen_pairs:
            y = group.mult(group.mult(ginv, x), g)
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    members = {0}
    gens: list[int] = []
    for t in sorted(orbit):
        if t in members:
            continue
        gens.append(t)
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = group.mult(x, g)
                if y not in members:
                    members.add(y)
                    frontier.append(y)
    if group.order % len(members):
        raise InvalidInputError("commutator subgroup size does not divide |G|")
    return group.order // len(members)


def class_matrix_rows(group, i: int, rows) -> list[list[int]]:
    """Rows j of class matrix i: the entry (j, k) is |C_j| times the number
    of x in C_i with x·g_j in C_k, over |C_k|."""
    r = group.num_classes
    members = group.conjugacy_classes[i]
    reps = group.class_representatives
    sizes = group.class_sizes
    out = []
    for j in rows:
        counts = [0] * r
        for x in members:
            counts[group.class_of(group.mult(x, reps[j]))] += 1
        row = []
        for k, c in enumerate(counts):
            entry, rest = divmod(sizes[j] * c, sizes[k])
            if rest:
                raise TableComputationError("class matrix entry is not an integer")
            row.append(entry)
        out.append(row)
    return out


def class_traces(group) -> tuple:
    """The trace of each class representative, summed down the diagonal of
    its dense matrix."""
    traces = []
    for r in group.class_representatives:
        total = zero()
        for i, row in enumerate(group.element(r).rows):
            total = total + row[i]
        traces.append(total)
    return tuple(traces)
