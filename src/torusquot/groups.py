"""Finite matrix groups: one element class, closure on a point set, conjugacy structure.

An :class:`Element` holds a square matrix as its columns, each the tuple of
its nonzero entries (row, value) in row order.  The encoding is canonical,
so equal matrices compare and hash equal.  A scaled permutation matrix has
one entry per column and costs O(degree) to multiply and trace.  Products,
transposes and matrix-vector products all run on the columns; other modules
read any element's nonzero entries as (row, column, value) from
``entries()``.  :func:`Monomial` and :func:`Dense` are the two
validating constructors.

A finite matrix group acts faithfully on the union of the orbits of the
basis vectors e_1..e_n, because those points span the space: the "action on
an orbit of vectors" of Holt, Eick and O'Brien, *Handbook of Computational
Group Theory* (2005).  :func:`close` finds that point set by BFS under the
generators.  When every generator is monomial a point is a pair
(coordinate, scalar), and otherwise a vector; building the point set is the
only exact arithmetic in closure.  It holds each scalar or vector entry by
its index in a list of the distinct values seen, keyed by their canonical
fields, so a monomial set computes each distinct product of a point's
scalar and a generator's scalar once (g1280: 16 products for 80 points).
Each generator then becomes a permutation of the points, a tuple of point
indices, and each point is kept as a sparse column.

A linear map is fixed by the images of a basis, so element x is stored by
its base images: the indices of the points x⁻¹(e_1)..x⁻¹(e_n), n ints per
element whatever the size of the point set.  They are those of the inverse
because closure multiplies on the right, and (x·g)⁻¹(e_j) = g⁻¹(x⁻¹(e_j)) is
the permutation of g⁻¹ applied to the stored tuple.  With at most 256 points
the key is a byte string and that step is one ``bytes.translate`` through
g⁻¹'s permutation padded to 256 bytes; a larger point set keeps tuple keys,
since a byte holds no index past 255.

The BFS tree (a Schreier vector) is the only record of how an element was
reached: x after the identity is parent(x)·g for the generator g that first
reached it.  Read up the tree, it gives x's generator word in O(depth) and,
through the generator permutations, the points x(e_j), which are the base
images of x⁻¹: a dict lookup gives the inverse.  Left multiplication by any
h follows the tree, h·x = (h·parent(x))·g, one table lookup per element in
BFS order, so conjugation by a generator and conjugacy classes need no
words.  A product of single indices folds through the right factor's word,
a list of indices folds through it one letter at a time (the class-matrix
rows), and powers walk each cyclic subgroup once.

The tree also presents the abelianization: with c(x) the generator
exponent sums of x's tree word, G/[G,G] = Z^g / L for the lattice L of the
Schreier relations c(x) + e_a - c(x·g_a).  Its Hermite normal form gives
|G/[G,G]| and the linear characters x -> zeta_e^(a·c(x)), L·a = 0 mod e.

Matrices are built only on demand, without arithmetic: e_1..e_n are the
first n points, and column j of x's matrix is the point x(e_j).  A class
representative's trace is read off those points without a matrix.

The closure limit bounds the number of elements and, through them, the point
set: an orbit is never larger than |G|, so more than ``limit * degree``
points proves |G| > limit.  Memory is thus O(limit * degree) for the
elements and their tree plus the point set itself.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import methodcaller, mul, sub

from .cyclo import Cyclotomic, add_all, is_prime, one, rref, zero
from .errors import GroupTooLargeError, InvalidInputError

DEFAULT_CLOSURE_LIMIT = 20000


class Element:
    """A square matrix held as its columns: ``columns[j]`` is the tuple of
    column j's nonzero entries (row, value), in row order.  Unchecked: the
    caller vouches for that form, which :func:`Monomial` and :func:`Dense`
    build from checked input."""

    __slots__ = ("columns", "_hash")

    def __init__(self, columns):
        self.columns = columns
        self._hash = None

    @staticmethod
    def identity(degree: int) -> "Element":
        return Element(tuple(((j, one()),) for j in range(degree)))

    @property
    def degree(self) -> int:
        return len(self.columns)

    @property
    def rows(self) -> tuple:
        """The matrix as row-major tuples, zeros included."""
        rows = [[zero()] * self.degree for _ in self.columns]
        for j, column in enumerate(self.columns):
            for i, x in column:
                rows[i][j] = x
        return tuple(map(tuple, rows))

    def is_monomial(self) -> bool:
        """One entry per column, in distinct rows: a scaled permutation matrix."""
        return len({column[0][0] for column in self.columns if len(column) == 1}) == self.degree

    def entries(self):
        """Each nonzero entry as (row, column, value), column by column."""
        return [(i, j, x) for j, column in enumerate(self.columns) for i, x in column]

    def row_entries(self) -> tuple[list[int], list[Cyclotomic]]:
        """Per-row view (cols, scalars) of a monomial element: row i holds
        scalars[i] at column cols[i]."""
        cols = [0] * self.degree
        scalars = [None] * self.degree
        for j, ((i, x),) in enumerate(self.columns):
            cols[i] = j
            scalars[i] = x
        return cols, scalars

    def transpose(self) -> "Element":
        """The transpose, whose column i is row i of this matrix."""
        rows = [[] for _ in self.columns]
        for j, column in enumerate(self.columns):
            for i, x in column:
                rows[i].append((j, x))
        return Element(tuple(map(tuple, rows)))

    def apply(self, v) -> tuple:
        """The product M·v with a vector given as a tuple, zeros included:
        the sum of v[j]·(column j) over the nonzero v[j]."""
        terms = [[] for _ in self.columns]
        for y, column in zip(v, self.columns):
            if y:
                for i, x in column:
                    terms[i].append(x * y)
        return tuple(map(add_all, terms))

    def __mul__(self, other):
        """Column j of a·b sums b[k][j]·(column k of a) over the nonzero
        b[k][j], one ``add_all`` per entry; a column of b with one entry
        (k, y) gives y·(column k of a)."""
        if not isinstance(other, Element):
            return NotImplemented
        a = self.columns
        out = []
        for column in other.columns:
            if len(column) == 1:
                ((k, y),) = column
                out.append(tuple((i, x * y) for i, x in a[k]))
                continue
            terms = {}
            for k, y in column:
                for i, x in a[k]:
                    terms.setdefault(i, []).append(x * y)
            sums = ((i, add_all(terms[i])) for i in sorted(terms))
            out.append(tuple((i, s) for i, s in sums if s))
        return Element(tuple(out))

    def conjugate(self) -> "Element":
        return Element(tuple(tuple((i, x.conjugate()) for i, x in column)
                             for column in self.columns))

    def trace(self) -> Cyclotomic:
        return _trace(self.columns)

    def block_sum(self, other: "Element") -> "Element":
        d = self.degree
        return Element(self.columns + tuple(tuple((i + d, x) for i, x in column)
                                            for column in other.columns))

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.columns)
        return self._hash

    def __repr__(self):
        return "Element(" + ", ".join(
            "{" + ", ".join(f"{i}: {x}" for i, x in column) + "}" for column in self.columns) + ")"


def _trace(columns) -> Cyclotomic:
    """The trace of the matrix whose column j is the sparse column columns[j]."""
    return add_all([x for j, column in enumerate(columns) for i, x in column if i == j])


def Monomial(perm, scalars) -> Element:
    """The scaled permutation matrix whose column j carries scalars[j] at
    row perm[j], checked."""
    perm = tuple(perm)
    scalars = tuple(Cyclotomic.from_value(s) for s in scalars)
    if sorted(perm) != list(range(len(perm))):
        raise InvalidInputError("monomial permutation is not a bijection")
    if len(scalars) != len(perm):
        raise InvalidInputError("monomial scalar count does not match the degree")
    if any(s.is_zero() for s in scalars):
        raise InvalidInputError("monomial scalars must be nonzero")
    return Element(tuple(zip(zip(perm, scalars))))  # column j is ((perm[j], scalars[j]),)


def Dense(rows) -> Element:
    """The square matrix with the given rows of cyclotomic entries, checked."""
    rows = tuple(tuple(Cyclotomic.from_value(v) for v in row) for row in rows)
    if any(len(r) != len(rows) for r in rows):
        raise InvalidInputError("dense element must be square")
    return Element(tuple(tuple((i, x) for i, x in enumerate(column) if x)
                         for column in zip(*rows)))


def _inverse_perm(perm) -> tuple[int, ...]:
    inverse = [0] * len(perm)
    for p, q in enumerate(perm):
        inverse[q] = p
    return tuple(inverse)


def _validate_generator(g):
    if not isinstance(g, Element):
        raise InvalidInputError(f"unsupported generator type {type(g).__name__}")
    if not g.is_monomial() and len(rref(g.rows)[1]) < g.degree:
        raise InvalidInputError("dense generator is not invertible")


def _orbit(start, steps, cap: int, limit: int):
    """BFS closure of the items ``start`` under the maps ``steps``: the items
    in discovery order, their index, the table whose column a lists the index
    of steps[a](items[i]) at each i, and the BFS tree (parent, letter) with
    items[j] = steps[letter[j]](items[parent[j]]) (a start item is its own
    parent, with letter -1).
    Raises GroupTooLargeError(limit) when more than ``cap`` items appear."""
    items = list(start)
    index = {x: i for i, x in enumerate(items)}
    table = [[] for _ in steps]
    parent, letter = list(range(len(items))), [-1] * len(items)
    arcs = list(enumerate(zip(steps, table)))
    for i, x in enumerate(items):  # the loop reaches the items appended while it runs
        for a, (step, column) in arcs:
            y = step(x)
            j = index.setdefault(y, len(items))
            if j == len(items):
                if j >= cap:
                    raise GroupTooLargeError(limit)
                items.append(y)
                parent.append(i)
                letter.append(a)
            column.append(j)
    return items, index, table, (parent, letter)


def _interner():
    """A list of distinct values, and the function that gives a value's
    index in it, appending a new one.  A value is keyed by its canonical
    fields, which compare as its equality does: rationals hash as Fractions
    do, so the powers of 2 of an infinite group collide every 61 steps, and
    tuples compare those collisions without a call to `Cyclotomic.__eq__`."""
    values, position = [], {}

    def intern(c):
        k = position.setdefault((c.n, c.num, c.den), len(values))
        if k == len(values):
            values.append(c)
        return k
    return values, intern


def _monomial_points(gens, degree: int, limit: int):
    """The point set of monomial generators and their permutations of it.
    A point c·e_j is held as (j, interned index of c), and g, whose column
    j is s·e_i, sends it to (i, c·s): the scalars of the points and of the
    generators are interned together, so each distinct product of two is
    computed once.  The points come back as sparse columns, in BFS order."""
    scalars, intern = _interner()
    products = {}

    def step(columns):
        images = [(i, intern(s)) for ((i, s),) in columns]

        def act(point):
            j, a = point
            i, b = images[j]
            k = products.get((a, b))
            if k is None:
                k = products[a, b] = intern(scalars[a] * scalars[b])
            return i, k
        return act

    unit = intern(one())
    start = [(j, unit) for j in range(degree)]
    steps = [step(g.columns) for g in gens]
    items, _, gen_perms, _ = _orbit(start, steps, limit * degree, limit)
    return [((i, scalars[k]),) for i, k in items], gen_perms


def _dense_points(gens, degree: int, limit: int):
    """The point set of dense generators and their permutations of it.  A
    vector is held as the interned indices of its entries, and g sends it
    to those of g·v.  The points come back as sparse columns, in BFS order."""
    values, intern = _interner()

    def step(g):
        def act(point):
            return tuple(map(intern, g.apply(tuple(map(values.__getitem__, point)))))
        return act

    start = [tuple(map(intern, e)) for e in Element.identity(degree).rows]
    items, _, gen_perms, _ = _orbit(start, [step(g) for g in gens], limit * degree, limit)
    columns = [tuple((i, values[k]) for i, k in enumerate(point) if values[k]) for point in items]
    return columns, gen_perms


def close(generators, limit: int = DEFAULT_CLOSURE_LIMIT) -> "FiniteGroup":
    """Enumerate the group generated by the given matrices.

    The generators first become permutations of the point set, the union of
    the orbits of the basis vectors (see the module docstring).  Closure is
    then a BFS over the products x·g, each element keyed by its base images
    x⁻¹(e_1)..x⁻¹(e_n), as bytes when there are at most 256 points.  The
    action is faithful, so two elements are equal exactly when their
    matrices are.  Elements are found in deterministic BFS order with the
    identity at index 0; the BFS tree alone records how each was reached.
    Raises GroupTooLargeError when the closure would exceed ``limit``
    elements, or the point set ``limit * degree`` points, which proves the same.
    """
    gens = list(generators)
    if not gens:
        raise InvalidInputError("need at least one generator")
    for g in gens:
        _validate_generator(g)
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise InvalidInputError("generators must share one degree")
    if limit < 1:
        raise InvalidInputError("closure limit must be positive")

    points_of = _monomial_points if all(g.is_monomial() for g in gens) else _dense_points
    points, gen_perms = points_of(gens, degree, limit)
    inverse_perms = [_inverse_perm(g) for g in gen_perms]
    if len(points) <= 256:
        encode = bytes
        steps = [methodcaller("translate", bytes(p) + bytes(range(len(p), 256)))
                 for p in inverse_perms]
    else:
        encode = tuple
        steps = [lambda x, p=p: tuple(map(p.__getitem__, x)) for p in inverse_perms]
    keys, index, right_table, (parents, letters) = _orbit(
        [encode(range(degree))], steps, limit, limit)
    gen_indices = tuple(index[encode(g[:degree])] for g in inverse_perms)
    return FiniteGroup(degree, tuple(points), gen_perms, keys, index, encode, gen_indices,
                       right_table, (tuple(parents), tuple(letters)))


class FiniteGroup:
    """A finite matrix group enumerated by :func:`close`.

    Element i is stored by its base images (see the module docstring); its
    matrix is read off those of its inverse when asked for.  In the BFS tree
    element i > 0 is ``parents[i]`` times generator ``letters[i]``; words,
    inverses and products of single indices are read up that tree.
    ``right_table[a][x]`` is the index of x times generator a.  The
    conjugacy structure is derived on first read and kept, as cached
    attributes.
    """

    def __init__(self, degree, points, gen_perms, keys, index, encode, generator_indices,
                 right_table, tree):
        self.degree = degree
        self.order = len(keys)
        self._points = points
        self._gen_perms = gen_perms
        self._keys = keys
        self._index = index
        self._encode = encode
        self.generator_indices = generator_indices
        self.right_table = right_table
        self.parents, self.letters = tree
        self._inv = {}
        self._powers = {}
        self._power_maps = {}

    def _images(self, i: int) -> tuple[int, ...]:
        """Indices of the points x(e_1)..x(e_n) for element x = i: the generator
        permutations applied to the basis while walking up the tree from i."""
        images = tuple(range(self.degree))
        while i:
            images = tuple(map(self._gen_perms[self.letters[i]].__getitem__, images))
            i = self.parents[i]
        return images

    def element(self, i: int):
        """The matrix of element i: column j is the point that it sends e_j to,
        which is base image j of its inverse."""
        return Element(tuple(map(self._points.__getitem__, self._keys[self.inv(i)])))

    def word(self, i: int) -> tuple[int, ...]:
        """Generator word that reaches element i from the identity, read up the
        BFS tree in O(depth); every proper prefix is an earlier element's word."""
        letters = []
        while i:
            letters.append(self.letters[i])
            i = self.parents[i]
        return tuple(reversed(letters))

    # -- index arithmetic

    def _fold(self, x: int, word) -> int:
        """The index of x·w for the element w with generator word ``word``."""
        for a in word:
            x = self.right_table[a][x]
        return x

    def mult(self, i: int, j: int) -> int:
        """The index of i·j: i folded through j's word, O(depth of j)."""
        return self._fold(i, self.word(j))

    def left_multiply_all(self, h: int) -> list[int]:
        """The index of h·x for every index x, in BFS order along the tree:
        h·x = (h·parents[x])·g for the generator g = letters[x]."""
        left = [h] * self.order
        right, parents, letters = self.right_table, self.parents, self.letters
        for x in range(1, self.order):
            left[x] = right[letters[x]][left[parents[x]]]
        return left

    def inv(self, i: int) -> int:
        """The base images of x⁻¹ are the points x(e_j).  Each inverse is computed
        on first request and kept, together with the inverse of the inverse."""
        j = self._inv.get(i)
        if j is None:
            j = self._inv[i] = self._index[self._encode(self._images(i))]
            self._inv[j] = i
        return j

    def _cyclic(self, i: int) -> tuple[int, ...]:
        """Indices of i^0, i^1, ..., i^(o-1) for the order o of i, walked once
        through the right-multiplication table by i's word and kept."""
        powers = self._powers.get(i)
        if powers is None:
            powers = [0]
            word = self.word(i)
            x = i
            while x != 0:
                powers.append(x)
                x = self._fold(x, word)
            powers = self._powers[i] = tuple(powers)
        return powers

    def power(self, i: int, k: int) -> int:
        powers = self._cyclic(i)
        return powers[k % len(powers)]

    def element_order(self, i: int) -> int:
        return len(self._cyclic(i))

    # -- conjugacy structure

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by smallest member: the
        orbits of conjugation by the generators, x -> g⁻¹·x·g."""
        perms = [list(map(column.__getitem__, self.left_multiply_all(self.inv(g))))
                 for column, g in zip(self.right_table, self.generator_indices)]
        seen = [False] * self.order
        classes = []
        for start in range(self.order):
            if seen[start]:
                continue
            seen[start] = True
            orbit = [start]
            for x in orbit:  # the loop reaches the members appended while it runs
                for perm in perms:
                    y = perm[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
            classes.append(tuple(sorted(orbit)))
        return tuple(classes)

    @property
    def num_classes(self) -> int:
        return len(self.conjugacy_classes)

    @cached_property
    def class_map(self) -> tuple[int, ...]:
        """The class index of every element, in BFS order."""
        class_of = [0] * self.order
        for cid, members in enumerate(self.conjugacy_classes):
            for x in members:
                class_of[x] = cid
        return tuple(class_of)

    def class_of(self, i: int) -> int:
        return self.class_map[i]

    @cached_property
    def class_representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.conjugacy_classes)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self.conjugacy_classes))

    @cached_property
    def class_orders(self) -> tuple[int, ...]:
        """Element order of each class representative."""
        return tuple(self.element_order(r) for r in self.class_representatives)

    @cached_property
    def class_traces(self) -> tuple[Cyclotomic, ...]:
        """Trace of each class representative x, read off the points x(e_j)
        without building a matrix: diagonal entry j is coordinate j of x(e_j)."""
        points = self._points
        return tuple(_trace(map(points.__getitem__, self._keys[self.inv(r)]))
                     for r in self.class_representatives)

    @cached_property
    def inverse_class(self) -> tuple[int, ...]:
        return tuple(self.class_of(self.inv(r)) for r in self.class_representatives)

    def power_classes(self, k: int) -> tuple[int, ...]:
        """Map class index c to the class of g^k for g in class c."""
        if k not in self._power_maps:
            self._power_maps[k] = tuple(
                self.class_of(self.power(r, k)) for r in self.class_representatives)
        return self._power_maps[k]

    # -- numeric invariants

    def exponent(self) -> int:
        return math.lcm(*self.class_orders)

    def sylow_cyclic(self, p: int) -> bool:
        """True iff some element order equals the exact p-part of |G|."""
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidInputError(f"{p!r} is not a prime")
        if self.order % p:
            raise InvalidInputError(f"{p} does not divide the group order {self.order}")
        p_part = p
        while self.order % (p_part * p) == 0:
            p_part *= p
        return any(o == p_part for o in self.class_orders)

    # -- the abelianization

    @cached_property
    def _lattice(self) -> tuple[tuple[int, ...], ...]:
        """The Hermite basis of L.  Each c(x) is packed into one int as
        sum_a c_a * base^a, so the relations are int differences, collected
        in a set; an entry of one lies in [-|G|, |G|], so base = 2|G| + 1
        keeps the slots apart.  |G/[G,G]| divides |G|, so |G|·Z^g lies in L."""
        n, rank = self.order, len(self.right_table)
        base = 2 * n + 1
        units = [base ** a for a in range(rank)]
        sums = [0] * n
        parents, letters = self.parents, self.letters
        for x in range(1, n):
            sums[x] = sums[parents[x]] + units[letters[x]]
        relations = set()
        for unit, column in zip(units, self.right_table):
            differences = set(map(sub, sums, map(sums.__getitem__, column)))
            relations.update(d + unit for d in differences)
        relations.discard(0)
        return _hermite_basis((_unpack(v, base, rank) for v in relations), rank, n)

    def abelianization_order(self) -> int:
        """|G/[G,G]| = det L, the product of the Hermite basis's diagonal."""
        order = 1
        for i, row in enumerate(self._lattice):
            order *= row[i]
        return order

    @cached_property
    def linear_characters(self) -> tuple[tuple[int, ...], ...]:
        """All linear characters, as exponents t_k per class with
        lambda(g_k) = zeta_e^(t_k) for the exponent e of G, which that of
        G/[G,G] divides.  Up the triangular basis, row i with diagonal d
        leaves gcd(d, e) choices of a_i, or none."""
        e, rank = self.exponent(), len(self.right_table)
        sums = []
        for x in self.class_representatives:
            c = [0] * rank
            for a in self.word(x):
                c[a] += 1
            sums.append(c)
        lattice = self._lattice
        solutions = [()]
        for i in reversed(range(len(lattice))):
            d, tail = lattice[i][i], lattice[i][i + 1:]
            g = math.gcd(d, e)
            step = e // g
            d_inv = pow(d // g, -1, step)
            extended = []
            for a in solutions:
                s, rest = divmod(sum(map(mul, tail, a)), g)
                if not rest:
                    first = -s * d_inv % step
                    extended.extend((first + t * step,) + a for t in range(g))
            solutions = extended
        return tuple(tuple(sum(map(mul, a, c)) % e for c in sums) for a in solutions)

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, degree={self.degree})"


def _unpack(packed: int, base: int, rank: int) -> list[int]:
    """The entries x_a in [-(base-1)/2, (base-1)/2] of sum_a x_a * base^a."""
    half = base // 2
    out = []
    for _ in range(rank):
        packed, x = divmod(packed + half, base)
        out.append(x - half)
    return out


def _hermite_basis(vectors, rank: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """The Hermite normal form (Cohen, *A Course in Computational Algebraic
    Number Theory*, 2.4.2) of the lattice spanned by ``vectors`` and
    bound·Z^rank.  From rows bound·I, each vector is cleared column by
    column, by a unimodular step with s·d + t·x = gcd(d, x) where the pivot
    d does not divide the entry x.  The rows at and below column j hold
    bound·e_j in their span, so entries right of it are reduced mod bound."""
    rows = [[bound if i == j else 0 for j in range(rank)] for i in range(rank)]
    for v in vectors:
        for i, row in enumerate(rows):
            x, d = v[i], row[i]
            if x % d:
                g = math.gcd(d, x)
                t = pow(x // g, -1, d // g)
                s = (g - t * x) // d
                rows[i] = [(s * b + t * a) % bound for a, b in zip(v, row)]
                v = [(d // g * a - x // g * b) % bound for a, b in zip(v, row)]
            elif x:
                q = x // d
                v = [(a - q * b) % bound for a, b in zip(v, row)]
    for j in range(rank):
        for k in range(j):
            q = rows[k][j] // rows[j][j]
            if q:
                rows[k] = [x - q * y for x, y in zip(rows[k], rows[j])]
    return tuple(map(tuple, rows))
