"""Finite matrix groups: element types, closure on a point set, conjugacy structure.

Two element kinds are supported.  Monomial elements are scaled permutation
matrices stored as (permutation, scalar vector) pairs so that products,
inverses, and traces cost O(degree); dense elements hold full cyclotomic
matrices.  A mixed generating set is promoted to dense.

A finite matrix group acts faithfully on the union of the orbits of the
basis vectors e_1..e_n, because those points span the space: the "action on
an orbit of vectors" of Holt, Eick and O'Brien, *Handbook of Computational
Group Theory* (2005).  :func:`close` finds that point set by BFS under the
generators.  A point is a pair (coordinate, scalar) for a monomial generating
set and a vector for a dense one; building the point set is the only exact
arithmetic in closure.  Each generator then becomes a permutation of the
points, a tuple of point indices.

A linear map is fixed by the images of a basis, so element x is stored by
its base images: the indices of the points x⁻¹(e_1)..x⁻¹(e_n), n ints per
element whatever the size of the point set.  They are those of the inverse
because closure multiplies on the right, and (x·g)⁻¹(e_j) = g⁻¹(x⁻¹(e_j)) is
the permutation of g⁻¹ applied to the stored tuple.  The points x(e_j) are
read off x's generator word through the generator permutations; they are
the base images of x⁻¹, so a dict lookup gives the inverse.  Closure and
inverses are therefore integer tuple work.  Products of indices are folded
through the generator word of the right factor and the right-multiplication
table built during the BFS; element orders and powers walk each cyclic
subgroup through that table once.

Matrices are built only on demand, without arithmetic: e_1..e_n are the
first n points, and column j of x's matrix is the point x(e_j).

The closure limit bounds the number of elements and, through them, the point
set: an orbit is never larger than |G|, so more than ``limit * degree``
points proves |G| > limit.  Memory is thus O(limit * degree) ints for the
elements plus the point set itself.
"""

from __future__ import annotations

import math

from . import linalg
from .cyclo import Cyclotomic, one, zero
from .errors import GroupTooLargeError, InvalidInputError

DEFAULT_CLOSURE_LIMIT = 20000


class Monomial:
    """Scaled permutation matrix: column j carries scalars[j] at row perm[j]."""

    __slots__ = ("perm", "scalars", "_hash")

    def __init__(self, perm, scalars):
        self.perm = tuple(perm)
        self.scalars = tuple(Cyclotomic.from_value(s) for s in scalars)
        if sorted(self.perm) != list(range(len(self.perm))):
            raise InvalidInputError("monomial permutation is not a bijection")
        if len(self.scalars) != len(self.perm):
            raise InvalidInputError("monomial scalar count does not match the degree")
        if any(s.is_zero() for s in self.scalars):
            raise InvalidInputError("monomial scalars must be nonzero")
        self._hash = None

    @staticmethod
    def identity(degree: int) -> "Monomial":
        return Monomial(range(degree), (one(),) * degree)

    @property
    def degree(self) -> int:
        return len(self.perm)

    def __mul__(self, other):
        if isinstance(other, Monomial):
            p, s = self.perm, self.scalars
            q, t = other.perm, other.scalars
            return Monomial(
                tuple(p[qj] for qj in q),
                tuple(tj * s[qj] for qj, tj in zip(q, t)),
            )
        if isinstance(other, Dense):
            return self.to_dense() * other
        return NotImplemented

    @staticmethod
    def basis_points(degree: int) -> list:
        """e_1..e_n as points of :meth:`act`: pairs (coordinate, scalar)."""
        return [(j, one()) for j in range(degree)]

    def act(self, point):
        """Image of the point c·e_i, which is c·s_i·e_perm[i]."""
        i, c = point
        return self.perm[i], c * self.scalars[i]

    @classmethod
    def _from_columns(cls, columns) -> "Monomial":
        """The element whose column j is the point columns[j], unchecked:
        the caller vouches for a bijection and nonzero canonical scalars."""
        m = object.__new__(cls)
        m.perm = tuple(i for i, _ in columns)
        m.scalars = tuple(c for _, c in columns)
        m._hash = None
        return m

    def row_entries(self) -> tuple[list[int], list[Cyclotomic]]:
        """Per-row view (cols, scalars): row i holds scalars[i] at column cols[i]."""
        d = self.degree
        cols = [0] * d
        scalars = [None] * d
        for j, (pj, sj) in enumerate(zip(self.perm, self.scalars)):
            cols[pj] = j
            scalars[pj] = sj
        return cols, scalars

    def inverse(self) -> "Monomial":
        cols, scalars = self.row_entries()
        return Monomial(cols, [s.inverse() for s in scalars])

    def conjugate(self) -> "Monomial":
        return Monomial(self.perm, tuple(s.conjugate() for s in self.scalars))

    def transpose(self) -> "Monomial":
        return Monomial(*self.row_entries())

    def trace(self) -> Cyclotomic:
        return sum((self.scalars[j] for j in range(self.degree) if self.perm[j] == j), zero())

    def det(self) -> Cyclotomic:
        par = _perm_parity(self.perm)
        d = one()
        for s in self.scalars:
            d = d * s
        return -d if par else d

    def to_dense(self) -> "Dense":
        d = self.degree
        rows = [[zero()] * d for _ in range(d)]
        for j, (pj, sj) in enumerate(zip(self.perm, self.scalars)):
            rows[pj][j] = sj
        return Dense(rows)

    def is_identity(self) -> bool:
        return all(p == j for j, p in enumerate(self.perm)) and all(s == 1 for s in self.scalars)

    def has_eigenvalue_one(self) -> bool:
        """Exact: some permutation cycle whose scalar product equals 1."""
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            prod = one()
            j = start
            while not seen[j]:
                seen[j] = True
                prod = prod * self.scalars[j]
                j = self.perm[j]
            if prod == 1:
                return True
        return False

    def block_sum(self, other: "Monomial") -> "Monomial":
        d = self.degree
        return Monomial(
            self.perm + tuple(p + d for p in other.perm),
            self.scalars + other.scalars,
        )

    def __eq__(self, other):
        if isinstance(other, Monomial):
            return self.perm == other.perm and self.scalars == other.scalars
        if isinstance(other, Dense):
            return self.to_dense() == other
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.perm, self.scalars))
        return self._hash

    def __repr__(self):
        return f"Monomial(perm={self.perm}, scalars=({', '.join(map(str, self.scalars))}))"


def _perm_parity(perm) -> int:
    """1 for odd permutations, 0 for even."""
    seen = [False] * len(perm)
    parity = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _inverse_perm(perm) -> tuple[int, ...]:
    inverse = [0] * len(perm)
    for p, q in enumerate(perm):
        inverse[q] = p
    return tuple(inverse)


class Dense:
    """Dense square matrix over cyclotomic entries."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        self.rows = linalg.as_matrix(rows)
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise InvalidInputError("dense element must be square")
        self._hash = None

    @staticmethod
    def identity(degree: int) -> "Dense":
        return Dense(linalg.identity_matrix(degree))

    @property
    def degree(self) -> int:
        return len(self.rows)

    def __mul__(self, other):
        if isinstance(other, Dense):
            return Dense(linalg.mat_mul(self.rows, other.rows))
        if isinstance(other, Monomial):
            # right-multiplying by a monomial scales and permutes columns
            q, t = other.perm, other.scalars
            return Dense(tuple(tuple(row[q[j]] * t[j] for j in range(len(q))) for row in self.rows))
        return NotImplemented

    @staticmethod
    def basis_points(degree: int) -> list:
        """e_1..e_n as points of :meth:`act`: column vectors."""
        return list(linalg.identity_matrix(degree))

    def act(self, v):
        """The matrix-vector product M·v."""
        return linalg.mat_vec(self.rows, v)

    @classmethod
    def _from_columns(cls, columns) -> "Dense":
        """The matrix with column j the vector columns[j], unchecked."""
        m = object.__new__(cls)
        m.rows = tuple(zip(*columns))
        m._hash = None
        return m

    def inverse(self) -> "Dense":
        return Dense(linalg.mat_inverse(self.rows))

    def conjugate(self) -> "Dense":
        return Dense(linalg.conj_matrix(self.rows))

    def transpose(self) -> "Dense":
        return Dense(linalg.transpose(self.rows))

    def trace(self) -> Cyclotomic:
        return sum((self.rows[i][i] for i in range(self.degree)), zero())

    def det(self) -> Cyclotomic:
        return linalg.bareiss_det(self.rows)

    def to_dense(self) -> "Dense":
        return self

    def is_identity(self) -> bool:
        return linalg.mat_eq(self.rows, linalg.identity_matrix(self.degree))

    def has_eigenvalue_one(self) -> bool:
        """Exact: det(M - I) = 0, by fraction-free elimination."""
        return linalg.bareiss_det(
            linalg.mat_sub(self.rows, linalg.identity_matrix(self.degree))).is_zero()

    def block_sum(self, other) -> "Dense":
        return Dense(linalg.block_diag(self.rows, other.to_dense().rows))

    def __eq__(self, other):
        if isinstance(other, Dense):
            return self.rows == other.rows
        if isinstance(other, Monomial):
            return self.rows == other.to_dense().rows
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self):
        return f"Dense({self.degree}x{self.degree})"


def _validate_generator(g):
    if isinstance(g, Monomial):
        return  # constructor already rejected zero scalars
    if isinstance(g, Dense):
        if g.det().is_zero():
            raise InvalidInputError("dense generator is not invertible")
        return
    raise InvalidInputError(f"unsupported generator type {type(g).__name__}")


def _orbit(start, step, arity: int, cap: int, limit: int):
    """BFS closure of the items ``start`` under the maps ``step(x, a)`` for
    a < arity: the items in discovery order, their index, and the table
    whose column a lists the index of step(items[i], a) at each i.  Raises
    GroupTooLargeError(limit) when more than ``cap`` items appear."""
    items = list(start)
    index = {x: i for i, x in enumerate(items)}
    table = [[] for _ in range(arity)]
    for x in items:  # the loop reaches the items appended while it runs
        for a, column in enumerate(table):
            y = step(x, a)
            j = index.get(y)
            if j is None:
                if len(items) >= cap:
                    raise GroupTooLargeError(limit)
                j = len(items)
                items.append(y)
                index[y] = j
            column.append(j)
    return items, index, table


def close(generators, limit: int = DEFAULT_CLOSURE_LIMIT) -> "FiniteGroup":
    """Enumerate the group generated by the given matrices.

    The generators first become permutations of the point set, the union of
    the orbits of the basis vectors (see the module docstring).  Closure is
    then a BFS over the products x·g, each element keyed by its base images
    x⁻¹(e_1)..x⁻¹(e_n).  The action is faithful, so two elements are equal
    exactly when their matrices are.  Elements are found in deterministic BFS
    order with the identity at index 0.  Raises GroupTooLargeError when the
    closure would exceed ``limit`` elements, or the point set
    ``limit * degree`` points, which proves the same.
    """
    gens = list(generators)
    if not gens:
        raise InvalidInputError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise InvalidInputError("generators must share one degree")
    for g in gens:
        _validate_generator(g)
    if any(isinstance(g, Dense) for g in gens):
        kind = Dense
        gens = [g.to_dense() for g in gens]
    else:
        kind = Monomial
    if limit < 1:
        raise InvalidInputError("closure limit must be positive")

    points, _, gen_perms = _orbit(kind.basis_points(degree), lambda p, a: gens[a].act(p),
                                  len(gens), limit * degree, limit)
    inverse_perms = [_inverse_perm(g) for g in gen_perms]
    keys, index, right_table = _orbit(
        [tuple(range(degree))], lambda x, a: tuple(map(inverse_perms[a].__getitem__, x)),
        len(gens), limit, limit)
    # an element's word is its parent's plus the generator that first reached it
    words: list = [None] * len(keys)
    words[0] = ()
    for i in range(len(keys)):
        for a, column in enumerate(right_table):
            j = column[i]
            if words[j] is None:
                words[j] = words[i] + (a,)
    gen_indices = tuple(index[g[:degree]] for g in inverse_perms)
    return FiniteGroup(kind, degree, tuple(points), gen_perms, keys, index, gen_indices,
                       right_table, tuple(words))


class FiniteGroup:
    """A finite matrix group enumerated by :func:`close`.

    Element i is stored by its base images (see the module docstring); its
    matrix is read off those of its inverse when asked for.
    """

    def __init__(self, kind, degree, points, gen_perms, keys, index, generator_indices,
                 right_table, words):
        self._kind = kind
        self._degree = degree
        self._points = points
        self._gen_perms = gen_perms
        self._keys = keys
        self._index = index
        self.generator_indices = generator_indices
        self._right = right_table
        self._words = words
        self._elements = None
        self._inv = None
        self._powers = {}
        self._classes = None
        self._class_of = None
        self._rep_orders = None
        self._power_maps = {}
        self._inverse_class = None
        self._abelianization = None

    @property
    def order(self) -> int:
        return len(self._words)

    @property
    def degree(self) -> int:
        return self._degree

    def _images(self, i: int) -> tuple[int, ...]:
        """Indices of the points x(e_1)..x(e_n) for element x = i: its word's
        generator permutations applied to the basis, the last letter first."""
        images = range(self._degree)
        for a in reversed(self._words[i]):
            images = map(self._gen_perms[a].__getitem__, images)
        return tuple(images)

    def element(self, i: int):
        """The matrix of element i: column j is the point that it sends e_j to,
        which is base image j of its inverse."""
        return self._kind._from_columns([self._points[p] for p in self._keys[self.inv(i)]])

    @property
    def elements(self) -> tuple:
        """Every element's matrix in BFS order, built on first use."""
        if self._elements is None:
            self._elements = tuple(self.element(i) for i in range(self.order))
        return self._elements

    def word(self, i: int) -> tuple[int, ...]:
        """Generator word that reaches element i from the identity (BFS order,
        so every proper prefix is the word of an earlier element)."""
        return self._words[i]

    # -- index arithmetic

    def mult(self, i: int, j: int) -> int:
        x = i
        for a in self._words[j]:
            x = self._right[a][x]
        return x

    def inv(self, i: int) -> int:
        """The base images of x⁻¹ are the points x(e_j)."""
        if self._inv is None:
            self._inv = [self._index[self._images(k)] for k in range(self.order)]
        return self._inv[i]

    def _cyclic(self, i: int) -> tuple[int, ...]:
        """Indices of i^0, i^1, ..., i^(o-1) for the order o of i, walked once
        through the right-multiplication table and kept."""
        powers = self._powers.get(i)
        if powers is None:
            powers = [0]
            x = i
            while x != 0:
                powers.append(x)
                x = self.mult(x, i)
            powers = self._powers[i] = tuple(powers)
        return powers

    def power(self, i: int, k: int) -> int:
        powers = self._cyclic(i)
        return powers[k % len(powers)]

    def element_order(self, i: int) -> int:
        return len(self._cyclic(i))

    # -- conjugacy structure

    def _compute_classes(self):
        if self._classes is not None:
            return
        n = self.order
        class_of = [-1] * n
        classes = []
        gen_pairs = [(self.inv(g), g) for g in self.generator_indices]
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
                    y = self.mult(self.mult(ginv, x), g)
                    if class_of[y] < 0:
                        class_of[y] = cid
                        orbit.append(y)
                        frontier.append(y)
            classes.append(tuple(sorted(orbit)))
        self._classes = tuple(classes)
        self._class_of = tuple(class_of)

    @property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by smallest member."""
        self._compute_classes()
        return self._classes

    @property
    def num_classes(self) -> int:
        return len(self.conjugacy_classes)

    def class_of(self, i: int) -> int:
        self._compute_classes()
        return self._class_of[i]

    @property
    def class_representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.conjugacy_classes)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.conjugacy_classes)

    @property
    def class_orders(self) -> tuple[int, ...]:
        """Element order of each class representative."""
        if self._rep_orders is None:
            self._rep_orders = tuple(self.element_order(r) for r in self.class_representatives)
        return self._rep_orders

    @property
    def inverse_class(self) -> tuple[int, ...]:
        if self._inverse_class is None:
            self._inverse_class = tuple(
                self.class_of(self.inv(r)) for r in self.class_representatives)
        return self._inverse_class

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
        from .cyclo import is_prime
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidInputError(f"{p!r} is not a prime")
        if self.order % p:
            raise InvalidInputError(f"{p} does not divide the group order {self.order}")
        p_part = 1
        n = self.order
        while n % p == 0:
            p_part *= p
            n //= p
        return any(o == p_part for o in self.class_orders)

    def _subgroup_closure(self, candidates) -> set[int]:
        # incremental closure: only adopt a candidate that enlarges the subgroup
        members = {0}
        gens: list[int] = []
        for t in candidates:
            if t in members:
                continue
            gens.append(t)
            frontier = list(members)
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = self.mult(x, g)
                    if y not in members:
                        members.add(y)
                        frontier.append(y)
        return members

    def abelianization_order(self) -> int:
        """|G| / |[G,G]|, with [G,G] the normal closure of generator commutators."""
        if self._abelianization is None:
            seeds = set()
            gi = self.generator_indices
            for a in gi:
                for b in gi:
                    c = self.mult(self.mult(self.mult(self.inv(a), self.inv(b)), a), b)
                    if c:
                        seeds.add(c)
            # close the seed set under conjugation so the subgroup comes out normal
            orbit = set(seeds)
            frontier = list(seeds)
            gen_pairs = [(self.inv(g), g) for g in gi]
            while frontier:
                x = frontier.pop()
                for ginv, g in gen_pairs:
                    y = self.mult(self.mult(ginv, x), g)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            commutator = self._subgroup_closure(sorted(orbit))
            if self.order % len(commutator):
                raise InvalidInputError("commutator subgroup size does not divide |G|")
            self._abelianization = self.order // len(commutator)
        return self._abelianization

    def __repr__(self):
        return f"FiniteGroup(order={self.order}, degree={self.degree})"
