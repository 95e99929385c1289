"""Finite matrix groups: element types, BFS closure, conjugacy structure.

Two element kinds are supported.  Monomial elements are scaled permutation
matrices stored as (permutation, scalar vector) pairs so that products,
inverses, and traces cost O(degree); dense elements hold full cyclotomic
matrices.  A mixed generating set is promoted to dense.

After closure the group works with integer element indices.  Products of
indices are folded through the generator word of the right factor and the
right-multiplication table built during the BFS, so bulk index arithmetic
never touches matrix entries again.
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


def close(generators, limit: int = DEFAULT_CLOSURE_LIMIT) -> "FiniteGroup":
    """Enumerate the group generated by the given matrices by BFS.

    Elements are discovered in deterministic BFS order with the identity at
    index 0.  Raises GroupTooLargeError when the closure would exceed
    ``limit`` elements.
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
        gens = [g.to_dense() for g in gens]
        identity = Dense.identity(degree)
    else:
        identity = Monomial.identity(degree)
    if limit < 1:
        raise InvalidInputError("closure limit must be positive")

    elements = [identity]
    index = {identity: 0}
    words: list[tuple[int, ...]] = [()]
    right_table: list[list[int]] = []
    pos = 0
    while pos < len(elements):
        x = elements[pos]
        row = []
        for a, g in enumerate(gens):
            y = x * g
            j = index.get(y)
            if j is None:
                if len(elements) >= limit:
                    raise GroupTooLargeError(limit)
                j = len(elements)
                elements.append(y)
                index[y] = j
                words.append(words[pos] + (a,))
            row.append(j)
        right_table.append(row)
        pos += 1

    gen_indices = tuple(index[g] for g in gens)
    return FiniteGroup(tuple(elements), index, gen_indices, right_table, tuple(words))


class FiniteGroup:
    """A finite matrix group enumerated by :func:`close`."""

    def __init__(self, elements, index, generator_indices, right_table, words):
        self.elements = elements
        self._index = index
        self.generator_indices = generator_indices
        self._right = right_table
        self._words = words
        self._inv = None
        self._classes = None
        self._class_of = None
        self._rep_orders = None
        self._power_maps = {}
        self._inverse_class = None
        self._abelianization = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree(self) -> int:
        return self.elements[0].degree

    def element(self, i: int):
        return self.elements[i]

    def word(self, i: int) -> tuple[int, ...]:
        """Generator word that reaches element i from the identity (BFS order,
        so every proper prefix is the word of an earlier element)."""
        return self._words[i]

    # -- index arithmetic

    def mult(self, i: int, j: int) -> int:
        x = i
        for a in self._words[j]:
            x = self._right[x][a]
        return x

    def inv(self, i: int) -> int:
        if self._inv is None:
            self._inv = [self._index[self.elements[k].inverse()] for k in range(self.order)]
        return self._inv[i]

    def power(self, i: int, k: int) -> int:
        o = self.element_order(i)
        k %= o
        x = 0
        for _ in range(k):
            x = self.mult(x, i)
        return x

    def element_order(self, i: int) -> int:
        o = 1
        x = i
        while x != 0:
            x = self.mult(x, i)
            o += 1
        return o

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

    def order_histogram(self) -> dict[int, int]:
        """Element order -> count, aggregated over conjugacy classes."""
        hist: dict[int, int] = {}
        for o, size in zip(self.class_orders, self.class_sizes):
            hist[o] = hist.get(o, 0) + size
        return hist

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
