"""Linear algebra and polynomial arithmetic over prime fields.

Internal support for the character-table computation: matrices are lists of
lists of ints in [0, p), polynomials are coefficient lists with index = degree
(trimmed, so [] is the zero polynomial).  Everything here is deterministic.
Roots are found by evaluation: the table's prime, the smallest admissible one
above 2*sqrt(|G|), is small, so a scan of F_p beats factoring.
"""

from __future__ import annotations

from .cyclo import prime_factors


def inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def element_of_order(e: int, p: int) -> int:
    """Smallest integer with multiplicative order exactly e mod p (needs e | p-1)."""
    if (p - 1) % e:
        raise ValueError(f"no element of order {e} mod {p}")
    if e == 1:
        return 1
    checks = [e // q for q in prime_factors(e)]
    for w in range(2, p):
        if pow(w, e, p) == 1 and all(pow(w, c, p) != 1 for c in checks):
            return w
    raise ValueError(f"no element of order {e} mod {p}")  # unreachable for prime p


# -- matrices


def rref_mod(mat, p):
    """Row-reduce in place semantics on a copy; returns (rows, pivot columns)."""
    a = [[x % p for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = inv_mod(a[r][c], p)
        # row r is 0 left of column c, so only columns c on change
        pivot_row = a[r][c:] = [x * inv % p for x in a[r][c:]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i][c:] = [(x - f * y) % p for x, y in zip(a[i][c:], pivot_row)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def kernel_mod(mat, p):
    """Basis of the right kernel, one vector per free column, and the free
    columns: vector t is 1 at free[t] and 0 at every other free column."""
    rows, pivots = rref_mod(mat, p)
    cols = len(mat[0]) if mat else 0
    pivot_set = set(pivots)
    basis = []
    free_columns = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [0] * cols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][free]) % p
        basis.append(v)
        free_columns.append(free)
    return basis, free_columns


# -- characteristic polynomial

def charpoly_mod(mat, p):
    """Monic characteristic polynomial of a square matrix mod p.

    Reduces to upper Hessenberg form by similarity, then runs the standard
    leading-minor recurrence.  Coefficient list has index = degree.
    """
    n = len(mat)
    if n == 0:
        return [1]
    h = [[x % p for x in row] for row in mat]
    for c in range(n - 2):
        pr = next((i for i in range(c + 1, n) if h[i][c]), None)
        if pr is None:
            continue
        if pr != c + 1:
            h[c + 1], h[pr] = h[pr], h[c + 1]
            for row in h:
                row[c + 1], row[pr] = row[pr], row[c + 1]
        inv = inv_mod(h[c + 1][c], p)
        for i in range(c + 2, n):
            if h[i][c]:
                f = h[i][c] * inv % p
                h[i] = [(x - f * y) % p for x, y in zip(h[i], h[c + 1])]
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[i]) % p
    # charpoly of leading k x k Hessenberg block, built up by expansion
    polys = [[1]]
    for k in range(1, n + 1):
        # expand along the last row of the k x k block
        term = poly_sub(poly_shift(polys[k - 1]),
                        poly_scale(polys[k - 1], h[k - 1][k - 1]), p)
        run = 1
        for i in range(k - 2, -1, -1):
            run = run * h[i + 1][i] % p
            coef = run * h[i][k - 1] % p
            term = poly_sub(term, poly_scale(polys[i], coef), p)
        polys.append(term)
    return polys[n]


# -- polynomials

def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_shift(f):
    return [0] + list(f)


def poly_scale(f, c):
    return [x * c for x in f]


def poly_sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, x in enumerate(f):
        out[i] = x
    for i, x in enumerate(g):
        out[i] = (out[i] - x) % p
    return poly_trim(out)


def poly_eval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def roots_mod(f, p):
    """Distinct roots in F_p, ascending.  Each x = 0, 1, ... is tried by
    Horner's rule and a root divided out as often as it divides, so the scan
    stops once f is a constant."""
    f = poly_trim([c % p for c in f])
    roots = []
    for x in range(p):
        if len(f) < 2:
            break
        if poly_eval(f, x, p):
            continue
        roots.append(x)
        while True:  # synthetic division by (t - x) while the remainder is 0
            quotient, acc = [], 0
            for c in reversed(f):
                acc = (acc * x + c) % p
                quotient.append(acc)
            if quotient.pop():
                break
            f = quotient[::-1]
    return roots
