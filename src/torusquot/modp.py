"""Linear algebra and polynomial arithmetic over prime fields.

Internal support for the character-table computation: matrices are lists of
lists of ints in [0, p), polynomials are coefficient lists with index = degree
(trimmed, so [] is the zero polynomial).  Everything here is deterministic.
One Hessenberg reduction H = S^-1 * A * S gives both the characteristic
polynomial and, by back-substitution in H, every eigenspace (Cohen, A Course
in Computational Algebraic Number Theory, 2.2).  Roots are found by
evaluation: the table's prime, the smallest admissible one above
2*sqrt(|G|), is small, so a scan of F_p beats factoring.
"""

from __future__ import annotations

import operator

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


# -- Hessenberg form: characteristic polynomial and eigenspaces

def hessenberg_mod(mat, p):
    """(H, S) with H = S^-1 * A * S upper Hessenberg, mod p (S as rows).

    Column c is cleared below (c + 1, c) by row_i -= f_i * row_{c+1}, after a
    swap that makes (c + 1, c) nonzero; col_{c+1} += sum_i f_i * col_i
    completes the similarity, and S collects the swaps and column operations."""
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    for c in range(n - 2):
        pr = next((i for i in range(c + 1, n) if h[i][c]), None)
        if pr is None:
            continue
        if pr != c + 1:
            h[c + 1], h[pr] = h[pr], h[c + 1]
            for row in (*h, *s):
                row[c + 1], row[pr] = row[pr], row[c + 1]
        inv = inv_mod(h[c + 1][c], p)
        fs = [h[i][c] * inv % p for i in range(c + 2, n)]
        if not any(fs):
            continue
        # rows c+1.. are 0 left of column c; the row operations commute with
        # each other, so all of them go before the one column operation
        pivot_row = h[c + 1][c:]
        for i, f in enumerate(fs, c + 2):
            if f:
                h[i][c:] = [(x - f * y) % p for x, y in zip(h[i][c:], pivot_row)]
        for row in (*h, *s):
            row[c + 1] = (row[c + 1] + sum(map(operator.mul, fs, row[c + 2:]))) % p
    return h, s


def hessenberg_charpoly(h, p):
    """Monic characteristic polynomial of an upper Hessenberg matrix mod p,
    by the leading-minor recurrence; coefficient list has index = degree.
    Each minor is accumulated in one integer list and reduced once; it is
    monic of degree k, so it needs no trim."""
    polys = [[1]]
    for k in range(1, len(h) + 1):
        # expand along the last row of the k x k block, from x * p_(k-1) on
        prev = polys[k - 1]
        term = [0] + prev
        d = h[k - 1][k - 1]
        for t, c in enumerate(prev):
            term[t] -= d * c
        run = 1
        for i in range(k - 2, -1, -1):
            run = run * h[i + 1][i] % p
            if not run:  # a zero subdiagonal ends every later term
                break
            coef = run * h[i][k - 1] % p
            for t, c in enumerate(polys[i]):
                term[t] -= coef * c
        polys.append([c % p for c in term])
    return polys[-1]


def hessenberg_kernel(h, lam, p):
    """Basis of ker(H - lam*I) for an upper Hessenberg H mod p: vector t is
    1 at the t-th free column and 0 at the others.  O((m + 1) * n^2) for a
    kernel of dimension m: on the way to echelon form, column c is nonzero
    only in the rows from the next pivot row to c + 1, and the vector of
    free column f is 0 beyond f, so its back-substitution fixes only the
    pivot columns left of f and reads rows up to column f."""
    n = len(h)
    a = [row[:i] + [(row[i] - lam) % p] + row[i + 1:] for i, row in enumerate(h)]
    pivots, free = [], []
    for c in range(n):
        r = len(pivots)
        end = min(c + 2, n)
        pr = next((i for i in range(r, end) if a[i][c]), None)
        if pr is None:
            free.append(c)
            continue
        a[r], a[pr] = a[pr], a[r]
        pivot_row = a[r][c + 1:]
        inv = inv_mod(a[r][c], p)
        for i in range(r + 1, end):
            if a[i][c]:
                f = a[i][c] * inv % p
                a[i][c:] = [0] + [(x - f * y) % p for x, y in zip(a[i][c + 1:], pivot_row)]
        pivots.append((c, inv))
    basis = []
    for t, f in enumerate(free):
        v = [0] * n
        v[f] = 1
        for k in range(f - t - 1, -1, -1):  # the f - t pivot columns left of f
            c, inv = pivots[k]
            v[c] = -sum(map(operator.mul, a[k][c + 1:f + 1], v[c + 1:f + 1])) * inv % p
        basis.append(v)
    return basis


# -- polynomials

def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


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
