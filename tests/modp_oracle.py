"""Prime-field routines the character table used before, kept as oracles.

The Cantor-Zassenhaus root finder, the oracle for `modp.roots_mod`, keeps
the part of f that splits into distinct linear factors, gcd(x^p - x, f),
and splits that by quadratic characters of the shifts x + a,
a = 0, 1, 2, ..., so repeated runs agree.

`kernel_mod` reads a kernel basis off the reduced row echelon form; the
split used it once per eigenvalue before each eigenspace came from one
Hessenberg reduction (`modp.hessenberg_kernel`).  `charpoly_mod` gives the
characteristic polynomial of any square matrix through that reduction.
"""

from torusquot.modp import (
    hessenberg_charpoly,
    hessenberg_mod,
    inv_mod,
    poly_eval,
    poly_trim,
    rref_mod,
)


def charpoly_mod(mat, p):
    """Monic characteristic polynomial of a square matrix mod p, read off
    its Hessenberg form.  Coefficient list has index = degree."""
    return hessenberg_charpoly(hessenberg_mod(mat, p)[0], p)


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


def poly_sub(f, g, p):
    n = max(len(f), len(g))
    out = [0] * n
    for i, x in enumerate(f):
        out[i] = x
    for i, x in enumerate(g):
        out[i] = (out[i] - x) % p
    return poly_trim(out)


def poly_mul_mod(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim(out)


def poly_divmod(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = [x % p for x in f]
    dg = len(g) - 1
    lead_inv = inv_mod(g[-1], p)
    q = [0] * max(len(f) - dg, 0)
    r = list(f)
    for i in range(len(r) - 1, dg - 1, -1):
        if r[i]:
            c = r[i] * lead_inv % p
            q[i - dg] = c
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return poly_trim(q), poly_trim(r)


def poly_gcd_mod(f, g, p):
    """Monic gcd."""
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while g:
        f, g = g, poly_divmod(f, g, p)[1]
    if f:
        inv = inv_mod(f[-1], p)
        f = [x * inv % p for x in f]
    return f


def poly_powmod(base, exp, modulus, p):
    result = [1]
    base = poly_divmod(base, modulus, p)[1]
    while exp:
        if exp & 1:
            result = poly_divmod(poly_mul_mod(result, base, p), modulus, p)[1]
        base = poly_divmod(poly_mul_mod(base, base, p), modulus, p)[1]
        exp >>= 1
    return result


def roots_mod(f, p):
    """Distinct roots in F_p, ascending.  Deterministic."""
    f = poly_trim([x % p for x in f])
    roots = []
    if f and f[0] == 0:
        roots.append(0)
        while f and f[0] == 0:
            f = f[1:]
    if len(f) > 1:
        # keep only the part splitting into distinct linear factors
        xp = poly_powmod([0, 1], p, f, p)
        linear = poly_gcd_mod(poly_sub(xp, [0, 1], p), f, p)
        roots.extend(_split_linear(linear, p, 0))
    return sorted(set(roots))


def _split_linear(g, p, shift):
    """Roots of a squarefree product of linear factors, by quadratic-character
    splitting with shifts 0, 1, 2, ... (no randomness)."""
    if len(g) <= 1:
        return []
    if len(g) == 2:
        return [(-g[0] * inv_mod(g[1], p)) % p]
    for a in range(shift, p):
        if poly_eval(g, -a % p, p) == 0:
            rest, _ = poly_divmod(g, [a % p, 1], p)
            return [(-a) % p] + _split_linear(rest, p, a + 1)
        euler = poly_powmod([a % p, 1], (p - 1) // 2, g, p)
        h = poly_gcd_mod(poly_sub(euler, [1], p), g, p)
        if 0 < len(h) - 1 < len(g) - 1:
            other, rem = poly_divmod(g, h, p)
            assert not rem
            return _split_linear(h, p, a + 1) + _split_linear(other, p, a + 1)
    raise ArithmeticError("shift sweep failed to split polynomial")
