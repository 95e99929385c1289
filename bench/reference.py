"""Reference values the benchmark computes without torusquot.

Integers only: monomial matrices whose scalars are roots of unity act
faithfully as permutations of the points zeta^k * e_i.
"""

from __future__ import annotations


def point_permutation(maps, exps, m):
    """The permutation of the m*n points zeta_m^k * e_j induced by the
    monomial matrix whose row r is zeta_m^exps[r] at column maps[r].

    Point (j, k) is numbered j*m + k.  The matrix sends e_j to
    zeta^exps[r] * e_r for the row r with maps[r] == j.
    """
    n = len(maps)
    row_of = [0] * n
    for r, c in enumerate(maps):
        row_of[c] = r
    return tuple(row_of[j] * m + (k + exps[row_of[j]]) % m
                 for j in range(n) for k in range(m))


def permutation_group_order(gens, m, cap):
    """Order of the group generated by monomial (maps, exps) pairs, by BFS
    over their point permutations; None once more than cap elements appear."""
    perms = [point_permutation(maps, exps, m) for maps, exps in gens]
    identity = tuple(range(len(perms[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = tuple(p[i] for i in x)
            if y not in seen:
                seen.add(y)
                if len(seen) > cap:
                    return None
                frontier.append(y)
    return len(seen)
