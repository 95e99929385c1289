#!/usr/bin/env python3
"""Time `character_table` on groups larger than the benchmark's.

Usage: PYTHONPATH=src python3 scripts/table_ladder.py [--repeat N]

The rungs are the generalised symmetric groups G(m,1,n) = mu_m wr S_n,
from monomial generators, and the affine groups AGL(1,q) of x -> ax + b
on the q points of F_q, from permutation generators.  Each line gives
|G|, the class count r, the number r1 of linear characters (the table's
degree-1 rows; the eigenspace split reads them off the abelianization and
splits only the complement of their span, of dimension r - r1), the first
admissible prime p of the table (the smallest p = 1 mod exponent above
2*sqrt(|G|)) and the wall time of
`character_table`, the best of N runs on a freshly closed group (so the
table's time includes the conjugacy classes), and beside it the best wall
times of `close`, of the classes alone, of the table's eigenspace split
(`_split_eigenspaces` at p, on the closed group) and of its exact check
(`_verify_table` on the finished table).  Each table is checked against
sum d^2 = |G|.  About 7 s in all at N = 1.
"""

import argparse
import math
import time

from torusquot.chartab import (_admissible_primes, _split_eigenspaces, _verify_table,
                               character_table)
from torusquot.cyclo import Cyclotomic, one
from torusquot.groups import Monomial, close


def wreath(m, n):
    """Generators of G(m,1,n): zeta_m in the first coordinate, a
    transposition and an n-cycle."""
    ones = (one(),) * n
    return [Monomial(tuple(range(n)), (Cyclotomic.zeta(m),) + ones[1:]),
            Monomial((1, 0) + tuple(range(2, n)), ones),
            Monomial(tuple(range(1, n)) + (0,), ones)]


def affine(q, g):
    """Generators of AGL(1,q) on F_q: x -> x + 1 and x -> g*x, g of order q - 1."""
    ones = (one(),) * q
    return [Monomial(tuple((x + 1) % q for x in range(q)), ones),
            Monomial(tuple(g * x % q for x in range(q)), ones)]


RUNGS = [
    ("G(2,1,5)", lambda: wreath(2, 5)),
    ("G(3,1,4)", lambda: wreath(3, 4)),
    ("G(5,1,3)", lambda: wreath(5, 3)),
    ("G(4,1,4)", lambda: wreath(4, 4)),
    ("G(6,1,3)", lambda: wreath(6, 3)),
    ("G(8,1,3)", lambda: wreath(8, 3)),
    ("G(5,1,4)", lambda: wreath(5, 4)),
    ("AGL(1,31)", lambda: affine(31, 3)),
    ("AGL(1,61)", lambda: affine(61, 2)),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs per rung, best kept")
    args = parser.parse_args(argv)
    print(f"{'rung':<10} {'|G|':>6} {'r':>4} {'r1':>4} {'p':>6} {'close_s':>8} {'classes_s':>9} "
          f"{'split_s':>8} {'check_s':>8} {'table_s':>8}")
    for name, make_gens in RUNGS:
        best = [math.inf] * 5
        for _ in range(args.repeat):
            gens = make_gens()
            start = time.perf_counter()
            group = close(gens)
            closed = time.perf_counter()
            group.conjugacy_classes
            classed = time.perf_counter()
            p = next(_admissible_primes(group.exponent(), group.order))
            _split_eigenspaces(group, p)
            split = time.perf_counter()
            group = close(gens)
            table_start = time.perf_counter()
            table = character_table(group)
            done = time.perf_counter()
            _verify_table(group, list(table))
            checked = time.perf_counter()
            best = [min(b, t) for b, t in zip(best, (closed - start, classed - closed,
                                                     split - classed, checked - done,
                                                     done - table_start))]
        assert sum(d * d for d in table.degrees) == group.order
        print(f"{name:<10} {group.order:>6} {group.num_classes:>4} "
              f"{table.degrees.count(1):>4} {p:>6} {best[0]:>8.3f} "
              f"{best[1]:>9.3f} {best[2]:>8.3f} {best[3]:>8.3f} {best[4]:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
