#!/usr/bin/env python3
"""Sweep seeded instances per problem kind and summarise observed ratios.

For every kind this runs the kind's polynomial greedy, compares against the
exhaustive optimum, re-checks histogram containment, and prints the worst
ratio seen next to the certified bound.  Useful as a quick end-to-end
health check and for eyeballing how loose the bounds are in practice.

    python scripts/ratio_sweep.py --count 200 --seed 1
    python scripts/ratio_sweep.py --kinds mssc,rof --count 1000
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msop import chain_cost, histogram_containment_check, permutation_to_chain
from msop import exact
from msop.cli import Toolchain
from msop.generators import KINDS, gen_instance

MAX_N = {"mssc": 8, "pipelined": 8, "inforest": 8, "multitree": 8,
         "bipartite-or": 7, "rof": 7, "xsearch": 5}


def sweep(kind, count, seed0):
    worst = Fraction(0)
    worst_seed = None
    contained = True
    bound = None
    started = time.time()
    for i in range(count):
        n = 2 + (seed0 + i) % (MAX_N[kind] - 1)
        parsed = gen_instance(kind, n, seed0 + i)
        # the CLI's own routing, so the sweep certifies what `msop solve` runs
        tools = Toolchain(parsed)
        instance, alpha, bound = tools.instance, tools.alpha, tools.bound
        chain = tools.greedy()
        cost = chain_cost(instance, chain)
        opt_perm, opt = exact.exact_opt_permutation(instance)
        report = histogram_containment_check(
            instance, chain, permutation_to_chain(instance, opt_perm), alpha
        )
        contained = contained and report.contained
        if opt > 0 and Fraction(cost, opt) > worst:
            worst = Fraction(cost, opt)
            worst_seed = seed0 + i
    return worst, worst_seed, contained, bound, time.time() - started


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kinds", default=",".join(KINDS))
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    kinds = [kind.strip() for kind in args.kinds.split(",")]
    for kind in kinds:
        if kind not in KINDS:
            print(f"error: unknown kind {kind!r}; expected one of {', '.join(KINDS)}",
                  file=sys.stderr)
            return 1
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return 1

    print(f"{'kind':<14} {'instances':>9} {'worst ratio':>12} {'bound':>6} "
          f"{'contained':>10} {'seconds':>8}")
    bad = False
    for kind in kinds:
        worst, worst_seed, contained, bound, elapsed = sweep(kind, args.count, args.seed)
        flag = "" if worst <= bound and contained else "  <-- VIOLATION"
        bad = bad or bool(flag)
        print(f"{kind:<14} {args.count:>9} {float(worst):>12.4f} {bound:>6} "
              f"{str(contained).lower():>10} {elapsed:>8.1f}{flag}"
              + (f"  (seed {worst_seed})" if worst_seed is not None else ""))
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
