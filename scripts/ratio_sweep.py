#!/usr/bin/env python3
"""Sweep seeded instances per problem kind and summarise observed ratios.

For every kind this runs the kind's polynomial greedy and certifies it with
``msop.exact.check_ratio``, the routine behind ``msop check-ratio``: the
exhaustive optimum plus histogram containment.  It prints the worst ratio
seen next to the certified bound.  Useful as a quick end-to-end health
check and for eyeballing how loose the bounds are in practice.

    python scripts/ratio_sweep.py --count 200 --seed 1
    python scripts/ratio_sweep.py --kinds mssc,rof --count 1000
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from msop import INF, exact
from msop.cli import Toolchain
from msop.generators import KINDS, gen_instance

MAX_N = {"mssc": 8, "pipelined": 8, "inforest": 8, "multitree": 8,
         "bipartite-or": 7, "rof": 7, "xsearch": 5}


def sweep(kind, count, seed0):
    """(worst ratio, its seed, all contained, any bound violated, bound,
    seconds); a zero optimum under a positive greedy cost is ratio ``INF``."""
    worst = Fraction(0)
    worst_seed = None
    contained = True
    violated = False
    bound = None
    started = time.perf_counter()
    for i in range(count):
        n = 2 + (seed0 + i) % (MAX_N[kind] - 1)
        parsed = gen_instance(kind, n, seed0 + i)
        # the CLI's own routing, so the sweep certifies what `msop solve` runs
        tools = Toolchain(parsed)
        bound = tools.bound
        cost, opt, report, bad = exact.check_ratio(tools.instance, tools.greedy(), tools.alpha)
        contained = contained and report.contained
        violated = violated or bad
        ratio = Fraction(cost, opt) if opt else (INF if cost else 0)
        if ratio > worst:
            worst, worst_seed = ratio, seed0 + i
    return worst, worst_seed, contained, violated, bound, time.perf_counter() - started


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
        worst, worst_seed, contained, violated, bound, elapsed = sweep(
            kind, args.count, args.seed)
        flag = "  <-- VIOLATION" if violated else ""
        bad = bad or violated
        print(f"{kind:<14} {args.count:>9} {float(worst):>12.4f} {bound:>6} "
              f"{str(contained).lower():>10} {elapsed:>8.1f}{flag}"
              + (f"  (seed {worst_seed})" if worst_seed is not None else ""))
    return 2 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
