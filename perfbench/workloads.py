"""The three workloads: which files each generates and which commands run.

Every file is made by ``msop.generators.gen_instance`` from a seed derived
from the workload seed and the file's slot, then written with
``serialize_instance``.  Sizes are fixed per slot, so a seed changes the
instances but not the mix of sizes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from msop.formats import serialize_instance
from msop.generators import gen_instance

CHAIN_CAP = 7  # exhaustive chain cap at its default (MSOP_EXACT_CAPS unset)


@dataclass(frozen=True)
class Op:
    """One timed operation: ``msop <command> <path> <options>``."""

    command: str
    path: str
    options: tuple[str, ...] = ()

    @property
    def argv(self):
        return [self.command, self.path, *self.options]


def _ladder(lo, hi, count):
    """``count`` sizes from ``lo`` to ``hi`` in geometric steps."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


SOLVE = (("solve", ()),)
BACKWARD = (("solve", ("--backward",)),)
CERTIFY = (("check-ratio", ()),)
CERTIFY_AND_CHAIN = (("check-ratio", ()), ("exact", ("--mode", "chain")))


def _solve_large():
    # twenty sizes per kind, geometric from n=50 (rof 12) up to where one
    # solve takes about 0.3 s on a 2-core host.  Twenty rungs rather than
    # ten keep neighbouring calls within about 5 % of each other, so the
    # median and tail calls do not jump between far-apart sizes from one
    # seed to the next.  Covering files get n hyperedges so that the seed
    # does not change how many there are.
    plan = [
        ("mssc", _ladder(50, 240, 20), True),
        ("pipelined", _ladder(50, 240, 20), True),
        ("inforest", _ladder(50, 175, 20), False),
        ("multitree", _ladder(50, 145, 20), False),
        ("rof", _ladder(12, 34, 20), False),
    ]
    for kind, sizes, covering in plan:
        for n in sizes:
            yield kind, n, {"edges": n} if covering else {}, SOLVE


def _xsearch(edges):
    """Generator size and options for exactly ``edges`` edges: a spanning
    tree on edges // 2 + 2 vertices plus extra edges.  Fixing the vertex
    count fixes the graph's density, which sets how much of the exhaustive
    search finds connected edge sets."""
    vertices = min(edges + 1, edges // 2 + 2)
    return vertices, {"extra": edges - (vertices - 1)}


def _solve_exhaustive():
    # the exhaustive step doubles in time with each edge or element (xsearch
    # 0.03 s at 10 edges, 3 s at 16; backward rof 0.03 s at n=7, 2 s at
    # n=12), so sizes are small and calls many: one xsearch call's time
    # varies threefold with the graph, and only many calls keep the median
    # call steady across seeds.  The 24 covering calls at n=12 (about
    # 0.1 s, within a few percent of each other) are the slowest, so the
    # tail lands inside them.
    for _ in range(100):
        yield "xsearch", *_xsearch(10), SOLVE
    for kind, n, count in (("mssc", 12, 12), ("pipelined", 12, 12), ("inforest", 11, 20),
                           ("multitree", 11, 20), ("rof", 7, 20)):
        for _ in range(count):
            yield kind, n, {"edges": 2 * n} if kind in ("mssc", "pipelined") else {}, BACKWARD


def _certify_desk():
    # six files per kind and size: the ten slowest calls are rof check-ratio
    # runs at n=9 and n=8, so the tail lands inside the n=8 group rather
    # than on whichever smaller file happens to be slowest
    kinds = ("mssc", "pipelined", "inforest", "multitree", "bipartite-or", "rof", "xsearch")
    for kind in kinds:
        for n in range(2, 10):  # ground-set size up to the permutation cap
            commands = CERTIFY_AND_CHAIN if n <= CHAIN_CAP else CERTIFY
            for _ in range(6):
                if kind == "xsearch":
                    yield kind, *_xsearch(n), commands
                else:
                    yield kind, n, {}, commands


PLANS = {
    "solve-large": _solve_large,
    "solve-exhaustive": _solve_exhaustive,
    "certify-desk": _certify_desk,
}


def plan(workload, seed, directory):
    """The workload's ops in a fixed order, and the files they read as
    ``(path, kind, n, generator seed, generator options)``."""
    ops, files = [], []
    for slot, (kind, n, params, commands) in enumerate(PLANS[workload]()):
        path = os.path.join(directory, f"{slot:03d}-{kind}-n{n}.txt")
        files.append((path, kind, n, seed * 10_000 + slot, params))
        ops.extend(Op(command, path, options) for command, options in commands)
    return ops, files


def generate(files):
    """Write the files that ``plan`` lists."""
    for path, kind, n, gen_seed, params in files:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_instance(gen_instance(kind, n, gen_seed, **params)))
