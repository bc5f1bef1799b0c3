"""Seeded instance generators.

Every generator is a pure function of (kind, parameters, seed): the RNG is
seeded from those alone, so identical calls produce identical instances.
Generated instances satisfy the structural hypotheses of the guarantee they
are meant to exercise (inforests really are inforests, multitree candidates
are re-checked, ...).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .core import Rational
from .errors import BadParams
from .mssc import MsscInstance
from .orsched import OrDag
from .rof import Gate, Leaf, Node, ReadOnceFormula
from .xsearch import SearchGraph


def _rng(kind: str, n: int, seed: int) -> random.Random:
    return random.Random(f"msop:{kind}:{n}:{seed}")


def _gen_mssc(n: int, seed: int, unit: bool, edges: int | None = None) -> MsscInstance:
    rng = _rng("mssc" if unit else "pipelined", n, seed)
    m = edges if edges is not None else rng.randint(1, max(1, 2 * n))
    if m < 1:
        raise BadParams("need at least one hyperedge")
    built = []
    for _ in range(m):
        size = rng.randint(1, min(3, n))
        members = frozenset(rng.sample(range(n), size))
        weight = 1 if unit else rng.randint(0, 5)
        built.append((weight, members))
    costs = tuple(1 if unit else rng.randint(1, 5) for _ in range(n))
    return MsscInstance(n, costs, tuple(built))


def _gen_ordag(n: int, seed: int, kind: str, arc_chance: float | None = None) -> OrDag:
    rng = _rng(kind, n, seed)
    jobs = tuple(range(n))
    arcs: list[tuple[int, int]] = []
    if kind == "inforest":
        for v in range(n - 1):
            if rng.random() < 0.75:
                arcs.append((v, rng.randrange(v + 1, n)))
        times = tuple(rng.choice((0, 1, 1, 2, 3)) for _ in range(n))
        weights = tuple(rng.choice((0, 1, 2, 3, 4)) for _ in range(n))
    elif kind == "multitree":
        chance = arc_chance if arc_chance is not None else min(0.9, 2.5 / max(1, n))
        # bit v of reach[u] (of above[u]): v = u or u reaches v (v reaches u)
        reach = [1 << v for v in range(n)]
        above = [1 << v for v in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < chance and _one_path_with(reach, above, i, j):
                    arcs.append((i, j))
        times = tuple(rng.choice((0, 1, 1, 2, 3)) for _ in range(n))
        weights = tuple(rng.choice((0, 1, 2, 3, 4)) for _ in range(n))
    else:  # bipartite-or
        k = max(1, n // 2)
        for b in range(k, n):
            for a in rng.sample(range(k), rng.randint(0, min(3, k))):
                arcs.append((a, b))
        times = tuple(
            rng.randint(1, 4) if v < k else rng.choice((0, 0, 1)) for v in range(n)
        )
        weights = tuple(
            rng.choice((0, 0, 0, 1)) if v < k else rng.randint(1, 5) for v in range(n)
        )
    return OrDag(jobs, times, weights, tuple(sorted(arcs)))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _one_path_with(reach: list[int], above: list[int], i: int, j: int) -> bool:
    """Whether arc i -> j keeps at most one path between every ordered pair,
    given the reachability masks of a multitree over jobs numbered in
    topological order; if so, the masks are updated to include the arc.

    Every new path runs through the arc, and one of them doubles an old
    path exactly when i or an ancestor of i already reaches j or a
    descendant of j."""
    ancestors, below = above[i], reach[j]
    reached = 0
    for u in _bits(ancestors):
        reached |= reach[u]
    if reached & below:
        return False
    for u in _bits(ancestors):
        reach[u] |= below
    for v in _bits(below):
        above[v] |= ancestors
    return True


def _gen_rof(n: int, seed: int) -> ReadOnceFormula:
    rng = _rng("rof", n, seed)
    variables = list(range(1, n + 1))
    rng.shuffle(variables)

    def build(leaves: list[int]) -> Node:
        if len(leaves) == 1:
            return Leaf(leaves[0])
        split = rng.randint(1, len(leaves) - 1)
        return Gate(rng.choice(("and", "or")), build(leaves[:split]), build(leaves[split:]))

    root = build(variables)
    probs = {}
    costs = {}
    for v in range(1, n + 1):
        den = rng.randint(2, 8)
        probs[v] = Fraction(rng.randint(1, den - 1), den)
        costs[v] = rng.randint(1, 3)
    return ReadOnceFormula(root, probs, costs)


def _gen_xsearch(n: int, seed: int, extra: int | None = None) -> SearchGraph:
    if n < 2:
        raise BadParams("expanding search needs at least two vertices")
    rng = _rng("xsearch", n, seed)
    edges: list[tuple[int, int, Rational]] = []
    present = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, 4)))
        present.add((u, v))
    want_extra = extra if extra is not None else rng.randint(0, max(0, n - 2))
    candidates = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present
    ]
    for u, v in rng.sample(candidates, min(want_extra, len(candidates))):
        edges.append((u, v, rng.randint(1, 4)))
    mass = [rng.randint(0, 5) for _ in range(n)]
    if not any(mass):
        mass[rng.randrange(n)] = 1
    total = sum(mass)
    probs = {v: Fraction(mass[v], total) for v in range(n)}
    return SearchGraph(tuple(range(n)), 0, tuple(edges), probs)


_GENERATORS = {
    "mssc": partial(_gen_mssc, unit=True),
    "pipelined": partial(_gen_mssc, unit=False),
    "inforest": partial(_gen_ordag, kind="inforest"),
    "multitree": partial(_gen_ordag, kind="multitree"),
    "bipartite-or": partial(_gen_ordag, kind="bipartite-or"),
    "rof": _gen_rof,
    "xsearch": _gen_xsearch,
}
KINDS = tuple(_GENERATORS)


def gen_instance(kind: str, n: int, seed: int, **params):
    """Deterministic random instance of the requested kind and size."""
    generate = _GENERATORS.get(kind)
    if generate is None:
        raise BadParams(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if n < 1:
        raise BadParams("n must be at least 1")
    return generate(n, seed, **params)

