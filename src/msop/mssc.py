"""Min sum set cover and its weighted (pipelined) generalisation.

Elements 0..n-1 carry strictly positive costs, hyperedges carry nonnegative
weights.  The weight of a set of elements is the total weight of hyperedges
it touches; the covering cost of an ordering charges each hyperedge the
prefix cost up to its first covered element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    DensityResult,
    DensitySolver,
    MsopInstance,
    Permutation,
    Rational,
    StructuralFlags,
    order_of,
)
from .errors import NoFeasibleSuperset, ValidationError
from .lattice import coverage_column, free_family, modular_column, supply


@dataclass(frozen=True)
class MsscInstance:
    n: int
    costs: tuple[Rational, ...]
    edges: tuple[tuple[Rational, frozenset[int]], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one element")
        if len(self.costs) != self.n:
            raise ValidationError("exactly one cost per element")
        for v, c in enumerate(self.costs):
            if c <= 0:
                raise ValidationError(f"element {v} has non-positive cost {c}")
        for w, members in self.edges:
            if w < 0:
                raise ValidationError("hyperedge weights must be nonnegative")
            if not members:
                raise ValidationError("hyperedges must be nonempty")
            for v in members:
                if not 0 <= v < self.n:
                    raise ValidationError(f"hyperedge references unknown element {v}")

    @classmethod
    def unit(cls, n: int, edges: Sequence[frozenset[int]]) -> "MsscInstance":
        """Plain min sum set cover: unit costs, unit weights."""
        return cls(n, (1,) * n, tuple((1, frozenset(e)) for e in edges))


def coverage_weight(instance: MsscInstance, s: frozenset[int]) -> Rational:
    """Total weight of hyperedges containing at least one element of ``s``."""
    total: Rational = 0
    for w, members in instance.edges:
        if not members.isdisjoint(s):
            total += w
    return total


def covering_cost(instance: MsscInstance, permutation: Permutation | Sequence[int]) -> Rational:
    """Weighted sum over hyperedges of the prefix cost at first coverage."""
    order = order_of(permutation)
    if sorted(order) != list(range(instance.n)):
        raise ValidationError("permutation must arrange all elements")
    position = {v: i for i, v in enumerate(order)}
    prefix_cost: list[Rational] = []
    running: Rational = 0
    for v in order:
        running += instance.costs[v]
        prefix_cost.append(running)
    total: Rational = 0
    for w, members in instance.edges:
        total += w * prefix_cost[min(position[v] for v in members)]
    return total


def to_msop(instance: MsscInstance) -> MsopInstance:
    """Free-family instance: modular costs, submodular coverage weight.
    All three oracles supply their lattice columns."""
    n = instance.n
    ground = tuple(range(n))

    cost_of = instance.costs.__getitem__

    def cost(s: frozenset[int]) -> Rational:
        return sum(map(cost_of, s))

    def weight(s: frozenset[int]) -> Rational:
        return coverage_weight(instance, s)

    def edge_masks():
        return [(w, sum(1 << v for v in members)) for w, members in instance.edges]

    return MsopInstance(
        ground,
        supply(lambda s: True, ground, lambda: free_family(n)),
        supply(cost, ground, lambda: modular_column(instance.costs)),
        supply(weight, ground, lambda: coverage_column(n, edge_masks())),
        StructuralFlags(
            union_closed=True,
            intersection_closed=True,
            f_modular=True,
            g_submodular=True,
        ),
        name="mssc",
    )


def singleton_greedy_density(instance: MsscInstance, base: frozenset[int]) -> DensityResult:
    """Best single element by newly-covered weight per unit cost.

    Exact for the maximum-density problem here (modular cost, submodular
    weight, free family), so greedy chains built from it are 1-greedy.
    Ties go to the smallest element id.  Each uncovered hyperedge adds its
    weight to the gain of its members, so a step costs O(sum of hyperedge
    sizes); densities are compared by cross-multiplication.
    """
    base = frozenset(base)
    if not base < frozenset(range(instance.n)):
        raise NoFeasibleSuperset("base already contains every element")
    gain: list[Rational] = [0] * instance.n
    for w, members in instance.edges:
        if members.isdisjoint(base):
            for v in members:
                gain[v] += w
    costs = instance.costs
    best = min(v for v in range(instance.n) if v not in base)
    for v in range(best + 1, instance.n):
        # strict, so the smallest id keeps ties
        if v not in base and gain[v] * costs[best] > gain[best] * costs[v]:
            best = v
    return DensityResult(base, base | {best}, Fraction(gain[best], costs[best]), 1)


def singleton_solver(instance: MsscInstance) -> DensitySolver:
    def solve(base: frozenset[int]) -> DensityResult:
        return singleton_greedy_density(instance, base)

    return solve
