"""Min sum set cover and its weighted (pipelined) generalisation.

Elements 0..n-1 carry strictly positive costs, hyperedges carry nonnegative
weights.  The weight of a set of elements is the total weight of hyperedges
it touches; the covering cost of an ordering charges each hyperedge the
prefix cost up to its first covered element.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import Callable, Sequence

from .core import (
    DensityResult,
    DensitySolver,
    MsopInstance,
    Rational,
    compare_density,
    density,
)
from .errors import NoFeasibleSuperset, ValidationError
from .lattice import RunningOracle, bit_of, coverage_column, free, modular, supply

Hyperedges = Sequence[tuple[Rational, frozenset[int]]]


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


class CoverageWeight(RunningOracle):
    """Total weight of the hyperedges that meet a set, over the (weight,
    members) pairs that ``edges()`` returns, as a running oracle: the count
    of each hyperedge's members inside the last set, and per element the
    hyperedges through it, built on the first call.  A call costs the
    hyperedges through the elements that came."""

    def __init__(self, edges: Callable[[], Hyperedges]):
        super().__init__()
        self.edges = edges
        self.incident: dict[int, list[int]] | None = None

    def reset(self) -> None:
        if self.incident is None:
            edges = self.edges()
            self.incident = {}
            for e, (_, members) in enumerate(edges):
                for v in members:
                    self.incident.setdefault(v, []).append(e)
            self.weights = [w for w, _ in edges]
        self.count = [0] * len(self.weights)
        self.total: Rational = 0

    def move(self, added) -> Rational:
        incident, count, weights = self.incident, self.count, self.weights
        total = self.total
        for v in added:
            for e in incident.get(v, ()):
                if not count[e]:
                    total += weights[e]
                count[e] += 1
        self.total = total
        return total


def coverage(ground: tuple[int, ...], edges: Callable[[], Hyperedges]) -> CoverageWeight:
    """``CoverageWeight`` over ``edges()``, with its column over ``ground``;
    ``edges`` is called when the oracle is first called and when the
    column is built."""

    def column():
        bit = bit_of(ground)
        masks = [(w, sum(bit[v] for v in members)) for w, members in edges()]
        return coverage_column(len(ground), masks)

    return supply(CoverageWeight(edges), ground, column)


def to_msop(instance: MsscInstance) -> MsopInstance:
    """Free-family instance: modular costs, submodular coverage weight."""
    ground = tuple(range(instance.n))
    return MsopInstance(ground, free(ground),
                        modular(ground, lambda: dict(enumerate(instance.costs))),
                        coverage(ground, lambda: instance.edges), name="mssc")


class _Gains(RunningOracle):
    """Best-single-element density steps as a running oracle: its value at
    a base is the step, the element of most newly covered weight per unit
    cost with ties to the smallest id.  The state holds the base's
    per-element gains: the weight of the uncovered hyperedges through each
    element outside the base, -1 for a base member, and a count per
    hyperedge of its members in the base, as in ``CoverageWeight``, built
    on the first call.

    Each distinct cost keeps a heap of (-gain, element) entries, so its
    top is its first maximum gain by ascending id once the top is valid.
    An entry may overstate its element's gain but never understates it,
    since gains only fall as the base grows, so ``best`` needs to refresh
    only the tops, as in the lazy greedy for submodular coverage."""

    def __init__(self, instance: MsscInstance):
        super().__init__()
        self.instance = instance
        self.incident: list[list[int]] | None = None

    def reset(self) -> None:
        if self.incident is None:
            self.edges, n = self.instance.edges, self.instance.n
            self.ids = frozenset(range(n))
            self.incident = [[] for _ in range(n)]
            self.initial: list[Rational] = [0] * n
            for e, (w, members) in enumerate(self.edges):
                for v in members:
                    self.incident[v].append(e)
                    self.initial[v] += w
            groups: dict[Rational, list[int]] = {}
            for v, c in enumerate(self.instance.costs):
                groups.setdefault(c, []).append(v)
            self.class_costs, self.classes = list(groups), list(groups.values())
        self.gain = gain = self.initial.copy()
        self.count = [0] * len(self.edges)
        self.heaps = [[(-gain[v], v) for v in members] for members in self.classes]
        for heap in self.heaps:
            heapify(heap)

    def move(self, added) -> DensityResult:
        if not self.ids.issuperset(added):  # an id outside range(n), negative ones too
            raise NoFeasibleSuperset("base already contains every element")
        gain, count, edges, incident = self.gain, self.count, self.edges, self.incident
        for v in added:
            for e in incident[v]:
                if not count[e]:
                    w, members = edges[e]
                    for u in members:
                        gain[u] -= w
                count[e] += 1
        for v in added:
            gain[v] = -1
        v, g, c = self.best()
        return DensityResult((v,), density(g, c))

    def best(self) -> tuple[int, Rational, Rational]:
        """The element of best gain per unit cost, with its gain and cost,
        ties to the smallest id.  Each heap's top is made valid first: an
        entry of a base member is dropped, and one that overstates its
        element's gain is replaced by the element's current entry."""
        gain = self.gain
        best = None
        for c, heap in zip(self.class_costs, self.heaps):
            while heap:
                g, v = heap[0]
                now = gain[v]
                if now < 0:
                    heappop(heap)
                elif now != -g:
                    heapreplace(heap, (-now, v))
                else:
                    break
            if not heap:  # the whole group is in the base
                continue
            g = -g
            if best is None:
                best = (v, g, c)
                continue
            order = compare_density(g, c, best[1], best[2])
            if order > 0 or (order == 0 and v < best[0]):
                best = (v, g, c)
        if best is None:
            raise NoFeasibleSuperset("base already contains every element")
        return best


def singleton_solver(instance: MsscInstance) -> DensitySolver:
    """Best-single-element density steps (``_Gains``).  Exact for the
    maximum density here (modular cost, submodular weight, free family), so
    greedy chains built from it are 1-greedy.  Driven up a greedy chain by
    each added element (``RunningOracle.advance``), a step costs the size
    of the hyperedges it covers plus O(cost classes + log n per refreshed
    heap top); a base that is not a superset of the last one is rebuilt
    from scratch, O(n + total hyperedge size)."""
    return _Gains(instance)
