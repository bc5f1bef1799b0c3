"""Expanding search on an edge-weighted rooted graph.

The ground set is the edge set; a set of edges is feasible when it forms a
connected subgraph containing the root (or is empty).  The cost is the sum
of edge costs; the weight of an edge set is the probability mass of the
non-root vertices it touches.  The root's own mass is found at time zero
and would only shift every objective value by the same constant, so it is
dropped from the weight oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .core import MsopInstance, Rational
from .errors import DisconnectedInput, ValidationError
from .lattice import IntColumn, int_column, modular_column, supply, union_column


@dataclass(frozen=True)
class SearchGraph:
    vertices: tuple[int, ...]
    root: int
    edges: tuple[tuple[int, int, Rational], ...]  # (endpoint, endpoint, cost > 0)
    probs: dict[int, Rational]

    def __post_init__(self):
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValidationError("vertex ids must be distinct")
        if self.root not in known:
            raise ValidationError("root must be a vertex")
        seen_pairs = set()
        for u, v, c in self.edges:
            if u not in known or v not in known:
                raise ValidationError(f"edge ({u}, {v}) references an unknown vertex")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if c <= 0:
                raise ValidationError(f"edge ({u}, {v}) needs a positive cost")
            pair = (min(u, v), max(u, v))
            if pair in seen_pairs:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            seen_pairs.add(pair)
        if set(self.probs) != known:
            raise ValidationError("exactly one probability per vertex")
        total: Rational = 0
        for v, p in self.probs.items():
            if p < 0:
                raise ValidationError(f"vertex {v} has negative probability")
            total += p
        if total != 1:
            raise ValidationError(f"vertex probabilities sum to {total}, not 1")
        if len(self.vertices) > 1:
            adj: dict[int, list[int]] = {v: [] for v in self.vertices}
            for u, v, _ in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            seen = {self.root}
            queue = deque((self.root,))
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
            if len(seen) != len(self.vertices):
                raise DisconnectedInput("graph is not connected")

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...], int, dict[int, int]]:
        """Edge costs over the lcm of their denominators, then vertex
        probabilities over theirs, as ``(lcm, numerators)`` pairs; the
        root's numerator is 0, since the weight oracle leaves it out."""
        cost_den = lcm(*(c.denominator for _, _, c in self.edges))
        costs = tuple(c.numerator * (cost_den // c.denominator) for _, _, c in self.edges)
        prob_den = lcm(*(p.denominator for p in self.probs.values()))
        probs = {v: p.numerator * (prob_den // p.denominator) for v, p in self.probs.items()}
        probs[self.root] = 0
        return cost_den, costs, prob_den, probs


def _vertex_bits(graph: SearchGraph) -> tuple[dict[int, int], list[int]]:
    """A bit per vertex, and each edge's two endpoint bits as one mask."""
    bit = {v: 1 << i for i, v in enumerate(graph.vertices)}
    return bit, [bit[u] | bit[v] for u, v, _ in graph.edges]


def _feasible_column(graph: SearchGraph) -> bytearray:
    """Feasibility of every edge set, by bitmask over the edges.  A
    nonempty edge set is feasible when some edge of it touches the root or
    the vertices of the rest, the rest being feasible; so feasibility
    spreads from each feasible set to its union with every edge touching
    the root or its vertices."""
    bit, ends = _vertex_bits(graph)
    incident = dict.fromkeys(bit.values(), 0)  # vertex bit -> mask of its edges
    for e, pair in enumerate(ends):
        incident[pair & -pair] |= 1 << e
        incident[pair & (pair - 1)] |= 1 << e
    reachable = union_column(
        [incident[pair & -pair] | incident[pair & (pair - 1)] for pair in ends],
        incident[bit[graph.root]],
    )
    feasible = bytearray(len(reachable))
    feasible[0] = 1
    for m, edges in enumerate(reachable):
        if feasible[m]:
            grow = edges & ~m
            while grow:
                low = grow & -grow
                feasible[m | low] = 1
                grow ^= low
    return feasible


def _weight_column(graph: SearchGraph) -> tuple[IntColumn, int]:
    """Scaled mass of the non-root vertices each edge set touches: adding
    an edge adds the mass of those of its endpoints the set did not touch."""
    _, _, den, probs = graph._scaled
    bit, ends = _vertex_bits(graph)
    mass = {b: probs[v] for v, b in bit.items()}
    touched = union_column(ends)
    weight = int_column([0], den)
    for pair in ends:
        u, v = pair & -pair, pair & (pair - 1)
        mu, mv = mass[u], mass[v]
        weight.extend([
            w + (0 if t & u else mu) + (0 if t & v else mv)
            for w, t in zip(weight, touched)
        ])
    return weight, den


def xsearch_to_msop(graph: SearchGraph) -> MsopInstance:
    """Edge-set ordering instance; edges are indexed in input order."""
    m = len(graph.edges)
    if m == 0:
        raise ValidationError("graph has no edges to search")

    def in_family(s: frozenset[int]) -> bool:
        if not s:
            return True
        reached = {graph.root}
        remaining = set(s)
        grew = True
        while grew and remaining:
            grew = False
            for idx in list(remaining):
                u, v, _ = graph.edges[idx]
                if u in reached or v in reached:
                    reached.add(u)
                    reached.add(v)
                    remaining.discard(idx)
                    grew = True
        return not remaining

    # both oracles sum integer numerators and build at most one Fraction
    def cost(s: frozenset[int]) -> Rational:
        den, costs, _, _ = graph._scaled
        total = sum(costs[idx] for idx in s)
        return total if den == 1 else Fraction(total, den)

    def weight(s: frozenset[int]) -> Rational:
        _, _, den, probs = graph._scaled
        touched: set[int] = set()
        for idx in s:
            u, v, _ = graph.edges[idx]
            touched.add(u)
            touched.add(v)
        total = sum(probs[v] for v in touched)
        return total if den == 1 else Fraction(total, den)

    ground = tuple(range(m))
    return MsopInstance(
        ground,
        supply(in_family, ground, lambda: _feasible_column(graph)),
        supply(cost, ground, lambda: modular_column([c for _, _, c in graph.edges])),
        supply(weight, ground, lambda: _weight_column(graph)),
        name="xsearch",
    )
