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

from .core import MsopInstance, Rational, StructuralFlags
from .errors import DisconnectedInput, ValidationError


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

    return MsopInstance(
        tuple(range(m)),
        in_family,
        cost,
        weight,
        StructuralFlags(union_closed=True, f_modular=True, g_submodular=True),
        name="xsearch",
    )
