"""Expanding search on an edge-weighted rooted graph.

The ground set is the edge set; a set of edges is feasible when it forms a
connected subgraph containing the root (or is empty).  The cost is the sum
of edge costs; the weight of an edge set is the probability mass of the
non-root vertices it touches.  The root's own mass is found at time zero
and would only shift every objective value by the same constant, so it is
dropped from the weight oracle.  That weight is a coverage: each non-root
vertex is a hyperedge over the edges that touch it, weighted by its mass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import MsopInstance, Rational
from .errors import DisconnectedInput, ValidationError
from .lattice import modular, supply, union_column
from .mssc import coverage


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


def _feasible_column(graph: SearchGraph) -> bytearray:
    """Feasibility of every edge set, by bitmask over the edges.  A
    nonempty edge set is feasible when some edge of it touches the root or
    the vertices of the rest, the rest being feasible; so feasibility
    spreads from each feasible set to its union with every edge touching
    the root or its vertices."""
    bit = {v: 1 << i for i, v in enumerate(graph.vertices)}
    ends = [bit[u] | bit[v] for u, v, _ in graph.edges]
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


def xsearch_to_msop(graph: SearchGraph) -> MsopInstance:
    """Edge-set ordering instance; edges are indexed in input order."""
    if not graph.edges:
        raise ValidationError("graph has no edges to search")

    def in_family(s: frozenset[int]) -> bool:
        reached, remaining = {graph.root}, set(s)
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

    def touched():
        """Each non-root vertex's mass and the edges that touch it."""
        edges: dict[int, list[int]] = {v: [] for v in graph.vertices}
        for e, (u, v, _) in enumerate(graph.edges):
            edges[u].append(e)
            edges[v].append(e)
        return [(graph.probs[v], frozenset(es)) for v, es in edges.items() if v != graph.root]

    ground = tuple(range(len(graph.edges)))
    return MsopInstance(
        ground,
        supply(in_family, ground, lambda: _feasible_column(graph)),
        modular(ground, lambda: {e: c for e, (_, _, c) in enumerate(graph.edges)}),
        coverage(ground, touched),
        name="xsearch",
    )
