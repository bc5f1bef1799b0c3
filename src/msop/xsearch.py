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
from itertools import compress

from .core import MsopInstance, Rational
from .errors import DisconnectedInput, ValidationError
from .lattice import modular, modular_column, supply, union_column
from .mssc import CoverageWeight


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


def _columns(graph: SearchGraph) -> dict[str, object]:
    """The feasibility and weight columns, by bitmask over the edges, both
    read off the touched column: the non-root vertices that each edge set
    touches, by bitmask over them.  The root has no bit, so the edges at
    it reach every set and its mass is never counted.  A nonempty edge set
    is feasible when some edge of it touches the root or the vertices of
    the rest, the rest being feasible; so feasibility spreads from each
    feasible set to its union with every edge at the root or at a vertex
    it touches.  A set's weight is the mass of the vertices it touches.

    The touched column is kept as two union columns, over the lower and
    the upper half of the edges, whose entries are ORed where they are
    read: a column of 2^n vertex masks would hold an int per edge set."""
    others = [v for v in graph.vertices if v != graph.root]
    bit = {graph.root: 0} | {v: 1 << i for i, v in enumerate(others)}
    at = dict.fromkeys(graph.vertices, 0)  # vertex -> mask of its edges
    for e, (u, v, _) in enumerate(graph.edges):
        at[u] |= 1 << e
        at[v] |= 1 << e
    n = len(graph.edges)
    half = n // 2
    ends = [bit[u] | bit[v] for u, v, _ in graph.edges]
    lower, upper = union_column(ends[:half], 0), union_column(ends[half:], 0)
    below = (1 << half) - 1
    # vertex mask -> the edges at the root or at one of its vertices, for
    # the masks that feasible sets touch
    reach: dict[int, int] = {}

    def reach_of(t: int) -> int:
        edges, rest = at[graph.root], t
        while rest:
            low = rest & -rest
            edges |= at[others[low.bit_length() - 1]]
            rest ^= low
        reach[t] = edges
        return edges

    feasible = bytearray(1 << n)
    feasible[0] = 1
    # ``compress`` reads each flag when it comes to it, so it sees the
    # flags that smaller feasible masks set
    for m in compress(range(1 << n), feasible):
        t = upper[m >> half] | lower[m & below]
        grow = (reach.get(t) or reach_of(t)) & ~m
        while grow:
            low = grow & -grow
            feasible[m | low] = 1
            grow ^= low
    mass, scale = modular_column([graph.probs[v] for v in others])
    return {"feasible": feasible,
            "weight": ([mass[high | low] for high in upper for low in lower], scale)}


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

    def hyperedges():
        """Each non-root vertex's mass and the edges that touch it."""
        edges: dict[int, list[int]] = {v: [] for v in graph.vertices}
        for e, (u, v, _) in enumerate(graph.edges):
            edges[u].append(e)
            edges[v].append(e)
        return [(graph.probs[v], frozenset(es)) for v, es in edges.items() if v != graph.root]

    built = None  # both columns, built together by the first builder called

    def column(name: str):
        nonlocal built
        built = built or _columns(graph)
        return built[name]

    ground = tuple(range(len(graph.edges)))
    return MsopInstance(
        ground,
        supply(in_family, ground, lambda: column("feasible")),
        modular(ground, lambda: {e: c for e, (_, _, c) in enumerate(graph.edges)}),
        supply(CoverageWeight(hyperedges), ground, lambda: column("weight")),
        name="xsearch",
    )
