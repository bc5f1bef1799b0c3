"""Ordering under OR-precedence constraints given by a DAG.

A set of jobs is *OR-initial* when every member with predecessors contains
at least one of its direct predecessors; these sets form the (union-closed)
feasible family.  For inforests the inclusion-minimal maximum-density sets
are stems (paths starting at a source and following successor arcs), so the
exact density step enumerates all O(n^2) stems.  For multitrees they are
rooted subtrees of a source's successor outtree, solved by a parametric
ratio DP.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush, heapreplace
from typing import Callable

from .core import (
    DensityResult,
    DensitySolver,
    MsopInstance,
    Rational,
    compare_density,
    density,
)
from .errors import (
    CyclicInput,
    NoFeasibleSuperset,
    NotInforest,
    NotInitial,
    NotMultitree,
    ValidationError,
)
from .lattice import RunningOracle, Walk, bit_of, flags, lacking, modular, supply


@dataclass(frozen=True)
class OrDag:
    """Jobs with processing times, weights, and OR-precedence arcs.

    An arc (i, j) makes i a direct OR-predecessor of j: j may run once at
    least one of its predecessors has run.
    """

    jobs: tuple[int, ...]
    times: tuple[Rational, ...]
    weights: tuple[Rational, ...]
    arcs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.jobs)) != len(self.jobs):
            raise ValidationError("job ids must be distinct")
        if len(self.times) != len(self.jobs) or len(self.weights) != len(self.jobs):
            raise ValidationError("exactly one time and one weight per job")
        known = set(self.jobs)
        for p in self.times:
            if p < 0:
                raise ValidationError("processing times must be nonnegative")
        for w in self.weights:
            if w < 0:
                raise ValidationError("job weights must be nonnegative")
        seen_arcs: set[tuple[int, int]] = set()
        for i, j in self.arcs:
            if i not in known or j not in known:
                raise ValidationError(f"arc ({i}, {j}) references an unknown job")
            if i == j:
                raise CyclicInput(f"self-loop at job {i}")
            if (i, j) in seen_arcs:
                raise ValidationError(f"duplicate arc ({i}, {j})")
            seen_arcs.add((i, j))
        if len(self._topological) != len(self.jobs):
            raise CyclicInput("precedence graph contains a cycle")

    @cached_property
    def time_map(self) -> dict[int, Rational]:
        return dict(zip(self.jobs, self.times))

    @cached_property
    def weight_map(self) -> dict[int, Rational]:
        return dict(zip(self.jobs, self.weights))

    @cached_property
    def preds(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {j: [] for j in self.jobs}
        for i, j in self.arcs:
            out[j].append(i)
        return {j: tuple(sorted(ps)) for j, ps in out.items()}

    @cached_property
    def succs(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {j: [] for j in self.jobs}
        for i, j in self.arcs:
            out[i].append(j)
        return {j: tuple(sorted(ss)) for j, ss in out.items()}

    @cached_property
    def sources(self) -> tuple[int, ...]:
        return tuple(j for j in sorted(self.jobs) if not self.preds[j])

    @cached_property
    def _topological(self) -> tuple[int, ...]:
        """The jobs in Kahn's order, sources by ascending id first; on a
        cycle, only the jobs before it."""
        indeg = {j: len(self.preds[j]) for j in self.jobs}
        queue = deque(j for j in sorted(self.jobs) if indeg[j] == 0)
        out = []
        while queue:
            v = queue.popleft()
            out.append(v)
            for w in self.succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return tuple(out)

    @cached_property
    def _inforest(self) -> bool:
        """Every vertex has at most one successor."""
        return all(len(self.succs[j]) <= 1 for j in self.jobs)

    @cached_property
    def _multitree(self) -> bool:
        """At most one directed path between any ordered pair of vertices.

        Two paths from u to x part at some vertex into two successors that
        both reach a common vertex, and two such successors give two paths.
        So one pass in reverse topological order, over reachability
        bitmasks, rejects a vertex two of whose successors reach a common
        vertex."""
        bit = bit_of(self.jobs)
        reach: dict[int, int] = {}
        for v in reversed(self._topological):
            below = 0
            for w in self.succs[v]:
                if below & reach[w]:
                    return False
                below |= reach[w]
            reach[v] = below | bit[v]
        return True


def is_inforest(dag: OrDag) -> bool:
    """Every vertex has at most one successor (computed once per DAG)."""
    return dag._inforest


def is_multitree(dag: OrDag) -> bool:
    """At most one directed path between any ordered pair of vertices
    (computed once per DAG)."""
    return dag._multitree


def is_bipartite(dag: OrDag) -> bool:
    """All arcs go from one side of a partition to the other."""
    has_in = {j for _, j in dag.arcs}
    has_out = {i for i, _ in dag.arcs}
    return not (has_in & has_out)


def classify_dag(dag: OrDag) -> str:
    """Most specific shape label among outtree, intree, inforest, bipartite,
    multitree, general.

    When every job has at most one predecessor the DAG is a forest of
    outtrees, one per source, so it is connected exactly when it has one
    source; likewise an inforest is one intree per sink."""
    if all(len(dag.preds[j]) <= 1 for j in dag.jobs) and len(dag.sources) <= 1:
        return "outtree"
    if is_inforest(dag):
        return "intree" if sum(not dag.succs[j] for j in dag.jobs) == 1 else "inforest"
    if is_bipartite(dag):
        return "bipartite"
    if is_multitree(dag):
        return "multitree"
    return "general"


def or_initial_column(dag: OrDag, ground: tuple[int, ...]) -> bytearray:
    """Whether each subset is OR-initial, by bitmask over ``ground``: a set
    is OR-initial when each member with predecessors holds one of them.
    Built as a bitset (``lattice.lacking``): the AND, over the jobs j with
    predecessors, of the masks that lack j or hold a predecessor of j."""
    n = len(ground)
    full = (1 << (1 << n)) - 1
    absent = [lacking(n, i) for i in range(n)]
    index = {v: i for i, v in enumerate(ground)}
    bits = full
    for i, j in enumerate(ground):
        if dag.preds[j]:
            held = 0
            for p in dag.preds[j]:
                held |= absent[index[p]] ^ full
            bits &= absent[i] | held
    del absent  # before ``flags`` makes its copies, to keep the peak down
    return flags(bits, n)


class OrInitialMembership(RunningOracle):
    """Whether a set is OR-initial, as a running oracle: per job, how many
    of its predecessors are in the last set, and how many members have
    predecessors but none inside.  A call costs the arcs out of the jobs
    that came."""

    def __init__(self, dag: OrDag):
        super().__init__()
        self.dag = dag

    def reset(self) -> None:
        self.inside = dict.fromkeys(self.dag.jobs, 0)
        self.members: set[int] = set()
        self.stranded = 0

    def move(self, added) -> bool:
        preds, succs = self.dag.preds, self.dag.succs
        inside, members = self.inside, self.members
        stranded = self.stranded
        for v in added:
            if preds[v] and not inside[v]:  # an unknown job raises KeyError
                stranded += 1
            members.add(v)
            for w in succs[v]:
                if not inside[w] and w in members:
                    stranded -= 1
                inside[w] += 1
        self.stranded = stranded
        return not stranded

    def probe(self, walk: Walk, v: int) -> bool:
        """Whether the walk's set joined with job ``v`` is OR-initial, from
        the state at the walk's set, which stays: ``v`` must be a source or
        follow a member, and each member it follows that had no
        predecessor inside is no longer stranded.  O(arcs out of ``v``)."""
        self.advance(walk)  # the state at the walk's set
        inside, members, stranded = self.inside, self.members, self.stranded
        if self.dag.preds[v] and not inside[v]:
            stranded += 1
        for w in self.dag.succs[v]:
            if not inside[w] and w in members:
                stranded -= 1
        return not stranded


class _Ranked(tuple):
    """A kept candidate, ordered as by the exact key (-density, ``cand[2]``,
    start): the denser first, by ``compare_density`` (the cost-flat +inf
    sentinel before every finite density), then the smaller ``cand[2]``,
    then the smaller start ``cand[-2]``."""

    __slots__ = ()

    def __lt__(self, other: "_Ranked") -> bool:
        order = compare_density(self[0], self[1], other[0], other[1])
        return order > 0 or (order == 0 and (self[2], self[-2]) < (other[2], other[-2]))


class _Residual(OrInitialMembership):
    """Density steps on the residual DAG of a base as a running oracle: its
    value at an OR-initial base is the step, the best candidate of the
    residual sources by ``candidate`` (see ``move``).  The residual is
    read off the original DAG.

    ``closed`` holds the set and every job with a predecessor in it, and
    ``sources`` the residual sources: the jobs outside the set with no
    predecessor or with one in it.  A move closes the jobs that came and
    their successors, takes the jobs that came out of ``sources`` and puts
    in their successors outside the set.  A residual job's
    residual successors are its successors outside ``closed``; they are
    filtered only for the jobs a step visits, so no ``OrDag`` is built.

    ``heap`` holds one kept candidate per source, whose last fields hold
    the source and the candidate's other jobs, in candidate order; the
    entry of a job that left ``sources`` stays until it reaches the top.
    Jobs only ever leave a superset's residual, and its successor structure
    below the jobs that stay is unchanged, so a source's candidates shrink
    to a subfamily: a kept candidate never ranks behind its source's
    current best, and equals it while none of its jobs is closed.  So the
    heap is made current only at its top (``best``), as the heaps of
    ``mssc._Gains`` are, and a move marks ``dirty`` only the new sources,
    which a step must compute.
    """

    def __init__(self, dag: OrDag, candidate: Callable[["_Residual", int], tuple]):
        super().__init__(dag)
        self.candidate = candidate

    def reset(self) -> None:
        super().reset()
        self.closed: set[int] = set()
        self.sources = set(self.dag.sources)
        self.heap: list[_Ranked] = []
        self.dirty = set(self.sources)

    def move(self, added) -> DensityResult:
        """The step from the new set.  A candidate is (weight gain, time,
        *tie-break, start, jobs after start); the denser wins, then the
        smaller tie-break, then the smaller start, which is the heap order
        of ``_Ranked``.  ``candidate(self, start)`` computes a source's
        candidate at the set: it runs on the dirty sources, in ascending
        order, and then on each kept candidate that reaches the heap's top
        holding a closed job (``best``)."""
        if not super().move(added):
            raise NotInitial(f"{sorted(self.members)} is not an OR-initial set")
        succs, members = self.dag.succs, self.members
        closed, sources, dirty = self.closed, self.sources, self.dirty
        for v in added:
            closed.add(v)
            sources.discard(v)
            for w in succs[v]:
                closed.add(w)
                if w not in members and w not in sources:
                    sources.add(w)
                    dirty.add(w)
        if not sources:
            raise NoFeasibleSuperset("base already contains every job")
        heap, candidate = self.heap, self.candidate
        for start in sorted(dirty):
            if start in sources:
                heappush(heap, _Ranked(candidate(self, start)))
        dirty.clear()
        gain, spent, *_, start, below = self.best()
        return DensityResult(tuple(sorted((start, *below))), density(gain, spent))

    def best(self) -> tuple:
        """The kept candidate first in heap order, once the top is current:
        a top whose start has left ``sources`` is dropped, and one that
        holds a closed job is replaced by its start's fresh candidate."""
        heap, closed, sources = self.heap, self.closed, self.sources
        while True:
            top = heap[0]
            if top[-2] not in sources:
                heappop(heap)
            elif closed.isdisjoint(top[-1]):
                return top
            else:
                heapreplace(heap, _Ranked(self.candidate(self, top[-2])))

    def successor(self, v: int) -> int | None:
        """The first residual successor of ``v``, the only one in an inforest."""
        closed = self.closed
        for w in self.dag.succs[v]:
            if w not in closed:
                return w
        return None

    def successor_tree(self, root: int) -> dict[int, list[int]]:
        """Residual successors of each job reachable from ``root``, parents
        first."""
        closed = self.closed
        succs = self.dag.succs
        reach = [root]
        kids: dict[int, list[int]] = {}
        for v in reach:
            kids[v] = out = [w for w in succs[v] if w not in closed]
            reach.extend(out)
        if len(kids) != len(reach):  # pragma: no cover - impossible in a multitree
            raise NotMultitree("two paths meet inside a successor tree")
        return kids


def _best_prefix(state: _Residual, start: int) -> tuple[Rational, Rational, int, int, list[int]]:
    """The densest prefix of the stem from ``start``, shortest on ties: its
    weight gain, time, length, start and jobs after ``start``."""
    time = state.dag.time_map
    weight = state.dag.weight_map
    successor = state.successor
    stem: list[int] = []
    dg: Rational = 0
    time_sum: Rational = 0
    best: tuple[Rational, Rational, int] | None = None
    v: int | None = start
    while v is not None:
        stem.append(v)
        time_sum += time[v]
        dg += weight[v]
        if best is None or compare_density(dg, time_sum, best[0], best[1]) > 0:
            best = (dg, time_sum, len(stem))
        v = successor(v)
    assert best is not None
    dg, time_sum, length = best
    return dg, time_sum, length, start, stem[1:length]


def _best_ratio_subtree(
    dag: OrDag, root: int, kids: dict[int, list[int]]
) -> tuple[frozenset[int], Rational, Rational]:
    """Maximum weight/time rooted subtree of ``root``'s successor outtree,
    given as each vertex's children, parents first; ``root``'s time is
    positive.

    Parametric iteration: for a ratio guess W/T, a linear pass maximises
    T * weight - W * time over rooted subtrees (keep a child's subtree iff
    its value is strictly positive); the guess then moves to the achieved
    ratio.  The guess strictly increases through the finite set of subtree
    ratios, so this terminates at the exact optimum, and the strict
    inclusion rule makes the winning subtree inclusion-minimal.  T > 0, so
    the values have the signs of weight - (W/T) * time without a division.
    """
    time = dag.time_map
    weight = dag.weight_map
    order = list(reversed(kids))  # children before parents
    w_sum, t_sum = weight[root], time[root]
    while True:
        value: dict[int, Rational] = {}
        for v in order:
            acc = t_sum * weight[v] - w_sum * time[v]
            for w in kids[v]:
                if value[w] > 0:
                    acc += value[w]
            value[v] = acc
        chosen = [root]
        for v in chosen:
            chosen.extend(w for w in kids[v] if value[w] > 0)
        w_sum = sum(map(weight.__getitem__, chosen))
        t_sum = sum(map(time.__getitem__, chosen))
        if value[root] == 0:
            return frozenset(chosen), w_sum, t_sum


def _best_subtree(state: _Residual, start: int) -> tuple:
    """The best-ratio rooted subtree of ``start``'s residual successor
    outtree as a candidate; a zero-time ``start`` alone, a cost-flat step."""
    dag = state.dag
    if not dag.time_map[start]:
        return dag.weight_map[start], 0, start, ()
    subtree, w_sum, t_sum = _best_ratio_subtree(dag, start, state.successor_tree(start))
    return w_sum, t_sum, start, subtree - {start}


def to_msop(dag: OrDag) -> MsopInstance:
    """OR-scheduling as a min-sum ordering instance over the sorted jobs:
    OR-initial membership, and processing time and weight as modular cost
    and weight; each oracle supplies its column."""
    ground = tuple(sorted(dag.jobs))
    return MsopInstance(
        ground,
        supply(OrInitialMembership(dag), ground, lambda: or_initial_column(dag, ground)),
        modular(ground, lambda: dag.time_map),
        modular(ground, lambda: dag.weight_map),
        name="orsched",
    )


def stem_solver(dag: OrDag) -> DensitySolver:
    """Exact density steps on an inforest: the best stem of the residual
    DAG.

    A stem starts at a residual source and follows the (unique) successor
    arc, so there are O(n^2) of them; inclusion-minimal maximum-density
    OR-initial sets are stems whenever the weight is submodular and the
    cost is the sum of processing times.  Ties prefer the shortest stem,
    then the smallest start id.  The weights are the jobs' own (modular)
    weights, summed along each stem, so a stem's gains do not depend on
    the base.  Residuals of an inforest are inforests too, so the shape is
    checked once; the solver keeps the residual of its last base and each
    residual source's densest stem prefix while none of its jobs is
    closed (``_Residual``)."""
    if not is_inforest(dag):
        raise NotInforest("graph has a vertex with two successors")
    return _Residual(dag, _best_prefix)


def outtree_solver(dag: OrDag) -> DensitySolver:
    """Outtree density steps on a multitree with modular weights.

    For each residual source the candidate is the best-ratio rooted subtree
    of its successor outtree; the best source wins, smaller id on ties.
    A zero-time source is a cost-flat step alone, so it comes first.
    Residuals of a multitree are multitrees too, so the shape is checked
    once; the solver keeps the residual of its last base and each residual
    source's best subtree (``_Residual``).  The parametric DP returns the
    subtree its values pick at the optimal ratio, and those values do not
    change when jobs outside that subtree leave the tree.
    """
    if not is_multitree(dag):
        raise NotMultitree("graph has two paths between some pair of jobs")
    return _Residual(dag, _best_subtree)
