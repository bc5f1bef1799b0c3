"""Every subset's family membership, cost and weight, as bitmask columns.

The exhaustive oracles (the exhaustive density step and the permutation and
chain DPs) read one ``Lattice`` per instance, and so does the certification
(``exact.check_ratio``), which reads both of its chains' costs and weights
off the same integer columns and divides by the scales once per result.
A subset is a bitmask over the instance's ground-set order: bit i stands
for ``ground_set[i]`` (``bit_of`` and ``ids_in`` translate).  The
feasibility column is a ``bytearray``; the cost and weight columns are
lists of ints, each scaled by one positive integer, so a set's cost is
``cost[mask] / cost_scale`` and its weight ``weight[mask] / weight_scale``.
Cost and weight are only meaningful on feasible masks.  A list hands out
the ints it holds, where a machine-word ``array`` makes a new int at each
read; values below 257 are ints Python shares, and larger ones cost about
28 bytes a mask on top of the list's 8.

An adapter that knows how its oracles are built supplies their columns:
``supply`` attaches a column builder to the oracle function itself, so the
column travels with the function, and ``dataclasses.replace(instance,
weight=...)`` drops the weight column and keeps the other two.  The shared
shapes come with their columns from one place each: ``free`` (every subset
feasible), ``modular`` (a sum of per-element values) and
``mssc.coverage`` (the weight of the hyperedges a set meets).  A column
with no builder comes from one sweep over the oracles, which builds each
subset from a smaller one and calls cost and weight only on feasible sets.

The oracles themselves answer one set at a time.  Those that would redo
the whole set at each call are ``RunningOracle``s, which move forward
only: from the last set asked about by the elements that came, or,
following a ``Walk``, a set that grows in place, by its last increment
(``advance``); any other set is rebuilt from the empty set.  The density
solvers are running oracles too, whose value at a base is the step; the
exhaustive one (``exact.exact_density_solver``) keeps the base's bitmask.

The builders here are recurrences over one set bit: masks 2^i..2^(i+1)-1
are the masks below 2^i with bit i added, so a column grows in blocks,
each block computed from the one before by a list comprehension.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .core import MsopInstance

IntColumn = list[int]
Scaled = tuple[IntColumn, int]  # (column, scale): value = column[mask] / scale


class Walk:
    """A set grown in place by increments, for the running oracles that
    follow it: ``members`` holds the set and ``added`` its last increment.
    Each ``grow`` makes a new ``token`` and keeps the last one as
    ``previous``, so an oracle last moved to the set before the growth
    knows, by comparing tokens by identity, that ``added`` alone leads to
    the set now.  ``grow`` takes an increment that misses the set."""

    def __init__(self):
        self.members: set[int] = set()
        self.added: tuple[int, ...] = ()
        self.token = object()
        self.previous: object | None = None
        self._frozen: frozenset[int] | None = frozenset()

    def grow(self, added: tuple[int, ...]) -> None:
        self.members.update(added)
        self.added = added
        self.previous, self.token = self.token, object()
        self._frozen = None

    def frozen(self) -> frozenset[int]:
        """The set as a frozenset, built at most once per growth, for the
        oracles that take a set."""
        if self._frozen is None:
            self._frozen = frozenset(self.members)
        return self._frozen


class RunningOracle:
    """A set function that keeps its value for the last set it was asked
    about and moves forward from it by the elements that came.

    Called with a set ``s``, it moves by ``s - last`` when the last set is
    a subset of ``s``, and otherwise rebuilds from the empty set: the
    dual's complements, which shrink, and out-of-order callers rebuild.  A
    walk (``Walk``) asks through ``advance``, which moves by the walk's
    increment alone, and a family oracle answers ``probe`` about one more
    element.

    Subclasses hold the state: ``reset()`` empties it and ``move(added)``
    applies the elements that came and returns the value at the new set.
    An argument that is not a ``frozenset`` is frozen before it is kept,
    since its caller may change it later.  ``rebuilds`` counts the moves
    that started from the empty set.
    """

    def __init__(self):
        self.last: frozenset[int] | None = None  # the last set asked about
        self.at: object | None = None  # the token of the last walk set
        self.value = None
        self.rebuilds = 0

    def __call__(self, s):
        if type(s) is not frozenset:
            s = frozenset(s)
        last = self.last
        if s is last:
            return self.value
        added = s if last is None else s - last
        grows = last is not None and len(last) + len(added) == len(s)  # last <= s
        if grows and not added:
            self.last = s
            return self.value
        # a move that raises leaves a state nothing may trust
        self.last = self.at = None
        if not grows:
            self.rebuilds += 1
            self.reset()
            added = s
        self.value = self.move(added)
        self.last = s
        return self.value

    def advance(self, walk: Walk):
        """The value at the walk's set.  One last moved to the walk's
        previous set moves by the walk's increment, O(|increment|); one
        already there answers at once; any other is rebuilt from the
        walk's members.  No set is built."""
        at = self.at
        if at is walk.previous and at is not None:
            self.at = None  # as in ``__call__``; ``last`` is None already
            self.value = self.move(walk.added)
        elif at is not walk.token:
            self.last = self.at = None
            self.rebuilds += 1
            self.reset()
            self.value = self.move(walk.members)
        else:
            return self.value
        self.at = walk.token
        return self.value

    def probe(self, walk: Walk, v: int):
        """The value at the walk's set joined with ``v``, which it misses.
        Asked here with that set, which moves the state; a family oracle
        answers from the state at the walk's set instead, and keeps it."""
        return self(walk.frozen() | {v})


def stepper(oracle: Callable) -> Callable[[Walk], object]:
    """``oracle`` as a function of a walk: a running oracle's ``advance``;
    any other function is called with the walk's set, built once per
    growth for all of them (``Walk.frozen``)."""
    if isinstance(oracle, RunningOracle):
        return oracle.advance
    return lambda walk: oracle(walk.frozen())


def prober(oracle: Callable) -> Callable[[Walk, int], object]:
    """``oracle`` as a function of a walk and one element outside it: a
    running oracle's ``probe``; any other function is called with the walk's
    set joined with the element."""
    if isinstance(oracle, RunningOracle):
        return oracle.probe
    return lambda walk, v: oracle(walk.frozen() | {v})


def bit_of(ground: tuple[int, ...]) -> dict[int, int]:
    """Each id of ``ground`` -> its bit, the bit i of ``ground[i]``."""
    return {v: 1 << i for i, v in enumerate(ground)}


def ids_in(ground: tuple[int, ...], mask: int) -> list[int]:
    """The ids of the bits of ``mask``, by ascending bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(ground[low.bit_length() - 1])
        mask ^= low
    return out


@dataclass(frozen=True)
class Lattice:
    feasible: bytearray
    cost: IntColumn
    cost_scale: int
    weight: IntColumn
    weight_scale: int


def supply(oracle: Callable, ground: tuple[int, ...], build: Callable[[], object]) -> Callable:
    """Attach ``build`` to ``oracle`` as the builder of its column over
    ``ground``; returns ``oracle``.  ``build()`` returns a feasibility
    ``bytearray`` for a family oracle and a ``(column, scale)`` pair for a
    cost or weight oracle."""
    oracle.lattice_column = (ground, build)
    return oracle


def _supplied(oracle: Callable, ground: tuple[int, ...]):
    found = getattr(oracle, "lattice_column", None)
    if found is None or found[0] != ground:
        return None
    return found[1]()


def build_lattice(instance: "MsopInstance") -> Lattice:
    ground = instance.ground_set
    feasible = _supplied(instance.in_family, ground)
    cost = _supplied(instance.cost, ground)
    weight = _supplied(instance.weight, ground)
    if feasible is None or cost is None or weight is None:
        feasible, cost, weight = _sweep(instance, feasible, cost, weight)
    return Lattice(feasible, cost[0], cost[1], weight[0], weight[1])


def _sweep(instance: "MsopInstance", feasible, cost, weight):
    """The missing columns from the oracles.  Masks are visited depth first,
    each set built from its parent by adding one element above the
    parent's highest bit, so at most O(n^2) sets are alive at once."""
    ground = instance.ground_set
    n = len(ground)
    size = 1 << n
    sweep_family = feasible is None
    if sweep_family:
        feasible = bytearray(size)
    costs = [0] * size if cost is None else None
    weights = [0] * size if weight is None else None
    stack = [(0, frozenset(), 0)]
    while stack:
        mask, s, start = stack.pop()
        if sweep_family:
            feasible[mask] = bool(instance.in_family(s))
        if feasible[mask]:
            if costs is not None:
                costs[mask] = instance.cost(s)
            if weights is not None:
                weights[mask] = instance.weight(s)
        stack.extend((mask | 1 << i, s | {ground[i]}, i + 1) for i in range(start, n))
    return (
        feasible,
        cost if costs is None else _scaled(costs),
        weight if weights is None else _scaled(weights),
    )


def _scaled(values: Sequence) -> tuple[list[int], int]:
    """Rationals as ints over the lcm of their denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class Everything(RunningOracle):
    """The family of every subset: true at any set, asked in any way, so a
    walk asks it nothing and keeps no state."""

    def __call__(self, s) -> bool:
        return True

    def advance(self, walk: Walk) -> bool:
        return True

    def probe(self, walk: Walk, v: int) -> bool:
        return True


def free(ground: tuple[int, ...]) -> Callable:
    """The family of every subset of ``ground``, with its column."""
    return supply(Everything(), ground, lambda: bytearray(b"\x01") * (1 << len(ground)))


def modular(ground: tuple[int, ...], values: Callable[[], Mapping]) -> Callable:
    """The oracle S -> sum of ``values()[v]`` over the members v of S, a
    ``RunningSum``, with its column over ``ground``.  ``values`` is called
    once, at the first use, so that nothing is built before; an id it does
    not map raises."""
    get = None  # values().__getitem__ from the first use on

    def table() -> Callable:
        nonlocal get
        get = get or values().__getitem__
        return get

    # the column builder reaches the values through ``table`` alone: a
    # reference to the oracle would make a cycle that only the cyclic
    # garbage collector frees
    def column() -> Scaled:
        return modular_column(list(map(table(), ground)))

    return supply(RunningSum(table), ground, column)


class RunningSum(RunningOracle):
    """S -> the sum of ``table()(v)`` over the members v of S, as a running
    oracle: a move adds the values of the elements that came."""

    def __init__(self, table: Callable[[], Callable]):
        super().__init__()
        self.table = table

    def reset(self) -> None:
        self.get = self.table()
        self.total = 0

    def move(self, added):
        self.total += sum(map(self.get, added))
        return self.total


def modular_column(values: Sequence) -> Scaled:
    """Column of S -> sum of ``values[i]`` over the bits i of S:
    ``col[m | 1 << i] = col[m] + values[i]`` for every m below 2^i."""
    ints, scale = _scaled(values)
    col = [0]
    for c in ints:
        col += [x + c for x in col]
    return col, scale


def coverage_column(n: int, edges: Sequence[tuple[object, int]]) -> Scaled:
    """Column of S -> total weight of the hyperedges that meet S, for
    ``edges`` given as (weight, member mask).  Adding bit i to a mask m
    below 2^i gains the hyperedges through i that miss m; their gain
    depends only on m's bits inside those hyperedges, and is tabulated
    once per block over the submasks of that union."""
    ints, scale = _scaled([w for w, _ in edges])
    col = [0]
    for i in range(n):
        bit = 1 << i
        through = [(w, members & (bit - 1)) for w, (_, members) in zip(ints, edges)
                   if members & bit]
        below = 0
        for _, lower in through:
            below |= lower
        gains = {}
        sub = below
        while True:
            gains[sub] = sum(w for w, lower in through if not lower & sub)
            if not sub:
                break
            sub = (sub - 1) & below
        col.extend([x + gains[m & below] for m, x in enumerate(col)])
    return col, scale


def union_column(parts: Sequence[int], start: int) -> IntColumn:
    """Column of S -> ``start`` | the OR of ``parts[i]`` over the bits i of
    S."""
    col = [start]
    for part in parts:
        col += [x | part for x in col]
    return col


def complemented(column: IntColumn, scale: int) -> Scaled:
    """Column of S -> value(V) - value(V \\ S), over the same scale: the
    complement of mask m is the full mask minus m, so it reads ``column``
    backwards."""
    top = column[-1]
    return [top - x for x in reversed(column)], scale
