"""Chains of feasible sets, and greedy chain construction by density steps.

An instance carries a finite ground set, a feasibility oracle over subsets,
and two monotone set-value oracles, both zero on the empty set: a *cost* and
a *weight*.  The quantity minimised over increasing chains
emptyset = S_0 < S_1 < ... < S_k = V of feasible sets is

    sum_j cost(S_j) * (weight(S_j) - weight(S_{j-1}))

Every value is an exact rational (int or Fraction); ``math.inf`` appears
only as the sentinel density of cost-flat steps and never enters arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice
from typing import Callable

from .errors import (
    InvalidChain,
    NonMonotone,
    NotASuperset,
    NotInFamily,
    NotWellFounded,
    SolverStall,
    ValidationError,
)
from .lattice import Lattice, Walk, build_lattice, prober, stepper

Rational = int | Fraction
Density = int | Fraction | float  # float solely for the +inf sentinel
Values = tuple[tuple[Rational, ...], tuple[Rational, ...]]  # costs, weights
INF = math.inf

SetFn = Callable[[frozenset[int]], Rational]
FamilyFn = Callable[[frozenset[int]], bool]


@dataclass(frozen=True)
class MsopInstance:
    """Ground set plus feasibility, cost and weight oracles."""

    ground_set: tuple[int, ...]
    in_family: FamilyFn
    cost: SetFn
    weight: SetFn
    name: str = "msop"

    def __post_init__(self):
        if not self.ground_set:
            raise ValidationError("ground set is empty")
        if len(set(self.ground_set)) != len(self.ground_set):
            raise ValidationError("ground set has repeated elements")

    @property
    def n(self) -> int:
        return len(self.ground_set)

    @cached_property
    def lattice(self) -> Lattice:
        """Membership, cost and weight of all 2^n subsets (see
        ``msop.lattice``), built on first use and kept with the instance;
        ``dataclasses.replace`` makes an instance without it."""
        return build_lattice(self)

    def universe(self) -> frozenset[int]:
        return frozenset(self.ground_set)

    def validate(self) -> None:
        empty = frozenset()
        if not self.in_family(empty) or not self.in_family(self.universe()):
            raise ValidationError("family must contain the empty set and the full ground set")
        if self.cost(empty) != 0 or self.weight(empty) != 0:
            raise ValidationError("cost and weight must vanish on the empty set")


def _disjoint_sorted(increments: tuple[tuple[int, ...], ...]) -> bool:
    """Whether every increment is a nonempty sorted tuple and no id occurs
    twice, in one pass: the ids are distinct exactly when there are as
    many of them as the increments' sizes add up to."""
    ids: set[int] = set()
    for increment in increments:
        if (type(increment) is not tuple or not increment
                or len(increment) > 1 and list(increment) != sorted(increment)):
            return False
        ids.update(increment)
    return len(ids) == sum(map(len, increments))


@dataclass(frozen=True)
class Chain:
    """Strictly increasing feasible sets from the empty set to the ground
    set, kept as their increments: ``increments[j]`` holds the sorted ids
    that set j + 1 adds to set j, so the chain takes memory linear in the
    ground set.  ``sets`` gives the sets back, and ``steps`` their number
    less one.

    ``densities`` carries the greedy certificate, one achieved marginal
    density per step; ``values``, each set's cost and weight as checked on
    ``instance``.  None of the three takes part in equality comparisons.
    """

    increments: tuple[tuple[int, ...], ...]
    densities: tuple[Density, ...] | None = field(default=None, compare=False)
    values: Values | None = field(default=None, compare=False, repr=False)
    instance: MsopInstance | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        increments = self.increments
        if not increments:
            raise InvalidChain("a chain has at least two sets")
        if not _disjoint_sorted(increments):
            raise InvalidChain("chain increments must be nonempty, disjoint, sorted tuples")
        steps = len(increments)
        if self.densities is not None and len(self.densities) != steps:
            raise InvalidChain("certificate length must match the number of steps")
        if self.values is not None and not set(map(len, self.values)) <= {steps + 1}:
            raise InvalidChain("kept values must give one cost and one weight per chain set")

    @property
    def sets(self) -> tuple[frozenset[int], ...]:
        """The chain's sets, the empty set first, built afresh on each
        access: quadratic in the ground set, so no solve path reads it."""
        return tuple(accumulate(self.increments, frozenset.union, initial=frozenset()))

    @property
    def steps(self) -> int:
        return len(self.increments)


@dataclass(frozen=True)
class DensityResult:
    """A density step from a base: ``increment``, the sorted ids it adds,
    which with the base make a feasible strict superset of it, the
    step's candidate, and the candidate's marginal density over the base.

    ``marginal_density`` is (weight gain)/(cost gain), or the +inf sentinel
    exactly when the cost gain is zero.
    """

    increment: tuple[int, ...]
    marginal_density: Density


def chain_values(instance: MsopInstance, chain: Chain) -> Values:
    """The cost and the weight of each chain set.  A chain whose values
    were kept on this very ``instance`` hands them back; any other is read
    in one checked walk up its increments, each set's membership, cost and
    weight once, which raises on any invariant breach, in this order: an
    end short of the ground set, the first set outside the family, a
    nonzero value on the empty set, the first value that falls."""
    if chain.instance is instance and chain.values is not None:
        return chain.values
    universe = instance.universe()
    # the increments are disjoint, so they cover the ground set exactly
    # when their sizes add up to it and none holds an outside id
    if (sum(map(len, chain.increments)) != len(universe)
            or not all(map(universe.issuperset, chain.increments))):
        raise InvalidChain("chain must end at the full ground set")
    walk = Walk()
    family, cost, weight = _steppers(instance)
    if not family(walk):
        raise InvalidChain("set [] is not in the family")
    costs, weights = [cost(walk)], [weight(walk)]
    for increment in chain.increments:
        walk.grow(increment)
        if not family(walk):
            raise InvalidChain(f"set {sorted(walk.members)} is not in the family")
        costs.append(cost(walk))
        weights.append(weight(walk))
    if costs[0] != 0 or weights[0] != 0:
        raise InvalidChain("cost and weight must be zero on the empty set")
    for j in range(1, len(costs)):
        if costs[j] < costs[j - 1] or weights[j] < weights[j - 1]:
            sets = chain.sets
            raise NonMonotone(
                f"value decreased between {sorted(sets[j - 1])} and {sorted(sets[j])}"
            )
    return tuple(costs), tuple(weights)


def chain_cost(instance: MsopInstance, chain: Chain) -> Rational:
    """Exact objective value of a chain; raises on any invariant breach."""
    costs, weights = chain_values(instance, chain)
    return sum(f * (g - prev) for f, g, prev in zip(costs[1:], weights[1:], weights))


def density(gain: Rational, spent: Rational) -> Density:
    """The density gain/spent as an exact ``Fraction``, or the +inf
    sentinel exactly when ``spent`` is 0."""
    return INF if not spent else Fraction(gain, spent)


def _steppers(instance: MsopInstance) -> tuple[Callable, Callable, Callable]:
    """The instance's family, cost and weight oracles as functions of a
    walk (``stepper``)."""
    return stepper(instance.in_family), stepper(instance.cost), stepper(instance.weight)


def _is_density(claimed: Density, gain: Rational, spent: Rational) -> bool:
    """Whether ``claimed`` equals gain/spent (+inf when ``spent`` is 0);
    an int or ``Fraction`` claim is checked by cross-multiplication, and a
    float claim holds only as the +inf sentinel."""
    if type(claimed) is int or type(claimed) is Fraction:
        return bool(spent) and gain * claimed.denominator == claimed.numerator * spent
    return not spent and claimed == INF


def compare_density(
    gain: Rational, spent: Rational, other_gain: Rational, other_spent: Rational
) -> int:
    """Sign (-1, 0 or 1) of gain/spent - other_gain/other_spent.

    Each pair is a (weight gain, cost gain) with nonnegative cost gain; a
    cost gain of zero is the +inf sentinel, which beats every finite
    density and ties with itself.  Compared by cross-multiplication, so the
    answer is exact, and cheapest when all four values are ints.
    """
    if not spent:
        return 0 if not other_spent else 1
    if not other_spent:
        return -1
    lhs = gain * other_spent
    rhs = other_gain * spent
    return (lhs > rhs) - (lhs < rhs)


# a function of the base, or a ``RunningOracle`` whose value at a base is the step
DensitySolver = Callable[[frozenset[int]], DensityResult]


def greedy_chain(instance: MsopInstance, density_solver: DensitySolver) -> Chain:
    """Iterate a density solver from the empty set until the ground set.

    The loop keeps one growing set, a ``Walk``, and asks the solver and
    the instance's oracles about it through ``stepper``: a running oracle
    or solver moves by each step's increment, any other function is
    called with the set.  The solver's answer is taken verbatim each step
    and checked: its increment must be nonempty, made of ground-set ids
    and disjoint from the base, the candidate feasible, its values no
    lower than the base's, and its density equal to the oracles' weight
    and cost gains.  The chain keeps the increments, the densities as its
    certificate, and each set's cost and weight for ``chain_values``.
    Cost-flat (+inf density) steps are expected to be offered by the
    solver before any finite-density step and are taken immediately;
    they never increase the objective.
    """
    instance.validate()
    universe = instance.universe()
    walk = Walk()
    members = walk.members
    # each step's base is the previous candidate, already checked and
    # evaluated; validate() showed the empty set is feasible with value 0
    costs, weights = [0], [0]
    family, cost_at, weight_at = _steppers(instance)
    solve = stepper(density_solver)
    increments: list[tuple[int, ...]] = []
    densities: list[Density] = []
    while True:
        step = solve(walk)
        # sorted once, without repeats, since the solver may hand out ids it
        # changes later
        increment = tuple(sorted(frozenset(step.increment)))
        if not increment:
            raise SolverStall(f"density solver returned its base {sorted(members)}")
        if not universe.issuperset(increment):
            raise NotInFamily(f"candidate {sorted(members.union(increment))} is not in the family")
        if not members.isdisjoint(increment):
            raise NotASuperset(f"increment {list(increment)} meets its base {sorted(members)}")
        walk.grow(increment)
        if not family(walk):
            raise NotInFamily(f"candidate {sorted(members)} is not in the family")
        cost = cost_at(walk)
        weight = weight_at(walk)
        df = cost - costs[-1]
        dg = weight - weights[-1]
        if df < 0 or dg < 0:
            raise NonMonotone(
                f"value decreased between {sorted(members.difference(increment))} "
                f"and {sorted(members)}"
            )
        if not _is_density(step.marginal_density, dg, df):
            raise ValidationError(
                "density solver reported density "
                f"{step.marginal_density} but the oracles give {density(dg, df)}"
            )
        increments.append(increment)
        costs.append(cost)
        weights.append(weight)
        densities.append(step.marginal_density)
        if len(members) == len(universe):
            break
    return Chain(tuple(increments), tuple(densities), (tuple(costs), tuple(weights)), instance)


def chain_to_permutation(instance: MsopInstance, chain: Chain) -> tuple[int, ...]:
    """A permutation consistent with the chain (every chain set is one of its
    initial sets).

    Each increment is filled by repeatedly adding the smallest element that
    keeps the prefix feasible; for permutation families closed under
    splicing such an element always exists, so a stall means the family is
    not well-founded.  The last element of an increment completes a
    checked chain set, so a one-element increment asks no oracle.  The
    placed prefix is a ``Walk``, grown only before an increment's choice,
    and each candidate element is a ``probe`` of the family oracle.
    """
    chain_values(instance, chain)
    probe = prober(instance.in_family)
    walk = Walk()  # the first ``len(walk.members)`` ids of ``order_out``
    order_out: list[int] = []
    for increment in chain.increments:
        rest = list(increment)
        while len(rest) > 1:
            placed = len(walk.members)
            if placed < len(order_out):
                walk.grow(tuple(order_out[placed:]))
            nxt = next((v for v in rest if probe(walk, v)), None)
            if nxt is None:
                current = walk.members
                raise NotWellFounded(
                    f"no feasible single-element extension of {sorted(current)} inside "
                    f"{sorted(current.union(rest))}; the permutation family is not closed "
                    "under splicing"
                )
            order_out.append(nxt)
            rest.remove(nxt)
        order_out.append(rest[0])
    return tuple(order_out)


def spot_check_hypotheses(instance: MsopInstance, rng, rounds: int = 64) -> None:
    """Probe the hypotheses of the 4*alpha bound on random set pairs: a
    union-closed family, a monotone cost and weight, and a subadditive
    cost.  Raises ``ValidationError`` naming the property and two sets at
    the first failure.

    Each round probes three pairs (s, t): two uniform random sets that may
    overlap, and two grown inside the family from the empty set, t grown
    freely and then avoiding s, which reach precedence families too.  On
    each it probes union closure, monotonicity from s and t up to s | t,
    and subadditivity on (s - t, t), evaluating feasible sets only.
    """
    ground = instance.ground_set
    family, cost, weight = instance.in_family, instance.cost, instance.weight

    def fail(claim: str, a: frozenset[int], b: frozenset[int]):
        raise ValidationError(f"{claim} at {sorted(a)}, {sorted(b)}")

    def grow(avoid: frozenset[int]) -> frozenset[int]:
        # add a feasible element, uniform among them, or failing one the
        # shortest feasible prefix of the shuffled rest
        s, rest = frozenset(), [v for v in ground if v not in avoid]
        for _ in range(rng.randrange(len(rest) + 1)):
            rng.shuffle(rest)
            prefixes = accumulate(rest, lambda p, v: p | {v}, initial=s)
            grown = next((s | {v} for v in rest if family(s | {v})), None) or next(
                (p for p in islice(prefixes, 2, None) if family(p)), None)
            if grown is None:
                break
            s, rest = grown, [v for v in rest if v not in grown]
        return s

    for _ in range(rounds):
        draws = [rng.randrange(4) for _ in ground]
        grown = grow(frozenset())
        for s, t in ((frozenset(v for v, d in zip(ground, draws) if d & 1),
                      frozenset(v for v, d in zip(ground, draws) if d & 2)),
                     (grown, grow(frozenset())), (grown, grow(grown))):
            u = s | t
            s_ok, t_ok = family(s), family(t)
            if not family(u):
                if s_ok and t_ok:
                    fail("family is not union-closed", s, t)
                continue
            for a, a_ok in ((s, s_ok), (t, t_ok)):
                if a_ok and cost(a) > cost(u):
                    fail("cost is not monotone", a, u)
                if a_ok and weight(a) > weight(u):
                    fail("weight is not monotone", a, u)
            d = s - t
            if t_ok and family(d) and cost(u) > cost(d) + cost(t):
                fail("cost is not subadditive", d, t)
