"""Independent brute-force oracles used to pin expected values, the
reference lattice DPs, density steps and histogram check that the fast
ones are tested against, each problem's native order cost, and the
generators of table-backed instances.

The brute-force oracles deliberately avoid the library's lattice DPs:
permutations are enumerated with itertools, chains by recursive descent,
densities by looping over combinations, so every dual-route check really
runs two different algorithms.
"""

import random
from collections import deque
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, combinations, permutations
from typing import Mapping, Sequence

from msop.core import (
    Chain,
    DensityResult,
    DensitySolver,
    INF,
    MsopInstance,
    Rational,
    chain_values,
    density,
    greedy_chain,
)
from msop.errors import (
    BadParams,
    InvalidChain,
    MissingCertificate,
    MsopError,
    NoFeasiblePermutation,
    NoFeasibleSuperset,
    NonMonotone,
    NotASuperset,
    NotInFamily,
    NotInforest,
    NotInitial,
    NotMultitree,
    NotWellFounded,
    ParseError,
    SolverStall,
    ValidationError,
)
from msop.exact import histogram_containment_check
from msop.formats import _rational
from msop.generators import _rng
from msop.lattice import IntColumn, coverage_column, modular_column
from msop.rof import (
    Determination,
    Leaf,
    Node,
    ReadOnceFormula,
    _determination_column,
    supplement_solver,
    to_msop as rof_to_msop,
)
from msop.mssc import MsscInstance, coverage
from msop.orsched import (
    OrDag,
    is_bipartite,
    is_inforest,
    is_multitree,
    stem_solver,
    to_msop as ordag_to_msop,
)
from msop.xsearch import SearchGraph


def eq2_cost(instance: MsopInstance, order) -> Fraction:
    total = 0
    prev_g = 0
    current = set()
    for v in order:
        current.add(v)
        s = frozenset(current)
        g = instance.weight(s)
        total += instance.cost(s) * (g - prev_g)
        prev_g = g
    return total


def feasible_order(instance: MsopInstance, order) -> bool:
    current = set()
    for v in order:
        current.add(v)
        if not instance.in_family(frozenset(current)):
            return False
    return True


# ---------------------------------------------------------------------------
# Reference identities: the marginal density of a set over a base, each
# problem's native order cost, and the pieces they need.  The library
# computes only the chain objective; these check it against the paper's
# per-problem reductions.


class InfeasibleInitialSet(MsopError):
    def __init__(self, prefix_len: int):
        super().__init__(f"initial set of length {prefix_len} is not in the family")
        self.prefix_len = prefix_len


class InfeasibleOrder(MsopError):
    pass


def marginal_density(
    instance: MsopInstance, base: frozenset[int], candidate: frozenset[int]
) -> DensityResult:
    """Marginal density of ``candidate`` with respect to ``base``, from
    the three oracles called with the base and the candidate as sets.

    Returns the +inf sentinel exactly when the cost increment is zero.
    """
    base = frozenset(base)
    candidate = frozenset(candidate)
    if not base < candidate:
        raise NotASuperset(f"{sorted(candidate)} is not a strict superset of {sorted(base)}")
    if not instance.in_family(base):
        raise NotInFamily(f"base {sorted(base)} is not in the family")
    base_cost, base_weight = instance.cost(base), instance.weight(base)
    if not instance.in_family(candidate):
        raise NotInFamily(f"candidate {sorted(candidate)} is not in the family")
    df = instance.cost(candidate) - base_cost
    dg = instance.weight(candidate) - base_weight
    if df < 0 or dg < 0:
        raise NonMonotone(f"value decreased between {sorted(base)} and {sorted(candidate)}")
    return DensityResult(tuple(sorted(candidate - base)), density(dg, df))


def parse_rational(token: str, line: int | None, column: int | None) -> Rational:
    try:
        return _rational(token)
    except ValueError as exc:
        raise ParseError(str(exc), line, column) from None


def unit_mssc(n: int, edges: Sequence[frozenset[int]]) -> MsscInstance:
    """Plain min sum set cover: unit costs, unit weights."""
    return MsscInstance(n, (1,) * n, tuple((1, frozenset(e)) for e in edges))


def covering_cost(instance: MsscInstance, order: Sequence[int]) -> Rational:
    """Weighted sum over hyperedges of the prefix cost at first coverage."""
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


def schedule_cost(dag: OrDag, order: Sequence[int]) -> Rational:
    """Weighted sum of completion times of a feasible one-machine order."""
    if sorted(order) != sorted(dag.jobs):
        raise ValidationError("order must schedule every job exactly once")
    time, weight = dag.time_map, dag.weight_map
    done: set[int] = set()
    clock: Rational = 0
    total: Rational = 0
    for j in order:
        ps = dag.preds[j]
        if ps and not any(p in done for p in ps):
            raise InfeasibleOrder(f"job {j} scheduled before any of its predecessors")
        clock += time[j]
        total += weight[j] * clock
        done.add(j)
    return total


def eval_partial(formula: ReadOnceFormula, assignment: Mapping[int, int | None]):
    """Three-valued evaluation; missing or None entries are untested.

    Returns 0, 1, or None when the outcome is not yet determined.
    """
    value: dict[Node, int | None] = {}
    for node in formula.nodes:
        if isinstance(node, Leaf):
            value[node] = assignment.get(node.var)
            continue
        a, b = value[node.left], value[node.right]
        v = None
        if node.op == "and":
            if a == 0 or b == 0:
                v = 0
            elif a == 1 and b == 1:
                v = 1
        elif a == 1 or b == 1:
            v = 1
        elif a == 0 and b == 0:
            v = 0
        value[node] = v
    return value[formula.root]


def expected_stop_cost(formula: ReadOnceFormula, order: Sequence[int]) -> Fraction:
    """The expected testing cost of an order, summed test by test: each
    test is paid for exactly when the previous outcomes have not yet
    determined the value."""
    if sorted(order) != list(formula.variables):
        raise ValidationError("order must test every variable exactly once")
    total = Fraction(0)
    current: set[int] = set()
    for v in order:
        total += formula.costs[v] * (1 - Determination(formula)(frozenset(current)))
        current.add(v)
    return total


# ---------------------------------------------------------------------------
# Generators that only the certification suites use: table-backed generic
# instances, OR-pipelined instances and random feasible chains.


def table_instance(
    n: int,
    feasible_masks: frozenset[int],
    f_table: Sequence[Rational],
    g_table: Sequence[Rational],
    name: str,
) -> MsopInstance:
    """Instance over {0..n-1} whose oracles read precomputed mask tables."""

    def mask_of(s: frozenset[int]) -> int:
        return sum(1 << v for v in s)

    return MsopInstance(
        tuple(range(n)),
        lambda s: mask_of(s) in feasible_masks,
        lambda s: f_table[mask_of(s)],
        lambda s: g_table[mask_of(s)],
        name=name,
    )


def _union_closure(seeds: set[int]) -> frozenset[int]:
    # the unions of the nonempty subsets of the seeds taken so far
    members: set[int] = set()
    for x in seeds:
        members |= {m | x for m in members} | {x}
    return frozenset(members)


def _coverage_table(rng: random.Random, n: int, max_weight: int = 3) -> IntColumn:
    full = (1 << n) - 1
    k = rng.randint(1, 2 * n)
    edges = []
    for _ in range(k):
        mask = rng.getrandbits(n) & full
        if mask == 0:
            mask = 1 << rng.randrange(n)
        edges.append((rng.randint(1, max_weight), mask))
    return coverage_column(n, edges)[0]


def _modular_table(rng: random.Random, n: int, lo: int, hi: int) -> IntColumn:
    return modular_column([rng.randint(lo, hi) for _ in range(n)])[0]


def _milestone_table(rng: random.Random, n: int, min_size: int = 1) -> list[int]:
    full = (1 << n) - 1
    marks = []
    for _ in range(rng.randint(1, 3)):
        mask = rng.getrandbits(n) & full
        while bin(mask).count("1") < min_size:
            mask |= 1 << rng.randrange(n)
        marks.append((mask, rng.randint(1, 4)))
    return [sum(u for mask, u in marks if mask & s == mask) for s in range(full + 1)]


def gen_generic_msop(n: int, seed: int) -> MsopInstance:
    """Random instance with a union-closed family, subadditive monotone cost
    and monotone weight; weights range over modular, coverage, milestone and
    mixed shapes so the certification suite sees unstructured instances."""
    if n < 1:
        raise BadParams("n must be at least 1")
    rng = _rng("generic", n, seed)
    full = (1 << n) - 1
    seeds = {0, full}
    for _ in range(rng.randint(0, n)):
        seeds.add(rng.getrandbits(n) & full)
    family = _union_closure(seeds)

    f_style = rng.choice(("modular", "truncated", "coverage"))
    if f_style == "modular":
        f_table: Sequence[int] = _modular_table(rng, n, 0, 4)
    elif f_style == "truncated":
        raw = _modular_table(rng, n, 1, 5)
        per_max = max(raw[1 << i] for i in range(n))
        lid = rng.randint(per_max, max(per_max, raw[full]))
        f_table = [min(v, lid) for v in raw]
    else:
        f_table = _coverage_table(rng, n)

    g_style = rng.choice(("modular", "coverage", "milestones", "mixed"))
    if g_style == "modular":
        g_table: Sequence[int] = _modular_table(rng, n, 0, 4)
    elif g_style == "coverage":
        g_table = _coverage_table(rng, n)
    elif g_style == "milestones":
        g_table = _milestone_table(rng, n)
    else:
        mod = _modular_table(rng, n, 0, 2)
        mile = _milestone_table(rng, n)
        g_table = [a + b for a, b in zip(mod, mile)]

    return table_instance(n, family, f_table, g_table, f"generic-{n}-{seed}")


def gen_permutation_msop(n: int, seed: int) -> MsopInstance:
    """``gen_generic_msop``'s instance over a family that admits a feasible
    permutation: the union closure of its family and the prefixes of a
    random permutation, so restricted families reach the permutation DP.
    The cost and weight tables are the generic instance's."""
    base = gen_generic_msop(n, seed)
    order = _rng("permutation", n, seed).sample(range(n), n)
    sets = [frozenset(v for v in range(n) if m >> v & 1) for m in range(1 << n)]
    feasible = {m for m, s in enumerate(sets) if base.in_family(s)}
    family = _union_closure(feasible | set(accumulate(1 << v for v in order)))

    def in_family(s: frozenset[int]) -> bool:
        return sum(1 << v for v in s) in family

    return replace(base, in_family=in_family, name=f"permutation-{n}-{seed}")


def gen_supermodular_cost_msop(n: int, seed: int) -> MsopInstance:
    """Free family, supermodular monotone cost, modular positive weight:
    the shape on which the backward greedy is exact in polynomial time.
    The cost is not subadditive, so the forward bound's hypotheses hold
    only on the dual instance, where the backward greedy runs."""
    if n < 2:  # each milestone of the cost spans at least two elements
        raise BadParams("n must be at least 2")
    rng = _rng("supercost", n, seed)
    full = (1 << n) - 1
    base = _modular_table(rng, n, 0, 3)
    mile = _milestone_table(rng, n, min_size=2)
    f_table = [a + b for a, b in zip(base, mile)]
    g_table = _modular_table(rng, n, 1, 4)
    return table_instance(
        n, frozenset(range(full + 1)), f_table, g_table, f"supercost-{n}-{seed}"
    )


def gen_or_pipelined(n: int, seed: int) -> tuple[OrDag, tuple[tuple[int, frozenset[int]], ...]]:
    """Inforest over n jobs with positive times plus weighted hyperedges."""
    rng = _rng("or-pipelined", n, seed)
    jobs = tuple(range(n))
    arcs = []
    for v in range(n - 1):
        if rng.random() < 0.75:
            arcs.append((v, rng.randrange(v + 1, n)))
    dag = OrDag(
        jobs,
        tuple(rng.randint(1, 4) for _ in range(n)),
        tuple(0 for _ in range(n)),
        tuple(sorted(arcs)),
    )
    edges = []
    for _ in range(rng.randint(1, 2 * n)):
        size = rng.randint(1, min(3, n))
        edges.append((rng.randint(1, 5), frozenset(rng.sample(range(n), size))))
    return dag, tuple(edges)


def or_coverage_instance(dag: OrDag, edges) -> MsopInstance:
    """OR-initial family, processing-time cost and the coverage weight of
    ``edges``, hyperedges over the jobs: a covering instance under
    OR-precedence, whose steps the exhaustive solver takes."""
    jobs = set(dag.jobs)
    for w, members in edges:
        if w < 0 or not members or not members <= jobs:
            raise ValidationError("bad hyperedge over the job set")
    frozen = tuple((w, frozenset(m)) for w, m in edges)
    instance = ordag_to_msop(dag)
    return replace(instance, weight=coverage(instance.ground_set, lambda: frozen),
                   name="or-pipelined")


def increment(base, candidate) -> tuple:
    """The sorted ids that ``candidate`` adds to ``base``, as a density
    step answers them."""
    return tuple(sorted(frozenset(candidate) - frozenset(base)))


def candidate(base, step: DensityResult) -> frozenset:
    """The set a density step from ``base`` reaches."""
    return frozenset(base).union(step.increment)


def random_chain(instance: MsopInstance, rng: random.Random) -> Chain:
    """Uniform-ish random feasible chain built by random superset jumps."""
    n = instance.n
    ground = sorted(instance.ground_set)
    subsets = [
        frozenset(ground[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    ]
    feasible = [s for s in subsets if instance.in_family(s)]
    current = frozenset()
    sets = [current]
    universe = instance.universe()
    while current != universe:
        ups = [s for s in feasible if current < s]
        current = rng.choice(sorted(ups, key=lambda s: (len(s), tuple(sorted(s)))))
        sets.append(current)
    return chain_from_sets(tuple(sets))



def chain_from_sets(sets: Sequence[frozenset[int]], densities=None, values=None,
                    instance=None) -> Chain:
    """The chain through ``sets``, which must strictly increase from the
    empty set, with ``Chain``'s other fields as given."""
    if sets and sets[0]:
        raise InvalidChain("chains start at the empty set")
    increments = []
    for a, b in zip(sets, sets[1:]):
        if not a < b:
            raise InvalidChain(
                f"chain sets must strictly increase, got {sorted(a)} before {sorted(b)}"
            )
        increments.append(tuple(sorted(b - a)))
    return Chain(tuple(increments), densities, values, instance)


def permutation_to_chain(instance: MsopInstance, order: Sequence[int]) -> Chain:
    """Chain of all initial sets of a feasible permutation."""
    if frozenset(order) != instance.universe():
        raise ValidationError("permutation must arrange the full ground set")
    current: set[int] = set()
    for j, v in enumerate(order, start=1):
        current.add(v)
        if not instance.in_family(frozenset(current)):
            raise InfeasibleInitialSet(j)
    return Chain(tuple((v,) for v in order))


def singleton_solver(instance: MsopInstance) -> DensitySolver:
    """Density step that adds the single element of best marginal density.

    Exact (factor 1) whenever the cost is modular, the weight submodular and
    every subset is feasible; usable as a heuristic elsewhere.
    """

    ground = sorted(instance.ground_set)

    def solve(base: frozenset[int]) -> DensityResult:
        steps = (marginal_density(instance, base, base | {v})
                 for v in ground if v not in base and instance.in_family(base | {v}))
        step = max(steps, key=lambda step: step.marginal_density, default=None)
        if step is None:
            raise NoFeasibleSuperset(f"no feasible singleton extension of {sorted(base)}")
        return step

    return solve


def brute_opt_permutation(instance: MsopInstance):
    best = None
    for order in permutations(sorted(instance.ground_set)):
        if not feasible_order(instance, order):
            continue
        cost = eq2_cost(instance, order)
        if best is None or cost < best[0]:
            best = (cost, order)
    return best  # None when the family rejects every ordering


def brute_opt_chain(instance: MsopInstance):
    universe = instance.universe()
    elements = sorted(universe)
    n = len(elements)
    feasible = []
    for r in range(n + 1):
        for combo in combinations(elements, r):
            s = frozenset(combo)
            if instance.in_family(s):
                feasible.append(s)
    best = [None]

    def descend(current, cost):
        if current == universe:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for s in feasible:
            if current < s:
                descend(s, cost + instance.cost(s) * (instance.weight(s) - instance.weight(current)))

    descend(frozenset(), 0)
    return best[0]


def brute_max_density(instance: MsopInstance, base):
    base = frozenset(base)
    rest = sorted(instance.universe() - base)
    f0 = instance.cost(base)
    g0 = instance.weight(base)
    best = None
    for r in range(1, len(rest) + 1):
        for combo in combinations(rest, r):
            s = base | frozenset(combo)
            if not instance.in_family(s):
                continue
            df = instance.cost(s) - f0
            dg = instance.weight(s) - g0
            rho = INF if df == 0 else Fraction(dg, df)
            if best is None or rho > best:
                best = rho
    return best


# ---------------------------------------------------------------------------
# Reference lattice DPs: the ``Fraction`` versions that the library's
# integer DPs replaced, on a tabulation through the oracles that does not
# read the library's lattice.


def tabulate(instance: MsopInstance):
    """Every subset by bitmask over the ground set, with its membership,
    cost and weight from the oracles."""
    ground = instance.ground_set
    n = len(ground)
    subsets = [frozenset(ground[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    feasible = [instance.in_family(s) for s in subsets]
    f = [instance.cost(s) for s in subsets]
    g = [instance.weight(s) for s in subsets]
    if not feasible[0] or not feasible[-1]:
        raise ValidationError("family must contain the empty set and the full ground set")
    if f[0] != 0 or g[0] != 0:
        raise ValidationError("cost and weight must vanish on the empty set")
    return subsets, feasible, f, g


def ref_exact_opt_permutation(instance: MsopInstance):
    """Cheapest feasible permutation, ties to the lexicographically smallest."""
    n = instance.n
    subsets, feasible, f, g = tabulate(instance)
    full = (1 << n) - 1
    best = [None] * (full + 1)
    best[full] = 0
    for s in range(full - 1, -1, -1):
        if not feasible[s]:
            continue
        gs = g[s]
        acc = None
        rem = full & ~s
        m = rem
        while m:
            bit = m & -m
            m ^= bit
            t = s | bit
            if feasible[t] and best[t] is not None:
                cand = f[t] * (g[t] - gs) + best[t]
                if acc is None or cand < acc:
                    acc = cand
        best[s] = acc
    if best[0] is None:
        raise NoFeasiblePermutation("the family rejects every ordering")
    ground = instance.ground_set
    by_id = sorted(range(n), key=lambda i: ground[i])
    order = []
    s = 0
    while s != full:
        for i in by_id:
            bit = 1 << i
            if s & bit:
                continue
            t = s | bit
            if feasible[t] and best[t] is not None and f[t] * (g[t] - g[s]) + best[t] == best[s]:
                order.append(ground[i])
                s = t
                break
    return tuple(order), best[0]


def ref_exact_opt_chain(instance: MsopInstance):
    """Cheapest feasible chain; each set's predecessor is the first strict
    improvement in descending-submask order."""
    n = instance.n
    subsets, feasible, f, g = tabulate(instance)
    full = (1 << n) - 1
    best = [None] * (full + 1)
    best[0] = 0
    parent = [0] * (full + 1)
    for s in range(1, full + 1):
        if not feasible[s]:
            continue
        fs = f[s]
        gs = g[s]
        acc = None
        arg = 0
        a = (s - 1) & s
        while True:
            if feasible[a] and best[a] is not None:
                cand = best[a] + fs * (gs - g[a])
                if acc is None or cand < acc:
                    acc = cand
                    arg = a
            if a == 0:
                break
            a = (a - 1) & s
        best[s] = acc
        parent[s] = arg
    masks = [full]
    while masks[-1] != 0:
        masks.append(parent[masks[-1]])
    return chain_from_sets(tuple(subsets[m] for m in reversed(masks))), best[full]


# ---------------------------------------------------------------------------
# Reference chain walks: a fresh sort or set per chain set, where the
# library moves by each increment.


def ref_format_chain(chain: Chain) -> str:
    """The ``chain=`` text as ``cli._format_chain`` wrote it before it
    inserted each increment: every chain set sorted afresh."""
    text = {v: str(v) for v in chain.sets[-1]}.__getitem__
    return ";".join(",".join(map(text, sorted(s))) for s in chain.sets[1:])


def ref_chain_to_permutation(instance: MsopInstance, chain: Chain) -> tuple:
    """``core.chain_to_permutation`` as a new set per prefix: each
    increment filled by the smallest id that keeps the prefix feasible."""
    order, current = [], frozenset()
    for target in chain.sets[1:]:
        while current != target:
            nxt = min(v for v in target - current if instance.in_family(current | {v}))
            order.append(nxt)
            current = current | {nxt}
    return tuple(order)


# ---------------------------------------------------------------------------
# Reference density steps: the straightforward implementations that the
# library's incremental, integer-exact steps replaced.  Differential tests
# run both and require identical answers, chains and densities.


def ref_greedy_chain(instance: MsopInstance, density_solver) -> Chain:
    """Greedy loop that re-evaluates base and candidate at every step."""
    instance.validate()
    universe = instance.universe()
    current = frozenset()
    sets = [current]
    densities = []
    while current != universe:
        step = density_solver(current)
        if not step.increment:
            raise SolverStall(f"density solver returned its base {sorted(current)}")
        after = candidate(current, step)
        checked = marginal_density(instance, current, after)
        if checked.marginal_density != step.marginal_density:
            raise ValidationError("density solver disagrees with the oracles")
        sets.append(after)
        densities.append(checked.marginal_density)
        current = after
    return chain_from_sets(tuple(sets), tuple(densities))


def _beats(cand, best) -> bool:
    """Entries are (weight gain, cost gain, tie keys...); densities are
    compared by cross-multiplication, a cost gain of 0 is +inf, and equal
    densities go to the smaller tie keys."""
    dg, df = cand[:2]
    b_dg, b_df = best[:2]
    if df == 0 and b_df != 0:
        return True
    if df != 0 and b_df == 0:
        return False
    if df != 0:
        lhs = dg * b_df
        rhs = b_dg * df
        if lhs != rhs:
            return lhs > rhs
    return cand[2:] < best[2:]


def ref_exact_max_density(instance: MsopInstance, base) -> DensityResult:
    """Every strict superset of ``base`` evaluated through the oracles at
    every call, enumerated as bitmasks from the full complement down."""
    base = frozenset(base)
    n = instance.n
    if not instance.in_family(base):
        raise NotInFamily(f"base {sorted(base)} is not in the family")
    ground = instance.ground_set
    index = {v: i for i, v in enumerate(ground)}
    base_mask = 0
    for v in base:
        base_mask |= 1 << index[v]
    comp = ((1 << n) - 1) & ~base_mask
    f_base = instance.cost(base)
    g_base = instance.weight(base)
    best = None
    best_set = None
    x = comp
    while x:
        extra = [ground[i] for i in range(n) if x >> i & 1]
        candidate = base | frozenset(extra)
        if instance.in_family(candidate):
            df = instance.cost(candidate) - f_base
            dg = instance.weight(candidate) - g_base
            if df < 0 or dg < 0:
                raise NonMonotone(
                    f"value decreased between {sorted(base)} and {sorted(candidate)}"
                )
            key = (dg, df, len(candidate), tuple(sorted(candidate)))
            if best is None or _beats(key, best):
                best = key
                best_set = candidate
        x = (x - 1) & comp
    if best is None:
        raise NoFeasibleSuperset(f"no feasible strict superset of {sorted(base)}")
    rho = INF if best[1] == 0 else Fraction(best[0], best[1])
    return DensityResult(increment(base, best_set), rho)


def ref_coverage_weight(instance: MsscInstance, s) -> Fraction:
    """Total weight of the hyperedges that meet ``s``, summed from scratch."""
    return sum((w for w, members in instance.edges if not members.isdisjoint(s)), 0)


def ref_singleton_greedy_density(instance: MsscInstance, base) -> DensityResult:
    """Scan every element against every uncovered hyperedge."""
    base = frozenset(base)
    if not base < frozenset(range(instance.n)):
        raise NoFeasibleSuperset("base already contains every element")
    uncovered = [(w, members) for w, members in instance.edges if not members & base]
    best = None
    for v in range(instance.n):
        if v in base:
            continue
        gain = 0
        for w, members in uncovered:
            if v in members:
                gain += w
        rho = Fraction(gain, instance.costs[v])
        if best is None or rho > best[0]:
            best = (rho, v)
    return DensityResult((best[1],), best[0])


def ref_singleton_step(instance: MsscInstance, base) -> DensityResult:
    """Every uncovered hyperedge adds its weight to its members' gains at
    every call; densities compared by cross-multiplication."""
    base = frozenset(base)
    if not base < frozenset(range(instance.n)):
        raise NoFeasibleSuperset("base already contains every element")
    gain = [0] * instance.n
    for w, members in instance.edges:
        if members.isdisjoint(base):
            for v in members:
                gain[v] += w
    costs = instance.costs
    best = min(v for v in range(instance.n) if v not in base)
    for v in range(best + 1, instance.n):
        if v not in base and gain[v] * costs[best] > gain[best] * costs[v]:
            best = v
    return DensityResult((best,), Fraction(gain[best], costs[best]))


def ref_or_initial_membership(dag: OrDag, s) -> bool:
    """Every member with predecessors has one inside ``s``."""
    return all(not dag.preds[j] or not s.isdisjoint(dag.preds[j]) for j in s)


def residual(dag: OrDag, s: frozenset[int]) -> OrDag:
    """Remove an OR-initial set; jobs with a predecessor in it become free."""
    s = frozenset(s)
    if not ref_or_initial_membership(dag, s):
        raise NotInitial(f"{sorted(s)} is not an OR-initial set")
    keep = [j for j in dag.jobs if j not in s]
    satisfied = {j for j in keep if any(p in s for p in dag.preds[j])}
    arcs = tuple(
        (i, j) for i, j in dag.arcs if i not in s and j not in s and j not in satisfied
    )
    kept = tuple(keep)
    return OrDag(
        kept,
        tuple(dag.time_map[j] for j in kept),
        tuple(dag.weight_map[j] for j in kept),
        arcs,
    )


def max_density_stem(dag: OrDag, base) -> DensityResult:
    """One step of a new ``stem_solver``."""
    return stem_solver(dag)(base)


def ref_max_density_stem(dag: OrDag, g_oracle, base) -> DensityResult:
    """Every stem prefix evaluated through the full-set weight oracle."""
    base = frozenset(base)
    res = residual(dag, base)
    if not res.jobs:
        raise NoFeasibleSuperset("base already contains every job")
    if not is_inforest(res):
        raise NotInforest("residual graph has a vertex with two successors")
    g_base = g_oracle(base)
    best = None
    best_members = None
    for start in res.sources:
        members = set(base)
        time_sum = 0
        v = start
        length = 0
        while v is not None:
            members.add(v)
            time_sum += res.time_map[v]
            length += 1
            frozen = frozenset(members)
            dg = g_oracle(frozen) - g_base
            if dg < 0:
                raise NonMonotone(f"weight decreased when adding stem through {v}")
            cand = (dg, time_sum, length, start)
            if best is None or _beats(cand, best):
                best = cand
                best_members = frozen
            nxt = res.succs[v]
            v = nxt[0] if nxt else None
    rho = INF if best[1] == 0 else Fraction(best[0], best[1])
    return DensityResult(increment(base, best_members), rho)


def ref_best_ratio_subtree(res: OrDag, root, reach):
    """Parametric ratio DP on ``Fraction`` guesses over the residual DAG
    ``res``, whose successor outtree of ``root`` ``reach`` lists parents
    first."""
    order = list(reversed(reach))
    guess = Fraction(res.weight_map[root], res.time_map[root])
    while True:
        value = {}
        for v in order:
            acc = res.weight_map[v] - guess * res.time_map[v]
            for w in res.succs[v]:
                if value[w] > 0:
                    acc += value[w]
            value[v] = acc
        chosen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w in res.succs[v]:
                if value[w] > 0:
                    chosen.add(w)
                    stack.append(w)
        w_sum = sum(res.weight_map[v] for v in chosen)
        t_sum = sum(res.time_map[v] for v in chosen)
        if value[root] == 0:
            return frozenset(chosen), w_sum, t_sum
        guess = Fraction(w_sum, t_sum)


def ref_max_density_outtree(dag: OrDag, base) -> DensityResult:
    """A residual ``OrDag`` built, its shape re-checked and every subtree
    optimum recomputed per step, densities compared as ``Fraction``s."""
    base = frozenset(base)
    res = residual(dag, base)
    if not res.jobs:
        raise NoFeasibleSuperset("base already contains every job")
    if not is_multitree(res):
        raise NotMultitree("residual graph has two paths between some pair of jobs")
    for v in res.sources:
        if res.time_map[v] == 0:
            return DensityResult((v,), INF)
    best = None
    best_set = None
    for start in res.sources:
        reach = [start]
        for v in reach:
            reach.extend(res.succs[v])
        subtree, w_sum, t_sum = ref_best_ratio_subtree(res, start, reach)
        rho = Fraction(w_sum, t_sum)
        if best is None or rho > best[0]:
            best = (rho, start)
            best_set = subtree
    return DensityResult(tuple(sorted(best_set)), best[0])


def determination_table(formula: ReadOnceFormula) -> list[Fraction]:
    """Determination probability for every subset, indexed by bitmask over
    the sorted variables: ``_determination_column`` as ``Fraction``s."""
    column, den = _determination_column(formula)
    return [Fraction(v, den) for v in column]


def leaves_below(formula: ReadOnceFormula) -> dict:
    """Per node, the tests of its leaves."""
    out = {}
    for node in formula.nodes:
        if isinstance(node, Leaf):
            out[node] = frozenset((node.var,))
        else:
            out[node] = out[node.left] | out[node.right]
    return out


def prob_tables(formula: ReadOnceFormula, s):
    """The library's gate determination probabilities: each entry of a
    fresh ``Determination``'s scaled tables over its gate's denominator."""
    state = Determination(formula)
    state(frozenset(s))
    ones, zeros = state.ones, state.zeros
    den = formula.denominators
    return (
        {node: Fraction(p, den[node]) for node, p in ones.items()},
        {node: Fraction(q, den[node]) for node, q in zeros.items()},
    )


def ref_prob_tables(formula: ReadOnceFormula, s):
    """Gate determination probabilities on ``Fraction``s."""
    ones, zeros = {}, {}
    for node in formula.nodes:
        if isinstance(node, Leaf):
            p = formula.probs[node.var] if node.var in s else None
            ones[node] = Fraction(0) if p is None else p
            zeros[node] = Fraction(0) if p is None else 1 - p
        else:
            pl, pr = ones[node.left], ones[node.right]
            ql, qr = zeros[node.left], zeros[node.right]
            if node.op == "and":
                ones[node], zeros[node] = pl * pr, ql + qr - ql * qr
            else:
                ones[node], zeros[node] = pl + pr - pl * pr, ql * qr
    return ones, zeros


def ref_g_determined(formula: ReadOnceFormula, s) -> Fraction:
    ones, zeros = ref_prob_tables(formula, frozenset(s))
    return ones[formula.root] + zeros[formula.root]


def ref_compute_rp(formula: ReadOnceFormula, s):
    """Per gate and target: budget -> (Fraction, frozenset union) tables."""
    empty = frozenset()
    per_gate = {}
    for node in formula.nodes:
        if isinstance(node, Leaf):
            p = formula.probs[node.var]
            if node.var in s:
                per_gate[node] = {1: {0: (p, empty)}, 0: {0: (1 - p, empty)}}
            else:
                c = formula.costs[node.var]
                only = frozenset((node.var,))
                zero = Fraction(0)
                per_gate[node] = {
                    1: {0: (zero, empty), c: (p, only)},
                    0: {0: (zero, empty), c: (1 - p, only)},
                }
            continue
        left, right = per_gate[node.left], per_gate[node.right]
        table = {}
        for outcome in (0, 1):
            both = (node.op, outcome) in (("and", 1), ("or", 0))
            out = {}
            for tl in sorted(left[outcome]):
                pl, rl = left[outcome][tl]
                for tr in sorted(right[outcome]):
                    pr, rr = right[outcome][tr]
                    value = pl * pr if both else pl + pr - pl * pr
                    t = tl + tr
                    if t not in out or value > out[t][0]:
                        out[t] = (value, rl | rr)
            table[outcome] = out
        per_gate[node] = table
    return per_gate


def ref_find_supp(formula: ReadOnceFormula, s) -> frozenset:
    s = frozenset(s)
    if s >= set(formula.variables):
        raise NoFeasibleSuperset("every test has already been taken")
    tables = ref_compute_rp(formula, s)
    ones, zeros = ref_prob_tables(formula, s)
    baseline = {1: ones[formula.root], 0: zeros[formula.root]}
    best = {}
    for outcome in (0, 1):
        root = tables[formula.root][outcome]
        for t in sorted(root):
            if t == 0:
                continue
            prob, chosen = root[t]
            sigma = Fraction(prob - baseline[outcome], t)
            if outcome not in best or sigma > best[outcome][0]:
                best[outcome] = (sigma, chosen)
    if best[0][0] > best[1][0]:
        return best[0][1]
    return best[1][1]


def ref_scaled_tables(formula: ReadOnceFormula, s):
    """The full exact-budget tables of the supplement search on scaled
    integers, nothing pruned: per node and target, budget -> (the best
    probability of determining the node to the target with a subset of its
    untested leaves of exactly that cost, times the node's denominator;
    the left child's share of the budget).  Budget-split ties keep the
    smallest left share."""
    den = formula.denominators
    scaled = {}
    for node in formula.nodes:
        if isinstance(node, Leaf):
            p = formula.probs[node.var]
            one, zero = p.numerator, p.denominator - p.numerator
            if node.var in s:
                scaled[node] = {1: {0: (one, 0)}, 0: {0: (zero, 0)}}
            else:
                c = formula.costs[node.var]
                scaled[node] = {1: {0: (0, 0), c: (one, 0)}, 0: {0: (0, 0), c: (zero, 0)}}
            continue
        dl, dr = den[node.left], den[node.right]
        table = {}
        for outcome in (0, 1):
            both = (node.op, outcome) in (("and", 1), ("or", 0))
            out = {}
            for tl, (pl, _) in sorted(scaled[node.left][outcome].items()):
                for tr, (pr, _) in sorted(scaled[node.right][outcome].items()):
                    value = pl * pr if both else pl * dr + pr * dl - pl * pr
                    if tl + tr not in out or value > out[tl + tr][0]:
                        out[tl + tr] = (value, tl)
            table[outcome] = dict(sorted(out.items()))
        scaled[node] = table
    return scaled


def ref_chosen(scaled, node, outcome, t) -> frozenset:
    """The tests of ``scaled[node][outcome][t]``'s supplement, rebuilt from
    the left shares."""
    if t == 0:
        return frozenset()
    if isinstance(node, Leaf):
        return frozenset((node.var,))
    tl = scaled[node][outcome][t][1]
    return ref_chosen(scaled, node.left, outcome, tl) | ref_chosen(
        scaled, node.right, outcome, t - tl
    )


def undominated(table: dict) -> dict:
    """The budgets of a budget -> value table whose value beats every
    smaller budget's."""
    kept, top = {}, -1
    for t in sorted(table):
        if table[t] > top:
            kept[t] = top = table[t]
    return kept


def ref_scaled_supplement(formula: ReadOnceFormula, s):
    """The supplement search on ``ref_scaled_tables``' unpruned tables,
    rebuilt for every base: the supplement, its budget, and the
    determination probability of ``s``."""
    s = frozenset(s)
    if s >= set(formula.variables):
        raise NoFeasibleSuperset("every test has already been taken")
    scaled = ref_scaled_tables(formula, s)
    root_tables = scaled[formula.root]
    best = {}
    for outcome in (0, 1):
        root = root_tables[outcome]
        baseline = root[0][0]
        for t in sorted(root):
            if t == 0:
                continue
            gain = root[t][0] - baseline
            if outcome not in best or gain * best[outcome][1] > best[outcome][0] * t:
                best[outcome] = (gain, t)
    (gain0, t0), (gain1, t1) = best[0], best[1]
    outcome = 0 if gain0 * t1 > gain1 * t0 else 1
    spent = best[outcome][1]
    determined = root_tables[0][0][0] + root_tables[1][0][0]
    determined = Fraction(determined, formula.denominators[formula.root])
    return ref_chosen(scaled, formula.root, outcome, spent), spent, determined


def ref_scaled_supplement_step(formula: ReadOnceFormula, instance: MsopInstance, base):
    chosen, spent, base_weight = ref_scaled_supplement(formula, base)
    gain = instance.weight(frozenset(base) | chosen) - base_weight
    return DensityResult(tuple(sorted(chosen)), Fraction(gain, spent))


def find_supp(formula: ReadOnceFormula, base) -> frozenset:
    """The tests that a fresh ``rof.supplement_solver`` step adds to
    ``base``."""
    return frozenset(supplement_solver(formula)(frozenset(base)).increment)


def densest_consistent_permutation(instance: MsopInstance, chain: Chain) -> tuple:
    """Like ``core.chain_to_permutation`` but orders each increment by
    locally best single-element marginal density (ties to the smallest id).

    The result is still consistent with the chain, so its full-permutation
    chain costs no more than the input chain.
    """
    chain_values(instance, chain)
    order, current = [], frozenset()
    for target in chain.sets[1:]:
        rest = sorted(target - current)
        while len(rest) > 1:
            steps = (marginal_density(instance, current, current | {v})
                     for v in rest if instance.in_family(current | {v}))
            step = max(steps, key=lambda step: step.marginal_density, default=None)
            if step is None:
                raise NotWellFounded(
                    f"no feasible single-element extension of {sorted(current)} inside "
                    f"{sorted(target)}; the permutation family is not closed under splicing"
                )
            nxt = step.increment[0]
            order.append(nxt)
            rest.remove(nxt)
            current = current | {nxt}
        # the last element completes the checked chain set itself
        order.append(rest[0])
        current = target
    return tuple(order)


def rof_greedy(formula: ReadOnceFormula):
    """The supplement greedy chain (factor 2) refined to an order by locally
    best single-test density, and the order's expected cost."""
    instance = rof_to_msop(formula)
    chain = greedy_chain(instance, supplement_solver(formula))
    order = densest_consistent_permutation(instance, chain)
    return order, eq2_cost(instance, order)


def ref_rof_instance(formula: ReadOnceFormula) -> MsopInstance:
    """``rof.to_msop`` with the ``Fraction`` weight oracle."""
    return replace(rof_to_msop(formula), weight=lambda s: ref_g_determined(formula, s))


def ref_supplement_solver(formula: ReadOnceFormula, instance: MsopInstance):
    return lambda base: marginal_density(instance, base, base | ref_find_supp(formula, base))


# ---------------------------------------------------------------------------
# Reference shape check: directed paths counted from every start vertex.


def ref_xsearch_weight(graph: SearchGraph, s) -> Fraction:
    """The mass of the non-root vertices that the edges of ``s`` touch."""
    touched = set()
    for idx in s:
        u, v, _ = graph.edges[idx]
        touched |= {u, v}
    return sum((graph.probs[v] for v in touched - {graph.root}), Fraction(0))


def ref_is_multitree(dag: OrDag) -> bool:
    """At most one directed path between any ordered pair of vertices:
    paths from each start counted along a topological order, O(n (n +
    arcs))."""
    indeg = {j: len(dag.preds[j]) for j in dag.jobs}
    topo = [j for j in sorted(dag.jobs) if indeg[j] == 0]
    for v in topo:
        for w in dag.succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                topo.append(w)
    for start in dag.jobs:
        paths = {start: 1}
        for v in topo:
            count = paths.get(v)
            if not count:
                continue
            for w in dag.succs[v]:
                paths[w] = paths.get(w, 0) + count
                if paths[w] > 1:
                    return False
    return True


def _weakly_connected(dag: OrDag) -> bool:
    if not dag.jobs:
        return True
    adj: dict[int, set[int]] = {j: set() for j in dag.jobs}
    for i, j in dag.arcs:
        adj[i].add(j)
        adj[j].add(i)
    seen = {dag.jobs[0]}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(dag.jobs)


def ref_classify_dag(dag: OrDag) -> str:
    """``classify_dag`` with connectivity found by a breadth-first search
    over the arcs taken both ways."""
    if not dag.jobs:
        return "outtree"
    connected = _weakly_connected(dag)
    if connected and all(len(dag.preds[j]) <= 1 for j in dag.jobs):
        return "outtree"
    if connected and all(len(dag.succs[j]) <= 1 for j in dag.jobs):
        return "intree"
    if is_inforest(dag):
        return "inforest"
    if is_bipartite(dag):
        return "bipartite"
    if ref_is_multitree(dag):
        return "multitree"
    return "general"


# ---------------------------------------------------------------------------
# Reference generator: the multitree generator that re-checked the whole
# DAG for every accepted arc candidate.


def ref_gen_multitree(n: int, seed: int, arc_chance=None) -> OrDag:
    rng = _rng("multitree", n, seed)
    jobs = tuple(range(n))
    arcs = []
    chance = arc_chance if arc_chance is not None else min(0.9, 2.5 / max(1, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < chance:
                trial = OrDag(jobs, (0,) * n, (0,) * n, tuple(arcs) + ((i, j),))
                if ref_is_multitree(trial):
                    arcs.append((i, j))
    times = tuple(rng.choice((0, 1, 1, 2, 3)) for _ in range(n))
    weights = tuple(rng.choice((0, 1, 2, 3, 4)) for _ in range(n))
    return OrDag(jobs, times, weights, tuple(sorted(arcs)))


# ---------------------------------------------------------------------------
# Reference histogram check: the breakpoint scan that the library's merge of
# the two step functions replaced.


def _height_at(columns, x):
    for left, right, height in columns:
        if left < x < right:
            return height
    return 0


def chain_histogram(instance: MsopInstance, greedy: Chain, opt: Chain, alpha):
    """``histogram_containment_check`` on two chains, each read once
    through ``chain_values``, as ``exact.check_ratio`` reads them: the
    first violation, or None when the histogram is contained."""
    greedy_weights = chain_values(instance, greedy)[1]
    opt_costs, opt_weights = chain_values(instance, opt)
    return histogram_containment_check(
        greedy_weights, greedy.densities, opt_costs, opt_weights, alpha, 1, 1)


def ref_histogram_containment_check(instance: MsopInstance, greedy: Chain, opt: Chain, alpha):
    """Shrink the greedy histogram, then test both histograms' heights at
    the midpoint of every interval between sorted column edges."""
    if greedy.densities is None:
        raise MissingCertificate("greedy chain carries no per-step density certificate")
    if alpha < 1:
        raise ValidationError("alpha must be at least 1")
    greedy_weights = chain_values(instance, greedy)[1]
    opt_costs, opt_weights = chain_values(instance, opt)
    g_total = opt_weights[-1]

    opt_columns = list(zip(opt_weights, opt_weights[1:], opt_costs[1:]))
    greedy_columns = _greedy_columns(greedy_weights, greedy.densities, g_total)

    two_alpha = 2 * alpha
    shrunk = []
    for left, right, height in greedy_columns:
        s_left = Fraction(g_total + left, 2)
        s_right = Fraction(g_total + right, 2)
        s_height = INF if height == INF else Fraction(height, two_alpha)
        if s_left < s_right:
            shrunk.append((s_left, s_right, s_height))
    solid_opt = [c for c in opt_columns if c[0] < c[1]]

    breakpoints = set()
    for left, right, _ in shrunk:
        breakpoints.add(left)
        breakpoints.add(right)
    if shrunk:
        lo = shrunk[0][0]
        hi = shrunk[-1][1]
        for left, right, _ in solid_opt:
            if lo <= left <= hi:
                breakpoints.add(left)
            if lo <= right <= hi:
                breakpoints.add(right)
    xs = sorted(breakpoints)

    for a, b in zip(xs, xs[1:]):
        if a == b:
            continue
        mid = Fraction(a + b, 2)
        shrunk_height = _height_at(shrunk, mid)
        opt_height = _height_at(solid_opt, mid)
        if shrunk_height > opt_height:
            return (mid, shrunk_height, opt_height)
    return None


def _greedy_columns(greedy_weights, certificate, g_total):
    """The greedy histogram: (left, right, height) per step, of height
    (g_total - left) / rho, 0 for the ``INF`` sentinel and ``INF`` for a
    zero density."""
    columns = []
    for prev_w, w, rho in zip(greedy_weights, greedy_weights[1:], certificate):
        remaining = g_total - prev_w
        if remaining == 0 or rho == INF:
            height = 0
        elif rho == 0:
            height = INF  # only reachable through a corrupted certificate
        else:
            height = Fraction(remaining, rho)
        columns.append((prev_w, w, height))
    return columns


def histogram_areas(instance: MsopInstance, greedy: Chain, opt: Chain) -> tuple:
    """The unshrunk areas of the two histograms that the containment check
    compares, (optimal, greedy); each equals its chain's cost, the greedy
    one ``INF`` when a column of positive width is infinitely high."""
    greedy_weights = chain_values(instance, greedy)[1]
    opt_costs, opt_weights = chain_values(instance, opt)
    opt_area = sum(h * (w - prev_w) for prev_w, w, h
                   in zip(opt_weights, opt_weights[1:], opt_costs[1:]))
    greedy_area = 0
    for prev_w, w, height in _greedy_columns(greedy_weights, greedy.densities, opt_weights[-1]):
        if w == prev_w:
            continue  # no area, whatever the height: INF * 0 is nan
        if height == INF:
            return opt_area, INF
        greedy_area += height * (w - prev_w)
    return opt_area, greedy_area
