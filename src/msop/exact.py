"""Exhaustive oracles for desk-scale instances, and the bound's certification.

The optimal-permutation and optimal-chain oracles run dynamic programs over
the subset lattice: every feasible permutation is a path through feasible
prefix sets and every chain is a path through nested feasible sets, so the
lattice DP minimises over exactly the stated search space with no sampling.
These DPs and the exhaustive density step read every subset's membership,
cost and weight from the instance's ``msop.lattice.Lattice``, and so does
the certification (``check_ratio``): it reads both chains' values off the
integer columns and runs the histogram check and the greedy cost in ints.
Caps are hard errors, never silent truncation, and fixed in ``CAPS``, so a
report depends only on the command line and the file.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import (
    Chain,
    Density,
    DensityResult,
    DensitySolver,
    INF,
    MsopInstance,
    Rational,
    chain_values,
    density,
)
from .errors import (
    MissingCertificate,
    NoFeasiblePermutation,
    NoFeasibleSuperset,
    NonMonotone,
    NotInFamily,
    TooLarge,
    ValidationError,
)
from .lattice import Lattice, RunningOracle, bit_of, ids_in

CAPS = {"perm": 9, "chain": 7, "density": 20}  # the largest n each search takes


def _cap_for(what: str, n: int) -> None:
    if n > CAPS[what]:
        raise TooLarge(what, n, CAPS[what])


def _checked_lattice(instance: MsopInstance) -> Lattice:
    lattice = instance.lattice
    if not lattice.feasible[0] or not lattice.feasible[-1]:
        raise ValidationError("family must contain the empty set and the full ground set")
    if lattice.cost[0] or lattice.weight[0]:
        raise ValidationError("cost and weight must vanish on the empty set")
    return lattice


def exact_opt_permutation(instance: MsopInstance) -> tuple[tuple[int, ...], Rational]:
    """Global minimum over feasible permutations (every initial set feasible).

    Ties break to the lexicographically smallest optimal permutation.
    """
    n = instance.n
    _cap_for("perm", n)
    lattice = _checked_lattice(instance)
    feasible, f, g = lattice.feasible, lattice.cost, lattice.weight
    full = (1 << n) - 1
    # best[S] = cheapest completion cost from prefix set S to the full set,
    # None when S is infeasible or has no feasible completion
    best: list[int | None] = [None] * (full + 1)
    best[full] = 0
    for s in range(full - 1, -1, -1):
        if not feasible[s]:
            continue
        gs = g[s]
        acc: int | None = None
        m = full & ~s
        while m:
            bit = m & -m
            m ^= bit
            t = s | bit
            rest = best[t]
            if rest is not None:
                cand = f[t] * (g[t] - gs) + rest
                if acc is None or cand < acc:
                    acc = cand
        best[s] = acc
    if best[0] is None:
        raise NoFeasiblePermutation("the family rejects every ordering")
    ground = instance.ground_set
    by_id = sorted(range(n), key=lambda i: ground[i])
    order: list[int] = []
    s = 0
    while s != full:
        for i in by_id:
            bit = 1 << i
            if s & bit:
                continue
            t = s | bit
            if best[t] is not None and f[t] * (g[t] - g[s]) + best[t] == best[s]:
                order.append(ground[i])
                s = t
                break
        else:  # pragma: no cover - best[s] finite guarantees an extension
            raise AssertionError("optimal extension must exist")
    return tuple(order), Fraction(best[0], lattice.cost_scale * lattice.weight_scale)


def exact_opt_chain(instance: MsopInstance) -> tuple[Chain, Rational]:
    """Global minimum over all feasible chains of any length."""
    n = instance.n
    _cap_for("chain", n)
    lattice = _checked_lattice(instance)
    feasible, f, g = lattice.feasible, lattice.cost, lattice.weight
    full = (1 << n) - 1
    best: list[int | None] = [None] * (full + 1)
    best[0] = 0
    parent = [0] * (full + 1)
    for s in range(1, full + 1):
        if not feasible[s]:
            continue
        fs = f[s]
        gs = g[s]
        acc: int | None = None
        arg = 0
        a = (s - 1) & s
        while True:
            before = best[a]
            if before is not None:
                cand = before + fs * (gs - g[a])
                if acc is None or cand < acc:
                    acc = cand
                    arg = a
            if a == 0:
                break
            a = (a - 1) & s
        best[s] = acc
        parent[s] = arg
    cost = best[full]
    assert cost is not None  # the empty set is always a feasible predecessor
    masks = [full]
    while masks[-1] != 0:
        masks.append(parent[masks[-1]])
    ground = instance.ground_set
    # each step adds the bits of its mask that its parent lacks
    increments = tuple(tuple(sorted(ids_in(ground, mask & ~below)))
                       for mask, below in zip(masks, masks[1:]))
    return Chain(increments[::-1]), Fraction(cost, lattice.cost_scale * lattice.weight_scale)


def exact_max_density(instance: MsopInstance, base: frozenset[int]) -> DensityResult:
    """Maximum marginal density over feasible strict supersets of ``base``.

    The +inf sentinel beats every finite density; ties break to the smallest
    cardinality and then lexicographically on the sorted element ids.  The
    first call on an instance builds its lattice of 2^n subsets, which
    later calls on the same instance reuse.
    """
    _cap_for("density", instance.n)
    base = frozenset(base)
    bits = bit_of(instance.ground_set)
    base_mask = 0
    for v in base:
        if v not in bits:
            raise _not_in_family(base)
        base_mask |= bits[v]
    return _densest(instance, base_mask)


def _densest(instance: MsopInstance, base_mask: int) -> DensityResult:
    """``exact_max_density`` from the base of bitmask ``base_mask``; the
    base's ids are read off the mask only for an error's text."""
    ground = instance.ground_set
    lattice = instance.lattice
    feasible, f, g = lattice.feasible, lattice.cost, lattice.weight
    if not feasible[base_mask]:
        raise _not_in_family(ids_in(ground, base_mask))
    # gains are compared on the scaled integers: both scales are common to
    # every candidate, so they are left out and put back once in the density.
    # A candidate beats the incumbent when d > 0, d being the cross-multiplied
    # difference of their densities (compare_density inlined); when a cost
    # gain is zero, the +inf sentinel, the difference of the cost gains has
    # d's sign.  The incumbent starts at density -1, which every candidate beats.
    f_base, g_base = f[base_mask], g[base_mask]
    best_mask, best_gain, best_spent = 0, -1, 1
    full = (1 << len(ground)) - 1
    if base_mask or f_base or g_base:
        comp = full & ~base_mask
        x = comp
        while x:
            mask = base_mask | x
            if feasible[mask]:
                spent = f[mask] - f_base
                gain = g[mask] - g_base
                if spent < 0 or gain < 0:
                    raise _non_monotone(ground, base_mask, x)
                d = (gain * best_spent - best_gain * spent if spent and best_spent
                     else best_spent - spent)
                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:
                    best_mask, best_gain, best_spent = x, gain, spent
            x = (x - 1) & comp
    else:
        # the empty base with zero values: the same masks in the same order,
        # each set's values being its gains, read in step off the columns
        columns = zip(range(full, 0, -1), reversed(feasible), reversed(f), reversed(g))
        for x, ok, spent, gain in columns:
            if ok:
                if spent < 0 or gain < 0:
                    raise _non_monotone(ground, base_mask, x)
                d = (gain * best_spent - best_gain * spent if spent and best_spent
                     else best_spent - spent)
                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:
                    best_mask, best_gain, best_spent = x, gain, spent
    if not best_mask:
        raise NoFeasibleSuperset(
            f"no feasible strict superset of {sorted(ids_in(ground, base_mask))}")
    rho = density(best_gain * lattice.cost_scale, best_spent * lattice.weight_scale)
    return DensityResult(tuple(sorted(ids_in(ground, best_mask))), rho)


def _not_in_family(ids) -> NotInFamily:
    return NotInFamily(f"base {sorted(ids)} is not in the family")


def _non_monotone(ground: tuple[int, ...], base_mask: int, x: int) -> NonMonotone:
    return NonMonotone(f"value decreased between {sorted(ids_in(ground, base_mask))} "
                       f"and {sorted(ids_in(ground, base_mask | x))}")


def _smaller_first(ground: tuple[int, ...], x: int, y: int) -> int:
    """1 when base + x comes before base + y, for distinct masks x, y
    outside the base: fewer elements, then the smaller sorted id tuple;
    -1 otherwise.  Equal-size sets' sorted tuples agree below the smallest
    id in which they differ, so the set holding that id comes first."""
    size_x, size_y = x.bit_count(), y.bit_count()
    if size_x != size_y:
        return 1 if size_x < size_y else -1
    return 1 if min(ids_in(ground, x & ~y)) < min(ids_in(ground, y & ~x)) else -1


class _Exhaustive(RunningOracle):
    """The exhaustive step as a running oracle: its value at a base is
    ``exact_max_density``'s, and its state is the base's bitmask."""

    def __init__(self, instance: MsopInstance):
        super().__init__()
        self.instance = instance
        self.bits: dict[int, int] | None = None  # id -> its bit, from the first step on

    def reset(self) -> None:
        if self.bits is None:
            self.bits = bit_of(self.instance.ground_set)
        self.mask = 0

    def move(self, added) -> DensityResult:
        instance, bits = self.instance, self.bits
        _cap_for("density", instance.n)
        mask = self.mask
        for v in added:
            if v not in bits:
                raise _not_in_family(set(ids_in(instance.ground_set, mask)).union(added))
            mask |= bits[v]
        self.mask = mask
        return _densest(instance, mask)


def exact_density_solver(instance: MsopInstance) -> DensitySolver:
    """Exhaustive density solver (factor 1) for use with the greedy loop:
    a running oracle (``_Exhaustive``) that moves the base's bitmask by
    each increment and scans the lattice from it as ``exact_max_density``
    does.  The instance's lattice is built by the first step, so a greedy
    run calls no oracle inside a step after that.  The cap is checked at
    every step computed, not when the solver is built.
    """
    return _Exhaustive(instance)


@dataclass(frozen=True)
class HistogramReport:
    """Outcome of the shrunken-histogram containment check.

    The optimal histogram has one column per step of the optimal chain,
    height = cost of the step's set.  The greedy histogram has one per
    greedy step, height (weight(V) - weight(S_{i-1})) / rho_i; the check
    shrinks it by 2 horizontally (flush right) and 2*alpha vertically and
    verifies it fits under the optimal one.  Both raw areas equal the
    respective chain costs exactly.
    """

    contained: bool
    first_violation: tuple[Rational, Density, Rational] | None
    opt_area: Rational
    greedy_area: Density


def histogram_containment_check(
    greedy_weights: Sequence[Rational],
    certificate: Sequence[Density] | None,
    opt_costs: Sequence[Rational],
    opt_weights: Sequence[Rational],
    alpha: Rational,
    cost_scale: int = 1,
    weight_scale: int = 1,
) -> HistogramReport:
    """The check on the greedy chain's weights and certificate and the
    optimal chain's costs and weights; both chains end at the ground set,
    so their last weights agree.  A cost stands for ``cost / cost_scale``
    and a weight for ``weight / weight_scale``: ``check_ratio`` passes the
    lattice's integer columns and their scales, and with both scales 1 the
    values are the Rationals themselves, as ``chain_values`` reads them.
    Heights are compared as (numerator, denominator) pairs by
    cross-multiplication, and the report's Rationals are built at the end."""
    if certificate is None:
        raise MissingCertificate("greedy chain carries no per-step density certificate")
    if alpha < 1:
        raise ValidationError("alpha must be at least 1")
    g_total = opt_weights[-1]

    # one merge in doubled x, where a greedy edge x shrinks to g_total + x
    # and an optimal one sits at 2x: the solid columns tile [g_total, 2 g_total]
    # and [0, 2 g_total], so each overlap of positive width is one interval
    # of the common refinement, met in order of x
    solid_opt: list[tuple[Rational, Rational, Rational]] = []  # left, right, cost
    opt_area = 0
    for left, right, cost in zip(opt_weights, opt_weights[1:], opt_costs[1:]):
        if left < right:
            solid_opt.append((2 * left, 2 * right, cost))
            opt_area += cost * (right - left)
    # greedy column i has height (g_total - left) / rho_i, kept as the pair
    # (num, den) for num / (den * weight_scale) with den > 0, or (1, 0) for
    # the ``INF`` sentinel height; the area is a sum of terms t / den over
    # weight_scale^2
    shrunk: list[tuple[Rational, Rational, Rational, int]] = []  # left, right, num, den
    terms: list[tuple[Rational, int]] = []  # (t, den)
    infinite = False
    for left, right, rho in zip(greedy_weights, greedy_weights[1:], certificate):
        if left == right:
            continue
        remaining = g_total - left
        if remaining == 0 or type(rho) is float:
            num, den = 0, 1
        elif rho == 0:
            num, den = 1, 0  # only reachable through a corrupted certificate
            infinite = True
        else:
            num, den = remaining * rho.denominator, rho.numerator
            if den < 0:
                num, den = -num, -den
            terms.append((num * (right - left), den))
        shrunk.append((g_total + left, g_total + right, num, den))
    # with alpha = a / b, a shrunk height num / (2 alpha den weight_scale)
    # sticks out of an optimal cost c / cost_scale where
    # num * b * cost_scale > 2 a weight_scale * c * den
    over, under = alpha.denominator * cost_scale, 2 * alpha.numerator * weight_scale
    first_violation: tuple[Rational, Density, Rational] | None = None
    i = j = 0
    while first_violation is None and i < len(shrunk):
        left, right, num, den = shrunk[i]
        o_left, o_right, cost = solid_opt[j]
        lo, hi = max(left, o_left), min(right, o_right)
        if lo < hi and num * over > under * cost * den:
            height = Fraction(num * alpha.denominator, under * den) if den else INF
            first_violation = (Fraction(lo + hi, 4 * weight_scale), height,
                               Fraction(cost, cost_scale))
        elif right <= o_right:
            i += 1
        else:
            j += 1

    if infinite:
        greedy_area: Density = INF
    else:
        common = lcm(*(den for _, den in terms))
        greedy_area = Fraction(sum(t * (common // den) for t, den in terms),
                               common * weight_scale * weight_scale)
    return HistogramReport(first_violation is None, first_violation,
                           Fraction(opt_area, cost_scale * weight_scale), greedy_area)


def check_ratio(
    instance: MsopInstance, chain: Chain, alpha: Rational
) -> tuple[Rational, Rational, HistogramReport, bool]:
    """Certify the 4*alpha bound as the paper's proof runs: (greedy cost,
    optimum, histogram report, violated), violated when the greedy cost
    exceeds 4*alpha times the optimum or the histogram is not contained.
    ``TooLarge`` comes before any chain is read.  ``chain_values`` checks
    the greedy chain, at no cost for one the greedy run kept; then both
    chains are read off the lattice as masks, the greedy chain's sets from
    its increments and the optimum's prefixes from its order, so the
    histogram check and the greedy cost run on the integer columns and no
    oracle is asked.  A falling prefix value of the optimum raises
    ``NonMonotone`` as ``chain_values`` would."""
    order, opt = exact_opt_permutation(instance)
    chain_values(instance, chain)
    lattice = instance.lattice
    f, g = lattice.cost, lattice.weight
    bits = bit_of(instance.ground_set)
    masks = [0]
    for increment in chain.increments:
        mask = masks[-1]
        for v in increment:
            mask |= bits[v]
        masks.append(mask)
    weights = [g[mask] for mask in masks]
    opt_costs, opt_weights = [0], [0]
    mask = 0
    for v in order:
        below, mask = mask, mask | bits[v]
        cost, weight = f[mask], g[mask]
        if cost < opt_costs[-1] or weight < opt_weights[-1]:
            raise _non_monotone(instance.ground_set, below, bits[v])
        opt_costs.append(cost)
        opt_weights.append(weight)
    cost_scale, weight_scale = lattice.cost_scale, lattice.weight_scale
    report = histogram_containment_check(weights, chain.densities, opt_costs, opt_weights,
                                         alpha, cost_scale, weight_scale)
    steps = zip(masks[1:], weights[1:], weights)
    greedy_cost = Fraction(sum(f[mask] * (w - prev) for mask, w, prev in steps),
                           cost_scale * weight_scale)
    return greedy_cost, opt, report, greedy_cost > 4 * alpha * opt or not report.contained
