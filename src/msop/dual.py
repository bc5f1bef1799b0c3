"""Dual instances, dual chains, and the backward greedy algorithm.

The dual of an instance swaps the roles of cost and weight through
complementation: dual cost(S) = weight(V) - weight(V \\ S), dual weight(S) =
cost(V) - cost(V \\ S), and S is dual-feasible iff V \\ S is feasible.
Running the forward greedy on the dual and mapping the chain back yields the
backward greedy chain, so there is a single greedy code path.
"""

from __future__ import annotations

from typing import Callable

from .core import (
    Chain,
    DensitySolver,
    MsopInstance,
    Rational,
    chain_values,
    density,
    greedy_chain,
)
from .lattice import complemented, supply

SolverFactory = Callable[[MsopInstance], DensitySolver]

def dualize(instance: MsopInstance) -> MsopInstance:
    """Dual instance; dualizing twice is extensionally the identity.

    The dual's lattice columns are the primal's read backwards (mask m
    stands for the complement of the primal's mask m), with the cost and
    weight columns and their scales trading places, so an exhaustive step
    on the dual calls no dual oracle.  A dual oracle called with S asks the
    primal one about V \\ S, and complements shrink as S grows, so each
    such call rebuilds a running primal oracle: O(n - |S|).
    """
    universe = instance.universe()
    cost_fn, weight_fn, family = instance.cost, instance.weight, instance.in_family
    total_cost = cost_fn(universe)
    total_weight = weight_fn(universe)

    def dual_cost(s: frozenset[int]) -> Rational:
        return total_weight - weight_fn(universe - s)

    def dual_weight(s: frozenset[int]) -> Rational:
        return total_cost - cost_fn(universe - s)

    def dual_family(s: frozenset[int]) -> bool:
        return family(universe - s)

    ground = instance.ground_set
    supply(dual_family, ground, lambda: instance.lattice.feasible[::-1])
    supply(dual_cost, ground,
           lambda: complemented(instance.lattice.weight, instance.lattice.weight_scale))
    supply(dual_weight, ground,
           lambda: complemented(instance.lattice.cost, instance.lattice.cost_scale))

    return MsopInstance(
        ground, dual_family, dual_cost, dual_weight, name=f"dual({instance.name})"
    )


def dual_chain(chain: Chain) -> Chain:
    """Complement every set and reverse; an involution on chains.  The
    complement of set j grows into that of set j - 1 by increment j, so
    the dual chain's increments are the chain's, reversed."""
    return Chain(tuple(reversed(chain.increments)))


def backward_greedy_chain(instance: MsopInstance, solver_factory: SolverFactory) -> Chain:
    """Backward greedy: forward greedy on the dual, mapped back.

    ``solver_factory`` receives the dual instance and must return a density
    solver for it.  The returned chain's certificate stores, per step, the
    marginal density between the consecutive primal sets (the quantity the
    backward greedy condition bounds by the dual step's factor times the
    minimum removal density), read off one checked walk of the primal chain,
    whose values the chain keeps.
    """
    dual_instance = dualize(instance)
    forward = greedy_chain(dual_instance, solver_factory(dual_instance))
    primal = dual_chain(forward)
    costs, weights = chain_values(instance, primal)
    densities = tuple(density(g - prev_g, f - prev_f) for f, prev_f, g, prev_g
                      in zip(costs[1:], costs, weights[1:], weights))
    return Chain(primal.increments, densities, (costs, weights), instance)
