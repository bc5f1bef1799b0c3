import random
from itertools import combinations

import pytest

from msop import (
    Chain,
    MsopInstance,
    backward_greedy_chain,
    chain_cost,
    dual_chain,
    dualize,
    greedy_chain,
    spot_check_hypotheses,
)
from msop import exact
from msop.errors import ValidationError

from helpers import gen_generic_msop, gen_supermodular_cost_msop, random_chain, singleton_solver


def modular(values):
    return lambda s: sum(values[v] for v in s)


def test_modular_cost_is_self_dual():
    values = [2, 5, 1]
    inst = MsopInstance((0, 1, 2), lambda s: True, modular(values), modular([1, 1, 1]))
    d = dualize(inst)
    for r in range(4):
        for combo in combinations(range(3), r):
            s = frozenset(combo)
            assert d.weight(s) == inst.cost(s)  # cost shows up as the dual weight


def test_dualize_squared_cardinality_example():
    inst = MsopInstance((1, 2), lambda s: True, lambda s: len(s) ** 2, lambda s: len(s))
    d = dualize(inst)
    assert d.weight(frozenset({1})) == 4 - 1  # dual of the cost at {1}


def test_double_dual_is_extensionally_identity():
    inst = gen_generic_msop(10, 31)
    dd = dualize(dualize(inst))
    for mask in range(1 << 10):
        s = frozenset(v for v in range(10) if mask >> v & 1)
        assert dd.in_family(s) == inst.in_family(s)
        assert dd.cost(s) == inst.cost(s)
        assert dd.weight(s) == inst.weight(s)


def test_supermodular_cost_meets_the_hypotheses_only_on_its_dual():
    # the backward greedy is forward greedy on the dual, where the
    # supermodular cost becomes a monotone weight and the modular weight
    # a modular cost
    for seed in range(20):
        inst = gen_supermodular_cost_msop(2 + seed % 6, seed)
        with pytest.raises(ValidationError, match="^cost is not subadditive"):
            spot_check_hypotheses(inst, random.Random(seed), rounds=500)
        spot_check_hypotheses(dualize(inst), random.Random(seed), rounds=500)


def test_dual_chain_examples_and_involution():
    chain = Chain.from_sets((frozenset(), frozenset({1}), frozenset({1, 2})))
    d = dual_chain(chain)
    assert d.sets == (frozenset(), frozenset({2}), frozenset({1, 2}))
    assert dual_chain(d) == chain
    two = Chain.from_sets((frozenset(), frozenset({1, 2})))
    assert dual_chain(two) == two


def test_cost_identity_under_duality():
    rng = random.Random(3)
    for seed in range(60):
        inst = gen_generic_msop(2 + seed % 6, 8000 + seed)
        chain = random_chain(inst, rng)
        assert chain_cost(inst, chain) == chain_cost(dualize(inst), dual_chain(chain))


def test_backward_greedy_equals_dualized_forward():
    for seed in range(20):
        inst = gen_supermodular_cost_msop(2 + seed % 5, seed)
        back = backward_greedy_chain(inst, singleton_solver)
        forward = greedy_chain(dualize(inst), singleton_solver(dualize(inst)))
        assert back.sets == dual_chain(forward).sets
        assert back.densities is not None


def test_backward_greedy_four_approximation_smoke():
    for seed in range(40):
        inst = gen_supermodular_cost_msop(2 + seed % 6, 100 + seed)
        back = backward_greedy_chain(inst, singleton_solver)
        _, opt = exact.exact_opt_chain(inst)
        assert chain_cost(inst, back) <= 4 * opt


def test_backward_on_duality_symmetric_instance():
    # cost and weight both |S|: the instance equals its dual, so both
    # directions produce the same objective value
    inst = MsopInstance((0, 1, 2), lambda s: True, lambda s: len(s), lambda s: len(s))
    back = backward_greedy_chain(inst, singleton_solver)
    forward = greedy_chain(inst, singleton_solver(inst))
    assert chain_cost(inst, back) == chain_cost(inst, forward)
