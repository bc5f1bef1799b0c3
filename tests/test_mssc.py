import random
from fractions import Fraction

import pytest

from msop import chain_cost, greedy_chain
from msop import exact
from msop.errors import ValidationError
from msop.generators import gen_instance
from msop.mssc import (
    MsscInstance,
    singleton_solver,
    to_msop,
)

from helpers import covering_cost, eq2_cost, permutation_to_chain, unit_mssc


def test_coverage_weight_examples():
    weight = to_msop(unit_mssc(2, [frozenset({0}), frozenset({0, 1})])).weight
    assert weight(frozenset()) == 0
    assert weight(frozenset({0})) == 2
    assert weight(frozenset({1})) == 1


def test_coverage_weight_is_monotone_submodular_exhaustively():
    for seed in range(6):
        inst = gen_instance("pipelined", 5 + seed % 4, 900 + seed)
        n = inst.n
        subsets = [
            frozenset(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)
        ]
        weight = to_msop(inst).weight
        value = {s: weight(s) for s in subsets}
        for s in subsets:
            for t in subsets:
                assert value[s | t] + value[s & t] <= value[s] + value[t]
                if s <= t:
                    assert value[s] <= value[t]


def test_covering_cost_examples():
    single = unit_mssc(1, [frozenset({0})])
    assert covering_cost(single, (0,)) == 1
    inst = unit_mssc(3, [frozenset({0}), frozenset({0, 1}), frozenset({2})])
    assert covering_cost(inst, (0, 2, 1)) == 4


def test_covering_cost_equals_chain_cost():
    rng = random.Random(2)
    for seed in range(50):
        inst = gen_instance("pipelined", 2 + seed % 6, 500 + seed)
        order = list(range(inst.n))
        rng.shuffle(order)
        mi = to_msop(inst)
        assert covering_cost(inst, order) == chain_cost(mi, permutation_to_chain(mi, order))
        assert covering_cost(inst, order) == eq2_cost(mi, order)


def test_unit_instance_reproduces_covering_times():
    inst = unit_mssc(4, [frozenset({2}), frozenset({1, 3})])
    order = (3, 0, 2, 1)
    positions = {v: i + 1 for i, v in enumerate(order)}
    expected = sum(min(positions[v] for v in e) for _, e in inst.edges)
    assert covering_cost(inst, order) == expected


def test_singleton_density_brute_force_example():
    inst = unit_mssc(2, [frozenset({0}), frozenset({0}), frozenset({1})])
    result = singleton_solver(inst)(frozenset())
    assert result.increment == (0,)
    assert result.marginal_density == 2
    # brute force over all supersets confirms no larger density exists
    assert exact.exact_max_density(to_msop(inst), frozenset()).marginal_density == 2


def test_singleton_density_zero_gain_smallest_id():
    inst = unit_mssc(3, [frozenset({0})])
    result = singleton_solver(inst)(frozenset({0}))
    assert result.increment == (1,)
    assert result.marginal_density == 0


def test_singleton_density_equals_exact_value():
    rng = random.Random(4)
    for seed in range(40):
        inst = gen_instance("pipelined", 2 + seed % 7, 600 + seed)
        mi = to_msop(inst)
        base = frozenset(v for v in range(inst.n) if rng.random() < 0.4)
        if base == frozenset(range(inst.n)):
            base = frozenset()
        got = singleton_solver(inst)(base)
        assert got.marginal_density == exact.exact_max_density(mi, base).marginal_density


def test_greedy_pipeline_smoke():
    for seed in range(40):
        inst = gen_instance("pipelined", 2 + seed % 7, 700 + seed, edges=6)
        mi = to_msop(inst)
        chain = greedy_chain(mi, singleton_solver(inst))
        _, opt = exact.exact_opt_permutation(mi)
        assert chain_cost(mi, chain) <= 4 * opt


def test_zero_and_negative_costs_rejected():
    with pytest.raises(ValidationError):
        MsscInstance(2, (1, 0), ((1, frozenset({0})),))
    with pytest.raises(ValidationError):
        MsscInstance(2, (1, Fraction(-1, 2)), ((1, frozenset({0})),))


def test_bad_edges_rejected():
    with pytest.raises(ValidationError):
        MsscInstance(2, (1, 1), ((1, frozenset()),))
    with pytest.raises(ValidationError):
        MsscInstance(2, (1, 1), ((1, frozenset({2})),))
    with pytest.raises(ValidationError):
        MsscInstance(2, (1, 1), ((-1, frozenset({0})),))
