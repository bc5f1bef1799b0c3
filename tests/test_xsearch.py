from fractions import Fraction
from itertools import combinations

import pytest

from msop import chain_cost, greedy_chain
from msop import exact
from msop.errors import DisconnectedInput, ValidationError
from msop.generators import gen_instance
from msop.xsearch import SearchGraph, xsearch_to_msop

from helpers import permutation_to_chain


def star():
    return SearchGraph(
        (0, 1, 2),
        0,
        ((0, 1, 1), (0, 2, 2)),
        {0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1, 2)},
    )


def test_star_optimum_takes_cheap_edge_first():
    inst = xsearch_to_msop(star())
    perm, cost = exact.exact_opt_permutation(inst)
    assert perm == (0, 1)  # edge indices: cost-1 edge first
    assert cost == 2
    other = chain_cost(inst, permutation_to_chain(inst, (1, 0)))
    assert other == Fraction(5, 2)


def test_single_edge_cost_is_total_product():
    graph = SearchGraph((0, 1), 0, ((0, 1, 3),), {0: Fraction(0), 1: Fraction(1)})
    inst = xsearch_to_msop(graph)
    _, cost = exact.exact_opt_permutation(inst)
    assert cost == 3 * 1


def test_family_requires_connection_to_root():
    graph = SearchGraph(
        (0, 1, 2),
        0,
        ((0, 1, 1), (1, 2, 1)),
        {0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1, 2)},
    )
    inst = xsearch_to_msop(graph)
    assert inst.in_family(frozenset())
    assert inst.in_family(frozenset({0}))
    assert not inst.in_family(frozenset({1}))  # far edge alone is detached
    assert inst.in_family(frozenset({0, 1}))


def test_family_union_closed_exhaustively():
    for seed in range(10):
        graph = gen_instance("xsearch", 4 + seed % 3, seed, extra=2)
        inst = xsearch_to_msop(graph)
        m = inst.n
        if m > 6:
            continue
        members = []
        for r in range(m + 1):
            for combo in combinations(range(m), r):
                s = frozenset(combo)
                if inst.in_family(s):
                    members.append(s)
        member_set = set(members)
        for s in members:
            for t in members:
                assert s | t in member_set


def test_greedy_with_exact_density_within_four():
    for seed in range(25):
        graph = gen_instance("xsearch", 2 + seed % 5, 400 + seed)
        inst = xsearch_to_msop(graph)
        chain = greedy_chain(inst, exact.exact_density_solver(inst))
        _, opt = exact.exact_opt_permutation(inst)
        assert chain_cost(inst, chain) <= 4 * opt


def test_validation_errors():
    with pytest.raises(DisconnectedInput):
        SearchGraph(
            (0, 1, 2), 0, ((0, 1, 1),), {0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1, 2)}
        )
    with pytest.raises(ValidationError):
        SearchGraph((0, 1), 0, ((0, 1, 1),), {0: Fraction(1, 2), 1: Fraction(1, 4)})
    with pytest.raises(ValidationError):
        SearchGraph((0, 1), 0, ((0, 1, 0),), {0: Fraction(0), 1: Fraction(1)})
    with pytest.raises(ValidationError):
        SearchGraph((0, 1), 3, ((0, 1, 1),), {0: Fraction(0), 1: Fraction(1)})
