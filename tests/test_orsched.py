import random
from fractions import Fraction
from itertools import combinations

import pytest

from msop import INF, chain_cost, greedy_chain
from msop import exact
from msop.errors import (
    CyclicInput,
    NotInforest,
    NotInitial,
    NotMultitree,
)
from msop.generators import gen_instance
from msop.orsched import (
    OrDag,
    classify_dag,
    is_inforest,
    is_multitree,
    outtree_solver,
    stem_solver,
    to_msop,
)

from helpers import (
    InfeasibleOrder,
    candidate,
    eq2_cost,
    marginal_density,
    max_density_stem,
    ref_classify_dag,
    ref_or_initial_membership,
    residual,
    schedule_cost,
)


def unit_dag(arcs, n):
    return OrDag(tuple(range(n)), (1,) * n, (1,) * n, tuple(arcs))


def test_classification_examples():
    assert classify_dag(unit_dag([(0, 1), (1, 2)], 3)) == "outtree"
    assert classify_dag(unit_dag([(0, 2), (1, 2)], 3)) == "intree"
    assert classify_dag(unit_dag([(0, 1), (0, 2), (1, 3), (2, 3)], 4)) == "general"
    assert classify_dag(unit_dag([(0, 2), (1, 2), (3, 4)], 5)) == "inforest"
    assert classify_dag(unit_dag([(0, 2), (0, 3), (1, 2), (1, 3)], 4)) == "bipartite"
    assert classify_dag(unit_dag([(0, 1), (0, 2), (1, 3), (2, 4)], 5)) == "outtree"


def random_forest(rng, n, reverse):
    """Outtrees (intrees with ``reverse``) over jobs 0..n-1: each job after
    the first hangs below an earlier one, or starts a tree of its own."""
    arcs = [(rng.randrange(j), j) for j in range(1, n) if rng.random() < 0.8]
    return unit_dag([(j, i) if reverse else (i, j) for i, j in arcs], n)


def test_classify_dag_matches_reference_on_random_dags():
    rng = random.Random(45)
    labels = set()
    for _ in range(3000):
        n = rng.randint(1, 9)
        chance = rng.random()
        shape = rng.randrange(5)
        if shape == 0:
            pairs = combinations(rng.sample(range(n), n), 2)
            dag = unit_dag([pair for pair in pairs if rng.random() < chance], n)
        elif shape in (1, 2):
            dag = random_forest(rng, n, reverse=shape == 2)
        elif shape == 3:
            dag = unit_dag([], 1)
        else:
            dag = unit_dag([], n)
        label = classify_dag(dag)
        assert label == ref_classify_dag(dag), dag
        labels.add(label)
    assert labels == {"outtree", "intree", "inforest", "bipartite", "multitree", "general"}


def test_cycles_rejected():
    with pytest.raises(CyclicInput):
        unit_dag([(0, 1), (1, 0)], 2)
    with pytest.raises(CyclicInput):
        unit_dag([(0, 0)], 1)


def test_or_initial_membership_examples():
    member = to_msop(unit_dag([(0, 1)], 2)).in_family
    assert member(frozenset())
    assert member(frozenset({0, 1}))
    assert not member(frozenset({1}))
    assert member(frozenset({0}))


def test_or_initial_family_union_closed_exhaustively():
    for seed, n in ((0, 8), (1, 8), (2, 10)):
        member = to_msop(gen_instance("multitree", n, seed)).in_family
        members = []
        for mask in range(1 << n):
            s = frozenset(v for v in range(n) if mask >> v & 1)
            if member(s):
                members.append(s)
        member_set = set(members)
        for s in members:
            for t in members:
                assert s | t in member_set


def test_residual_examples():
    dag = unit_dag([(0, 1), (1, 2), (3, 2)], 4)
    assert residual(dag, frozenset()).arcs == dag.arcs
    assert residual(dag, frozenset(dag.jobs)).jobs == ()
    with pytest.raises(NotInitial):
        residual(dag, frozenset({1}))
    # removing the stem {0, 1} satisfies job 2, which loses all arcs
    after = residual(dag, frozenset({0, 1}))
    assert after.jobs == (2, 3)
    assert after.arcs == ()


def test_residual_of_inforest_is_inforest():
    rng = random.Random(0)
    for seed in range(30):
        dag = gen_instance("inforest", 3 + seed % 6, seed)
        inst = to_msop(dag)
        base = frozenset()
        while base != inst.universe():
            base = candidate(base, max_density_stem(dag, base))
            assert is_inforest(residual(dag, base))


def test_residual_of_multitree_is_multitree():
    for seed in range(20):
        dag = gen_instance("multitree", 3 + seed % 6, seed)
        inst = to_msop(dag)
        base = frozenset()
        while base != inst.universe():
            base = candidate(base, outtree_solver(dag)(base))
            assert is_multitree(residual(dag, base))


def test_stem_chain_dag_example():
    dag = OrDag((0, 1), (1, 1), (0, 1), ((0, 1),))
    result = max_density_stem(dag, frozenset())
    assert result.increment == (0, 1)
    assert result.marginal_density == Fraction(1, 2)


def test_stem_all_sources_picks_best_ratio_job():
    dag = OrDag((0, 1, 2), (2, 1, 4), (1, 3, 2), ())
    result = max_density_stem(dag, frozenset())
    assert result.increment == (1,)
    assert result.marginal_density == 3


def test_stem_zero_time_source_is_infinite():
    dag = OrDag((0, 1), (0, 2), (1, 5), ())
    result = max_density_stem(dag, frozenset())
    assert result.marginal_density == INF
    assert result.increment == (0,)


def test_stem_requires_inforest():
    dag = unit_dag([(0, 1), (0, 2)], 3)
    with pytest.raises(NotInforest):
        max_density_stem(dag, frozenset())


def test_stem_solver_rejects_a_dag_that_is_not_an_inforest():
    # job 0 has two successors; once 0 is in a base the residual is an
    # inforest, but the solver checks the DAG when it is built
    dag = OrDag((0, 1, 2), (1, 1, 1), (1, 1, 3), ((0, 1), (0, 2)))
    with pytest.raises(NotInforest):
        stem_solver(dag)


def test_outtree_two_children_example():
    dag = OrDag((0, 1, 2), (1, 1, 1), (0, 3, 1), ((0, 1), (0, 2)))
    result = outtree_solver(dag)(frozenset())
    assert result.increment == (0, 1)
    assert result.marginal_density == Fraction(3, 2)


def test_outtree_isolated_job():
    dag = OrDag((7,), (2,), (5,), ())
    result = outtree_solver(dag)(frozenset())
    assert result.increment == (7,)
    assert result.marginal_density == Fraction(5, 2)


def test_outtree_requires_multitree():
    dag = unit_dag([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
    with pytest.raises(NotMultitree):
        outtree_solver(dag)(frozenset())


def _random_or_initial_base(dag, inst, rng):
    base = frozenset()
    n = len(dag.jobs)
    for _ in range(rng.randint(0, n - 1)):
        candidates = [
            j
            for j in dag.jobs
            if j not in base and ref_or_initial_membership(dag, base | {j})
        ]
        if not candidates:
            break
        base = base | {rng.choice(candidates)}
    return base if base != inst.universe() else frozenset()


def test_stem_density_matches_exact_up_to_twelve_jobs():
    rng = random.Random(12)
    for seed in range(40):
        n = 3 + seed % 10  # up to 12
        dag = gen_instance("inforest", n, seed)
        inst = to_msop(dag)
        base = _random_or_initial_base(dag, inst, rng)
        got = max_density_stem(dag, base)
        assert got.marginal_density == exact.exact_max_density(inst, base).marginal_density


def test_outtree_density_matches_exact_up_to_twelve_jobs():
    rng = random.Random(14)
    for seed in range(40):
        n = 3 + seed % 10
        dag = gen_instance("multitree", n, seed)
        inst = to_msop(dag)
        base = _random_or_initial_base(dag, inst, rng)
        got = outtree_solver(dag)(base)
        assert got.marginal_density == exact.exact_max_density(inst, base).marginal_density


def test_returned_step_is_inclusion_minimal():
    rng = random.Random(15)
    for seed in range(40):
        n = 3 + seed % 8  # up to 10
        kind = "inforest" if seed % 2 else "multitree"
        dag = gen_instance(kind, n, seed)
        inst = to_msop(dag)
        base = _random_or_initial_base(dag, inst, rng)
        if kind == "inforest":
            got = max_density_stem(dag, base)
        else:
            got = outtree_solver(dag)(base)
        added = got.increment
        for r in range(1, len(added)):
            for combo in combinations(added, r):
                s = base | frozenset(combo)
                if not ref_or_initial_membership(dag, s):
                    continue
                rho = marginal_density(inst, base, s).marginal_density
                assert not _density_ge(rho, got.marginal_density), (seed, s)


def _density_ge(a, b):
    if a == INF:
        return True
    if b == INF:
        return False
    return a >= b


def test_schedule_cost_examples():
    single = OrDag((0,), (2,), (3,), ())
    assert schedule_cost(single, (0,)) == 6
    two = OrDag((0, 1), (1, 1), (1, 1), ())
    assert schedule_cost(two, (0, 1)) == 3
    dag = OrDag((0, 1), (1, 1), (0, 1), ((0, 1),))
    with pytest.raises(InfeasibleOrder):
        schedule_cost(dag, (1, 0))


def _random_feasible_order(dag, rng):
    order = []
    done = set()
    while len(order) < len(dag.jobs):
        ready = [
            j
            for j in dag.jobs
            if j not in done and (not dag.preds[j] or any(p in done for p in dag.preds[j]))
        ]
        pick = rng.choice(ready)
        order.append(pick)
        done.add(pick)
    return order


def test_schedule_cost_equals_chain_objective():
    rng = random.Random(16)
    for seed in range(60):
        dag = gen_instance("inforest", 2 + seed % 6, 300 + seed)
        inst = to_msop(dag)
        order = _random_feasible_order(dag, rng)
        assert schedule_cost(dag, order) == eq2_cost(inst, order)


def test_greedy_ratio_smoke_all_shapes():
    for seed in range(30):
        dag = gen_instance("inforest", 2 + seed % 7, seed)
        inst = to_msop(dag)
        chain = greedy_chain(inst, stem_solver(dag))
        _, opt = exact.exact_opt_permutation(inst)
        assert chain_cost(inst, chain) <= 4 * opt
    for seed in range(30):
        dag = gen_instance("multitree", 2 + seed % 7, seed)
        inst = to_msop(dag)
        chain = greedy_chain(inst, outtree_solver(dag))
        _, opt = exact.exact_opt_permutation(inst)
        assert chain_cost(inst, chain) <= 4 * opt
