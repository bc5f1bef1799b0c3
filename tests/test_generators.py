import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from msop import dualize, spot_check_hypotheses
from msop.errors import BadParams
from msop.formats import KIND_OF_TYPE
from msop.generators import KINDS, gen_instance
from msop.orsched import classify_dag, is_inforest, is_multitree

from helpers import (
    gen_generic_msop,
    gen_or_pipelined,
    gen_supermodular_cost_msop,
    or_coverage_instance,
    random_chain,
    ref_gen_multitree,
)


def test_mssc_generator_validity_batch():
    # instance construction re-validates every invariant, so surviving
    # construction plus a few sanity probes is the check
    for seed in range(10_000):
        inst = gen_instance("mssc", 1 + seed % 8, seed)
        assert all(c == 1 for c in inst.costs)
        assert all(w == 1 and members for w, members in inst.edges)


def test_pipelined_generator_bounds():
    for seed in range(500):
        inst = gen_instance("pipelined", 1 + seed % 8, seed)
        assert all(1 <= c <= 5 for c in inst.costs)
        assert all(0 <= w <= 5 for w, _ in inst.edges)


def test_inforest_generator_shape():
    for seed in range(500):
        dag = gen_instance("inforest", 2 + seed % 10, seed)
        assert is_inforest(dag)


def test_multitree_generator_shape():
    for seed in range(300):
        dag = gen_instance("multitree", 2 + seed % 10, seed)
        assert is_multitree(dag)


def test_multitree_generator_matches_the_whole_dag_recheck():
    # same RNG draws and the same accepted arcs, so the instances are equal;
    # dense arc chances make most candidate arcs close a second path
    grid = [(n, seed, None) for n in range(1, 41, 3) for seed in range(4)]
    grid += [(n, seed, chance) for n in (5, 9, 14) for seed in range(3) for chance in (0.3, 0.9)]
    grid += [(90, 7, None), (60, 8, 0.2), (200, 5, None)]
    for n, seed, chance in grid:
        fast = gen_instance("multitree", n, seed, arc_chance=chance)
        assert fast == ref_gen_multitree(n, seed, chance), (n, seed, chance)
        assert is_multitree(fast)


def test_bipartite_generator_shape():
    for seed in range(300):
        dag = gen_instance("bipartite-or", 2 + seed % 10, seed)
        assert classify_dag(dag) in ("bipartite", "multitree", "outtree", "intree", "inforest")
        has_in = {j for _, j in dag.arcs}
        has_out = {i for i, _ in dag.arcs}
        assert not (has_in & has_out)


def test_rof_generator_structure():
    for seed in range(300):
        f = gen_instance("rof", 1 + seed % 10, seed)
        assert len(f.variables) == 1 + seed % 10
        assert all(0 < p < 1 for p in f.probs.values())
        assert all(isinstance(c, int) and 1 <= c <= 3 for c in f.costs.values())


def test_xsearch_generator_structure():
    for seed in range(300):
        graph = gen_instance("xsearch", 2 + seed % 8, seed)
        assert sum(graph.probs.values()) == 1


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_generic_instances_declare_honest_flags(seed):
    inst = gen_generic_msop(2 + seed % 6, seed)
    spot_check_hypotheses(inst, random.Random(seed), rounds=40)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_supermodular_cost_instances_declare_honest_flags(seed):
    inst = gen_supermodular_cost_msop(2 + seed % 6, seed)
    spot_check_hypotheses(dualize(inst), random.Random(seed), rounds=40)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_supermodular_cost_needs_two_elements(n):
    # each milestone of the cost spans two elements; n = 1 used to loop
    # forever looking for a second one
    with pytest.raises(BadParams, match="n must be at least 2"):
        gen_supermodular_cost_msop(n, 0)


@pytest.mark.parametrize("kind", KINDS)
def test_adapter_instances_meet_the_bound_hypotheses(kind):
    for n in (2, 5, 9, 16):
        for seed in range(1, 4):
            parsed = gen_instance(kind, n, seed)
            instance = KIND_OF_TYPE[type(parsed)].tools(parsed)[0]
            spot_check_hypotheses(instance, random.Random(seed))


def test_or_pipelined_instances_meet_the_bound_hypotheses():
    for n in (2, 5, 9, 16):
        for seed in range(1, 4):
            instance = or_coverage_instance(*gen_or_pipelined(n, seed))
            spot_check_hypotheses(instance, random.Random(seed))


def test_or_pipelined_generator():
    for seed in range(200):
        dag, edges = gen_or_pipelined(2 + seed % 7, seed)
        assert is_inforest(dag)
        assert all(p >= 1 for p in dag.times)
        assert all(w >= 1 and members for w, members in edges)


def test_random_chain_is_valid():
    rng = random.Random(0)
    for seed in range(50):
        inst = gen_generic_msop(2 + seed % 6, seed)
        chain = random_chain(inst, rng)
        assert chain.sets[0] == frozenset()
        assert chain.sets[-1] == inst.universe()
        assert all(inst.in_family(s) for s in chain.sets)


def _mask_tables(instance):
    subsets = [frozenset(v for v in range(instance.n) if mask >> v & 1)
               for mask in range(1 << instance.n)]
    return ([instance.in_family(s) for s in subsets], [instance.cost(s) for s in subsets],
            [instance.weight(s) for s in subsets])


def test_table_generators_give_the_pinned_output():
    # one digest over every table generator's output for n = 1-6 and seeds
    # 0-99: each table instance on all 2^n masks, a random chain of each
    # generic instance, and each OR-pipelined instance
    digest = hashlib.sha256()
    for n in range(1, 7):
        for seed in range(100):
            generic = gen_generic_msop(n, seed)
            chain = random_chain(generic, random.Random(seed))
            dag, edges = gen_or_pipelined(n, seed)
            parts = [_mask_tables(generic), [sorted(s) for s in chain.sets],
                     dag.times, dag.arcs, [(w, sorted(members)) for w, members in edges]]
            if n >= 2:
                parts.append(_mask_tables(gen_supermodular_cost_msop(n, seed)))
            digest.update(repr(parts).encode())
    assert digest.hexdigest() == (
        "05f2ff71a5fbb63b596148150527fb0e4b43a55897e2744434efb96c16ad9247")
