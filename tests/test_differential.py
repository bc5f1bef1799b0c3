"""Each fast density step against the implementation it replaced.

The references in ``helpers`` re-evaluate everything at every step; the
library's steps are incremental and integer-exact.  They must agree on the
set chosen at every step, so whole greedy chains and their densities are
compared, at sizes far above the exhaustive caps.
"""

import random
from fractions import Fraction

import pytest

from msop import greedy_chain, mssc, orsched, rof
from msop.errors import NonMonotone, NotMultitree
from msop.generators import gen_instance, gen_or_pipelined
from msop.orsched import OrDag

from helpers import (
    ref_compute_rp,
    ref_find_supp,
    ref_g_determined,
    ref_greedy_chain,
    ref_max_density_outtree,
    ref_max_density_stem,
    ref_prob_tables,
    ref_rof_instance,
    ref_singleton_greedy_density,
    ref_supplement_solver,
)


def assert_same_chain(fast, slow):
    assert fast.sets == slow.sets
    assert list(fast.densities) == list(slow.densities)
    assert fast.alpha == slow.alpha


def random_base(variables, rng, chance):
    return frozenset(v for v in variables if rng.random() < chance)


@pytest.mark.parametrize("kind", ["mssc", "pipelined"])
def test_singleton_step_matches_reference_chain(kind):
    for seed, n in ((1, 300), (2, 280)):
        parsed = gen_instance(kind, n, seed)
        inst = mssc.to_msop(parsed)
        fast = greedy_chain(inst, mssc.singleton_solver(parsed), 1)
        slow = ref_greedy_chain(inst, lambda b: ref_singleton_greedy_density(parsed, b), 1)
        assert_same_chain(fast, slow)


def test_singleton_step_matches_reference_from_any_base():
    rng = random.Random(31)
    for seed in range(40):
        parsed = gen_instance("pipelined" if seed % 2 else "mssc", 10 + seed * 5, seed)
        for _ in range(5):
            base = random_base(range(parsed.n), rng, rng.random())
            if len(base) == parsed.n:
                continue
            got = mssc.singleton_greedy_density(parsed, base)
            want = ref_singleton_greedy_density(parsed, base)
            assert (got.candidate, got.marginal_density) == (want.candidate, want.marginal_density)


def test_stem_step_matches_reference_chain():
    for seed, n in ((1, 200), (2, 190)):
        dag = gen_instance("inforest", n, seed)
        inst = orsched.to_msop(dag)
        oracle = orsched.modular_weight_oracle(dag)
        fast = greedy_chain(inst, orsched.stem_solver(dag), 1)
        slow = ref_greedy_chain(inst, lambda b: ref_max_density_stem(dag, oracle, b), 1)
        assert_same_chain(fast, slow)


def test_stem_step_with_coverage_oracle_matches_reference_chain():
    for seed, n in ((1, 100), (2, 90)):
        dag, edges = gen_or_pipelined(n, seed)
        inst = orsched.pipelined_to_msop(dag, edges)
        fast = greedy_chain(inst, orsched.stem_solver(dag, inst.weight), 1)
        slow = ref_greedy_chain(inst, lambda b: ref_max_density_stem(dag, inst.weight, b), 1)
        assert_same_chain(fast, slow)


def test_outtree_step_matches_reference_chain():
    for seed, n in ((1, 200), (2, 180)):
        dag = gen_instance("multitree", n, seed)
        inst = orsched.to_msop(dag)
        fast = greedy_chain(inst, orsched.outtree_solver(dag), 1)
        slow = ref_greedy_chain(inst, lambda b: ref_max_density_outtree(dag, b), 1)
        assert_same_chain(fast, slow)


def test_outtree_solver_memo_tells_apart_trees_of_equal_size():
    # root 0 reaches {0, 2} once job 3 has satisfied job 1, and {0, 1} once
    # job 4 has satisfied job 2: one solver sees both trees
    dag = OrDag((0, 1, 2, 3, 4), (1, 1, 1, 10, 10), (2, 4, 1, 0, 0),
                ((0, 1), (0, 2), (3, 1), (4, 2)))
    solve = orsched.outtree_solver(dag)
    for base in (frozenset({3}), frozenset({4}), frozenset({3, 4})):
        got, want = solve(base), ref_max_density_outtree(dag, base)
        assert (got.candidate, got.marginal_density) == (want.candidate, want.marginal_density)
    assert solve(frozenset({4})).candidate == frozenset({0, 1, 4})


def test_supplement_step_matches_reference_chain():
    formula = gen_instance("rof", 60, 1)
    inst = rof.to_msop(formula)
    ref_inst = ref_rof_instance(formula)
    fast = greedy_chain(inst, rof.supplement_solver(formula, inst), 2)
    slow = ref_greedy_chain(ref_inst, ref_supplement_solver(formula, ref_inst), 2)
    assert_same_chain(fast, slow)


def test_find_supp_and_g_determined_match_reference_on_random_bases():
    rng = random.Random(32)
    bases = 0
    for seed in range(30):
        formula = gen_instance("rof", 4 + seed, 200 + seed)
        variables = formula.variables
        for _ in range(10):
            base = random_base(variables, rng, rng.random())
            assert rof.g_determined(formula, base) == ref_g_determined(formula, base)
            ones, zeros = rof._prob_tables(formula, base)
            assert (ones, zeros) == ref_prob_tables(formula, base)
            if len(base) == len(variables):
                continue
            assert rof.find_supp(formula, base) == ref_find_supp(formula, base)
            bases += 1
    assert bases >= 250


def test_find_supp_density_tie_between_targets_goes_to_target_one():
    # target 1 is best with {2} at density 7/31, target 0 with {1, 2} at
    # 21/93 = 7/31
    formula = rof.ReadOnceFormula(
        rof.Gate("or", rof.Leaf(1), rof.Leaf(2)),
        {1: Fraction(1, 8), 2: Fraction(7, 31)},
        {1: 2, 2: 1},
    )
    assert rof.find_supp(formula, frozenset()) == frozenset({2})
    assert ref_find_supp(formula, frozenset()) == frozenset({2})


def test_compute_rp_tables_match_reference_entry_for_entry():
    rng = random.Random(33)
    for seed in range(20):
        formula = gen_instance("rof", 3 + seed, 300 + seed)
        base = random_base(formula.variables, rng, 0.3)
        tables = rof.compute_rp(formula, base)
        expect = ref_compute_rp(formula, base)
        for node in formula.nodes:
            for outcome in (0, 1):
                assert tables.table(node, outcome) == expect[node][outcome]


def test_outtree_solver_rejects_a_non_multitree():
    diamond = OrDag((0, 1, 2, 3), (1, 1, 1, 1), (1, 1, 1, 1), ((0, 1), (0, 2), (1, 3), (2, 3)))
    with pytest.raises(NotMultitree):
        orsched.outtree_solver(diamond)


def test_stem_with_a_decreasing_oracle_is_non_monotone():
    dag = OrDag((0, 1), (1, 1), (1, 1), ((0, 1),))
    with pytest.raises(NonMonotone):
        orsched.max_density_stem(dag, lambda s: Fraction(-len(s)), frozenset())
