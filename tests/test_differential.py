"""Each fast density step against the implementation it replaced.

The references in ``helpers`` re-evaluate everything at every step; the
library's steps are incremental and integer-exact.  They must agree on the
set chosen at every step, so whole greedy chains and their densities are
compared: for the polynomial steps at sizes far above the exhaustive caps,
for the exhaustive step at 10 to 14 elements.  The lattice DPs, which run
on scaled integers, are compared with their ``Fraction`` versions up to the
exhaustive caps, and the histogram check's merge with the breakpoint scan
it replaced.  The running oracles, the chain text and the refinement,
which move by each chain increment, are compared with their from-scratch
versions along the walks the solve path takes.
"""

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from msop import (
    INF, Chain, MsopInstance, chain_cost, cli, dual, exact, formats, greedy_chain,
    mssc, orsched, rof, xsearch,
)
from msop.core import chain_to_permutation, compare_density
from msop.errors import (
    DisconnectedInput,
    MsopError,
    NoFeasiblePermutation,
    NoFeasibleSuperset,
    NonMonotone,
    NotInitial,
    NotMultitree,
)
from msop.generators import KINDS, gen_instance
from msop.lattice import RunningOracle, RunningSum, Walk, free, modular
from msop.mssc import MsscInstance
from msop.orsched import OrDag

from helpers import (
    chain_histogram,
    find_supp,
    gen_generic_msop,
    gen_or_pipelined,
    gen_permutation_msop,
    marginal_density,
    or_coverage_instance,
    prob_tables,
    random_chain,
    ref_chain_to_permutation,
    ref_compute_rp,
    ref_coverage_weight,
    ref_exact_max_density,
    ref_exact_opt_chain,
    ref_exact_opt_permutation,
    ref_find_supp,
    ref_format_chain,
    ref_g_determined,
    ref_greedy_chain,
    ref_histogram_containment_check,
    ref_is_multitree,
    ref_max_density_outtree,
    ref_max_density_stem,
    ref_or_initial_membership,
    ref_prob_tables,
    ref_rof_instance,
    ref_scaled_supplement_step,
    ref_scaled_tables,
    ref_singleton_greedy_density,
    ref_singleton_step,
    ref_supplement_solver,
    ref_xsearch_weight,
    tabulate,
    undominated,
)


def assert_same_chain(fast, slow):
    assert fast.sets == slow.sets
    assert list(fast.densities) == list(slow.densities)


def random_base(variables, rng, chance):
    return frozenset(v for v in variables if rng.random() < chance)


@pytest.mark.parametrize("kind", ["mssc", "pipelined"])
def test_singleton_step_matches_reference_chain(kind):
    for seed, n in ((1, 300), (2, 280)):
        parsed = gen_instance(kind, n, seed)
        inst = mssc.to_msop(parsed)
        fast = greedy_chain(inst, mssc.singleton_solver(parsed))
        slow = ref_greedy_chain(inst, lambda b: ref_singleton_greedy_density(parsed, b))
        assert_same_chain(fast, slow)


def test_singleton_step_matches_reference_from_any_base():
    rng = random.Random(31)
    for seed in range(40):
        parsed = gen_instance("pipelined" if seed % 2 else "mssc", 10 + seed * 5, seed)
        for _ in range(5):
            base = random_base(range(parsed.n), rng, rng.random())
            if len(base) == parsed.n:
                continue
            got = mssc.singleton_solver(parsed)(base)
            want = ref_singleton_greedy_density(parsed, base)
            assert (got.increment, got.marginal_density) == (want.increment, want.marginal_density)


def test_stem_step_matches_reference_chain():
    for seed, n in ((1, 300), (2, 400)):
        dag = gen_instance("inforest", n, seed)
        inst = orsched.to_msop(dag)
        oracle = orsched.to_msop(dag).weight
        fast = greedy_chain(inst, orsched.stem_solver(dag))
        slow = ref_greedy_chain(inst, lambda b: ref_max_density_stem(dag, oracle, b))
        assert_same_chain(fast, slow)


def test_outtree_step_matches_reference_chain():
    for seed, n in ((1, 300), (2, 180)):
        dag = gen_instance("multitree", n, seed)
        inst = orsched.to_msop(dag)
        fast = greedy_chain(inst, orsched.outtree_solver(dag))
        slow = ref_greedy_chain(inst, lambda b: ref_max_density_outtree(dag, b))
        assert_same_chain(fast, slow)


def or_initial_walk(dag, rng):
    """OR-initial sets from the empty set to every job, each adding one
    random job that is free to start."""
    walk = [frozenset()]
    while len(walk[-1]) < len(dag.jobs):
        base = walk[-1]
        free = [j for j in dag.jobs if j not in base and ref_or_initial_membership(dag, base | {j})]
        walk.append(base | {rng.choice(free)})
    return walk


def outcome(step, *args):
    """The step's (increment, density), or its error's class and message."""
    try:
        got = step(*args)
    except MsopError as err:
        return type(err).__name__, str(err)
    return got.increment, got.marginal_density


def modular_stem(dag, base):
    return ref_max_density_stem(dag, orsched.to_msop(dag).weight, base)


SOLVERS = {
    "inforest": (lambda n, seed: gen_instance("inforest", n, seed), orsched.stem_solver,
                 modular_stem),
    "multitree": (lambda n, seed: gen_instance("multitree", n, seed), orsched.outtree_solver,
                  ref_max_density_outtree),
}


def blocked_job(dag, base):
    """A job outside ``base`` none of whose predecessors it holds, so that
    ``base`` plus the job is not OR-initial; None when there is none."""
    return next((j for j in dag.jobs if dag.preds[j] and j not in base
                 and base.isdisjoint(dag.preds[j])), None)


def drive(solve, reference, parsed, bases):
    """One solver through ``bases`` in order, each step against the
    reference; returns the outcome kinds seen."""
    kinds = set()
    for k, base in enumerate(bases):
        want = outcome(reference, parsed, base)
        assert outcome(solve, base) == want, (k, sorted(base))
        kinds.add(want[0] if isinstance(want[0], str) else "step")
    return kinds


def shuffled_walks(walk, rng):
    """A walk, its reverse and a shuffle, one after another."""
    return walk + walk[::-1] + rng.sample(walk, len(walk))


@pytest.mark.parametrize("shape", sorted(SOLVERS))
def test_or_solver_matches_reference_on_bases_out_of_order(shape):
    make, solver, reference = SOLVERS[shape]
    rng = random.Random(43)
    outcomes = set()
    for seed in range(8):
        dag = make(8 + 4 * seed, 600 + seed)
        walk = or_initial_walk(dag, rng)
        # a base near the middle of the walk, and a job none of whose
        # predecessors it holds: together they are not OR-initial
        middle, blocked = next(
            (b, j) for b in walk[len(walk) // 2::-1] if (j := blocked_job(dag, b)) is not None
        )
        bases = shuffled_walks(walk, rng)
        bases += [middle, middle | {blocked}, walk[-2], frozenset({blocked}), frozenset()]
        outcomes |= drive(solver(dag), reference, dag, bases)
    assert outcomes == {"step", "NotInitial", "NoFeasibleSuperset"}


def rof_step(formula, base):
    return ref_scaled_supplement_step(formula, rof.to_msop(formula), base)


def rof_solver(formula):
    return rof.supplement_solver(formula)


def free_walk(ground, rng):
    """Sets from the empty set to the whole ground set, each adding one
    random element."""
    order = rng.sample(sorted(ground), len(ground))
    return [frozenset(order[:k]) for k in range(len(order) + 1)]


FREE_SOLVERS = {
    "mssc": (lambda n, seed: gen_instance("mssc", n, seed), mssc.singleton_solver,
             ref_singleton_step, lambda parsed: range(parsed.n)),
    "pipelined": (lambda n, seed: gen_instance("pipelined", n, seed), mssc.singleton_solver,
                  ref_singleton_step, lambda parsed: range(parsed.n)),
    "rof": (lambda n, seed: gen_instance("rof", n, seed), rof_solver, rof_step,
            lambda formula: formula.variables),
}


@pytest.mark.parametrize("kind", sorted(FREE_SOLVERS))
def test_free_family_solver_matches_reference_on_bases_out_of_order(kind):
    make, solver, reference, ground = FREE_SOLVERS[kind]
    rng = random.Random(44)
    outcomes = set()
    for seed in range(8):
        parsed = make(8 + 4 * seed, 700 + seed)
        walk = free_walk(ground(parsed), rng)
        bases = shuffled_walks(walk, rng)
        bases += [walk[len(walk) // 2], walk[-2], walk[-1], walk[-1], frozenset()]
        outcomes |= drive(solver(parsed), reference, parsed, bases)
    assert outcomes == {"step", "NoFeasibleSuperset"}


# kind: (parsed instance, adapter, solver factory, stateless reference)
DETOURS = {
    "mssc": (lambda: gen_instance("mssc", 160, 11), mssc.to_msop, mssc.singleton_solver,
             ref_singleton_step),
    "pipelined": (lambda: gen_instance("pipelined", 140, 12), mssc.to_msop,
                  mssc.singleton_solver, ref_singleton_step),
    "inforest": (lambda: gen_instance("inforest", 150, 13), orsched.to_msop,
                 orsched.stem_solver, modular_stem),
    "multitree": (lambda: gen_instance("multitree", 110, 14), orsched.to_msop,
                  orsched.outtree_solver, ref_max_density_outtree),
    "rof": (lambda: gen_instance("rof", 70, 15), rof.to_msop, rof_solver, rof_step),
    "rof-nested": (lambda: right_nested_formula(60, 16), rof.to_msop, rof_solver, rof_step),
}


def right_nested_formula(leaves, seed):
    """(op x1 (op x2 (... x<leaves>))) with random gates, probabilities and
    costs: greedy tests deep leaves, whose root paths hold nearly every gate."""
    rng = random.Random(seed)
    node = rof.Leaf(leaves)
    for v in range(leaves - 1, 0, -1):
        node = rof.Gate(rng.choice(("and", "or")), rof.Leaf(v), node)
    probs = {}
    for v in range(1, leaves + 1):
        den = rng.randint(2, 6)
        probs[v] = Fraction(rng.randint(1, den - 1), den)
    return rof.ReadOnceFormula(node, probs, {v: rng.randint(1, 3) for v in range(1, leaves + 1)})


@pytest.mark.parametrize("kind", sorted(DETOURS))
def test_stateful_solver_matches_reference_through_detours(kind):
    # above the exhaustive caps: the stateless reference's greedy chain, fed
    # to one solver with detours -- the same base twice, a base that is not
    # OR-initial (OR-DAGs), a jump ahead and back, and a base that neither
    # contains nor is contained in the last one -- between nested stretches
    make, adapter, solver, reference = DETOURS[kind]
    parsed = make()
    inst = adapter(parsed)
    chain = ref_greedy_chain(inst, lambda b: reference(parsed, b))
    sets = list(chain.sets[:-1])
    assert len(sets) >= 30
    rng = random.Random(kind)
    a, b = len(sets) // 3, 2 * len(sets) // 3
    if isinstance(parsed, OrDag):
        walk = or_initial_walk(parsed, rng)
        blocked = blocked_job(parsed, sets[a - 1])
        bad = [sets[a - 1] | {blocked}]
    else:
        walk = free_walk(inst.ground_set, rng)
        bad = []
    other = walk[len(sets[b])]
    assert not (other <= sets[b] or other >= sets[b])
    bases = sets[:a] + [sets[a - 1]] + bad + sets[a:b] + [sets[b + 3], sets[b + 1]]
    bases += [other] + sets[b:]
    kinds = drive(solver(parsed), reference, parsed, bases)
    assert kinds == ({"step", "NotInitial"} if bad else {"step"})


def test_outtree_solver_memo_tells_apart_trees_of_equal_size():
    # root 0 reaches {0, 2} once job 3 has satisfied job 1, and {0, 1} once
    # job 4 has satisfied job 2: one solver sees both trees
    dag = OrDag((0, 1, 2, 3, 4), (1, 1, 1, 10, 10), (2, 4, 1, 0, 0),
                ((0, 1), (0, 2), (3, 1), (4, 2)))
    solve = orsched.outtree_solver(dag)
    for base in (frozenset({3}), frozenset({4}), frozenset({3, 4})):
        got, want = solve(base), ref_max_density_outtree(dag, base)
        assert (got.increment, got.marginal_density) == (want.increment, want.marginal_density)
    assert solve(frozenset({4})).increment == (0, 1)


def test_residual_forgets_candidates_through_added_or_freed_jobs():
    # 0 -> 1 -> 2 -> 4 and 3 -> 2: source 0's densest stem is 0, 1, 2, 4.
    # Adding job 3 frees job 2, which cuts that stem short.  A best stem
    # through a freed job always loses to the freed job's own (its tail is
    # denser), so it reaches the heap's top only once the freed job has
    # left the residual sources: this checks the state itself.
    dag = OrDag((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), (0, 0, 9, 1, 5),
                ((0, 1), (1, 2), (2, 4), (3, 2)))
    calls = []

    def fresh(state, start):
        calls.append(start)
        return orsched._best_prefix(state, start)

    state = orsched._Residual(dag, fresh)
    state(frozenset())
    kept = next(cand for cand in state.heap if cand[-2] == 0)
    assert kept[-2:] == (0, [1, 2, 4]) and calls == [0, 3]
    heap = list(state.heap)
    state(frozenset())
    assert state.heap == heap and kept in heap and not state.dirty and calls == [0, 3]
    # job 2 is freed: the new source alone is computed, source 0's stem is kept
    state(frozenset({3}))
    assert state.sources == {0, 2} and calls == [0, 3, 2] and 2 in state.closed
    assert kept in state.heap and not state.dirty
    del calls[:]
    base = frozenset({2, 3, 4})
    # sources 2 and 3 leave, so the top holds the closed job 2 and source
    # 0's stem is computed again
    assert state(base).increment == (0,) and calls == [0]
    assert state.best() is state.heap[0] and calls == [0]
    assert state.heap == [orsched._best_prefix(state, 0)]
    assert state.heap[0][-2:] == (0, [])
    state(frozenset({0}))  # not a superset: rebuilt, every source computed again
    assert calls == [0, 1, 3] and sorted(cand[-2] for cand in state.heap) == [1, 3]
    assert not state.dirty


# kind: (parsed instance, solver factory, stateless reference)
STATES = {
    "mssc": (lambda: gen_instance("mssc", 70, 21), mssc.singleton_solver, ref_singleton_step),
    "pipelined": (lambda: gen_instance("pipelined", 60, 22), mssc.singleton_solver,
                  ref_singleton_step),
    "inforest": (lambda: gen_instance("inforest", 80, 23), orsched.stem_solver, modular_stem),
    "multitree": (lambda: gen_instance("multitree", 70, 24), orsched.outtree_solver,
                  ref_max_density_outtree),
    "rof": (lambda: gen_instance("rof", 40, 25), rof_solver, rof_step),
}


@pytest.mark.parametrize("kind", sorted(STATES))
def test_solver_state_drops_and_takes_back_one_element_by_moves(kind):
    # along a greedy chain, the state drops one element of each base (two
    # of the last increment's first, which the reference often takes back
    # at once, then two at random) and adds it again: a set that misses an
    # element of the last set rebuilds once, any other is a move from the
    # last set (taking the element back is one), and each step is the
    # stateless reference's
    make, solver, reference = STATES[kind]
    parsed = make()
    chain = cli.Toolchain(parsed).greedy()
    state = solver(parsed)
    rng = random.Random(kind)
    last, rebuilds, moves = None, 0, 0
    for prev, base in zip(chain.sets, chain.sets[1:-1]):
        if len(base) < 3:
            continue
        order = sorted(base - prev) + sorted(prev)
        if isinstance(parsed, OrDag):
            order = [x for x in order if ref_or_initial_membership(parsed, base - {x})]
        for x in order[:2] + rng.sample(order[2:], min(2, len(order) - 2)):
            for s in (base - {x}, base):
                assert outcome(state, s) == outcome(reference, parsed, s), sorted(s)
                if last is not None and last <= s:
                    moves += 1
                else:
                    rebuilds += 1
                last = s
                assert state.rebuilds == rebuilds, sorted(s)
    assert moves >= 100 and rebuilds >= 60


def test_residual_forgets_candidates_when_a_removal_reopens_a_job():
    # 0 -> 1 -> 2 -> 4 and 3 -> 2, with job 5 alone.  While job 3 is in the
    # base, job 2 is freed and source 0's densest stem is 0 alone (density
    # 0); dropping job 3 reopens job 2, and 0, 1, 2, 4 (density 14/4) beats
    # 3, 2, 4 (14/12).  A base without job 3 misses the last base, so the
    # solver is rebuilt and keeps no candidate of it
    dag = OrDag((0, 1, 2, 3, 4, 5), (1, 1, 1, 10, 1, 1), (0, 0, 9, 0, 5, 1),
                ((0, 1), (1, 2), (2, 4), (3, 2)))
    solve = orsched.stem_solver(dag)
    for base in (frozenset({3, 5}), frozenset({5})):
        assert outcome(solve, base) == outcome(modular_stem, dag, base)
    assert solve.rebuilds == 2
    assert outcome(solve, frozenset({5})) == ((0, 1, 2, 4), Fraction(7, 2))


def tie_heavy_dag(kind, n, seed):
    """A generated DAG of ``kind`` with unit times and weights, and time 0
    on three of its sources: nearly every step is a tie."""
    dag = gen_instance(kind, n, seed)
    flat = set(random.Random(seed).sample(dag.sources, 3))
    return OrDag(dag.jobs, tuple(0 if j in flat else 1 for j in dag.jobs), (1,) * n, dag.arcs)


def tie_heavy_mssc(n, seed):
    """Generated hyperedges with one cost for every element and one weight
    for every hyperedge."""
    parsed = gen_instance("pipelined", n, seed)
    return MsscInstance(n, (2,) * n, tuple((3, members) for _, members in parsed.edges))


# kind: (parsed instance, adapter, solver factory, stateless reference)
TIE_HEAVY = {
    "inforest": (lambda: tie_heavy_dag("inforest", 300, 31), orsched.to_msop,
                 orsched.stem_solver, modular_stem),
    "multitree": (lambda: tie_heavy_dag("multitree", 300, 32), orsched.to_msop,
                  orsched.outtree_solver, ref_max_density_outtree),
    "mssc": (lambda: tie_heavy_mssc(300, 33), mssc.to_msop, mssc.singleton_solver,
             ref_singleton_step),
}


@pytest.mark.parametrize("kind", sorted(TIE_HEAVY))
def test_heap_step_matches_reference_chain_through_ties(kind):
    # above the caps, where the heap orders hundreds of equal densities
    make, adapter, solver, reference = TIE_HEAVY[kind]
    parsed = make()
    inst = adapter(parsed)
    fast = greedy_chain(inst, solver(parsed))
    slow = ref_greedy_chain(inst, lambda b: reference(parsed, b))
    assert_same_chain(fast, slow)
    densities = list(fast.densities)
    assert len(densities) - len(set(densities)) >= 100
    assert (INF in densities) == isinstance(parsed, OrDag)


def detour_walk(parsed, inst, sets, rng):
    """Bases along a greedy chain's sets with detours: each set, then the
    set without the largest id of its last increment (in a generated DAG
    no job of the increment follows it), then the set again, the same set
    twice, a jump ahead and back, and a set that neither contains nor is
    contained in the last one."""
    bases = []
    for prev, base in zip(sets, sets[1:]):
        bases += [base, base - {max(base - prev)}, base] if prev else [base]
    b = 2 * len(sets) // 3
    walk = (or_initial_walk(parsed, rng) if isinstance(parsed, OrDag)
            else free_walk(inst.ground_set, rng))
    return bases[:b] + [bases[b - 1], sets[b + 3], sets[b + 1], walk[len(sets[b])]] + bases[b:]


def scanned_best(state, candidate):
    """The best candidate of a fresh scan over the sorted residual sources:
    denser first, then the smaller ``cand[2]``, then the earlier start."""
    best = None
    for start in sorted(state.sources):
        cand = candidate(start)
        order = 1 if best is None else compare_density(cand[0], cand[1], best[0], best[1])
        if order > 0 or (order == 0 and cand[2] < best[2]):
            best = cand
    return best


# shape: (parsed instance, solver factory, fresh candidate of a source)
RESIDUAL_STEPS = {
    "inforest": (lambda: gen_instance("inforest", 150, 13), orsched.stem_solver,
                 orsched._best_prefix),
    "inforest-ties": (lambda: tie_heavy_dag("inforest", 120, 34), orsched.stem_solver,
                      orsched._best_prefix),
    "multitree": (lambda: gen_instance("multitree", 110, 14), orsched.outtree_solver,
                  orsched._best_subtree),
    "multitree-ties": (lambda: tie_heavy_dag("multitree", 110, 35), orsched.outtree_solver,
                       orsched._best_subtree),
}


@pytest.mark.parametrize("shape", sorted(RESIDUAL_STEPS))
def test_residual_heap_top_is_a_fresh_scan_after_every_move(shape):
    # after each step along a chain with detours: the heap's current top is
    # the best of a fresh scan, every source has exactly one kept
    # candidate, which equals its fresh candidate while it holds no closed
    # job and ranks no later than it otherwise, and a set that misses jobs
    # of the last one, which rebuilds, leaves no entry of a job that is not
    # a source
    make, solver, fresh = RESIDUAL_STEPS[shape]
    dag = make()
    inst = orsched.to_msop(dag)
    sets = cli.Toolchain(dag).greedy().sets[:-1]
    state = solver(dag)
    last, steps, removals = frozenset(), 0, 0
    for base in detour_walk(dag, inst, sets, random.Random(shape)):
        removed, last = not last <= base, base
        try:
            state(base)
        except (NotInitial, NoFeasibleSuperset):
            continue
        def candidate(start):
            return fresh(state, start)

        assert tuple(state.best()) == tuple(scanned_best(state, candidate)), sorted(base)
        starts = Counter(cand[-2] for cand in state.heap)
        assert all(starts[s] == 1 for s in state.sources)
        for cand in state.heap:
            if cand[-2] in state.sources:
                now = orsched._Ranked(candidate(cand[-2]))
                if state.closed.isdisjoint(cand[-1]):
                    assert cand == now, sorted(base)
                else:
                    assert not now < cand, sorted(base)
        if removed:
            assert all(cand[-2] in state.sources for cand in state.heap)
            removals += 1
        steps += 1
    assert steps >= 150 and removals >= 50


def test_gains_heap_tops_are_each_cost_class_maximum_after_every_move():
    # after each call along a chain with detours, rebuilds included: each
    # cost class's heap top is its first maximum gain (none when the whole
    # class is in the base), and no element outside the base has only
    # entries that understate its gain
    emptied = 0
    for kind in ("mssc", "pipelined"):
        parsed = gen_instance(kind, 120, 36)
        inst = mssc.to_msop(parsed)
        sets = cli.Toolchain(parsed).greedy().sets[:-1]
        state = mssc._Gains(parsed)
        for base in detour_walk(parsed, inst, sets, random.Random(kind)):
            state(base)
            gain = state.gain
            for members, heap in zip(state.classes, state.heaps):
                top = max(members, key=gain.__getitem__)
                want = (-gain[top], top) if gain[top] >= 0 else None
                assert (heap[0] if heap else None) == want, (kind, sorted(base))
                emptied += not heap
                highest = {}
                for g, v in heap:
                    highest[v] = max(highest.get(v, -g), -g)
                assert all(highest.get(v, -1) >= gain[v] for v in members)
    assert emptied


def test_supplement_step_matches_reference_chain():
    formula = gen_instance("rof", 60, 1)
    inst = rof.to_msop(formula)
    ref_inst = ref_rof_instance(formula)
    fast = greedy_chain(inst, rof.supplement_solver(formula))
    slow = ref_greedy_chain(ref_inst, ref_supplement_solver(formula, ref_inst))
    assert_same_chain(fast, slow)


@pytest.mark.parametrize("make", [lambda: gen_instance("rof", 120, 2),
                                  lambda: right_nested_formula(110, 3)],
                         ids=["generated", "right-nested"])
def test_supplement_step_matches_unpruned_reference_chain(make):
    formula = make()
    inst = rof.to_msop(formula)
    fast = greedy_chain(inst, rof.supplement_solver(formula))
    slow = ref_greedy_chain(inst, lambda b: ref_scaled_supplement_step(formula, inst, b))
    assert_same_chain(fast, slow)


def test_supplement_tables_are_the_undominated_exact_budget_entries():
    # after every move, nested or not, each gate's kept table is exactly the
    # undominated part of the full exact-budget table, back-pointers included
    rng = random.Random(34)
    checked = dropped = 0
    for seed in range(10):
        formula = gen_instance("rof", 12 + 5 * seed, 400 + seed)
        walk = free_walk(formula.variables, rng)
        state = rof._Supplements(formula)
        for base in walk[:-1] + rng.sample(walk[:-1], 6):
            state(base)
            full = ref_scaled_tables(formula, base)
            for node in formula.nodes:
                for target in (0, 1):
                    kept = state.scaled[node][target]
                    table = full[node][target]
                    budgets = undominated({t: value for t, (value, _) in table.items()})
                    assert kept == {t: table[t] for t in budgets}, (seed, sorted(base))
                    dropped += len(table) - len(kept)
                    checked += 1
    assert checked > 10_000 and dropped > 10_000


def test_supplement_search_through_zero_gain_budgets():
    # and(or(x1, x2), or(x3, x4)): until each side holds a tested leaf, a
    # budget spent on one side only determines nothing new for target 1, so
    # the exact-budget tables hold zero-gain entries that pruning drops
    formula = rof.ReadOnceFormula(
        rof.Gate("and", rof.Gate("or", rof.Leaf(1), rof.Leaf(2)),
                 rof.Gate("or", rof.Leaf(3), rof.Leaf(4))),
        {1: Fraction(1, 3), 2: Fraction(1, 2), 3: Fraction(2, 5), 4: Fraction(1, 4)},
        {1: 1, 2: 2, 3: 4, 4: 5},
    )
    root = ref_scaled_tables(formula, frozenset())[formula.root][1]
    zero_gain = [t for t in sorted(root) if t and root[t][0] == root[0][0]]
    assert zero_gain == [1, 2, 3, 4, 9]
    solve = rof_solver(formula)
    subsets = [frozenset(v for v in range(1, 5) if m >> (v - 1) & 1) for m in range(15)]
    # every proper subset, in an order that both nests and jumps around
    for base in subsets + subsets[::-1] + subsets[::3]:
        assert outcome(solve, base) == outcome(rof_step, formula, base), sorted(base)


def test_supplement_step_calls_the_weight_oracle_once():
    formula = gen_instance("rof", 30, 4)
    inst = rof.to_msop(formula)
    calls = []
    counted = replace(inst, weight=lambda s: calls.append(s) or inst.weight(s))
    chain = greedy_chain(counted, rof.supplement_solver(formula))
    # validate() weighs the empty set; each step weighs its candidate in the
    # loop's re-check, since the solver reads the candidate's weight off its
    # own tables
    assert len(calls) == 1 + chain.steps


def test_find_supp_and_g_determined_match_reference_on_random_bases():
    rng = random.Random(32)
    bases = 0
    for seed in range(30):
        formula = gen_instance("rof", 4 + seed, 200 + seed)
        variables = formula.variables
        for _ in range(10):
            base = random_base(variables, rng, rng.random())
            assert rof.Determination(formula)(base) == ref_g_determined(formula, base)
            assert prob_tables(formula, base) == ref_prob_tables(formula, base)
            if len(base) == len(variables):
                continue
            assert find_supp(formula, base) == ref_find_supp(formula, base)
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
    assert find_supp(formula, frozenset()) == frozenset({2})
    assert ref_find_supp(formula, frozenset()) == frozenset({2})


def test_supplement_tables_match_reference_entry_for_entry():
    # each kept entry, rebuilt as (probability, chosen tests), is the
    # Fraction reference's entry at that budget, and exactly the budgets
    # that beat every smaller one are kept
    rng = random.Random(33)
    for seed in range(20):
        formula = gen_instance("rof", 3 + seed, 300 + seed)
        base = random_base(formula.variables, rng, 0.3)
        state = rof._Supplements(formula)
        state(base)
        expect = ref_compute_rp(formula, base)
        for node in formula.nodes:
            den = formula.denominators[node]
            for outcome in (0, 1):
                table = expect[node][outcome]
                got = {
                    t: (Fraction(value, den), state.chosen(node, outcome, t))
                    for t, (value, _) in state.scaled[node][outcome].items()
                }
                budgets = undominated({t: p for t, (p, _) in table.items()})
                assert got == {t: table[t] for t in budgets}


def test_outtree_solver_rejects_a_non_multitree():
    diamond = OrDag((0, 1, 2, 3), (1, 1, 1, 1), (1, 1, 1, 1), ((0, 1), (0, 2), (1, 3), (2, 3)))
    with pytest.raises(NotMultitree):
        orsched.outtree_solver(diamond)


def xsearch_instance(edges, seed):
    vertices = min(edges + 1, edges // 2 + 2)
    graph = gen_instance("xsearch", vertices, seed, extra=edges - (vertices - 1))
    assert len(graph.edges) == edges
    return xsearch.xsearch_to_msop(graph)


def assert_same_exhaustive_chain(inst):
    fast = greedy_chain(inst, exact.exact_density_solver(inst))
    slow = ref_greedy_chain(inst, lambda b: ref_exact_max_density(inst, b))
    assert_same_chain(fast, slow)
    return fast


def test_exhaustive_step_matches_reference_chain_on_xsearch():
    for edges, seed in ((12, 1), (13, 2), (14, 3)):
        assert_same_exhaustive_chain(xsearch_instance(edges, seed))


ADAPTERS = {
    "mssc": mssc.to_msop,
    "pipelined": mssc.to_msop,
    "inforest": orsched.to_msop,
    "multitree": orsched.to_msop,
    "rof": rof.to_msop,
}


@pytest.mark.parametrize("kind", sorted(ADAPTERS))
def test_backward_exhaustive_step_matches_reference_chain(kind):
    for n, seed in ((10, 1), (12, 2)):
        inst = ADAPTERS[kind](gen_instance(kind, n, seed))
        forward = assert_same_exhaustive_chain(dual.dualize(inst))
        backward = dual.backward_greedy_chain(inst, exact.exact_density_solver)
        assert backward.sets == dual.dual_chain(forward).sets


@pytest.mark.parametrize("kind, n", [("mssc", 13), ("pipelined", 13), ("rof", 8), ("xsearch", 13),
                                     ("xsearch", 14)])
def test_exhaustive_step_matches_reference_chain_above_the_benchmark_sizes(kind, n):
    # one size above the solve-exhaustive workload's for each kind: the
    # empty base's column walk and the submask walk over the other bases,
    # forward on xsearch and on the duals behind solve --backward
    if kind == "xsearch":
        assert_same_exhaustive_chain(xsearch_instance(n, n - 9))
        return
    params = {"edges": 2 * n} if kind in ("mssc", "pipelined") else {}
    inst = ADAPTERS[kind](gen_instance(kind, n, 5, **params))
    forward = assert_same_exhaustive_chain(dual.dualize(inst))
    backward = dual.backward_greedy_chain(inst, exact.exact_density_solver)
    assert backward.sets == dual.dual_chain(forward).sets


@pytest.mark.parametrize("kind, n, params", [
    ("mssc", 12, {"edges": 24}), ("pipelined", 12, {"edges": 24}),
    ("inforest", 11, {}), ("multitree", 11, {}), ("rof", 7, {}),
])
def test_backward_certificate_matches_pairwise_marginal_density(kind, n, params):
    # the certificate, read off one walk of the primal chain, against
    # marginal_density evaluated afresh on each pair of consecutive sets
    for seed in (1, 2, 3):
        inst = ADAPTERS[kind](gen_instance(kind, n, seed, **params))
        chain = dual.backward_greedy_chain(inst, exact.exact_density_solver)
        expected = [marginal_density(inst, a, b).marginal_density
                    for a, b in zip(chain.sets, chain.sets[1:])]
        assert [(type(d), d) for d in chain.densities] == [(type(d), d) for d in expected]


def tie_counts(inst, base):
    """(density ties, +inf ties, size ties) among the best supersets of ``base``."""
    f0, g0 = inst.cost(base), inst.weight(base)
    ground = inst.ground_set
    rest = [v for v in ground if v not in base]
    top = []
    best = None
    for mask in range(1, 1 << len(rest)):
        s = base | {rest[i] for i in range(len(rest)) if mask >> i & 1}
        if not inst.in_family(s):
            continue
        df, dg = inst.cost(s) - f0, inst.weight(s) - g0
        rho = INF if df == 0 else Fraction(dg, df)
        if best is None or rho > best:
            best, top = rho, [s]
        elif rho == best:
            top.append(s)
    if len(top) < 2:
        return 0, 0, 0
    smallest = min(len(s) for s in top)
    size_tie = sum(len(s) == smallest for s in top) > 1
    return 1, int(best == INF), int(size_tie)


def test_exhaustive_step_matches_reference_chain_through_ties():
    ties = [0, 0, 0]
    for seed in range(150):
        inst = gen_generic_msop(6 + seed % 4, 500 + seed)
        chain = assert_same_exhaustive_chain(inst)
        for base in chain.sets[:-1]:
            for i, count in enumerate(tie_counts(inst, base)):
                ties[i] += count
    density_ties, inf_ties, size_ties = ties
    assert density_ties >= 50 and inf_ties >= 10 and size_ties >= 20, ties


def test_exhaustive_solver_matches_reference_on_bases_out_of_order():
    rng = random.Random(41)
    for seed in range(6):
        inst = gen_generic_msop(9, 700 + seed)
        universe = inst.universe()
        feasible = [
            frozenset(v for v in inst.ground_set if mask >> v & 1)
            for mask in range(1 << inst.n)
        ]
        feasible = [s for s in feasible if s != universe and inst.in_family(s)]
        bases = [rng.choice(feasible) for _ in range(12)]
        bases += bases[:4]  # repeats hit entries the solver already holds
        solve = exact.exact_density_solver(inst)
        for base in bases:
            got, want = solve(base), ref_exact_max_density(inst, base)
            assert (got.increment, got.marginal_density) == (want.increment, want.marginal_density)


def weight_falling_on_2_without_6():
    inst = mssc.to_msop(gen_instance("mssc", 7, 3))
    drop = inst.weight(inst.universe()) + 1
    # weight falls on sets holding 2 but not 6, which the enumeration from
    # the full complement down reaches only after many others
    return replace(inst, weight=lambda s: inst.weight(s) - drop * (2 in s and 6 not in s))


def assert_same_non_monotone_pair(bad, base):
    with pytest.raises(NonMonotone) as want:
        ref_exact_max_density(bad, base)
    assert str(sorted(bad.universe())) not in str(want.value)
    with pytest.raises(NonMonotone) as got:
        exact.exact_max_density(bad, base)
    assert str(got.value) == str(want.value)
    with pytest.raises(NonMonotone) as got:
        exact.exact_density_solver(bad)(base)
    assert str(got.value) == str(want.value)


def test_exhaustive_step_names_the_same_non_monotone_pair():
    assert_same_non_monotone_pair(weight_falling_on_2_without_6(), frozenset())


def test_exhaustive_step_names_the_same_non_monotone_pair_above_a_base():
    # a base holding neither 2 nor 6 walks its supersets by submasks, not
    # the empty base's column order
    bad = weight_falling_on_2_without_6()
    assert_same_non_monotone_pair(bad, frozenset({0, 4}))


def test_one_greedy_run_evaluates_each_subset_once():
    inst = xsearch_instance(12, 7)
    calls = {"in_family": 0, "cost": 0, "weight": 0}

    def counted(name):
        oracle = getattr(inst, name)

        def call(s):
            calls[name] += 1
            return oracle(s)

        return call

    counted_inst = replace(inst, **{name: counted(name) for name in calls})
    chain = greedy_chain(counted_inst, exact.exact_density_solver(counted_inst))
    # the solver's table, the base check and the loop's re-check each step,
    # and validate()'s two sets
    assert calls["in_family"] <= 2 ** inst.n + 2 * chain.steps + 2
    assert calls["cost"] <= 2 ** inst.n + chain.steps + 1


def test_xsearch_oracles_equal_fraction_sums():
    rng = random.Random(42)
    for seed in range(10):
        graph = gen_instance("xsearch", 8, 900 + seed)
        edges = tuple(
            (u, v, Fraction(rng.randint(1, 9), rng.randint(1, 6)) if i % 2 else c)
            for i, (u, v, c) in enumerate(graph.edges)
        )
        graph = replace(graph, edges=edges)
        inst = xsearch.xsearch_to_msop(graph)
        for _ in range(30):
            s = frozenset(i for i in range(len(edges)) if rng.random() < 0.5)
            touched = {x for i in s for x in edges[i][:2]} - {graph.root}
            assert inst.cost(s) == sum((Fraction(edges[i][2]) for i in s), Fraction(0))
            assert inst.weight(s) == sum((Fraction(graph.probs[v]) for v in touched), Fraction(0))


# ---------------------------------------------------------------------------
# lattice DPs: integers scaled by the column lcms against the Fraction DPs


def assert_same_optima(inst, chain=True):
    try:
        want = ref_exact_opt_permutation(inst)
    except NoFeasiblePermutation:
        with pytest.raises(NoFeasiblePermutation):
            exact.exact_opt_permutation(inst)
    else:
        perm, cost = exact.exact_opt_permutation(inst)
        assert (perm, cost) == want
    if chain:
        got, want = exact.exact_opt_chain(inst), ref_exact_opt_chain(inst)
        assert (got[0].sets, got[1]) == (want[0].sets, want[1])


def seeded_instance(kind, n, seed):
    if kind == "xsearch":
        return xsearch_instance(n, seed)
    return cli.Toolchain(gen_instance(kind, n, seed)).instance


@pytest.mark.parametrize("kind", KINDS)
def test_lattice_dps_match_reference_on_seeded_instances(kind):
    caps = exact.CAPS
    for n in range(1, caps["perm"] + 1):
        for seed in (1, 2):
            inst = seeded_instance(kind, n, seed)
            assert inst.n == n
            assert_same_optima(inst, chain=n <= caps["chain"])


def fraction_tables(inst, rng, costs, weights):
    """``inst`` with cost and weight tables drawn as fractions over the
    given denominators, zero on the empty set."""
    full = (1 << inst.n) - 1
    f = [Fraction(rng.randint(0, 9), rng.choice(costs)) for _ in range(full + 1)]
    g = [Fraction(rng.randint(0, 9), rng.choice(weights)) for _ in range(full + 1)]
    f[0] = g[0] = 0

    def mask(s):
        return sum(1 << v for v in s)

    return replace(inst, cost=lambda s: f[mask(s)], weight=lambda s: g[mask(s)])


def test_lattice_dps_match_reference_with_mixed_denominators():
    rng = random.Random(51)
    for seed in range(60):
        n = 3 + seed % 5
        inst = fraction_tables(gen_generic_msop(n, 800 + seed), rng, (1, 2, 3, 5, 7), (1, 4, 6, 9))
        assert_same_optima(inst)


def test_lattice_dps_match_reference_through_ties():
    # a constant cost makes every feasible chain cost weight(V)/3, and every
    # feasible permutation too; small integer tables tie often as well
    rng = random.Random(52)
    split = 0
    for seed in range(40):
        n = 3 + seed % 5
        inst = gen_generic_msop(n, 900 + seed)
        flat = replace(inst, cost=lambda s: Fraction(len(s) > 0, 3))
        assert_same_optima(flat)
        # the first strict improvement is the largest feasible strict
        # subset of V; a non-strict one would end at the empty set
        split += len(exact.exact_opt_chain(flat)[0].sets) > 2
        assert_same_optima(fraction_tables(inst, rng, (2,), (3,)))
    assert split >= 20, split


def test_histogram_check_matches_reference_on_scaled_certificates():
    # certificates scaled by 1/32 to 3/2 push the shrunk greedy histogram
    # above the optimal one on about half the cases; random feasible chains
    # stand in for the optimal one too, so column edges meet at many places
    rng = random.Random(14)
    cases = violations = 0
    for seed in range(120):
        inst = gen_generic_msop(2 + seed % 6, 1400 + seed)
        greedy = greedy_chain(inst, exact.exact_density_solver(inst))
        opts = [exact.exact_opt_chain(inst)[0], random_chain(inst, rng), random_chain(inst, rng)]
        for _ in range(4):
            factor = Fraction(rng.randint(1, 6), 4 << rng.randrange(4))
            scaled = Chain.from_sets(greedy.sets, tuple(d * factor for d in greedy.densities))
            for opt in opts:
                for alpha in (1, Fraction(3, 2), 2):
                    report = chain_histogram(inst, scaled, opt, alpha)
                    expected = ref_histogram_containment_check(inst, scaled, opt, alpha)
                    assert report == expected, (seed, factor, alpha)
                    cases += 1
                    violations += not report.contained
    assert cases >= 4000 and violations >= max(1000, cases // 4), (cases, violations)


def unequal_scales(base, seed):
    """``base`` with cost and weight v(s) / d + 1 / d^2 on a nonempty s,
    which has denominator d^2 exactly, for one of three (cost, weight)
    pairs of d by ``seed``; the two scales, both above 1, differ."""
    c, w = ((3, 5), (4, 9), (10, 7))[seed % 3]
    inst = replace(base, cost=lambda s, f=base.cost, d=c: Fraction(f(s) * d + bool(s), d * d),
                   weight=lambda s, g=base.weight, d=w: Fraction(g(s) * d + bool(s), d * d))
    lattice = inst.lattice
    assert (lattice.cost_scale, lattice.weight_scale) == (c * c, w * w)
    return inst


def check_ratio_cases(inst, rng):
    """``check_ratio`` against the reference histogram check on one
    instance, at four certificate scalings from 1/32 to 3/2, each as it is
    and with one step set to the INF sentinel (height 0) or to a zero
    density (height INF), at three alphas.  Returns the counts of cases,
    of uncontained ones and of those with an infinite greedy area."""
    greedy = greedy_chain(inst, exact.exact_density_solver(inst))
    order, opt = exact.exact_opt_permutation(inst)
    opt_chain = Chain(tuple((v,) for v in order))
    counts = Counter()
    for _ in range(4):
        factor = Fraction(rng.randint(1, 6), 4 << rng.randrange(4))
        scaled = [d * factor for d in greedy.densities]
        step = rng.randrange(greedy.steps)
        for corrupt in (None, INF, 0):
            certificate = list(scaled)
            if corrupt is not None:
                certificate[step] = corrupt
            chain = Chain(greedy.increments, tuple(certificate))
            for alpha in (1, Fraction(3, 2), 2):
                cost, got_opt, report, violated = exact.check_ratio(inst, chain, alpha)
                expected = ref_histogram_containment_check(inst, chain, opt_chain, alpha)
                assert report == expected, (inst.name, factor, corrupt, alpha)
                assert cost == chain_cost(inst, chain) and got_opt == opt
                assert violated == (cost > 4 * alpha * opt or not expected.contained)
                counts["cases"] += 1
                counts["uncontained"] += not report.contained
                counts["infinite"] += report.greedy_area == INF
    return counts


def test_check_ratio_matches_reference_on_unequal_scales():
    # check_ratio runs the histogram check and the greedy cost on the
    # lattice's integer columns: fraction-valued tables over unequal cost
    # and weight scales, both above 1, make each value need its own scale
    # (on the free family, which every ordering is feasible in).
    # Certificates scaled by 1/32 to 3/2, one step set to the INF sentinel
    # (height 0) and one set to a zero density (height INF) reach both ends
    # of the height comparison; alpha = 3/2 needs alpha's denominator
    rng = random.Random(33)
    counts = Counter()
    for seed in range(60):
        base = gen_generic_msop(2 + seed % 6, 3300 + seed)
        counts += check_ratio_cases(unequal_scales(replace(base, in_family=lambda s: True), seed),
                                    rng)
    cases, uncontained, infinite = counts["cases"], counts["uncontained"], counts["infinite"]
    assert cases >= 2000 and uncontained >= 1000 and infinite >= 100, (
        cases, uncontained, infinite)


def test_check_ratio_matches_reference_on_restricted_families():
    # the cases above on families that admit a feasible permutation but not
    # every one (gen_permutation_msop), so the optimum ranges over the
    # feasible orderings and the greedy steps over feasible supersets
    rng = random.Random(34)
    counts = Counter()
    restricted = 0
    for seed in range(60):
        inst = unequal_scales(gen_permutation_msop(2 + seed % 6, 3300 + seed), seed)
        restricted += not all(inst.lattice.feasible)
        counts += check_ratio_cases(inst, rng)
    assert restricted >= 50, restricted
    assert counts["cases"] == 2160 and counts["uncontained"] >= 1000, counts
    assert counts["infinite"] >= 100, counts


# ---------------------------------------------------------------------------
# lattice columns: each column an adapter supplies, and each dual column
# derived by complement, against the oracles on every subset


def rational(rng, top=9, zero=False):
    return Fraction(rng.randint(0 if zero else 1, top), rng.randint(1, 6))


def rational_mssc(n, seed):
    rng = random.Random(seed)
    parsed = gen_instance("pipelined", n, seed)
    edges = tuple((rational(rng, zero=True), members) for _, members in parsed.edges)
    return mssc.to_msop(replace(parsed, costs=tuple(rational(rng) for _ in range(n)), edges=edges))


def relabelled_dag(kind, n, seed):
    """A seeded DAG with rational times and weights, and job ids that are
    neither 0..n-1 nor listed in sorted order, so bit i is not job i."""
    rng = random.Random(seed)
    dag = gen_instance(kind, n, seed)
    ids = [2 * j + 5 for j in range(n)]
    rng.shuffle(ids)
    times = tuple(rational(rng, zero=True) for _ in range(n))
    weights = tuple(rational(rng, zero=True) for _ in range(n))
    return OrDag(tuple(ids), times, weights, tuple((ids[i], ids[j]) for i, j in dag.arcs))


def rational_or_pipelined(n, seed):
    rng = random.Random(seed)
    dag, edges = gen_or_pipelined(n, seed)
    dag = replace(dag, times=tuple(rational(rng) for _ in range(n)))
    return or_coverage_instance(dag, [(rational(rng, zero=True), m) for _, m in edges])


def has_bridge_and_cycle(graph):
    def connected(edges):
        try:
            replace(graph, edges=edges)
        except DisconnectedInput:
            return False
        return True

    cut = any(not connected(graph.edges[:e] + graph.edges[e + 1:]) for e in range(len(graph.edges)))
    return cut and len(graph.edges) >= len(graph.vertices)


def rational_search_graph(edges, seed):
    """A seeded graph with a bridge and a cycle (the first such seed from
    ``seed`` on, in steps of 100), rational edge costs and vertex
    probabilities over different denominators."""
    vertices = min(edges + 1, edges // 2 + 2)
    while True:
        graph = gen_instance("xsearch", vertices, seed, extra=edges - (vertices - 1))
        if has_bridge_and_cycle(graph):
            break
        seed += 100
    rng = random.Random(seed)
    raw = {v: rational(rng) for v in graph.vertices}
    total = sum(raw.values())
    graph = replace(
        graph,
        edges=tuple((u, v, rational(rng)) for u, v, _ in graph.edges),
        probs={v: p / total for v, p in raw.items()},
    )
    return graph


def rational_xsearch(edges, seed):
    return xsearch.xsearch_to_msop(rational_search_graph(edges, seed))


COLUMN_KINDS = {
    "mssc": lambda n, seed: mssc.to_msop(gen_instance("mssc", n, seed)),
    "pipelined": rational_mssc,
    "inforest": lambda n, seed: orsched.to_msop(relabelled_dag("inforest", n, seed)),
    "multitree": lambda n, seed: orsched.to_msop(relabelled_dag("multitree", n, seed)),
    "bipartite-or": lambda n, seed: orsched.to_msop(relabelled_dag("bipartite-or", n, seed)),
    "or-pipelined": rational_or_pipelined,
    "rof": lambda n, seed: rof.to_msop(gen_instance("rof", n, seed)),
    "xsearch": rational_xsearch,
}


def assert_columns_match_oracles(inst):
    ground = inst.ground_set
    for oracle in (inst.in_family, inst.cost, inst.weight):
        assert oracle.lattice_column[0] == ground  # supplied, not swept
    lattice = inst.lattice
    subsets, feasible, f, g = tabulate(inst)
    assert list(lattice.feasible) == [int(bool(x)) for x in feasible]
    for m, ok in enumerate(feasible):
        if ok:
            assert Fraction(lattice.cost[m], lattice.cost_scale) == f[m], sorted(subsets[m])
            assert Fraction(lattice.weight[m], lattice.weight_scale) == g[m], sorted(subsets[m])
    return lattice


@pytest.mark.parametrize("kind", sorted(COLUMN_KINDS))
def test_supplied_and_dual_columns_match_the_oracles(kind):
    for n, seed in ((10, 1), (12, 2), (13, 3)):
        inst = COLUMN_KINDS[kind](n, seed)
        assert inst.n == n
        primal = assert_columns_match_oracles(inst)
        dual_lattice = assert_columns_match_oracles(dual.dualize(inst))
        assert (dual_lattice.cost_scale, dual_lattice.weight_scale) == (
            primal.weight_scale, primal.cost_scale)


def test_xsearch_weight_and_column_are_the_touched_mass():
    rng = random.Random(17)
    graphs = [rational_search_graph(edges, seed) for edges, seed in ((10, 1), (12, 2), (13, 3))]
    graphs += [gen_instance("xsearch", vertices, seed, extra=extra)
               for vertices, seed, extra in ((5, 4, 3), (7, 5, 5), (8, 6, 0))]
    for graph in graphs:
        inst = xsearch.xsearch_to_msop(graph)
        assert isinstance(inst.weight, mssc.CoverageWeight)
        for _ in range(200):  # random edge sets, feasible or not
            s = random_base(inst.ground_set, rng, rng.random())
            assert inst.weight(s) == ref_xsearch_weight(graph, s), sorted(s)
        lattice = inst.lattice
        for m in range(1 << inst.n):
            s = frozenset(e for e in inst.ground_set if m >> e & 1)
            assert Fraction(lattice.weight[m], lattice.weight_scale) == ref_xsearch_weight(graph, s)


def adapted(kind):
    """A seeded instance of ``kind`` through its adapter, with the tables
    of what it was built from that the adapter must leave unbuilt."""
    if kind == "or-pipelined":
        dag, edges = gen_or_pipelined(40, 1)
        return or_coverage_instance(dag, edges), dag, ("time_map", "weight_map")
    parsed = gen_instance(kind, 12 if kind in ("rof", "xsearch") else 40, 1)
    if isinstance(parsed, OrDag):
        return orsched.to_msop(parsed), parsed, ("time_map", "weight_map")
    if kind == "xsearch":
        return xsearch.xsearch_to_msop(parsed), parsed, ()
    adapter = {"mssc": mssc.to_msop, "pipelined": mssc.to_msop, "rof": rof.to_msop}[kind]
    return adapter(parsed), parsed, ()


@pytest.mark.parametrize("kind", sorted(COLUMN_KINDS))
def test_adapters_build_no_table(kind):
    inst, parsed, tables = adapted(kind)
    assert not set(tables) & set(vars(parsed))
    covered = kind in ("mssc", "pipelined", "or-pipelined", "xsearch")
    assert isinstance(inst.weight, mssc.CoverageWeight) == covered
    if covered:
        assert inst.weight.incident is None


def test_modular_reads_its_values_once_and_only_when_used():
    calls = []
    oracle = modular((0, 1, 2), lambda: calls.append(1) or [Fraction(1, 2), 2, 3])
    assert calls == []
    assert oracle(frozenset({0, 2})) == Fraction(7, 2) and oracle(frozenset()) == 0
    inst = MsopInstance((0, 1, 2), free((0, 1, 2)), oracle, oracle)
    assert inst.lattice.cost_scale == 2 and list(inst.lattice.cost) == [0, 1, 4, 5, 6, 7, 10, 11]
    assert calls == [1]


def test_modular_sum_and_column_on_signed_ids():
    # a ground set of shuffled signed ids: the running sum on random sets
    # and the column on every mask against fresh sums
    rng = random.Random(31)
    for n in (1, 4, 7):
        ground = tuple(rng.sample(range(-20, 20), n))
        values = {v: rational(rng, zero=True) for v in ground}
        oracle = modular(ground, lambda: values)
        assert isinstance(oracle, RunningSum)
        for _ in range(80):
            s = random_base(ground, rng, rng.random())
            assert oracle(s) == sum(values[v] for v in s), sorted(s)
        assert oracle.lattice_column[0] == ground
        col, scale = oracle.lattice_column[1]()
        assert [Fraction(x, scale) for x in col] == [
            sum(values[v] for i, v in enumerate(ground) if m >> i & 1) for m in range(1 << n)]


def test_modular_oracle_is_freed_without_the_cycle_collector():
    # the column builder reaches the values, never the oracle: a cycle
    # through it would keep each instance's oracles until a collection
    oracle = modular((0, 1, 2), lambda: {0: 1, 1: 2, 2: 3})
    assert oracle(frozenset({0, 2})) == 4
    assert list(oracle.lattice_column[1]()[0]) == [0, 1, 2, 3, 3, 4, 5, 6]
    gone = weakref.ref(oracle)
    gc.disable()
    try:
        del oracle
        assert gone() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["pipelined", "xsearch"])
def test_modular_cost_rejects_ids_outside_the_ground_set(kind):
    # the adapters key their values by id, so a negative id is no index
    # from the end: every id outside the ground set raises, from scratch
    # and as a move, and the next call is answered in full
    size = 7
    if kind == "xsearch":
        graph = gen_instance("xsearch", size + 1, 3, extra=0)
        inst = xsearch.xsearch_to_msop(graph)
        values = [c for _, _, c in graph.edges]
    else:
        parsed = gen_instance("pipelined", size, 3)
        inst = mssc.to_msop(parsed)
        values = parsed.costs
    assert inst.n == size
    base = frozenset(range(0, size, 2))
    grown = base | {1}
    for outside in (-1, -size, size):
        for s in (frozenset({outside}), base | {outside}):
            assert inst.cost(base) == sum(values[v] for v in base)
            with pytest.raises(KeyError):
                inst.cost(s)
            assert inst.cost(grown) == sum(values[v] for v in grown)


def test_replacing_one_oracle_drops_only_its_column():
    inst = orsched.to_msop(relabelled_dag("multitree", 10, 5))
    want = inst.lattice
    feasible_sets = sum(want.feasible)
    assert feasible_sets < 2 ** inst.n
    for name in ("in_family", "cost", "weight"):
        calls = []
        oracle = getattr(inst, name)
        swapped = replace(inst, **{name: lambda s, oracle=oracle: calls.append(s) or oracle(s)})
        got = swapped.lattice
        # the sweep asks membership of every subset, cost and weight only of
        # the feasible ones; the two kept columns call no oracle
        assert len(calls) == (2 ** inst.n if name == "in_family" else feasible_sets), name
        assert got.feasible == want.feasible
        for column in ("cost", "weight"):
            got_values = [Fraction(v, getattr(got, column + "_scale")) for v in getattr(got, column)]
            want_values = [Fraction(v, getattr(want, column + "_scale")) for v in getattr(want, column)]
            assert [v for v, ok in zip(got_values, want.feasible) if ok] == [
                v for v, ok in zip(want_values, want.feasible) if ok]


# ---------------------------------------------------------------------------
# running oracles: each against its from-scratch function, along the walks
# the solve path takes (a greedy chain up, the dual's complements down) and
# along ones it does not


def rational_edges(edges, rng):
    return tuple((rational(rng, zero=True), frozenset(members)) for _, members in edges)


def running_case(kind, n, seed):
    """(instance, name of its running oracle, the oracle's from-scratch
    function, a density solver) for one seeded instance; the pipelined and
    OR-pipelined hyperedges get rational weights, the modular sum rational
    values."""
    rng = random.Random(seed)
    if kind == "or-pipelined":
        dag, edges = gen_or_pipelined(n, seed)
        edges = rational_edges(edges, rng)
        inst = or_coverage_instance(dag, edges)

        def covered(s):
            return sum(w for w, members in edges if not members.isdisjoint(s))

        # the densest stem by the coverage weight, exact here, by the reference
        return inst, "weight", covered, lambda b: ref_max_density_stem(dag, covered, b)
    if kind == "modular":
        # mssc's element costs, rational
        parsed = gen_instance("mssc", n, seed)
        parsed = replace(parsed, costs=tuple(rational(rng) for _ in range(n)))
        tools = cli.Toolchain(parsed)
        assert isinstance(tools.instance.cost, RunningSum)
        return tools.instance, "cost", lambda s: sum(parsed.costs[v] for v in s), tools.solver
    parsed = gen_instance(kind, n, seed)
    if kind == "pipelined":
        parsed = replace(parsed, edges=rational_edges(parsed.edges, rng))
    tools = cli.Toolchain(parsed)
    if kind in ("mssc", "pipelined"):
        return tools.instance, "weight", lambda s: ref_coverage_weight(parsed, s), tools.solver
    if kind == "rof":
        return tools.instance, "weight", lambda s: rof.Determination(parsed)(s), tools.solver
    return (tools.instance, "in_family", lambda s: ref_or_initial_membership(parsed, s),
            tools.solver)


RUNNING_KINDS = {  # kind: (n, seed) of each instance
    "modular": ((80, 13), (128, 14)),
    "mssc": ((60, 1), (90, 2)),
    "pipelined": ((60, 3), (80, 4)),
    "inforest": ((70, 5), (100, 6)),
    "multitree": ((60, 7), (90, 8)),
    "or-pipelined": ((50, 9), (70, 10)),
    "rof": ((14, 11), (24, 12)),
}


def check_walk(oracle, reference, walk):
    for k, s in enumerate(walk):
        assert oracle(s) == reference(frozenset(s)), (k, sorted(s))


@pytest.mark.parametrize("kind", sorted(RUNNING_KINDS))
def test_running_oracle_up_a_greedy_chain_and_down_its_complements(kind):
    for n, seed in RUNNING_KINDS[kind]:
        inst, name, reference, solver = running_case(kind, n, seed)
        chain = greedy_chain(inst, solver)
        universe = inst.universe()
        oracle = getattr(running_case(kind, n, seed)[0], name)
        check_walk(oracle, reference, chain.sets)
        # up the chain each call moves the state; only the first starts
        # from empty
        assert oracle.rebuilds == 1
        check_walk(oracle, reference, [universe - s for s in chain.sets])
        # the first complement is the ground set, where the chain ended; each
        # later one misses an element of the last, so each call rebuilds
        assert oracle.rebuilds == len(chain.sets)


@pytest.mark.parametrize("kind", sorted(RUNNING_KINDS))
def test_running_oracle_through_jumps_repeats_and_outside_ids(kind):
    rng = random.Random(kind)
    for n, seed in RUNNING_KINDS[kind]:
        inst, name, reference, solver = running_case(kind, n, seed)
        # random sets, and the (feasible) sets of a greedy chain out of order
        sets = list(greedy_chain(inst, solver).sets)
        oracle = getattr(running_case(kind, n, seed)[0], name)
        ground = inst.ground_set
        outside = max(ground) + 1
        values = set()
        for _ in range(60):
            s = random_base(ground, rng, rng.random()) if rng.random() < 0.5 else rng.choice(sets)
            values.add(reference(s))
            assert oracle(s) == reference(s)
            assert oracle(s) == reference(s)  # the same set again
            assert oracle(frozenset(sorted(s))) == reference(s)  # an equal one
            if name != "weight":
                # an unknown job or element is a KeyError (the from-scratch
                # membership check's too, unless it meets a member without a
                # predecessor first), and the next call is answered from a
                # rebuilt state
                with pytest.raises(KeyError):
                    oracle(s | {outside})
            else:
                assert oracle(s | {outside}) == reference(s)
        assert len(values) > 1


@pytest.mark.parametrize("kind", sorted(RUNNING_KINDS))
def test_running_oracle_freezes_a_set_its_caller_changes(kind):
    rng = random.Random(kind)
    n, seed = RUNNING_KINDS[kind][0]
    inst, name, reference, _ = running_case(kind, n, seed)
    oracle = getattr(inst, name)
    ground = list(inst.ground_set)
    members = set()
    for _ in range(4 * n):
        members ^= {rng.choice(ground)}
        assert oracle(members) == reference(frozenset(members)), sorted(members)
        assert oracle.last is not members


@pytest.mark.parametrize("kind", sorted(RUNNING_KINDS))
def test_running_oracle_shared_by_a_replaced_and_a_dual_instance(kind):
    rng = random.Random(kind)
    for n, seed in RUNNING_KINDS[kind]:
        inst, name, reference, solver = running_case(kind, n, seed)
        up = list(greedy_chain(inst, solver).sets)
        universe = inst.universe()
        twin = replace(inst, cost=lambda s: inst.cost(s))  # keeps the oracle
        dual_inst = dual.dualize(inst)
        shuffled = rng.sample(up, len(up))
        for s, other in zip(up, shuffled):
            assert getattr(twin, name)(s) == reference(s)
            if name == "in_family":
                assert dual_inst.in_family(universe - other) == reference(other)
            else:
                # the dual's weight complements the primal cost, its cost
                # the primal weight
                complement = dual_inst.weight if name == "cost" else dual_inst.cost
                assert complement(universe - other) == reference(universe) - reference(other)
            assert getattr(inst, name)(other) == reference(other)


def answer(oracle, s):
    """``oracle(s)``, or the class and message of the error it raises."""
    try:
        return oracle(s)
    except MsopError as err:
        return type(err).__name__, str(err)


def xsearch_exhaustive(graph):
    """A new exhaustive solver over a new instance of the graph."""
    return exact.exact_density_solver(xsearch.xsearch_to_msop(graph))


# kind: (instance, a new running oracle over it); a density solver's value
# at a base is its step
ADVANCE_KINDS = {
    "RunningSum": ("modular", 80, 13),
    "CoverageWeight": ("pipelined", 60, 3),
    "OrInitialMembership": ("inforest", 70, 5),
    "Determination": ("rof", 24, 12),
    "_Gains": (lambda: gen_instance("mssc", 70, 21), mssc.singleton_solver),
    "_Residual": (lambda: gen_instance("inforest", 80, 23), orsched.stem_solver),
    "_Supplements": (lambda: gen_instance("rof", 40, 25), rof_solver),
    "_Exhaustive": (lambda: gen_instance("xsearch", 8, 1, extra=5), xsearch_exhaustive),
}


def advance_case(kind):
    """(a greedy chain's sets, a new oracle, the answer at a set from
    scratch)."""
    case = ADVANCE_KINDS[kind]
    if isinstance(case[0], str):
        inst, name, reference, solver = running_case(*case)
        return (greedy_chain(inst, solver).sets, lambda: getattr(running_case(*case)[0], name),
                reference)
    make, solver = case
    parsed = make()

    def fresh(s):
        return answer(solver(parsed), s)

    return cli.Toolchain(parsed).greedy().sets, lambda: solver(parsed), fresh


def walk_to(s):
    """A new walk grown to the set ``s`` in one increment."""
    walk = Walk()
    walk.grow(tuple(sorted(s)))
    return walk


@pytest.mark.parametrize("kind", sorted(ADVANCE_KINDS))
def test_running_oracle_advance_contract(kind):
    sets, new, fresh = advance_case(kind)
    sets = sets[:-1]  # a solver answers below the ground set
    oracle = new()
    walk = Walk()
    # up the chain by each increment: one move each, by the increment
    # alone; asked again at the same set, the oracle answers at once
    for base, s in zip(sets, sets[1:]):
        walk.grow(tuple(sorted(s - base)))
        assert oracle.advance(walk) == fresh(s), sorted(s)
        assert oracle.at is walk.token and oracle.last is None
        assert oracle.advance(walk) == fresh(s)
    assert oracle.rebuilds == 1
    # each of these rebuilds from the walk's members
    rng = random.Random(kind)
    errors = set()
    for j in sorted(rng.sample(range(1, len(sets) - 3), 6)):
        base, s = sets[j], sets[j + 1]
        rebuilds = oracle.rebuilds
        walk = walk_to(base)  # a walk the oracle has not followed
        assert oracle.advance(walk) == fresh(base)
        oracle(sets[j + 2])  # the state moved on since, from scratch too
        assert oracle.at is None
        walk.grow(tuple(sorted(s - base)))
        assert oracle.advance(walk) == fresh(s)
        assert oracle.rebuilds == rebuilds + 3
        for x in sorted(base)[:3]:
            # asked with a set after a walk: the base left, from scratch
            got = answer(oracle, s - {x})
            assert got == answer(fresh, s - {x}), x
            errors.add(got[0] if type(got) is tuple else None)
    # where the membership oracle answers False, the stem solver and the
    # exhaustive step raise
    refused = {"_Residual": "NotInitial", "_Exhaustive": "NotInFamily"}
    assert errors == ({None, refused[kind]} if kind in refused else {None})
    # a move that raises leaves nothing kept; the next call rebuilds
    walk = walk_to(sets[2])
    oracle.advance(walk)
    walk.grow(tuple(sorted(sets[3] - sets[2])))

    def raising(added):
        raise KeyError("move")

    oracle.move = raising
    with pytest.raises(KeyError):
        oracle.advance(walk)
    assert oracle.at is None and oracle.last is None
    del oracle.move
    assert oracle.advance(walk) == fresh(sets[3])


@pytest.mark.parametrize("kind", sorted(ADVANCE_KINDS))
def test_running_oracle_rebuilds_once_for_a_set_missing_the_last(kind):
    # a call with a set that does not contain the last set, reached by a
    # call or by a walk, rebuilds exactly once and answers as a new
    # instance: a chain set without one member, and one without a member
    # and with an element outside the chain set
    sets, new, fresh = advance_case(kind)
    universe = sets[-1]
    oracle = new()
    rng = random.Random(kind)
    for j in sorted(rng.sample(range(2, len(sets) - 1), 4)):
        s = sets[j]
        x = rng.choice(sorted(s))
        y = rng.choice(sorted(universe - s))
        for by_walk in (False, True):
            for missing in (s - {x}, s - {x} | {y}):
                if by_walk:
                    oracle.advance(walk_to(s))
                else:
                    oracle(s)
                rebuilds = oracle.rebuilds
                assert answer(oracle, missing) == answer(fresh, missing), sorted(missing)
                assert oracle.rebuilds == rebuilds + 1


@pytest.mark.parametrize("kind", ["inforest", "multitree"])
def test_or_initial_probe_answers_one_more_job_and_keeps_the_state(kind):
    # along a greedy chain, one probe per job outside each set: the answer
    # is the from-scratch membership of the set with the job, and the
    # state stays at the walk's set, so the next growth is one move
    dag = gen_instance(kind, 60, 31)
    tools = cli.Toolchain(dag)
    oracle = orsched.OrInitialMembership(dag)
    walk = Walk()
    answers = Counter()
    for increment in tools.greedy().increments[:-1]:
        walk.grow(increment)
        s = walk.frozen()
        for v in dag.jobs:
            if v not in s:
                got = oracle.probe(walk, v)
                assert got == ref_or_initial_membership(dag, s | {v}), (sorted(s), v)
                assert oracle.at is walk.token and oracle.value
                answers[got] += 1
    assert oracle.rebuilds == 1 and answers[True] and answers[False]


# the kinds of the five routes to a polynomial density solver, with the
# size of the seeded instance each runs
SOLVER_ROUTES = {"mssc": 300, "pipelined": 300, "inforest": 300, "multitree": 300, "rof": 60}


def route_instance(kind):
    """The seeded instance of a solver route: those of ``SOLVER_ROUTES``,
    and xsearch, the exhaustive step's route, at 12 edges."""
    if kind == "xsearch":
        return gen_instance("xsearch", 8, 1, extra=5)
    return gen_instance(kind, SOLVER_ROUTES[kind], 1)


def refused_bases(kind, parsed, universe, base):
    """(set, error class, message) of the sets that the solver of
    ``kind`` refuses, the whole ground set first; ``base`` is a chain set
    between the empty set and the ground set."""
    if kind == "xsearch":
        # an edge away from the root alone is detached; each refusal is
        # exact_max_density's, class and text
        inst = xsearch.xsearch_to_msop(parsed)
        detached = next(frozenset({e}) for e, (u, v, _) in enumerate(parsed.edges)
                        if parsed.root not in (u, v))
        refused = [(s, *answer(lambda b: exact.exact_max_density(inst, b), s))
                   for s in (universe, detached, base | {inst.n})]
        assert [error for _, error, _ in refused] == [
            "NoFeasibleSuperset", "NotInFamily", "NotInFamily"]
        return refused
    if kind == "rof":
        return [(universe, "NoFeasibleSuperset", "every test has already been taken")]
    if kind in ("mssc", "pipelined"):
        n, text = parsed.n, "base already contains every element"
        return [(s, "NoFeasibleSuperset", text) for s in (
            universe, frozenset({n}), frozenset({-1}), base | {n}, base | {-1}, base | {-n})]
    blocked = blocked_job(parsed, base)
    return [(universe, "NoFeasibleSuperset", "base already contains every job")] + [
        (s, "NotInitial", f"{sorted(s)} is not an OR-initial set")
        for s in (base | {blocked}, frozenset({blocked}))]


@pytest.mark.parametrize("kind", [*sorted(SOLVER_ROUTES), "xsearch"])
def test_solver_errors_and_the_call_after_them(kind):
    # each refused set raises its error, reached by a greedy increment (the
    # whole ground set) or from a state moved along the chain; the call
    # after a raising step rebuilds and answers as a fresh solver
    parsed = route_instance(kind)
    tools = cli.Toolchain(parsed)
    universe = tools.instance.universe()
    sets = tools.greedy().sets
    solve, k = tools.solver, len(sets) // 2
    refused = refused_bases(kind, parsed, universe, sets[k])

    def by_increment(s):
        walk = walk_to(sets[-2])
        solve.advance(walk)
        walk.grow(tuple(sorted(s - sets[-2])))
        return solve.advance(walk)

    tries = [(sets[-2], by_increment, *refused[0])]
    tries += [(sets[k], solve, *refusal) for refusal in refused]
    for start, attempt, s, error, text in tries:
        solve(start)
        assert answer(attempt, s) == (error, text)
        assert solve.last is None and solve.at is None
        rebuilds = solve.rebuilds
        assert solve(sets[k + 1]) == cli.Toolchain(parsed).solver(sets[k + 1])
        assert solve.rebuilds == rebuilds + 1


@pytest.mark.parametrize("kind", [*sorted(SOLVER_ROUTES), "xsearch", "backward"])
def test_greedy_moves_each_solver_only_by_advance(kind):
    # the first step builds the solver's state at the empty set; after it,
    # each step moves the solver by the increment it answered with, never
    # by a set: a call with the set would find the same chain by a set
    # difference.  ``backward`` is the exhaustive step on the dual of a
    # covering instance, whose greedy chain has the backward chain's
    # increments reversed
    moves, solvers = [], []

    def counted(solve):
        move = solve.move

        def counted_move(added):
            # a rebuild's ``added`` is the walk's member set, which grows later
            moves.append(added if type(added) is tuple else frozenset(added))
            return move(added)

        solve.move = counted_move
        solvers.append(solve)
        return solve

    if kind == "backward":
        inst = cli.Toolchain(gen_instance("mssc", 12, 1)).instance
        chain = dual.backward_greedy_chain(
            inst, lambda dual_inst: counted(exact.exact_density_solver(dual_inst)))
        increments = chain.increments[::-1]
    else:
        tools = cli.Toolchain(route_instance(kind))
        counted(tools.solver)
        increments = tools.greedy().increments
    [solve] = solvers
    assert moves[0] == frozenset() and solve.rebuilds == 1
    assert moves[1:] == list(increments[:-1])


@pytest.mark.parametrize("kind", sorted(SOLVER_ROUTES))
def test_greedy_cost_and_refinement_ask_no_oracle_with_a_set(kind, monkeypatch):
    # past validate(), which asks the family, cost and weight about the
    # empty set and the ground set, no running oracle or solver is called
    # with a set and no walk builds one, through the greedy run, chain_cost
    # of a chain with kept values and of one without, and the refinement
    tools = cli.Toolchain(gen_instance(kind, SOLVER_ROUTES[kind], 1))
    inst = tools.instance
    asked, built = [], []
    call = RunningOracle.__call__

    def counted(oracle, s):
        asked.append((oracle, len(s)))
        return call(oracle, s)

    monkeypatch.setattr(RunningOracle, "__call__", counted)
    monkeypatch.setattr(Walk, "frozen", lambda walk: built.append(walk) or set(walk.members))
    chain = tools.greedy()
    assert chain_cost(inst, chain) == chain_cost(inst, Chain(chain.increments))
    chain_to_permutation(inst, chain)
    assert not built and len(asked) <= 4
    assert all(oracle is not tools.solver and size in (0, inst.n) for oracle, size in asked)
    assert kind in ("mssc", "pipelined") or max(map(len, chain.increments)) > 1


# ---------------------------------------------------------------------------
# chain walks: the chain text and the refinement move by each increment;
# the references sort or build every chain set afresh


def signed_ids_dag(kind, n, seed):
    """A seeded DAG of ``kind`` over shuffled job ids, negative ones and
    gaps among them, through its file text."""
    rng = random.Random(seed)
    dag = gen_instance(kind, n, seed)
    ids = rng.sample(range(-3 * n, 3 * n), n)
    dag = OrDag(tuple(ids), dag.times, dag.weights, tuple((ids[i], ids[j]) for i, j in dag.arcs))
    return formats.parse_instance_text(formats.serialize_instance(dag))


CHAIN_TEXT_SIZES = {"mssc": 300, "pipelined": 300, "inforest": 300, "multitree": 300,
                    "bipartite-or": 300, "rof": 60, "xsearch": 11}


@pytest.mark.parametrize("kind", KINDS)
def test_chain_text_matches_reference_on_greedy_chains_above_the_caps(kind):
    # the greedy run hands each candidate back to its solver and moves the
    # solver's state and the oracles by the increment; the reference loop
    # asks a second toolchain's solver about a copy of each base, which
    # moves by a set difference, and every value, text and
    # permutation is read afresh from the reference's sets
    for seed in (1, 2, 3):
        parsed = gen_instance(kind, CHAIN_TEXT_SIZES[kind], seed)
        tools, twin = cli.Toolchain(parsed), cli.Toolchain(parsed)
        assert tools.instance.n > exact.CAPS["perm"]
        chain = tools.greedy()
        ref = ref_greedy_chain(twin.instance, lambda base: twin.solver(frozenset(sorted(base))))
        assert chain.increments == ref.increments and chain.sets == ref.sets
        assert chain.densities == ref.densities
        inst = cli.Toolchain(parsed).instance
        assert chain.values == (tuple(map(inst.cost, ref.sets)), tuple(map(inst.weight, ref.sets)))
        assert cli._format_chain(chain) == ref_format_chain(ref)
        assert chain_to_permutation(tools.instance, chain) == ref_chain_to_permutation(inst, ref)


def test_chain_text_matches_reference_through_multi_element_increments():
    rng = random.Random(32)
    for _ in range(200):
        ids = rng.sample(range(-50, 50), rng.randint(1, 30))
        sets, current = [frozenset()], set()
        while len(current) < len(ids):
            current.update(rng.sample(ids, min(len(ids), rng.randint(1, 5))))
            if len(current) > len(sets[-1]):
                sets.append(frozenset(current))
        chain = Chain.from_sets(tuple(sets))
        assert cli._format_chain(chain) == ref_format_chain(chain), sets


@pytest.mark.parametrize("kind", ["inforest", "multitree", "bipartite-or"])
def test_chain_text_and_refinement_on_signed_job_ids(kind, tmp_path, capsys):
    # OR-DAG steps add stems and subtrees, whose jobs must be ordered along
    # the arcs, not by id; ``solve`` prints both walks
    multi = 0
    for n, seed in ((120, 42), (200, 43)):
        dag = signed_ids_dag(kind, n, seed)
        tools = cli.Toolchain(dag)
        chain = tools.greedy()
        multi += sum(len(b) - len(a) > 2 for a, b in zip(chain.sets, chain.sets[1:]))
        permutation = ref_chain_to_permutation(tools.instance, chain)
        assert chain_to_permutation(tools.instance, chain) == permutation
        path = tmp_path / f"{kind}-{seed}.msop"
        path.write_text(formats.serialize_instance(dag))
        capsys.readouterr()
        assert cli.run(["solve", str(path)]) == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert report["chain"] == ref_format_chain(chain)
        assert report["permutation"] == ",".join(map(str, permutation))
    assert multi >= 5, multi


# ---------------------------------------------------------------------------
# multitree shape: the reachability-mask pass against the path count


def random_dag(n, rng):
    """Arcs between random pairs, at a density that makes about half the
    DAGs multitrees, over shuffled job ids."""
    ids = rng.sample(range(3 * n), n)
    chance = rng.uniform(0.3, 2.5) / n
    arcs = tuple((ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < chance)
    return OrDag(tuple(ids), (1,) * n, (1,) * n, arcs)


def test_multitree_check_matches_path_count_on_random_dags():
    rng = random.Random(61)
    seen = {True: 0, False: 0}
    for k in range(2_400):
        dag = random_dag(1 + k % 14, rng)
        want = ref_is_multitree(dag)
        assert orsched.is_multitree(dag) == want, dag.arcs
        seen[want] += 1
    assert min(seen.values()) >= 500, seen


@pytest.mark.parametrize("kind", ["inforest", "multitree", "bipartite-or"])
def test_multitree_check_matches_path_count_on_generated_files(kind):
    shapes = set()
    for seed in range(40):
        text = formats.serialize_instance(gen_instance(kind, 2 + seed, 100 + seed))
        dag = formats.parse_instance_text(text)
        assert orsched.is_multitree(dag) == ref_is_multitree(dag), seed
        shapes.add(orsched.classify_dag(dag))
    assert len(shapes) > 1
