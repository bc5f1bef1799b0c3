"""Certification suite: every advertised guarantee at its stated strength.

Each criterion runs over seeded random instances with exact rational
comparisons (no tolerances anywhere) and prints one PASS/FAIL line.  Counts
match the advertised minimums; MSOP_TEST_SCALE < 1 shrinks them for
development smoke runs only.

Run with: pytest tests/test_acceptance.py -v -s
"""

import os
import random
import time
from fractions import Fraction

import pytest

from msop import (
    backward_greedy_chain,
    chain_cost,
    dual_chain,
    dualize,
    greedy_chain,
)
from msop import exact, mssc, orsched, rof
from msop.generators import gen_instance

from helpers import (
    chain_from_sets,
    chain_histogram,
    covering_cost,
    eq2_cost,
    expected_stop_cost,
    find_supp,
    gen_generic_msop,
    gen_or_pipelined,
    gen_supermodular_cost_msop,
    histogram_areas,
    leaves_below,
    marginal_density,
    or_coverage_instance,
    permutation_to_chain,
    random_chain,
    ref_or_initial_membership,
    rof_greedy,
    schedule_cost,
    singleton_solver,
    undominated,
)

SCALE = float(os.environ.get("MSOP_TEST_SCALE", "1"))

SEEDS = {
    "generic": 11_000_000,
    "mssc": 12_000_000,
    "inforest": 13_000_000,
    "multitree": 14_000_000,
    "pipelined": 15_000_000,
    "supplement": 16_000_000,
    "formula": 17_000_000,
    "duality": 18_000_000,
    "subchain": 19_000_000,
    "identity": 20_000_000,
}


def _count(base: int) -> int:
    return max(1, round(base * SCALE))


def _verdict(name: str, started: float, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail}, {time.time() - started:.1f}s)")


@pytest.fixture(scope="module")
def generic_greedy_run():
    """Shared loop for criteria 1 and 2: greedy with the exhaustive density
    step on union-closed families with subadditive cost, n <= 7."""
    results = []
    for i in range(_count(10_000)):
        n = 2 + i % 6
        inst = gen_generic_msop(n, SEEDS["generic"] + i)
        chain = greedy_chain(inst, exact.exact_density_solver(inst))
        greedy_cost = chain_cost(inst, chain)
        opt_chain, opt_cost = exact.exact_opt_chain(inst)
        violation = chain_histogram(inst, chain, opt_chain, 1)
        areas = histogram_areas(inst, chain, opt_chain)
        results.append((inst, greedy_cost, opt_cost, violation, areas))
    return results


def test_criterion_01_generic_four_alpha_bound(generic_greedy_run):
    started = time.time()
    worst = Fraction(0)
    for inst, greedy_cost, opt_cost, *_ in generic_greedy_run:
        assert greedy_cost <= 4 * opt_cost, (
            f"{inst.name}: greedy {greedy_cost} > 4 * optimum {opt_cost}"
        )
        if opt_cost > 0:
            worst = max(worst, Fraction(greedy_cost, opt_cost))
    _verdict(
        "criterion 1: generic greedy within 4x of the optimal chain",
        started,
        f"{len(generic_greedy_run)} instances, worst ratio {float(worst):.3f}",
    )


def test_criterion_02_histogram_containment(generic_greedy_run):
    started = time.time()
    for inst, greedy_cost, opt_cost, violation, areas in generic_greedy_run:
        assert violation is None, f"{inst.name}: {violation}"
        assert areas == (opt_cost, greedy_cost), inst.name
    _verdict(
        "criterion 2: histogram containment and exact area identities",
        started,
        f"{len(generic_greedy_run)} instances",
    )


def test_criterion_03_set_cover_singleton_greedy():
    started = time.time()
    total = _count(10_000)
    worst = Fraction(0)
    for i in range(total):
        n = 2 + i % 7  # up to 8 elements
        cover = gen_instance("pipelined", n, SEEDS["mssc"] + i, edges=1 + i % 10)
        inst = mssc.to_msop(cover)
        chain = greedy_chain(inst, mssc.singleton_solver(cover))
        greedy_cost = chain_cost(inst, chain)
        _, opt_cost = exact.exact_opt_permutation(inst)
        assert greedy_cost <= 4 * opt_cost, f"seed {i}"
        for base, rho in zip(chain.sets, chain.densities):
            if base != inst.universe():
                best = exact.exact_max_density(inst, base).marginal_density
                assert rho == best, f"seed {i}: step density {rho} != exact {best}"
        if opt_cost > 0:
            worst = max(worst, Fraction(greedy_cost, opt_cost))
    _verdict(
        "criterion 3: covering greedy within 4x, step densities exact",
        started,
        f"{total} instances, worst ratio {float(worst):.3f}",
    )


def _or_ratio_run(kind: str, solver_factory, count: int, seed0: int) -> tuple[int, Fraction]:
    worst = Fraction(0)
    for i in range(count):
        n = 2 + i % 7  # up to 8 jobs
        dag = gen_instance(kind, n, seed0 + i)
        inst = orsched.to_msop(dag)
        chain = greedy_chain(inst, solver_factory(dag))
        greedy_cost = chain_cost(inst, chain)
        _, opt_cost = exact.exact_opt_permutation(inst)
        assert greedy_cost <= 4 * opt_cost, f"{kind} seed {i}"
        for base, rho in zip(chain.sets, chain.densities):
            if base != inst.universe():
                best = exact.exact_max_density(inst, base).marginal_density
                assert rho == best, f"{kind} seed {i}: step density mismatch"
        if opt_cost > 0:
            worst = max(worst, Fraction(greedy_cost, opt_cost))
    return count, worst


def test_criterion_04_or_scheduling_stem_and_outtree():
    started = time.time()
    n_in, worst_in = _or_ratio_run(
        "inforest", orsched.stem_solver, _count(5_000), SEEDS["inforest"]
    )
    n_multi, worst_multi = _or_ratio_run(
        "multitree", orsched.outtree_solver, _count(5_000), SEEDS["multitree"]
    )
    # standalone density suite up to 12 jobs
    rng = random.Random(SEEDS["inforest"])
    density_checks = 0
    for i in range(_count(300)):
        n = 3 + i % 10
        kind = "inforest" if i % 2 else "multitree"
        dag = gen_instance(kind, n, SEEDS["multitree"] + i)
        inst = orsched.to_msop(dag)
        base = frozenset()
        for _ in range(rng.randint(0, n - 1)):
            ready = [
                j
                for j in dag.jobs
                if j not in base and ref_or_initial_membership(dag, base | {j})
            ]
            if not ready:
                break
            base = base | {rng.choice(ready)}
        if base == inst.universe():
            base = frozenset()
        if kind == "inforest":
            got = orsched.stem_solver(dag)(base)
        else:
            got = orsched.outtree_solver(dag)(base)
        best = exact.exact_max_density(inst, base).marginal_density
        assert got.marginal_density == best, f"{kind} density seed {i}"
        density_checks += 1
    _verdict(
        "criterion 4: stem/outtree greedy within 4x, densities exact",
        started,
        f"{n_in} inforests (worst {float(worst_in):.3f}), "
        f"{n_multi} multitrees (worst {float(worst_multi):.3f}), "
        f"{density_checks} standalone density checks",
    )


def test_criterion_05_or_pipelined_cover():
    started = time.time()
    total = _count(1_000)
    worst = Fraction(0)
    for i in range(total):
        n = 2 + i % 7
        dag, edges = gen_or_pipelined(n, SEEDS["pipelined"] + i)
        inst = or_coverage_instance(dag, edges)
        chain = greedy_chain(inst, exact.exact_density_solver(inst))
        greedy_cost = chain_cost(inst, chain)
        _, opt_cost = exact.exact_opt_permutation(inst)
        assert greedy_cost <= 4 * opt_cost, f"seed {i}"
        if opt_cost > 0:
            worst = max(worst, Fraction(greedy_cost, opt_cost))
    _verdict(
        "criterion 5: covering under inforest precedence within 4x",
        started,
        f"{total} instances, worst ratio {float(worst):.3f}",
    )


def _brute_gate_maxima(formula, s):
    """Per gate, target and exact budget, the best scaled probability over
    every subset of the gate's untested leaves, and each tested set's
    scaled gate probabilities, computed once per set."""
    from itertools import combinations

    memo = {}
    out = {}
    below = leaves_below(formula)
    for node in formula.nodes:
        candidates = sorted(below[node] - s)
        table = {0: {}, 1: {}}
        for r in range(len(candidates) + 1):
            for combo in combinations(candidates, r):
                t = sum(formula.costs[i] for i in combo)
                tested = s.union(combo)
                if tested not in memo:
                    state = rof.Determination(formula)
                    state(tested)
                    memo[tested] = state.ones, state.zeros
                ones, zeros = memo[tested]
                for outcome, value in ((1, ones[node]), (0, zeros[node])):
                    cur = table[outcome].get(t)
                    if cur is None or value > cur:
                        table[outcome][t] = value
        out[node] = table
    return out, memo


def test_criterion_06_supplement_half_density():
    started = time.time()
    total = _count(1_000)
    rng = random.Random(SEEDS["supplement"])
    for i in range(total):
        n = 2 + i % 9  # up to 10 tests, costs in {1, 2, 3}
        formula = gen_instance("rof", n, SEEDS["supplement"] + i)
        inst = rof.to_msop(formula)
        universe = set(formula.variables)
        for _ in range(20):
            base = frozenset(v for v in universe if rng.random() < 0.4)
            if base >= universe:
                base = frozenset()
            chosen = find_supp(formula, base)
            rho = marginal_density(inst, base, base | chosen).marginal_density
            best = exact.exact_max_density(inst, base).marginal_density
            assert rho >= 0
            assert 2 * rho >= best, f"seed {i}: {rho} vs {best}"
        # full table check against subset enumeration at one random base
        base = frozenset(v for v in universe if rng.random() < 0.3)
        if base >= universe:
            base = frozenset()
        state = rof._Supplements(formula)
        state(base)
        expect, memo = _brute_gate_maxima(formula, base)
        below = leaves_below(formula)
        for node in formula.nodes:
            for outcome in (0, 1):
                kept = state.scaled[node][outcome]
                got = {t: v for t, (v, _) in kept.items()}
                assert got == undominated(expect[node][outcome]), f"seed {i}"
                # the back-pointers rebuild a supplement of cost exactly t
                # that attains the kept value
                for t, (v, _) in kept.items():
                    chosen = state.chosen(node, outcome, t)
                    assert chosen <= below[node] - base, f"seed {i}"
                    assert sum(formula.costs[x] for x in chosen) == t, f"seed {i}"
                    ones, zeros = memo[base | chosen]
                    assert (ones if outcome else zeros)[node] == v, f"seed {i}"
    _verdict(
        "criterion 6: supplement density within half of best, tables exact",
        started,
        f"{total} formulas x 20 bases",
    )


def test_criterion_07_formula_order_within_eight():
    started = time.time()
    total = _count(1_000)
    worst = Fraction(0)
    for i in range(total):
        n = 2 + i % 6  # up to 7 tests
        formula = gen_instance("rof", n, SEEDS["formula"] + i)
        perm, cost = rof_greedy(formula)
        _, opt_cost = exact.exact_opt_permutation(rof.to_msop(formula))
        assert cost <= 8 * opt_cost, f"seed {i}"
        worst = max(worst, Fraction(cost, opt_cost))
    # pure disjunctions: the greedy order is exactly optimal
    rng = random.Random(SEEDS["formula"])
    ors = _count(300)
    for i in range(ors):
        n = 2 + i % 6
        leaves = list(range(1, n + 1))
        root: rof.Node = rof.Leaf(leaves[0])
        for v in leaves[1:]:
            root = rof.Gate("or", root, rof.Leaf(v))
        formula = rof.ReadOnceFormula(
            root,
            {v: Fraction(rng.randint(1, 7), 8) for v in leaves},
            {v: rng.randint(1, 3) for v in leaves},
        )
        perm, cost = rof_greedy(formula)
        _, opt_cost = exact.exact_opt_permutation(rof.to_msop(formula))
        assert cost == opt_cost, f"pure-or seed {i}"
    _verdict(
        "criterion 7: formula evaluation within 8x, exact on disjunctions",
        started,
        f"{total} formulas (worst ratio {float(worst):.3f}), {ors} pure disjunctions",
    )


def test_criterion_08_duality_identity_and_backward_greedy():
    started = time.time()
    chains = _count(10_000)
    rng = random.Random(SEEDS["duality"])
    for i in range(chains):
        n = 2 + i % 6
        inst = gen_generic_msop(n, SEEDS["duality"] + i)
        chain = random_chain(inst, rng)
        mirrored = dual_chain(chain)
        assert chain_cost(inst, chain) == chain_cost(dualize(inst), mirrored), f"seed {i}"
        assert dual_chain(mirrored) == chain
    backward = _count(1_000)
    worst = Fraction(0)
    for i in range(backward):
        n = 2 + i % 6
        inst = gen_supermodular_cost_msop(n, SEEDS["duality"] + i)
        chain = backward_greedy_chain(inst, singleton_solver)
        cost = chain_cost(inst, chain)
        _, opt_cost = exact.exact_opt_chain(inst)
        assert cost <= 4 * opt_cost, f"backward seed {i}"
        if opt_cost > 0:
            worst = max(worst, Fraction(cost, opt_cost))
    _verdict(
        "criterion 8: dual cost identity exact, backward greedy within 4x",
        started,
        f"{chains} chains, {backward} backward runs (worst {float(worst):.3f})",
    )


def test_criterion_09_subchains_cost_at_least_chains():
    started = time.time()
    total = _count(10_000)
    rng = random.Random(SEEDS["subchain"])
    for i in range(total):
        n = 2 + i % 6
        inst = gen_generic_msop(n, SEEDS["subchain"] + i)
        chain = random_chain(inst, rng)
        k = chain.steps
        keep = sorted({0, k} | {j for j in range(1, k) if rng.random() < 0.5})
        sub = chain_from_sets(tuple(chain.sets[j] for j in keep))
        assert chain_cost(inst, sub) >= chain_cost(inst, chain), f"seed {i}"
    _verdict(
        "criterion 9: every subchain costs at least its chain",
        started,
        f"{total} chain/subchain pairs",
    )


def test_criterion_10_objective_identities():
    started = time.time()
    rng = random.Random(SEEDS["identity"])
    covers = _count(1_000)
    for i in range(covers):
        n = 2 + i % 7
        cover = gen_instance("pipelined", n, SEEDS["identity"] + i)
        inst = mssc.to_msop(cover)
        order = list(range(n))
        rng.shuffle(order)
        assert covering_cost(cover, order) == chain_cost(
            inst, permutation_to_chain(inst, order)
        ), f"cover seed {i}"
    schedules = _count(1_000)
    for i in range(schedules):
        n = 2 + i % 7
        dag = gen_instance("inforest", n, SEEDS["identity"] + i)
        inst = orsched.to_msop(dag)
        order = []
        done: set[int] = set()
        while len(order) < n:
            ready = [
                j
                for j in dag.jobs
                if j not in done
                and (not dag.preds[j] or any(p in done for p in dag.preds[j]))
            ]
            pick = rng.choice(ready)
            order.append(pick)
            done.add(pick)
        assert schedule_cost(dag, order) == chain_cost(
            inst, permutation_to_chain(inst, order)
        ), f"schedule seed {i}"
    formulas = _count(1_000)
    for i in range(formulas):
        n = 2 + i % 7
        formula = gen_instance("rof", n, SEEDS["identity"] + i)
        order = list(formula.variables)
        rng.shuffle(order)
        assert eq2_cost(rof.to_msop(formula), order) == expected_stop_cost(
            formula, order
        ), f"formula seed {i}"
    # the worked ordering example: both forms give exactly 63/16
    walkthrough = rof.ReadOnceFormula(
        rof.Gate(
            "and",
            rof.Leaf(1),
            rof.Gate(
                "and",
                rof.Leaf(2),
                rof.Gate("or", rof.Gate("and", rof.Leaf(3), rof.Leaf(4)), rof.Leaf(5)),
            ),
        ),
        {i: Fraction(1, 2) for i in range(1, 6)},
        {i: 1 for i in range(1, 6)},
    )
    order = (3, 4, 5, 2, 1)
    assert eq2_cost(rof.to_msop(walkthrough), order) == Fraction(63, 16)
    assert expected_stop_cost(walkthrough, order) == Fraction(63, 16)
    _verdict(
        "criterion 10: covering, scheduling and testing objectives coincide",
        started,
        f"{covers}+{schedules}+{formulas} identity checks",
    )
