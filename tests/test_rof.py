import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from msop import exact
from msop.errors import NoFeasibleSuperset, ValidationError
from msop.generators import gen_instance
from msop.rof import (
    Determination,
    Gate,
    Leaf,
    ReadOnceFormula,
    _Supplements,
    to_msop,
)

from helpers import (
    determination_table,
    eq2_cost,
    eval_partial,
    expected_stop_cost,
    find_supp,
    marginal_density,
    prob_tables,
    ref_scaled_tables,
    rof_greedy,
    leaves_below,
    undominated,
)


def fig_formula(p=Fraction(1, 2), costs=None):
    """x1 and x2 and ((x3 and x4) or x5), binary-nested."""
    root = Gate(
        "and",
        Leaf(1),
        Gate("and", Leaf(2), Gate("or", Gate("and", Leaf(3), Leaf(4)), Leaf(5))),
    )
    probs = {i: p for i in range(1, 6)}
    return ReadOnceFormula(root, probs, costs or {i: 1 for i in range(1, 6)})


def assignment_weight(formula, a):
    w = Fraction(1)
    for v, b in a.items():
        w *= formula.probs[v] if b else 1 - formula.probs[v]
    return w


def enum_determined(formula, s):
    """Oracle: sum product-distribution mass of assignments whose outcomes on
    s already pin the formula value."""
    total = Fraction(0)
    vs = formula.variables
    for bits in product((0, 1), repeat=len(vs)):
        a = dict(zip(vs, bits))
        if eval_partial(formula, {v: a[v] for v in s}) is not None:
            total += assignment_weight(formula, a)
    return total


def enum_expected_cost(formula, order):
    """Oracle: expected cost paid while testing in the given order."""
    total = Fraction(0)
    vs = formula.variables
    for bits in product((0, 1), repeat=len(vs)):
        a = dict(zip(vs, bits))
        spent = 0
        seen = {}
        for t in order:
            seen[t] = a[t]
            spent += formula.costs[t]
            if eval_partial(formula, seen) is not None:
                break
        total += assignment_weight(formula, a) * spent
    return total


def test_eval_partial_walkthrough():
    f = fig_formula()
    assert eval_partial(f, {3: 0, 4: 1, 5: 0}) == 0
    assert eval_partial(f, {}) is None
    assert eval_partial(f, {1: 1, 2: 1, 5: 1}) == 1
    assert eval_partial(f, {1: 0}) == 0


def test_eval_partial_agrees_with_extension_enumeration():
    rng = random.Random(21)
    for seed in range(12):
        f = gen_instance("rof", 3 + seed % 6, seed)
        vs = f.variables
        for _ in range(40):
            b = {v: rng.choice((0, 1)) for v in vs if rng.random() < 0.5}
            outcomes = set()
            free = [v for v in vs if v not in b]
            for bits in product((0, 1), repeat=len(free)):
                full = dict(b)
                full.update(zip(free, bits))
                outcomes.add(eval_partial(f, full))
            expected = outcomes.pop() if len(outcomes) == 1 else None
            assert eval_partial(f, b) == expected


def test_gate_probability_or_rule():
    f = ReadOnceFormula(
        Gate("or", Leaf(1), Leaf(2)),
        {1: Fraction(1, 2), 2: Fraction(1, 2)},
        {1: 1, 2: 1},
    )
    ones, _ = prob_tables(f, frozenset({1, 2}))
    assert ones[f.root] == Fraction(3, 4)


def test_gate_probabilities_zero_on_empty_base():
    f = fig_formula()
    for probs in prob_tables(f, frozenset()):
        assert all(p == 0 for p in probs.values())


def test_gate_probabilities_match_enumeration():
    rng = random.Random(22)
    for seed in range(10):
        f = gen_instance("rof", 3 + seed % 8, seed)  # up to 10 variables
        s = frozenset(v for v in f.variables if rng.random() < 0.5)
        ones, zeros = prob_tables(f, s)
        assert ones[f.root] + zeros[f.root] == enum_determined(f, s)


def test_g_determined_examples():
    f = fig_formula()
    vs = frozenset(f.variables)
    assert Determination(f)(vs) == 1
    assert Determination(f)(frozenset()) == 0
    assert Determination(f)(frozenset({3, 4, 5})) == Fraction(3, 8)
    assert Determination(f)(frozenset({3, 4, 5})) == enum_determined(f, {3, 4, 5})


def test_g_determined_monotone_along_random_chains():
    rng = random.Random(23)
    for seed in range(10):
        f = gen_instance("rof", 4 + seed % 5, seed)
        order = list(f.variables)
        rng.shuffle(order)
        prev = Fraction(0)
        current = set()
        for v in order:
            current.add(v)
            g = Determination(f)(frozenset(current))
            assert g >= prev
            prev = g
        assert prev == 1


def test_order_cost_single_test():
    f = ReadOnceFormula(Leaf(1), {1: Fraction(1, 3)}, {1: 7})
    assert eq2_cost(to_msop(f), (1,)) == 7


def test_order_cost_walkthrough_value():
    f = fig_formula()
    order = (3, 4, 5, 2, 1)
    value = eq2_cost(to_msop(f), order)
    assert value == Fraction(63, 16)
    assert expected_stop_cost(f, order) == value
    assert enum_expected_cost(f, order) == value


def test_order_cost_two_forms_agree_randomly():
    rng = random.Random(24)
    for seed in range(40):
        f = gen_instance("rof", 2 + seed % 7, 50 + seed)
        order = list(f.variables)
        rng.shuffle(order)
        assert eq2_cost(to_msop(f), order) == expected_stop_cost(f, order)


def test_determination_table_matches_pointwise():
    for seed in range(6):
        f = gen_instance("rof", 2 + seed, seed)
        table = determination_table(f)
        vs = f.variables
        for mask in range(1 << len(vs)):
            s = frozenset(v for i, v in enumerate(vs) if mask >> i & 1)
            assert table[mask] == Determination(f)(s)


def supplement_state(formula, s):
    """A fresh supplement search state after a call on ``s``."""
    state = _Supplements(formula)
    state(frozenset(s))
    return state


def supplement_table(state, node, outcome):
    """Budget -> (probability, chosen tests) of one node and target of a
    supplement state's tables."""
    den = state.formula.denominators[node]
    return {
        t: (Fraction(value, den), state.chosen(node, outcome, t))
        for t, (value, _) in state.scaled[node][outcome].items()
    }


def test_supplement_tables_single_leaf():
    f = ReadOnceFormula(Leaf(1), {1: Fraction(2, 5)}, {1: 1})
    root = supplement_table(supplement_state(f, frozenset()), f.root, 1)
    assert root[0] == (Fraction(0), frozenset())
    assert root[1] == (Fraction(2, 5), frozenset({1}))


def test_supplement_tables_and_of_two_leaves():
    f = ReadOnceFormula(
        Gate("and", Leaf(1), Leaf(2)),
        {1: Fraction(1, 2), 2: Fraction(1, 3)},
        {1: 1, 2: 1},
    )
    root = supplement_table(supplement_state(f, frozenset()), f.root, 1)
    assert root[2][0] == Fraction(1, 6)


def brute_gate_maxima(formula, s):
    """Oracle: per gate, target and exact cost, maximise the determination
    probability by trying every subset of the gate's untested leaves."""
    out = {}
    below = leaves_below(formula)
    for node in formula.nodes:
        candidates = sorted(below[node] - s)
        table = {0: {}, 1: {}}
        for r in range(len(candidates) + 1):
            for combo in combinations(candidates, r):
                t = sum(formula.costs[i] for i in combo)
                ones, zeros = prob_tables(formula, s | set(combo))
                for outcome, value in ((1, ones[node]), (0, zeros[node])):
                    cur = table[outcome].get(t)
                    if cur is None or value > cur:
                        table[outcome][t] = value
        out[node] = table
    return out


def test_supplement_tables_match_brute_force():
    rng = random.Random(25)
    for seed in range(8):
        f = gen_instance("rof", 3 + seed % 6, 80 + seed)
        s = frozenset(v for v in f.variables if rng.random() < 0.3)
        state = supplement_state(f, s)
        expect = brute_gate_maxima(f, s)
        below = leaves_below(f)
        for node in f.nodes:
            for outcome in (0, 1):
                table = supplement_table(state, node, outcome)
                got = {t: p for t, (p, _) in table.items()}
                assert got == undominated(expect[node][outcome])
                # recorded subsets cost exactly the budget and attain the
                # recorded probability
                for t, (p, chosen) in table.items():
                    assert chosen <= below[node] - s
                    assert sum(f.costs[i] for i in chosen) == t
                    ones, zeros = prob_tables(f, s | chosen)
                    assert (ones if outcome else zeros)[node] == p


def test_find_supp_last_missing_test():
    f = fig_formula()
    s = frozenset({1, 2, 3, 4})
    assert find_supp(f, s) == frozenset({5})
    with pytest.raises(NoFeasibleSuperset):
        find_supp(f, frozenset(f.variables))


def test_fresh_supplement_state_computes_each_gate_once():
    formula = gen_instance("rof", 12, 3)
    calls = Counter()

    class Counted(_Supplements):
        def gate(self, gate):
            calls[gate] += 1
            super().gate(gate)

    Counted(formula)(frozenset(formula.variables[::2]))
    assert calls == Counter(node for node in formula.nodes if isinstance(node, Gate))


def test_find_supp_pure_or_takes_best_ratio_test():
    f = ReadOnceFormula(
        Gate("or", Leaf(1), Gate("or", Leaf(2), Leaf(3))),
        {1: Fraction(1, 10), 2: Fraction(3, 4), 3: Fraction(1, 2)},
        {1: 1, 2: 1, 3: 1},
    )
    inst = to_msop(f)
    chosen = find_supp(f, frozenset())
    rho = marginal_density(inst, frozenset(), chosen).marginal_density
    assert rho == exact.exact_max_density(inst, frozenset()).marginal_density


def test_find_supp_half_density_guarantee_smoke():
    rng = random.Random(26)
    for seed in range(20):
        f = gen_instance("rof", 2 + seed % 8, 120 + seed)
        inst = to_msop(f)
        vs = set(f.variables)
        for _ in range(8):
            base = frozenset(v for v in vs if rng.random() < 0.4)
            if base >= vs:
                continue
            chosen = find_supp(f, base)
            assert chosen and chosen <= vs - base
            rho = marginal_density(inst, base, base | chosen).marginal_density
            best = exact.exact_max_density(inst, base).marginal_density
            assert 2 * rho >= best
            assert rho >= 0


def test_supplement_gains_are_nonnegative_for_both_targets():
    # adding tests can only raise the chance of pinning either target value
    rng = random.Random(28)
    for seed in range(15):
        f = gen_instance("rof", 2 + seed % 7, 160 + seed)
        base = frozenset(v for v in f.variables if rng.random() < 0.4)
        if base >= set(f.variables):
            base = frozenset()
        ones, zeros = prob_tables(f, base)
        # the full exact-budget tables, nothing pruned
        root = ref_scaled_tables(f, base)[f.root]
        den = f.denominators[f.root]
        for outcome, floor in ((1, ones[f.root]), (0, zeros[f.root])):
            for t, (p, _) in root[outcome].items():
                if t > 0:
                    assert Fraction(p, den) >= floor


def test_rof_greedy_optimal_on_pure_or():
    rng = random.Random(27)
    for seed in range(20):
        n = 2 + seed % 6
        leaves = list(range(1, n + 1))
        root = Leaf(leaves[0])
        for v in leaves[1:]:
            root = Gate("or", root, Leaf(v))
        probs = {v: Fraction(rng.randint(1, 7), 8) for v in leaves}
        costs = {v: rng.randint(1, 3) for v in leaves}
        f = ReadOnceFormula(root, probs, costs)
        perm, cost = rof_greedy(f)
        _, opt = exact.exact_opt_permutation(to_msop(f))
        assert cost == opt
        ratios = [Fraction(probs[v], costs[v]) for v in perm]
        assert ratios == sorted(ratios, reverse=True)


def test_rof_greedy_within_eight_on_walkthrough_formula():
    f = fig_formula()
    perm, cost = rof_greedy(f)
    inst = to_msop(f)
    _, opt = exact.exact_opt_permutation(inst)
    assert cost <= 8 * opt
    assert cost == enum_expected_cost(f, perm)


def test_rof_greedy_ratio_smoke():
    for seed in range(30):
        f = gen_instance("rof", 2 + seed % 6, 200 + seed)
        perm, cost = rof_greedy(f)
        _, opt = exact.exact_opt_permutation(to_msop(f))
        assert cost <= 8 * opt


def test_formula_validation():
    with pytest.raises(ValidationError):
        ReadOnceFormula(
            Gate("and", Leaf(1), Leaf(1)),
            {1: Fraction(1, 2)},
            {1: 1},
        )
    with pytest.raises(ValidationError):
        ReadOnceFormula(Leaf(1), {1: Fraction(1, 2)}, {1: 0})
    with pytest.raises(ValidationError):
        ReadOnceFormula(Leaf(1), {1: Fraction(3, 2)}, {1: 1})
    with pytest.raises(ValidationError):
        ReadOnceFormula(Leaf(1), {1: Fraction(1, 2), 2: Fraction(1, 2)}, {1: 1, 2: 1})
