import random
from fractions import Fraction

import pytest

from msop import (
    INF,
    MsopInstance,
    chain_cost,
    greedy_chain,
    histogram_containment_check,
)
from msop import exact
from msop.core import chain_values
from msop.errors import (
    InvalidChain,
    MissingCertificate,
    NoFeasiblePermutation,
    NoFeasibleSuperset,
    NonMonotone,
    NotInFamily,
    TooLarge,
    ValidationError,
)
from msop.mssc import to_msop as mssc_to_msop
from msop.orsched import OrDag, to_msop as ordag_to_msop

from helpers import (
    chain_from_sets,
    brute_max_density,
    chain_histogram,
    histogram_areas,
    brute_opt_chain,
    brute_opt_permutation,
    gen_generic_msop,
    marginal_density,
    ref_exact_max_density,
    unit_mssc,
)


def modular(values):
    return lambda s: sum(values[v] for v in s)


def free_instance(n, cost, weight):
    return MsopInstance(tuple(range(n)), lambda s: True, cost, weight)


def test_opt_permutation_single_element():
    inst = free_instance(1, modular([3]), modular([2]))
    perm, cost = exact.exact_opt_permutation(inst)
    assert perm == (0,)
    assert cost == 6


def test_opt_permutation_or_chain_example():
    dag = OrDag((0, 1), (1, 1), (0, 1), ((0, 1),))
    perm, cost = exact.exact_opt_permutation(ordag_to_msop(dag))
    assert perm == (0, 1)
    assert cost == 2


def test_opt_permutation_mssc_example_starts_with_covering_element():
    inst = unit_mssc(3, [frozenset({0, 1}), frozenset({1}), frozenset({2})])
    perm, cost = exact.exact_opt_permutation(mssc_to_msop(inst))
    assert perm[0] == 1
    assert cost == 4


def test_opt_permutation_matches_brute_force():
    for seed in range(40):
        inst = gen_generic_msop(2 + seed % 4, 3000 + seed)
        expect = brute_opt_permutation(inst)
        if expect is None:
            with pytest.raises(NoFeasiblePermutation):
                exact.exact_opt_permutation(inst)
            continue
        perm, cost = exact.exact_opt_permutation(inst)
        assert cost == expect[0]
        # reported order achieves the reported cost and is feasible
        from helpers import eq2_cost, feasible_order

        assert feasible_order(inst, perm)
        assert eq2_cost(inst, perm) == cost


def test_opt_permutation_lexicographic_tie_break():
    inst = free_instance(3, modular([1, 1, 1]), modular([1, 1, 1]))
    perm, _ = exact.exact_opt_permutation(inst)
    assert perm == (0, 1, 2)  # every order ties; smallest wins


def test_opt_chain_matches_brute_force():
    for seed in range(30):
        inst = gen_generic_msop(2 + seed % 4, 4000 + seed)
        _, cost = exact.exact_opt_chain(inst)
        assert cost == brute_opt_chain(inst)


def test_opt_chain_minimal_family():
    inst = MsopInstance(
        (0, 1, 2),
        lambda s: len(s) in (0, 3),
        modular([1, 2, 3]),
        modular([1, 1, 1]),
    )
    chain, cost = exact.exact_opt_chain(inst)
    assert chain.sets == (frozenset(), frozenset({0, 1, 2}))
    assert cost == 6 * 3


def test_opt_chain_equals_opt_permutation_on_free_modular_instances():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(2, 6)
        cost_v = [rng.randint(1, 4) for _ in range(n)]
        weight_v = [rng.randint(0, 4) for _ in range(n)]
        inst = free_instance(n, modular(cost_v), modular(weight_v))
        _, chain_val = exact.exact_opt_chain(inst)
        _, perm_val = exact.exact_opt_permutation(inst)
        assert chain_val == perm_val


def test_opt_chain_never_exceeds_opt_permutation():
    for seed in range(30):
        inst = gen_generic_msop(2 + seed % 5, 5000 + seed)
        _, chain_val = exact.exact_opt_chain(inst)
        best = brute_opt_permutation(inst)
        if best is not None:
            assert chain_val <= best[0]


def test_caps_raise_too_large(monkeypatch):
    # each search runs at n equal to its cap and refuses one element more
    monkeypatch.setattr(exact, "CAPS", {"perm": 4, "chain": 4, "density": 4})
    searches = {
        "perm": exact.exact_opt_permutation,
        "chain": exact.exact_opt_chain,
        "density": lambda inst: exact.exact_max_density(inst, frozenset()),
    }
    at_cap, above = (free_instance(n, modular(range(1, n + 1)), modular([1] * n)) for n in (4, 5))
    for what, search in searches.items():
        search(at_cap)
        with pytest.raises(TooLarge) as err:
            search(above)
        assert str(err.value) == f"{what}: instance has 5 elements, exhaustive cap is 4"
    monkeypatch.setitem(exact.CAPS, "perm", 5)
    exact.exact_opt_permutation(above)


def test_certification_ratio():
    # a Fraction, INF under a zero optimum with a positive greedy cost, else 0
    for cost, optimum, ratio in ((3, 2, Fraction(3, 2)), (Fraction(7, 2), Fraction(7, 4),
                                 Fraction(2)), (3, 0, INF), (0, 0, 0)):
        record = exact.Certification(cost, optimum, None, None, False)
        assert repr(record.ratio) == repr(ratio)


def test_max_density_prefers_best_singleton():
    inst = free_instance(2, modular([1, 1]), modular([3, 2]))
    result = exact.exact_max_density(inst, frozenset())
    assert result.increment == (0,)
    assert result.marginal_density == 3


def test_max_density_infinite_sentinel_dominates():
    inst = free_instance(2, modular([0, 1]), modular([1, 5]))
    result = exact.exact_max_density(inst, frozenset())
    assert result.marginal_density == INF
    assert result.increment == (0,)


def test_max_density_tie_break_smallest_then_lexicographic():
    inst = free_instance(3, modular([1, 1, 1]), modular([2, 2, 2]))
    result = exact.exact_max_density(inst, frozenset())
    assert result.increment == (0,)  # all singletons tie at 2


def test_max_density_matches_brute_force():
    rng = random.Random(9)
    for seed in range(30):
        inst = gen_generic_msop(2 + seed % 5, 6000 + seed)
        bases = [frozenset()]
        full_masks = [s for s in _family_sets(inst) if s != inst.universe()]
        bases.extend(rng.sample(full_masks, min(2, len(full_masks))))
        for base in bases:
            try:
                got = exact.exact_max_density(inst, base)
            except NoFeasibleSuperset:
                assert brute_max_density(inst, base) is None
                continue
            assert got.marginal_density == brute_max_density(inst, base)


def test_max_density_ties_on_a_ground_set_out_of_order():
    # bit i stands for ground[i], so the lowest differing bit is not the
    # smallest differing id; unit or two-valued oracles make many
    # equal-size candidates tie on density
    ground = (5, 2, 9, 0, 7)
    full = frozenset(ground)
    rng = random.Random(13)
    ties = 0
    for round_ in range(40):
        family = {frozenset(), full}
        for _ in range(4):  # the union closure of random generators
            extra = frozenset(rng.sample(ground, rng.randint(1, 3)))
            family |= {s | extra for s in family}
        top = 1 if round_ % 2 else 2
        cost = {v: rng.randint(1, top) for v in ground}
        weight = {v: rng.randint(1, top) for v in ground}
        inst = MsopInstance(
            ground, family.__contains__, lambda s, c=cost: sum(c[v] for v in s),
            lambda s, w=weight: sum(w[v] for v in s),
        )
        for base in family - {full}:
            got = exact.exact_max_density(inst, base)
            want = ref_exact_max_density(inst, base)
            assert got.increment == want.increment, (round_, sorted(base))
            assert got.marginal_density == want.marginal_density == brute_max_density(inst, base)
            best = [s for s in family if s > base and len(s) == len(base) + len(got.increment)
                    and marginal_density(inst, base, s).marginal_density == got.marginal_density]
            ties += len(best) > 1
    assert ties >= 50, ties


def _family_sets(inst):
    from itertools import combinations

    out = []
    for r in range(inst.n + 1):
        for combo in combinations(sorted(inst.ground_set), r):
            s = frozenset(combo)
            if inst.in_family(s):
                out.append(s)
    return out


def test_no_feasible_superset():
    inst = free_instance(2, modular([1, 1]), modular([1, 1]))
    with pytest.raises(NoFeasibleSuperset):
        exact.exact_max_density(inst, frozenset({0, 1}))  # nothing above the full set


def test_base_outside_the_ground_set_is_not_in_the_family():
    inst = free_instance(3, modular([1, 1, 1]), modular([1, 1, 1]))
    for step in (lambda b: exact.exact_max_density(inst, b), exact.exact_density_solver(inst)):
        with pytest.raises(NotInFamily):
            step(frozenset({0, 99}))


def test_histogram_trivial_single_column():
    inst = free_instance(1, modular([2]), modular([3]))
    chain = greedy_chain(inst, exact.exact_density_solver(inst))
    assert chain_histogram(inst, chain, chain, 1) is None
    assert histogram_areas(inst, chain, chain) == (chain_cost(inst, chain),) * 2


def test_histogram_requires_certificate():
    # the values of the chain {} < {0} with cost 2 and weight 3
    with pytest.raises(MissingCertificate):
        histogram_containment_check([0, 3], None, [0, 2], [0, 3], 1, 1, 1)


def test_histogram_rejects_alpha_below_one():
    with pytest.raises(ValidationError, match="alpha must be at least 1"):
        histogram_containment_check([0, 3], [Fraction(3, 2)], [0, 2], [0, 3], Fraction(1, 2),
                                    1, 1)


def test_histogram_rejects_a_chain_whose_weight_falls():
    # weight({0}) = 2 > weight({0, 1}) = 1; the merge needs both step
    # functions' columns in order of x, so check_ratio checks both chains
    # first: the greedy chain through chain_values, or the optimal order
    # 0, 1 that the permutation DP finds on these weights, read off the
    # lattice with chain_values' class and text
    inst = free_instance(2, modular([1, 1]), lambda s: 2 if s == {0} else min(len(s), 1))
    falling = chain_from_sets((frozenset(), frozenset({0}), frozenset({0, 1})), (2, 1))
    rising = chain_from_sets((frozenset(), frozenset({1}), frozenset({0, 1})), (1, 0))
    assert exact.exact_opt_permutation(inst)[0] == (0, 1)
    for greedy in (falling, rising):
        with pytest.raises(NonMonotone, match=r"value decreased between \[0\] and \[0, 1\]"):
            exact.check_ratio(inst, greedy, 1)


def _two_elements(cost=modular([1, 1]), weight=modular([1, 1]), family=lambda s: True):
    return MsopInstance((0, 1), family, cost, weight)


ZERO_ONE = frozenset({0, 1})

# (instance, a chain it rejects, a chain to pair it with, the error)
BAD_CHAINS = {
    "stops short": (
        _two_elements(), chain_from_sets((frozenset(), frozenset({0}))),
        chain_from_sets((frozenset(), ZERO_ONE)), InvalidChain),
    "through an infeasible set": (
        _two_elements(family=lambda s: s != {0}),
        chain_from_sets((frozenset(), frozenset({0}), ZERO_ONE)),
        chain_from_sets((frozenset(), frozenset({1}), ZERO_ONE)), InvalidChain),
    "weight falls": (
        _two_elements(weight=lambda s: 2 if s == {0} else min(len(s), 1)),
        chain_from_sets((frozenset(), frozenset({0}), ZERO_ONE)),
        chain_from_sets((frozenset(), frozenset({1}), ZERO_ONE)), NonMonotone),
    # the two below are rejected since the certification reads its chains
    # through chain_values
    "nonzero on the empty set": (
        _two_elements(cost=lambda s: len(s) + 1), chain_from_sets((frozenset(), ZERO_ONE)),
        chain_from_sets((frozenset(), frozenset({1}), ZERO_ONE)), InvalidChain),
    "cost falls": (
        _two_elements(cost=lambda s: 3 if s == {0} else len(s)),
        chain_from_sets((frozenset(), frozenset({0}), ZERO_ONE)),
        chain_from_sets((frozenset(), frozenset({1}), ZERO_ONE)), NonMonotone),
}


@pytest.mark.parametrize("row", sorted(BAD_CHAINS))
def test_chain_cost_and_histogram_reject_the_same_chains(row):
    inst, bad, good, error = BAD_CHAINS[row]
    with pytest.raises(error):
        chain_cost(inst, bad)
    with pytest.raises(error):  # a greedy chain needs a certificate, of any values
        chain_histogram(inst, chain_from_sets(bad.sets, (1,) * bad.steps), good, 1)
    with pytest.raises(error):
        chain_histogram(inst, chain_from_sets(good.sets, (1,) * good.steps), bad, 1)


def test_histogram_area_identities_and_containment():
    for seed in range(60):
        inst = gen_generic_msop(2 + seed % 6, 7000 + seed)
        chain = greedy_chain(inst, exact.exact_density_solver(inst))
        opt, opt_cost = exact.exact_opt_chain(inst)
        assert chain_histogram(inst, chain, opt, 1) is None
        assert histogram_areas(inst, chain, opt) == (opt_cost, chain_cost(inst, chain))
        heights = chain_values(inst, opt)[0]
        assert heights == tuple(sorted(heights))


def test_histogram_corrupted_certificate_is_pinpointed():
    inst = free_instance(1, modular([1]), modular([1]))
    chain = greedy_chain(inst, exact.exact_density_solver(inst))
    corrupt = chain_from_sets(chain.sets, tuple(Fraction(d, 4) for d in chain.densities))
    violation = chain_histogram(inst, corrupt, chain, 1)
    assert violation is not None
    x, got, allowed = violation
    assert got > allowed
    assert Fraction(1, 2) <= x <= 1
