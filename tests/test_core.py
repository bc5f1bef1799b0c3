import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from msop import (
    Chain,
    INF,
    MsopInstance,
    chain_cost,
    chain_to_permutation,
    dualize,
    greedy_chain,
    spot_check_hypotheses,
)
from msop import exact
from msop.cli import Toolchain
from msop.core import chain_values
from msop.errors import (
    InvalidChain,
    NonMonotone,
    NotASuperset,
    NotInFamily,
    NotWellFounded,
    SolverStall,
    ValidationError,
)
from msop.generators import KINDS, gen_instance
from msop.mssc import singleton_solver as mssc_singleton, to_msop
from msop.orsched import OrDag, stem_solver, to_msop as ordag_to_msop

from helpers import (
    InfeasibleInitialSet,
    covering_cost,
    densest_consistent_permutation,
    eq2_cost,
    gen_generic_msop,
    marginal_density,
    permutation_to_chain,
    random_chain,
    schedule_cost,
    singleton_solver,
    unit_mssc,
)


def free_instance(n, cost, weight):
    return MsopInstance(tuple(range(n)), lambda s: True, cost, weight)


def modular(values):
    return lambda s: sum(values[v] for v in s)


def test_chain_cost_single_step_is_product():
    inst = free_instance(3, modular([1, 2, 3]), modular([1, 1, 1]))
    chain = Chain.from_sets((frozenset(), frozenset({0, 1, 2})))
    assert chain_cost(inst, chain) == 6 * 3


def test_chain_cost_flat_weight_steps_contribute_nothing():
    # weight jumps only on the first step; later sets add cost but no weight
    weight = lambda s: 5 if s else 0
    inst = free_instance(3, modular([1, 1, 1]), weight)
    lazy = Chain.from_sets(
        (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))
    )
    assert chain_cost(inst, lazy) == 1 * 5
    direct = Chain.from_sets((frozenset(), frozenset({0, 1, 2})))
    assert chain_cost(inst, direct) == 3 * 5


def test_chain_cost_mssc_example_matches_exact_oracle():
    inst = unit_mssc(3, [frozenset({0}), frozenset({0, 1}), frozenset({2})])
    mi = to_msop(inst)
    perm = (0, 2, 1)
    cost = chain_cost(mi, permutation_to_chain(mi, perm))
    assert cost == 4
    assert covering_cost(inst, perm) == 4
    _, opt = exact.exact_opt_permutation(mi)
    assert opt == 4  # the example permutation is optimal here


def test_chain_validation_errors():
    inst = free_instance(2, modular([1, 1]), modular([1, 1]))
    with pytest.raises(InvalidChain):
        Chain.from_sets((frozenset({0}), frozenset({0, 1})))  # must start empty
    with pytest.raises(InvalidChain):
        Chain.from_sets((frozenset(), frozenset()))  # strict inclusion
    short = Chain.from_sets((frozenset(), frozenset({0})))
    with pytest.raises(InvalidChain):
        chain_cost(inst, short)  # does not reach the ground set
    gated = MsopInstance(
        (0, 1), lambda s: len(s) != 1, modular([1, 1]), modular([1, 1])
    )
    with pytest.raises(InvalidChain):
        chain_cost(gated, Chain.from_sets((frozenset(), frozenset({0}), frozenset({0, 1}))))


def test_chain_rejects_kept_values_of_the_wrong_length():
    # the values of a three-set chain are three costs and three weights;
    # two-entry columns would answer chain_values for it, and chain_cost
    # would read 5 where the chain costs 3
    inst = to_msop(unit_mssc(2, [frozenset({0}), frozenset({1})]))
    sets = (frozenset(), frozenset({0}), frozenset({0, 1}))
    for values in (((0, 5), (0, 1)), ((0, 1, 2), (0, 1)), ((0, 1, 2), (0, 1, 2, 2))):
        with pytest.raises(InvalidChain, match="one cost and one weight per chain set"):
            Chain.from_sets(sets, (1, 1), values, inst)
    chain = Chain.from_sets(sets, (1, 1), ((0, 1, 2), (0, 1, 2)), inst)
    assert chain_cost(inst, chain) == 3 == chain_cost(inst, Chain.from_sets(sets))


def test_chain_keeps_sorted_increments_and_derives_its_sets():
    sets = (frozenset(), frozenset({5, -1}), frozenset({5, -1, 3, 0}))
    chain = Chain.from_sets(sets)
    assert chain.increments == ((-1, 5), (0, 3)) and chain.steps == 2
    assert chain.sets == sets and chain == Chain(((-1, 5), (0, 3)))
    for bad in ((), ((),), ((0,), (0, 1)), ((1, 0),), ((0, 0),), [[0]]):
        with pytest.raises(InvalidChain):
            Chain(tuple(bad) if isinstance(bad, tuple) else bad)
    with pytest.raises(InvalidChain, match=r"strictly increase, got \[0\] before \[1\]"):
        Chain.from_sets((frozenset(), frozenset({0}), frozenset({1})))


def test_chain_cost_detects_non_monotone_weight():
    values = {frozenset(): 0, frozenset({0}): 2, frozenset({0, 1}): 1}
    inst = MsopInstance((0, 1), lambda s: True, modular([1, 1]), lambda s: values[s])
    with pytest.raises(NonMonotone):
        chain_cost(inst, Chain.from_sets((frozenset(), frozenset({0}), frozenset({0, 1}))))


def test_marginal_density_definition_and_sentinel():
    inst = free_instance(2, modular([2, 1]), modular([1, 0]))
    r = marginal_density(inst, frozenset(), frozenset({0}))
    assert r.marginal_density == Fraction(1, 2)
    flat = free_instance(2, lambda s: 1 if s else 0, modular([1, 1]))
    r2 = marginal_density(flat, frozenset({0}), frozenset({0, 1}))
    assert r2.marginal_density == INF
    stepped = free_instance(2, modular([1, 2]), modular([1, 1]))
    r3 = marginal_density(stepped, frozenset({0}), frozenset({0, 1}))
    assert r3.marginal_density == Fraction(1, 2)


def test_marginal_density_errors():
    inst = free_instance(2, modular([1, 1]), modular([1, 1]))
    with pytest.raises(NotASuperset):
        marginal_density(inst, frozenset({0}), frozenset({1}))
    gated = MsopInstance((0, 1), lambda s: len(s) != 1, modular([1, 1]), modular([1, 1]))
    with pytest.raises(NotInFamily):
        marginal_density(gated, frozenset(), frozenset({0}))


def test_greedy_single_step_when_full_set_densest():
    # one milestone at the full set dominates every partial step
    weight = lambda s: 10 if len(s) == 3 else 0
    inst = free_instance(3, modular([1, 1, 1]), weight)
    chain = greedy_chain(inst, exact.exact_density_solver(inst))
    assert chain.sets == (frozenset(), frozenset({0, 1, 2}))
    assert chain.densities == (Fraction(10, 3),)


def test_greedy_mssc_singleton_densities():
    inst = unit_mssc(2, [frozenset({0}), frozenset({0}), frozenset({1})])
    chain = greedy_chain(to_msop(inst), mssc_singleton(inst))
    assert [sorted(s) for s in chain.sets] == [[], [0], [0, 1]]
    assert chain.densities == (Fraction(2), Fraction(1))


def test_greedy_four_alpha_smoke():
    for seed in range(40):
        inst = gen_generic_msop(2 + seed % 5, seed)
        chain = greedy_chain(inst, exact.exact_density_solver(inst))
        _, opt = exact.exact_opt_chain(inst)
        assert chain_cost(inst, chain) <= 4 * opt


def test_greedy_takes_cost_flat_steps_before_finite_ones():
    # only element 0 carries cost, so everything else rides along at +inf
    # density and the single paid step happens last
    inst = free_instance(3, lambda s: 1 if 0 in s else 0, modular([5, 1, 1]))
    chain = greedy_chain(inst, exact.exact_density_solver(inst))
    assert chain.densities[:-1] == (INF,) * (chain.steps - 1)
    assert 0 in chain.sets[-1] - chain.sets[-2]
    assert chain_cost(inst, chain) == 5  # flat prefixes contribute nothing


def test_greedy_rejects_stalling_solver():
    inst = free_instance(2, modular([1, 1]), modular([1, 1]))

    def stall(base):
        from msop.core import DensityResult

        return DensityResult((), 0)

    with pytest.raises(SolverStall):
        greedy_chain(inst, stall)


def test_greedy_recheck_errors_keep_their_order_and_texts():
    # the re-check reads the increment alone: an empty one is a stall, an
    # id outside the ground set makes a candidate outside the family, and
    # one that meets its base is a failed superset test; the family, the
    # values and the density are checked after it, in that order
    from msop.core import DensityResult

    base = frozenset({0})
    values = {frozenset(): 0, base: 2, frozenset({0, 1}): 1, frozenset({0, 2}): 3,
              frozenset({0, 1, 2}): 3}
    inst = MsopInstance((0, 1, 2), lambda s: s != {0, 2}, modular([1, 1, 1]), values.__getitem__)

    def answer(*steps):
        # the first step is {0} at its density 2, the second is ``steps``'
        asked = iter(((0,), *steps))
        return lambda b: DensityResult(next(asked), 2)

    cases = [
        (((),), SolverStall, r"returned its base \[0\]"),
        (((1, 3),), NotInFamily, r"candidate \[0, 1, 3\] is not in the family"),
        (((-1,),), NotInFamily, r"candidate \[-1, 0\] is not in the family"),
        (((0, 1),), NotASuperset, r"increment \[0, 1\] meets its base \[0\]"),
        (((2, 0),), NotASuperset, r"increment \[0, 2\] meets its base \[0\]"),
        (((2,),), NotInFamily, r"candidate \[0, 2\] is not in the family"),
        (((1,),), NonMonotone, r"value decreased between \[0\] and \[0, 1\]"),
        (((2, 1),), ValidationError, "reported density 2 but the oracles give 1/2"),
    ]
    for steps, error, text in cases:
        with pytest.raises(error, match=text):
            greedy_chain(inst, answer(*steps))


def test_greedy_freezes_each_candidate_once():
    # a solver may answer with a fresh list, unsorted, or refill one buffer
    # that it hands out each step; the chain is the tuple solver's either way
    from msop.core import DensityResult

    inst = gen_generic_msop(6, 10)
    exhaustive = exact.exact_density_solver(inst)
    buffer = []

    def fresh(base):
        step = exhaustive(base)
        return DensityResult(list(reversed(step.increment)), step.marginal_density)

    def refill(base):
        step = exhaustive(base)
        buffer[:] = step.increment
        return DensityResult(buffer, step.marginal_density)

    want = greedy_chain(inst, exhaustive)
    assert want.steps > 1 and max(map(len, want.increments)) > 1
    for solver in (fresh, refill):
        chain = greedy_chain(inst, solver)
        assert chain == want and chain.densities == want.densities
        assert all(type(s) is frozenset for s in chain.sets)
        assert all(type(increment) is tuple for increment in chain.increments)
        assert hash(chain) == hash(want)


def test_greedy_rejects_a_float_claim_of_a_finite_density():
    # 0.5 equals the step's gain/spent of 1/2, but a float stands only for
    # the +inf sentinel of a cost-flat step
    from msop.core import DensityResult

    inst = free_instance(1, modular([2]), modular([1]))
    with pytest.raises(ValidationError, match="reported density 0.5 but the oracles give 1/2"):
        greedy_chain(inst, lambda base: DensityResult((0,), 0.5))
    chain = greedy_chain(inst, lambda base: DensityResult((0,), Fraction(1, 2)))
    assert chain.densities == (Fraction(1, 2),)
    flat = free_instance(1, modular([0]), modular([1]))
    assert greedy_chain(flat, lambda base: DensityResult((0,), INF)).densities == (INF,)


def _greedy_runs():
    # every kind above the exhaustive permutation and chain caps (xsearch's
    # 13 edges; the rest above the density cap too), a backward chain and
    # a generic instance
    runs = []
    for kind in KINDS:
        tools = Toolchain(gen_instance(kind, 10 if kind == "xsearch" else 24, 1))
        runs.append((tools.instance, tools.greedy()))
    tools = Toolchain(gen_instance("mssc", 12, 1))
    runs.append((tools.instance, tools.greedy(backward=True)))
    inst = gen_generic_msop(12, 3)
    runs.append((inst, greedy_chain(inst, exact.exact_density_solver(inst))))
    return runs


def test_greedy_keeps_the_values_a_fresh_walk_reads():
    for inst, chain in _greedy_runs():
        assert chain.instance is inst and chain.steps > 1 and inst.n > 9
        assert chain_values(inst, chain) is chain.values
        assert chain_values(inst, Chain.from_sets(chain.sets)) == chain.values


def test_greedy_run_memory_grows_linearly():
    # the chain keeps one increment per step, and no step keeps a set, so
    # doubling n from 500 at most doubles the peak and the state's hash
    # tables; nested chain sets would quadruple it
    peaks = []
    for n in (500, 1000):
        tools = Toolchain(gen_instance("mssc", n, 1))
        tracemalloc.start()
        try:
            chain = greedy_chain(tools.instance, tools.solver)
            chain_cost(tools.instance, chain)
            chain_to_permutation(tools.instance, chain)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2.5 * peaks[0], peaks


@pytest.mark.parametrize("kind", ["mssc", "inforest"])
def test_greedy_run_time_grows_linearly(kind):
    # a step moves the solver and the oracles by its increment and builds
    # no set, so quadrupling n from 4,000 about quadruples the time of the
    # greedy run, chain_cost and the refinement; whole-set work per step
    # multiplies it by 12 to 20.  The best of three runs each, the sizes
    # taking turns, against a host whose speed drifts.
    sizes = (4_000, 16_000)
    tools = [Toolchain(gen_instance(kind, n, 1)) for n in sizes]
    times = [float("inf")] * len(sizes)
    for _ in range(3):
        for k, run in enumerate(tools):
            started = time.perf_counter()
            chain = greedy_chain(run.instance, run.solver)
            chain_cost(run.instance, chain)
            chain_to_permutation(run.instance, chain)
            times[k] = min(times[k], time.perf_counter() - started)
    assert times[1] < 8 * times[0], times


def test_kept_values_answer_only_the_instance_that_read_them():
    inst, chain = _greedy_runs()[0]  # mssc: every subset is feasible
    asked = []

    def counted(oracle):
        def call(s):
            asked.append(s)
            return oracle(s)

        return call

    copy = replace(inst, cost=counted(inst.cost), weight=counted(inst.weight))
    assert chain_values(copy, chain) == chain.values
    assert len(asked) == 2 * len(chain.sets)
    dual = dualize(inst)
    walked = chain_values(dual, Chain.from_sets(chain.sets))
    assert chain_values(dual, chain) == walked != chain.values


def test_permutation_to_chain_free_family():
    inst = free_instance(3, modular([1, 1, 1]), modular([1, 1, 1]))
    chain = permutation_to_chain(inst, (0, 1, 2))
    assert chain.sets == (
        frozenset(),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
    )
    other = permutation_to_chain(inst, (2, 0, 1))
    assert other.sets[1] == frozenset({2})


def test_permutation_to_chain_respects_precedence():
    dag = OrDag((0, 1), (1, 1), (0, 1), ((0, 1),))
    inst = ordag_to_msop(dag)
    with pytest.raises(InfeasibleInitialSet) as err:
        permutation_to_chain(inst, (1, 0))
    assert err.value.prefix_len == 1


def test_permutation_to_chain_rejects_repeats_and_the_empty_order():
    inst = free_instance(2, modular([1, 1]), modular([1, 1]))
    with pytest.raises(InvalidChain):
        permutation_to_chain(inst, (0, 0, 1))
    with pytest.raises(ValidationError):
        permutation_to_chain(inst, ())


def test_chain_to_permutation_consistency_free_family():
    inst = free_instance(3, modular([1, 1, 1]), modular([1, 1, 1]))
    chain = Chain.from_sets((frozenset(), frozenset({0, 2}), frozenset({0, 1, 2})))
    perm = chain_to_permutation(inst, chain)
    assert perm in ((0, 2, 1), (2, 0, 1))
    assert frozenset(perm[:2]) == frozenset({0, 2})


def test_chain_to_permutation_not_well_founded():
    # {0,1} is feasible but neither {0} nor {1} is: the family is not closed
    # under splicing, so no permutation is consistent with the chain
    family = {frozenset(), frozenset({0, 1}), frozenset({0, 1, 2})}
    inst = MsopInstance((0, 1, 2), family.__contains__, modular([1, 1, 1]), modular([1, 1, 1]))
    chain = Chain.from_sets((frozenset(), frozenset({0, 1}), frozenset({0, 1, 2})))
    for refine in (chain_to_permutation, densest_consistent_permutation):
        with pytest.raises(NotWellFounded):
            refine(inst, chain)


def test_chain_to_permutation_on_greedy_inforest_output():
    for seed in range(30):
        dag = OrDag(*_random_inforest(seed))
        inst = ordag_to_msop(dag)
        chain = greedy_chain(inst, stem_solver(dag))
        perm = chain_to_permutation(inst, chain)
        assert schedule_cost(dag, perm) <= chain_cost(inst, chain)


def _random_inforest(seed, n=6):
    rng = random.Random(seed)
    arcs = []
    for v in range(n - 1):
        if rng.random() < 0.7:
            arcs.append((v, rng.randrange(v + 1, n)))
    times = tuple(rng.choice((0, 1, 2, 3)) for _ in range(n))
    weights = tuple(rng.choice((0, 1, 2, 4)) for _ in range(n))
    return tuple(range(n)), times, weights, tuple(arcs)


def test_subchain_costs_at_least_chain():
    rng = random.Random(5)
    for seed in range(30):
        inst = gen_generic_msop(2 + seed % 5, 1000 + seed)
        chain = random_chain(inst, rng)
        k = chain.steps
        keep = sorted({0, k} | {i for i in range(1, k) if rng.random() < 0.5})
        sub = Chain.from_sets(tuple(chain.sets[i] for i in keep))
        assert chain_cost(inst, sub) >= chain_cost(inst, chain)


def test_telescoping_matches_completion_time_formula():
    rng = random.Random(11)
    for seed in range(20):
        inst = gen_generic_msop(2 + seed % 5, 2000 + seed)
        elements = sorted(inst.ground_set)
        rng.shuffle(elements)
        try:
            chain = permutation_to_chain(inst, tuple(elements))
        except InfeasibleInitialSet:
            continue
        assert chain_cost(inst, chain) == eq2_cost(inst, elements)


# each breaks one hypothesis of the 4*alpha bound and keeps the others
LIARS = {
    # {0} and {1} are feasible, {0, 1} and its supersets short of V are not
    "family is not union-closed": MsopInstance(
        tuple(range(4)), lambda s: not {0, 1} <= s or len(s) == 4,
        modular([1] * 4), modular([1] * 4),
    ),
    "cost is not monotone": free_instance(4, lambda s: int(len(s) == 1), modular([1] * 4)),
    "weight is not monotone": free_instance(4, modular([1] * 4), lambda s: int(len(s) == 1)),
    "cost is not subadditive": free_instance(4, lambda s: len(s) ** 2, modular([1] * 4)),
}


@pytest.mark.parametrize("claim", sorted(LIARS), ids=lambda claim: claim.replace(" ", "-"))
def test_spot_check_hypotheses_names_each_liars_property(claim):
    honest = free_instance(4, modular([1, 2, 3, 4]), modular([4, 3, 2, 1]))
    spot_check_hypotheses(honest, random.Random(0), rounds=200)
    with pytest.raises(ValidationError, match=f"^{claim} at "):
        spot_check_hypotheses(LIARS[claim], random.Random(0), rounds=200)


def test_spot_check_hypotheses_probes_precedence_families():
    # few uniform random sets of a 16-job multitree are OR-initial, so the
    # probe pairs are grown inside the family
    for seed in (1, 2, 3):
        honest = ordag_to_msop(gen_instance("multitree", 16, seed))
        spot_check_hypotheses(honest, random.Random(seed))
        liar = replace(honest, cost=lambda s: len(s) ** 2)
        with pytest.raises(ValidationError, match="^cost is not subadditive at "):
            spot_check_hypotheses(liar, random.Random(seed))


def test_spot_check_hypotheses_probes_families_grown_by_jumps():
    # few members of these generic families are one element more than
    # another, so growing by one element stalls; each holds two disjoint
    # nonempty members, on which a quadratic cost is not subadditive
    for seed in (4, 8):
        liar = replace(gen_generic_msop(6, seed), cost=lambda s: len(s) ** 2)
        with pytest.raises(ValidationError, match="^cost is not subadditive at "):
            spot_check_hypotheses(liar, random.Random(seed))


def test_spot_check_hypotheses_probes_overlapping_pairs():
    # every nonempty member holds 0, so every disjoint pair holds {}; the
    # union {0, 1, 2} of the members {0, 1} and {0, 2} is missing
    liar = MsopInstance((0, 1, 2), lambda s: not s or (0 in s and len(s) <= 2),
                        modular([1] * 3), modular([1] * 3))
    for seed in (1, 2, 3):
        with pytest.raises(ValidationError, match="^family is not union-closed at "):
            spot_check_hypotheses(liar, random.Random(seed))


def test_package_exports_resolve():
    import msop

    assert [name for name in msop.__all__ if not hasattr(msop, name)] == []
    exec("from msop import *", {})
