#!/usr/bin/env python3
"""Run the mutant catalogue: planted faults and the tests that must catch them.

Each entry of ``MUTANTS`` names a file, an exact text in it, the text that
replaces it, and the pytest node id of a test that must fail once the
replacement is made.  For each entry the script copies the checkout's
``src/``, ``tests/``, ``conftest.py`` and ``pyproject.toml`` into a
temporary directory, plants the mutant there (its old text must occur
exactly once in the file), and runs the named test in a subprocess.

One line per entry is printed: ``caught`` when the test fails, ``MISSED``
when it passes, ``ERROR`` when the text does not occur exactly once or
pytest ends otherwise (no test collected, an internal error).  The script
exits 1 unless every mutant is caught.  Stdlib only, apart from pytest in
the subprocess.

    python scripts/mutants.py
    python scripts/mutants.py --only residual
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "conftest.py", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout's root
    old: str
    new: str
    test: str  # pytest node id


DIFF = "tests/test_differential.py"
MUTANTS = (
    # OR-DAG steps: the lazy candidate heap of orsched._Residual
    Mutant("residual-top-without-closed-test", "src/msop/orsched.py",
           "            elif closed.isdisjoint(top[-1]):\n"
           "                return top\n"
           "            else:\n"
           "                heapreplace(heap, _Ranked(self.candidate(self, top[-2])))\n",
           "            else:\n"
           "                return top\n",
           f"{DIFF}::test_residual_forgets_candidates_through_added_or_freed_jobs"),
    Mutant("residual-top-kept-after-start-left", "src/msop/orsched.py",
           "            if top[-2] not in sources:\n", "            if False:\n",
           f"{DIFF}::test_residual_heap_top_is_a_fresh_scan_after_every_move[inforest]"),
    Mutant("residual-tie-without-cand2", "src/msop/orsched.py",
           "(self[2], self[-2]) < (other[2], other[-2])", "self[-2] < other[-2]",
           f"{DIFF}::test_residual_heap_top_is_a_fresh_scan_after_every_move[inforest]"),
    Mutant("residual-move-leaves-successors-open", "src/msop/orsched.py",
           "                closed.add(w)\n", "",
           f"{DIFF}::test_residual_forgets_candidates_through_added_or_freed_jobs"),
    # best single element: the per-cost heaps of mssc._Gains
    Mutant("gains-tie-to-larger-id", "src/msop/mssc.py",
           "(order == 0 and v < best[0])", "(order == 0 and v > best[0])",
           f"{DIFF}::test_singleton_step_matches_reference_chain[pipelined]"),
    Mutant("gains-move-without-id-guard", "src/msop/mssc.py",
           "        if not self.ids.issuperset(added):"
           "  # an id outside range(n), negative ones too\n"
           "            raise NoFeasibleSuperset(\"base already contains every element\")\n", "",
           f"{DIFF}::test_solver_errors_and_the_call_after_them[mssc]"),
    Mutant("gains-minus-one-top", "src/msop/mssc.py",
           "                if now < 0:\n", "                if now < -1:\n",
           f"{DIFF}::test_gains_heap_tops_are_each_cost_class_maximum_after_every_move"),
    # the exhaustive caps (exact._cap_for): each search takes n up to its cap
    Mutant("exact-cap-refuses-at-the-cap", "src/msop/exact.py",
           "    if n > CAPS[what]:\n", "    if n >= CAPS[what]:\n",
           "tests/test_exact.py::test_caps_raise_too_large"),
    # the exhaustive step's two walks (exact.exact_max_density)
    Mutant("exhaustive-submask-tie-to-later", "src/msop/exact.py",
           "                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "            x = (x - 1) & comp\n",
           "                if d >= 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "            x = (x - 1) & comp\n",
           f"{DIFF}::test_exhaustive_step_matches_reference_chain_through_ties"),
    Mutant("exhaustive-empty-base-tie-to-later", "src/msop/exact.py",
           "                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "    if not best_mask:\n",
           "                if d >= 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "    if not best_mask:\n",
           f"{DIFF}::test_exhaustive_step_matches_reference_chain_above_the_benchmark_sizes"
           "[xsearch-13]"),
    Mutant("exhaustive-submask-no-monotone-check", "src/msop/exact.py",
           "                gain = g[mask] - g_base\n"
           "                if spent < 0 or gain < 0:\n"
           "                    raise _non_monotone(ground, base_mask, x)\n",
           "                gain = g[mask] - g_base\n",
           f"{DIFF}::test_exhaustive_step_names_the_same_non_monotone_pair_above_a_base"),
    Mutant("exhaustive-empty-base-no-monotone-check", "src/msop/exact.py",
           "            if ok:\n"
           "                if spent < 0 or gain < 0:\n"
           "                    raise _non_monotone(ground, base_mask, x)\n",
           "            if ok:\n",
           f"{DIFF}::test_exhaustive_step_names_the_same_non_monotone_pair"),
    Mutant("exhaustive-submask-inf-ties-to-incumbent", "src/msop/exact.py",
           "                     else best_spent - spent)\n"
           "                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "            x = (x - 1) & comp\n",
           "                     else best_spent - spent or -1)\n"
           "                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "            x = (x - 1) & comp\n",
           f"{DIFF}::test_backward_exhaustive_step_matches_reference_chain[mssc]"),
    Mutant("exhaustive-empty-base-inf-ties-to-incumbent", "src/msop/exact.py",
           "                     else best_spent - spent)\n"
           "                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "    if not best_mask:\n",
           "                     else best_spent - spent or -1)\n"
           "                if d > 0 or not d and _smaller_first(ground, x, best_mask) > 0:\n"
           "                    best_mask, best_gain, best_spent = x, gain, spent\n"
           "    if not best_mask:\n",
           f"{DIFF}::test_backward_exhaustive_step_matches_reference_chain[mssc]"),
    # lattice columns: supplied by an adapter or read backwards for the dual
    Mutant("xsearch-feasibility-spreads-along-lowest-edge", "src/msop/xsearch.py",
           "        while grow:\n"
           "            low = grow & -grow\n"
           "            feasible[m | low] = 1\n"
           "            grow ^= low\n",
           "        if grow:\n"
           "            low = grow & -grow\n"
           "            feasible[m | low] = 1\n",
           f"{DIFF}::test_supplied_and_dual_columns_match_the_oracles[xsearch]"),
    Mutant("xsearch-weight-counts-root-mass", "src/msop/xsearch.py",
           "    others = [v for v in graph.vertices if v != graph.root]\n",
           "    others = list(graph.vertices)\n",
           f"{DIFF}::test_xsearch_weight_and_column_are_the_touched_mass"),
    Mutant("coverage-counts-covered-hyperedge-again", "src/msop/lattice.py",
           "            gains[sub] = sum(w for w, lower in through if not lower & sub)\n",
           "            gains[sub] = sum(w for w, lower in through)\n",
           f"{DIFF}::test_supplied_and_dual_columns_match_the_oracles[mssc]"),
    Mutant("dual-membership-not-reversed", "src/msop/dual.py",
           "lambda: instance.lattice.feasible[::-1])", "lambda: instance.lattice.feasible)",
           f"{DIFF}::test_supplied_and_dual_columns_match_the_oracles[inforest]"),
    Mutant("dual-cost-column-not-reversed", "src/msop/dual.py",
           "lambda: complemented(instance.lattice.weight, instance.lattice.weight_scale))",
           "lambda: complemented(instance.lattice.weight[::-1], instance.lattice.weight_scale))",
           f"{DIFF}::test_supplied_and_dual_columns_match_the_oracles[mssc]"),
    Mutant("dual-scales-not-swapped", "src/msop/dual.py",
           "complemented(instance.lattice.weight, instance.lattice.weight_scale)",
           "complemented(instance.lattice.weight, instance.lattice.cost_scale)",
           f"{DIFF}::test_supplied_and_dual_columns_match_the_oracles[pipelined]"),
    # the values a greedy run keeps (core.chain_values)
    Mutant("kept-values-for-any-instance", "src/msop/core.py",
           "    if chain.instance is instance and chain.values is not None:\n",
           "    if chain.values is not None:\n",
           "tests/test_core.py::test_kept_values_answer_only_the_instance_that_read_them"),
    # running oracles: a call moves only to a superset of the last set
    # (lattice.RunningOracle), and walks that move by each chain increment
    Mutant("running-call-moves-without-subset-test", "src/msop/lattice.py",
           "        grows = last is not None and len(last) + len(added) == len(s)  # last <= s\n",
           "        grows = last is not None\n",
           f"{DIFF}::test_running_oracle_rebuilds_once_for_a_set_missing_the_last[RunningSum]"),
    Mutant("chain-text-appends-increment", "src/msop/cli.py",
           "            ids.insert(k, v)\n"
           "            texts.insert(k, str(v))\n",
           "            ids.append(v)\n"
           "            texts.append(str(v))\n",
           f"{DIFF}::test_chain_text_matches_reference_through_multi_element_increments"),
    Mutant("refinement-takes-chain-set-early", "src/msop/core.py",
           "                walk.grow(tuple(order_out[placed:]))\n",
           "                walk.grow(tuple(order_out[placed:]) + increment)\n",
           f"{DIFF}::test_chain_text_and_refinement_on_signed_job_ids[inforest]"),
    Mutant("refinement-skips-feasibility-test", "src/msop/core.py",
           "            nxt = next((v for v in rest if probe(walk, v)), None)\n",
           "            nxt = rest[0]\n",
           f"{DIFF}::test_chain_text_and_refinement_on_signed_job_ids[multitree]"),
    # the OR-initial family's probe of one more job (orsched.OrInitialMembership)
    Mutant("or-probe-ignores-predecessors", "src/msop/orsched.py",
           "        if self.dag.preds[v] and not inside[v]:\n"
           "            stranded += 1\n", "",
           f"{DIFF}::test_chain_text_and_refinement_on_signed_job_ids[inforest]"),
    # greedy steps by their increments: the re-check and the solver's moves
    # (core.greedy_chain), and the walk entry point (lattice.RunningOracle.advance)
    Mutant("recheck-keeps-base-values", "src/msop/core.py",
           "        costs.append(cost)\n        weights.append(weight)\n",
           "        costs.append(costs[-1])\n        weights.append(weights[-1])\n",
           "tests/test_core.py::test_greedy_keeps_the_values_a_fresh_walk_reads"),
    Mutant("greedy-calls-solver-with-set", "src/msop/core.py",
           "        step = solve(walk)\n",
           "        step = density_solver(walk.frozen())\n",
           f"{DIFF}::test_greedy_moves_each_solver_only_by_advance[mssc]"),
    Mutant("greedy-skips-disjoint-check", "src/msop/core.py",
           "        if not members.isdisjoint(increment):\n"
           "            raise NotASuperset(", "        if False:\n            raise NotASuperset(",
           "tests/test_core.py::test_greedy_recheck_errors_keep_their_order_and_texts"),
    Mutant("greedy-skips-ground-set-check", "src/msop/core.py",
           "        if not universe.issuperset(increment):\n", "        if False:\n",
           "tests/test_core.py::test_greedy_recheck_errors_keep_their_order_and_texts"),
    Mutant("advance-skips-identity-gate", "src/msop/lattice.py",
           "        if at is walk.previous and at is not None:\n",
           "        if at is not None:\n",
           f"{DIFF}::test_running_oracle_advance_contract[RunningSum]"),
    # the histogram check's merge (exact.histogram_containment_check)
    Mutant("histogram-advances-optimal-on-common-end", "src/msop/exact.py",
           "        elif right <= o_right:\n", "        elif right < o_right:\n",
           f"{DIFF}::test_histogram_check_matches_reference_on_scaled_certificates"),
    Mutant("histogram-compares-zero-width-overlaps", "src/msop/exact.py",
           "        if lo < hi and num * over > under * cost * den:\n",
           "        if lo <= hi and num * over > under * cost * den:\n",
           f"{DIFF}::test_histogram_check_matches_reference_on_scaled_certificates"),
    Mutant("histogram-reports-shrunk-column-midpoint", "src/msop/exact.py",
           "first_violation = (Fraction(lo + hi, 4 * weight_scale),",
           "first_violation = (Fraction(left + right, 4 * weight_scale),",
           f"{DIFF}::test_histogram_check_matches_reference_on_scaled_certificates"),
    Mutant("histogram-swaps-scales", "src/msop/exact.py",
           "    over, under = alpha.denominator * cost_scale, 2 * alpha.numerator * weight_scale\n",
           "    over, under = alpha.denominator * weight_scale, 2 * alpha.numerator * cost_scale\n",
           f"{DIFF}::test_check_ratio_matches_reference_on_unequal_scales"),
    Mutant("histogram-drops-alpha-denominator", "src/msop/exact.py",
           "    over, under = alpha.denominator * cost_scale, 2 * alpha.numerator * weight_scale\n",
           "    over, under = cost_scale, 2 * alpha.numerator * weight_scale\n",
           f"{DIFF}::test_check_ratio_matches_reference_on_unequal_scales"),
    Mutant("check-ratio-skips-optimum-monotone-check", "src/msop/exact.py",
           "        if cost < opt_costs[-1] or weight < opt_weights[-1]:\n",
           "        if False:\n",
           "tests/test_exact.py::test_histogram_rejects_a_chain_whose_weight_falls"),
    # DAG shape labels (orsched.classify_dag)
    Mutant("classify-outtree-without-one-source", "src/msop/orsched.py",
           "for j in dag.jobs) and len(dag.sources) <= 1:\n", "for j in dag.jobs):\n",
           "tests/test_orsched.py::test_classify_dag_matches_reference_on_random_dags"),
    Mutant("classify-intree-without-one-sink", "src/msop/orsched.py",
           '"intree" if sum(not dag.succs[j] for j in dag.jobs) == 1 else "inforest"',
           '"intree"',
           "tests/test_orsched.py::test_classify_dag_matches_reference_on_random_dags"),
)


def run(mutant: Mutant) -> str:
    """``caught``, ``MISSED`` or ``ERROR: ...`` for one mutant."""
    found = (ROOT / mutant.file).read_text().count(mutant.old)
    if found != 1:
        return f"ERROR: old text occurs {found} times in {mutant.file}"
    with tempfile.TemporaryDirectory(prefix="msop-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
            else:
                shutil.copy2(source, copy / name)
        target = copy / mutant.file
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if done.returncode == 1:
        return "caught"
    if done.returncode == 0:
        return "MISSED"
    tail = (done.stdout.strip().splitlines() or ["no output"])[-1]
    return f"ERROR: pytest exited {done.returncode}: {tail}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default="", help="run the entries whose name contains this")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in m.name]
    if not chosen:
        print(f"error: no mutant name contains {args.only!r}", file=sys.stderr)
        return 1
    failed = 0
    for mutant in chosen:
        verdict = run(mutant)
        failed += verdict != "caught"
        print(f"{verdict:8s} {mutant.name}  ({mutant.test})", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants caught")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
