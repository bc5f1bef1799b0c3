"""Checks of ``msop`` reports against the benchmark's own model of the file.

Each check raises ``CheckError`` with the file and the property that broke.
The properties are those the toolkit promises: a greedy chain of feasible
sets ending at the ground set, a permutation consistent with it and no
worse, a certificate of true marginal densities, and for ``check-ratio`` a
ratio within the certified bound against an optimum the benchmark can
confirm by enumeration.
"""

from __future__ import annotations

from fractions import Fraction

from model import INF, brute_opt_permutation, density, objective

BRUTE_FORCE_MAX_N = 7


class CheckError(Exception):
    pass


def report_fields(text):
    """``key=value`` lines as a dict; ``wall_time_s`` is the only key that
    may differ between runs, so it is dropped."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    fields.pop("wall_time_s", None)
    return fields


def _rational(text):
    return INF if text == "inf" else Fraction(text)


def _chain_sets(text):
    return [frozenset() if part == "-" else frozenset(map(int, part.split(",")))
            for part in text.split(";")]


def _require(ok, path, what):
    if not ok:
        raise CheckError(f"{path}: {what}")


def check_chain(model, path, sets):
    _require(sets and sets[-1] == model.ground, path, "chain does not end at the ground set")
    prev = frozenset()
    for s in sets:
        _require(prev < s, path, f"chain is not strictly increasing at {sorted(s)}")
        _require(model.feasible(s), path, f"chain set {sorted(s)} is not feasible")
        prev = s


def check_solve(model, path, fields, forward_exhaustive=False):
    """Checks for ``msop solve`` (forward or ``--backward``)."""
    _require(fields["kind"].split("/")[0] == model.kind, path, f"kind {fields['kind']}")
    _require(int(fields["n"]) == len(model.ground), path, "n differs from the file")
    sets = _chain_sets(fields["chain"])
    check_chain(model, path, sets)
    greedy_cost = Fraction(fields["greedy_cost"])
    _require(objective(model, sets) == greedy_cost, path,
             "greedy_cost differs from the chain objective")

    densities = [_rational(d) for d in fields["densities"].split(",")]
    _require(len(densities) == len(sets), path, "one certificate density per step")
    bases = [frozenset()] + sets[:-1]
    for base, s, rho in zip(bases, sets, densities):
        _require(density(model, base, s) == rho, path,
                 f"certificate density {rho} is not dweight/dcost at {sorted(s)}")

    order = [int(v) for v in fields["permutation"].split(",")]
    _require(sorted(order) == sorted(model.ground), path, "permutation is not of the ground set")
    prefixes = [frozenset(order[: j + 1]) for j in range(len(order))]
    _require(all(model.feasible(s) for s in prefixes), path, "permutation prefix infeasible")
    _require(all(s in prefixes for s in sets), path, "a chain set is not a permutation prefix")
    _require(objective(model, prefixes) <= greedy_cost, path,
             "permutation objective exceeds greedy_cost")

    if forward_exhaustive:
        # an exact density step beats, in particular, every one-element extension
        for base, rho in zip(bases, densities):
            for v in model.ground - base:
                step = base | {v}
                if model.feasible(step):
                    _require(density(model, base, step) <= rho, path,
                             f"extension by {v} of {sorted(base)} beats the step")


def check_ratio(model, path, fields):
    """Checks for ``msop check-ratio``; returns the permutation optimum."""
    _require(fields["verdict"] == "ok", path, f"verdict {fields['verdict']}")
    _require(fields["histogram_contained"] == "true", path, "histogram not contained")
    bound = Fraction(fields["bound"])
    _require(bound == 4 * model.alpha, path, f"bound {bound} is not 4*alpha")
    greedy_cost = Fraction(fields["greedy_cost"])
    exact_cost = Fraction(fields["exact_cost"])
    _require(exact_cost <= greedy_cost, path, "exact_cost exceeds greedy_cost")
    if exact_cost > 0:
        ratio = greedy_cost / exact_cost
        _require(Fraction(fields["ratio"]) == ratio, path, "ratio is not greedy/exact")
        _require(ratio <= bound, path, f"ratio {ratio} above bound {bound}")
    else:
        _require(greedy_cost == 0 and fields["ratio"] == "0", path, "zero optimum, nonzero greedy")
    if len(model.ground) <= BRUTE_FORCE_MAX_N:
        _require(brute_opt_permutation(model) == exact_cost, path,
                 "exact_cost differs from the enumerated permutation optimum")
    return exact_cost


def check_exact_chain(model, path, fields, perm_optimum):
    """Checks for ``msop exact --mode chain`` given the file's perm optimum."""
    sets = _chain_sets(fields["chain"])
    check_chain(model, path, sets)
    cost = Fraction(fields["cost"])
    _require(objective(model, sets) == cost, path, "chain cost differs from its objective")
    if perm_optimum is not None:  # None when the file's check-ratio report failed
        _require(cost <= perm_optimum, path, "chain optimum exceeds the permutation optimum")
