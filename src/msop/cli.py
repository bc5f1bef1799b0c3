"""Command-line driver: solve, density, exact, check-ratio, sweep, gen.

Reports are line-oriented ``key=value`` records on stdout; check-ratio and
sweep print ``exact.check_ratio``'s record.  Exit codes: 0 success, 1 error
(a bad command line too), 2 a certified bound was violated by check-ratio
or sweep (which would falsify a hypothesis or reveal a bug, so it is
distinguished).
"""

from __future__ import annotations

import argparse
import sys
import time
from bisect import bisect

from . import dual, exact
from .core import (
    Chain,
    DensityResult,
    MsopInstance,
    chain_cost,
    chain_to_permutation,
    greedy_chain,
)
from .errors import BadParams, MsopError, NotInFamily, ParseError
from .formats import (
    KIND_OF_TYPE,
    Instance,
    format_rational,
    parse_instance,
    serialize_instance,
)
from .generators import KINDS, MAX_N, gen_instance


def _format_density(value) -> str:
    # a density is a float only for the ``INF`` sentinel
    return "inf" if type(value) is float else format_rational(value)


def _format_set(s) -> str:
    return ",".join(str(v) for v in sorted(s)) if s else "-"


def _format_chain(chain: Chain) -> str:
    # each chain set after the empty one is printed, so it is nonempty and
    # its sorted ids are the previous set's with the increment's inserted;
    # their texts are kept beside them, so a set's text is one join
    ids: list[int] = []
    texts: list[str] = []
    parts = []
    for increment in chain.increments:
        for v in increment:
            k = bisect(ids, v)
            ids.insert(k, v)
            texts.insert(k, str(v))
        parts.append(",".join(texts))
    return ";".join(parts)


def _density_lines(base: frozenset[int], result: DensityResult) -> list[tuple[str, str]]:
    """The report lines of a density step from ``base``."""
    return [
        ("base", _format_set(base)),
        ("candidate", _format_set(base.union(result.increment))),
        ("density", _format_density(result.marginal_density)),
    ]


def _parse_base(text: str, instance: MsopInstance) -> frozenset[int]:
    """The ``--base`` ids: comma or space separated, ``-`` or empty for none;
    every id must be in the instance's ground set."""
    text = text.strip()
    if not text or text == "-":
        return frozenset()
    ids = []
    for tok in text.replace(",", " ").split():
        try:
            ids.append(int(tok))
        except ValueError:
            raise ParseError(f"base id {tok!r} is not an integer") from None
    base = frozenset(ids)
    if not base <= frozenset(instance.ground_set):
        raise NotInFamily(f"base {sorted(base)} is not in the family")
    return base


class Toolchain:
    """Greedy machinery appropriate to a parsed instance (see
    ``formats.FILE_KINDS``)."""

    def __init__(self, parsed: Instance):
        kind = KIND_OF_TYPE[type(parsed)]
        self.instance, self.solver, self.alpha, self.detail = kind.tools(parsed)
        self.bound = 4 * self.alpha

    def greedy(self, backward: bool = False) -> Chain:
        if backward:
            return dual.backward_greedy_chain(self.instance, exact.exact_density_solver)
        return greedy_chain(self.instance, self.solver)


def _emit(key: str, value) -> None:
    print(f"{key}={value}")


def _cmd_gen(args) -> int:
    instance = gen_instance(args.kind, args.n, args.seed)
    text = serialize_instance(instance)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        _emit("wrote", args.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args) -> int:
    chain_tools = Toolchain(parse_instance(args.file))
    chain = chain_tools.greedy(backward=args.backward)
    cost = chain_cost(chain_tools.instance, chain)
    permutation = chain_to_permutation(chain_tools.instance, chain)
    _emit("kind", chain_tools.detail)
    _emit("n", chain_tools.instance.n)
    _emit("mode", "backward" if args.backward else "forward")
    # the backward chain's steps are exhaustive (factor 1) on the dual
    _emit("alpha", 1 if args.backward else format_rational(chain_tools.alpha))
    _emit("chain", _format_chain(chain))
    _emit("densities", ",".join(_format_density(d) for d in chain.densities or ()))
    _emit("permutation", ",".join(map(str, permutation)))
    _emit("greedy_cost", format_rational(cost))
    return 0


def _cmd_density(args) -> int:
    chain_tools = Toolchain(parse_instance(args.file))
    base = _parse_base(args.base, chain_tools.instance)
    lines = _density_lines(base, chain_tools.solver(base))
    for key, value in [("kind", chain_tools.detail), *lines,
                       ("alpha", format_rational(chain_tools.alpha))]:
        _emit(key, value)
    return 0


def _cmd_exact(args) -> int:
    chain_tools = Toolchain(parse_instance(args.file))
    instance = chain_tools.instance
    if args.mode == "perm":
        permutation, cost = exact.exact_opt_permutation(instance)
        lines = [("permutation", ",".join(map(str, permutation))), ("cost", format_rational(cost))]
    elif args.mode == "chain":
        chain, cost = exact.exact_opt_chain(instance)
        lines = [("chain", _format_chain(chain)), ("cost", format_rational(cost))]
    else:
        base = _parse_base(args.base, instance)
        lines = _density_lines(base, exact.exact_max_density(instance, base))
    _emit("kind", chain_tools.detail)
    for key, value in lines:
        _emit(key, value)
    return 0


def _verdict(violated: bool) -> str:
    return "BOUND VIOLATED" if violated else "ok"


def _cmd_check_ratio(args) -> int:
    started = time.perf_counter()
    chain_tools = Toolchain(parse_instance(args.file))
    instance = chain_tools.instance
    chain = chain_tools.greedy()
    record = exact.check_ratio(instance, chain, chain_tools.alpha)
    if record.optimum is None:
        lines, verdict = [("exact_cost", "skipped"), ("skip_reason", record.skip_reason)], []
    else:
        lines = [
            ("exact_cost", format_rational(record.optimum)),
            ("ratio", _format_density(record.ratio)),
            ("histogram_contained", "true" if record.first_violation is None else "false"),
        ]
        if record.first_violation is not None:
            x, got, allowed = record.first_violation
            lines.append(("histogram_violation", f"x={format_rational(x)} height="
                          f"{_format_density(got)} limit={format_rational(allowed)}"))
        verdict = [("verdict", _verdict(record.violated))]
    for key, value in [
        ("instance", args.file),
        ("kind", chain_tools.detail),
        ("n", instance.n),
        ("greedy_cost", format_rational(record.greedy_cost)),
        ("bound", format_rational(chain_tools.bound)),
        ("certificate", ",".join(_format_density(d) for d in chain.densities or ())),
        *lines,
        ("wall_time_s", f"{time.perf_counter() - started:.3f}"),
        *verdict,
    ]:
        _emit(key, value)
    return 2 if record.violated else 0


def _cmd_sweep(args) -> int:
    kinds = [kind.strip() for kind in args.kinds.split(",")]
    for kind in kinds:
        if kind not in KINDS:
            raise BadParams(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if args.count < 1:
        raise BadParams("--count must be at least 1")
    seeds = range(args.seed, args.seed + args.count)
    lines, failed = [], False
    for kind in kinds:
        started = time.perf_counter()
        worst, worst_seed, contained, violated = 0, "-", True, False
        for seed in seeds:
            # the CLI's own routing, so the sweep certifies what `solve` runs
            chain_tools = Toolchain(gen_instance(kind, 2 + seed % (MAX_N[kind] - 1), seed))
            record = exact.check_ratio(chain_tools.instance, chain_tools.greedy(),
                                       chain_tools.alpha)
            contained = contained and record.first_violation is None
            violated = violated or record.violated
            if record.ratio > worst:
                worst, worst_seed = record.ratio, seed
        lines += [
            ("kind", kind),
            ("instances", args.count),
            ("worst_ratio", _format_density(worst)),
            ("worst_seed", worst_seed),
            ("bound", format_rational(chain_tools.bound)),
            ("contained", "true" if contained else "false"),
            ("wall_time_s", f"{time.perf_counter() - started:.3f}"),
            ("verdict", _verdict(violated)),
        ]
        failed = failed or violated
    for key, value in lines:
        _emit(key, value)
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 with ``error: ...`` on a bad command line, where argparse
    would exit 2, the code ``msop`` keeps for a violated bound; the
    subcommand parsers are of this class too."""

    def error(self, message: str):
        self.exit(1, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msop", description="min-sum ordering solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="greedy chain plus consistent permutation")
    solve.add_argument("file")
    solve.add_argument("--backward", action="store_true")
    solve.set_defaults(run=_cmd_solve)

    density = sub.add_parser("density", help="one density step from a base set")
    density.add_argument("file")
    density.add_argument("--base", default="")
    density.set_defaults(run=_cmd_density)

    exact_cmd = sub.add_parser("exact", help="exhaustive oracle")
    exact_cmd.add_argument("file")
    exact_cmd.add_argument("--mode", choices=("perm", "chain", "density"), default="perm")
    exact_cmd.add_argument("--base", default="")
    exact_cmd.set_defaults(run=_cmd_exact)

    check = sub.add_parser("check-ratio", help="greedy vs exact plus histogram check")
    check.add_argument("file")
    check.set_defaults(run=_cmd_check_ratio)

    sweep = sub.add_parser("sweep", help="check-ratio over seeded instances of each kind")
    sweep.add_argument("--kinds", default=",".join(KINDS))
    sweep.add_argument("--count", type=int, default=200)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(run=_cmd_sweep)

    gen = sub.add_parser("gen", help="deterministic random instance")
    gen.add_argument("kind", choices=KINDS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", default=None)
    gen.set_defaults(run=_cmd_gen)
    return parser


# built by the first ``run`` and reused by every later one in the process;
# ``build_parser`` itself returns a fresh parser on each call
_parser: argparse.ArgumentParser | None = None


def run(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.run(args)
    except (MsopError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
