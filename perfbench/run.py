#!/usr/bin/env python3
"""Run one workload of the msop benchmark and print its metrics.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The workload's instance files are generated from ``--seed`` first, in a
child process and outside any timing.  Each operation is one in-process
``msop.cli.run([...])`` call with its report captured, in a closed loop
with one client.  A first pass warms up; timed passes then fill
``--seconds`` and must reproduce the first pass's reports byte for byte
(``wall_time_s`` aside).  The first pass's reports are then checked
against the benchmark's own model of each file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with traced ones, in which ``spans.py`` wraps the layers'
entry points, prints the per-layer metrics and writes the spans under
``perfbench/_out/``.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
SETUP_REPEATS = 25
SETUP_SLICES = 40  # host slices after each set-up repeat
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
# seconds one host_slice() takes on the reference host; timings are
# reported at that speed (see README, "Host speed")
REFERENCE_SLICE_S = 0.0006
SLICE_WINDOW = 5  # a call is scaled by the slices after the calls this close to it


def _import_program():
    src = ROOT / "src"
    if not (src / "msop" / "__init__.py").is_file():
        sys.exit(f"error: no msop package under {src}")
    sys.path.insert(0, str(src))
    import msop

    if Path(msop.__file__).resolve().parent != src / "msop":
        sys.exit(f"error: imported msop from {msop.__file__}, not from {src}")


def call(op, tracer=None):
    """One ``msop`` command in process: (exit code, stdout, seconds).  With
    a tracer the call is the root span of the operation's spans."""
    from msop import cli

    run = cli.run if tracer is None else tracer.wrap("cli.run", cli.run)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            code = run(op.argv)
        except Exception as exc:  # a crash is a failed operation, not a dead run
            code = f"{type(exc).__name__}: {exc}"
        spent = time.perf_counter() - started
    return code, out.getvalue(), spent


def scale(seconds, slices):
    """``seconds`` at reference host speed, given the host slices timed
    around it.  The median slice is the host's speed: one slow slice, from
    preemption or a garbage collection that a call left behind, cannot move
    it."""
    return seconds * REFERENCE_SLICE_S / statistics.median(slices)


class Run:
    """Counts, timings and check failures of one benchmark run."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reports = [None] * len(ops)  # report fields of the first pass
        self.times = [[] for _ in ops]  # per op and untraced timed pass, at reference speed
        self.passes = []  # per timed pass: traced or not, raw call times, slices

    def cli_pass(self, timed, tracer=None):
        """One pass over the ops; every report must equal the first pass's.
        A timed pass follows every call with a host slice and returns its
        duration at reference host speed, each call scaled by the slices
        of the calls around it."""
        from checks import report_fields

        gc.collect()
        spent = [0.0] * len(self.ops)
        slices = [None] * len(self.ops)
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = f"{len(self.passes)}:{i}"
            code, text, spent[i] = call(op, tracer)
            if timed:
                slices[i] = host_slice()
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.errors.append(f"{' '.join(op.argv)}: exit {code}")
                continue
            fields = report_fields(text)
            if self.reports[i] is None:
                self.reports[i] = fields
            elif fields != self.reports[i]:
                self.errors.append(f"{' '.join(op.argv)}: report changed between passes")
        if not timed:
            return None
        self.passes.append({"traced": tracer is not None, "raw_times": spent, "slices": slices})
        total = 0.0
        for i, t in enumerate(spent):
            scaled = scale(t, slices[max(0, i - SLICE_WINDOW):i + SLICE_WINDOW + 1])
            if tracer is None:
                self.times[i].append(scaled)
            total += scaled
        return total

    def check(self, workload):
        """Check the first pass's reports against the benchmark's model.
        A file's ops are consecutive, so one model is kept at a time."""
        from checks import CheckError, check_exact_chain, check_ratio, check_solve
        from model import read_model

        model_path = model = perm_optimum = None
        for op, fields in zip(self.ops, self.reports):
            if fields is None:
                continue
            if op.path != model_path:
                model_path, model, perm_optimum = op.path, read_model(op.path), None
            try:
                if op.command == "solve":
                    exhaustive = workload == "solve-exhaustive" and not op.options
                    check_solve(model, op.path, fields, forward_exhaustive=exhaustive)
                elif op.command == "check-ratio":
                    perm_optimum = check_ratio(model, op.path, fields)
                else:
                    check_exact_chain(model, op.path, fields, perm_optimum)
            except CheckError as exc:
                self.errors.append(str(exc))
            except (KeyError, ValueError) as exc:
                self.errors.append(f"{op.path}: malformed report ({exc!r})")

    def result(self, metrics):
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def host_slice():
    """Seconds taken by a fixed piece of pure-Python work that does not use
    msop: Fraction sums, frozenset unions and dict inserts, the operations
    msop spends its time on.  Slices interleaved with the timed calls
    measure the host's speed at the moments the calls ran."""
    started = time.perf_counter()
    total = Fraction(0)
    members = frozenset()
    seen = {}
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        members = members | {i % 50}
        seen[members] = total
    return time.perf_counter() - started


def repeat(fn, seconds, at_least):
    """Call ``fn`` at least ``at_least`` times, then while one more call is
    expected to end within ``seconds`` of the start."""
    started = time.perf_counter()
    done = 0
    while True:
        fn()
        done += 1
        elapsed = time.perf_counter() - started
        if done >= at_least and elapsed * (done + 1) / done > seconds:
            return


def setup_seconds(paths):
    """Median over repeats of parse + ``Toolchain`` for every file, at
    reference host speed: each repeat is followed by host slices."""
    from msop.cli import Toolchain
    from msop.formats import parse_instance

    samples = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        for path in paths:
            Toolchain(parse_instance(path))
        spent = time.perf_counter() - started
        samples.append(scale(spent, [host_slice() for _ in range(SETUP_SLICES)]))
    return statistics.median(samples)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(run, paths, seconds):
    pass_s = []
    repeat(lambda: pass_s.append(run.cli_pass(timed=True)), seconds, MIN_PASSES)
    per_op_ms = sorted(statistics.median(t) * 1000 for t in run.times if t)
    return {
        "wall_s": (statistics.median(pass_s), "s"),
        "setup_s": (setup_seconds(paths), "s"),
        "instance_ms_p50": (statistics.median(per_op_ms), "ms"),
        "instance_ms_tail": (per_op_ms[len(per_op_ms) - TAIL_BEYOND - 1], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(run, seconds, out_stem):
    """Alternate untraced and traced timed passes of the same ``cli.run``
    calls; per-layer figures are per traced pass."""
    import spans

    tracer = spans.Tracer()
    pass_s = {False: [], True: []}

    def one_round():
        pass_s[False].append(run.cli_pass(timed=True))
        with tracer.patched():
            pass_s[True].append(run.cli_pass(timed=True, tracer=tracer))

    repeat(one_round, seconds, 1)
    passes = len(pass_s[True])
    tracer.write(f"{out_stem}.spans.jsonl")
    selfs = tracer.self_times()
    names = Counter(record[0] for record in tracer.spans)
    oracle = Counter()
    for (_, which), calls in tracer.oracle_calls.items():
        oracle[which] += calls
    lattice = sum(tracer.oracle_calls[span, "in_family"] for span in spans.LATTICE_SPANS)
    steps = sum(record[6]["steps"] for record in tracer.spans if record[0] in spans.GREEDY_SPANS)
    metrics = {name: (selfs[span] / passes, "s") for name, span in spans.SELF_TIME_METRICS.items()}
    metrics.update({
        "formats.bytes": (sum(record[6]["bytes"] for record in tracer.spans
                              if record[0] == "formats.parse") // passes, "count"),
        "density.calls": (sum(names[s] for s in spans.DENSITY_SPANS) // passes, "count"),
        "core.greedy_steps": (steps // passes, "count"),
        "oracle.in_family_calls": (oracle["in_family"] // passes, "count"),
        "oracle.cost_calls": (oracle["cost"] // passes, "count"),
        "oracle.weight_calls": (oracle["weight"] // passes, "count"),
        "oracle.s": (tracer.oracle_s / passes, "s"),
        "oracle.in_family_hit_ratio": (tracer.in_family_hits / max(oracle["in_family"], 1),
                                       "ratio"),
        "exact.lattice_sets": (lattice // passes, "count"),
        "trace.overhead_s": (statistics.median(pass_s[True])
                             - statistics.median(pass_s[False]), "s"),
    })
    return metrics


def generate_apart(files):
    """Write the workload's files in a child process, so that generation
    does not count in this process's peak resident set size."""
    import workloads

    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            workloads.generate(files)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit("error: generating the workload's files failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("MSOP_EXACT_CAPS", None)  # exhaustive caps at their defaults
    _import_program()
    import workloads

    if args.workload not in workloads.PLANS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.PLANS)}")
    os.makedirs(BENCH / "_out", exist_ok=True)
    out_stem = BENCH / "_out" / f"{args.workload}-s{args.seed}-trace{args.trace}"
    work = BENCH / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    rss_mb = {}
    try:
        ops, files = workloads.plan(args.workload, args.seed, str(work))
        generate_apart(files)
        run = Run(ops)
        rss_mb["before_first_call"] = peak_rss_mb()
        run.cli_pass(timed=False)
        rss_mb["after_first_pass"] = peak_rss_mb()
        if args.trace:
            metrics = per_layer(run, args.seconds, out_stem)
        else:
            metrics = end_to_end(run, [f[0] for f in files], args.seconds)
        rss_mb["before_checks"] = peak_rss_mb()
        run.check(args.workload)
        rss_mb["after_checks"] = peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = run.result(metrics)
    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    with open(f"{out_stem}.json", "w", encoding="utf-8") as handle:
        slowest = sorted(((statistics.median(t) * 1000, " ".join(op.argv[:1] + op.argv[2:]),
                           os.path.basename(op.path)) for op, t in zip(run.ops, run.times) if t),
                         reverse=True)[:2 * TAIL_BEYOND]
        json.dump({**result, "slowest_ms": slowest, "peak_rss_mb_at": rss_mb,
                   "passes": run.passes}, handle)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
