"""Spans around the calls into each ``msop`` layer, for the traced run.

A traced pass runs the same ``msop.cli.run`` calls as an untraced one.
While it runs, ``Tracer.patched()`` replaces each layer's entry points with
wrappers that record a span: a name, a start, an end, its parent and the
operation it belongs to.  The wrapped names are the ones ``cli`` reaches at
call time: the functions it imports (``parse_instance``, ``greedy_chain``,
``chain_cost``, ``chain_to_permutation``, ``build_parser``, ``Toolchain``),
the ``exact`` and ``dual`` module functions, and the density-solver
factories, whose solvers are wrapped in turn.  The adapters (``to_msop``,
``xsearch_to_msop``) return a ``dataclasses.replace``-wrapped
``MsopInstance`` whose ``in_family``, ``cost`` and ``weight`` are counted
and timed.  Oracle calls are too many to keep one span each, so their time
is charged to the enclosing span as child time and summed per oracle.  A
layer's self time is its span minus its child spans and oracle calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time
from collections import Counter, defaultdict

from msop import cli, dual, exact, mssc, orsched, rof, xsearch

DENSITY_SPANS = ("mssc.density", "orsched.density", "rof.density", "exact.density")
GREEDY_SPANS = ("core.greedy", "dual.backward")
LATTICE_SPANS = ("exact.perm", "exact.chain")
ORACLES = ("in_family", "cost", "weight")

# name of the per-layer metric -> span whose summed self time it reports
SELF_TIME_METRICS = {
    "cli.args_s": "cli.args",
    "formats.parse_s": "formats.parse",
    "cli.toolchain_s": "cli.toolchain",
    "mssc.density_s": "mssc.density",
    "orsched.density_s": "orsched.density",
    "rof.density_s": "rof.density",
    "exact.density_s": "exact.density",
    "core.greedy_self_s": "core.greedy",
    "core.chain_cost_s": "core.chain_cost",
    "core.refine_s": "core.refine",
    "dual.backward_self_s": "dual.backward",
    "exact.perm_s": "exact.perm",
    "exact.chain_s": "exact.chain",
    "exact.histogram_s": "exact.histogram",
}


class Tracer:
    """Spans kept in memory; oracle calls counted and timed in place."""

    def __init__(self):
        self.spans = []  # [name, op, start, end, parent index, child seconds, attrs]
        self._open = []
        self.op = None
        self.oracle_calls = Counter()  # (enclosing span name, oracle) -> calls
        self.oracle_s = 0.0
        self.in_family_hits = 0

    def begin(self, name, attrs):
        parent = self._open[-1] if self._open else None
        record = [name, self.op, time.perf_counter(), None, parent, 0.0, attrs]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        return record

    def end(self):
        record = self.spans[self._open.pop()]
        record[3] = time.perf_counter()
        if record[4] is not None:
            self.spans[record[4]][5] += record[3] - record[2]

    def call(self, name, fn, *args, **kwargs):
        self.begin(name, {})
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def wrap(self, name, fn, attrs=None, result_attrs=None):
        """``fn`` with a span around each call.  ``attrs(*args)`` is taken
        before the span opens, ``result_attrs(result)`` after it closes."""

        def traced(*args, **kwargs):
            record = self.begin(name, attrs(*args) if attrs else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if result_attrs:
                record[6].update(result_attrs(result))
            return result

        return traced

    def solver_factory(self, name, factory):
        """A density-solver factory whose solvers record a span per step."""
        return lambda *args, **kwargs: self.wrap(name, factory(*args, **kwargs))

    def _oracle(self, which, fn):
        def call(s):
            started = time.perf_counter()
            value = fn(s)
            spent = time.perf_counter() - started
            self.oracle_s += spent
            if which == "in_family" and value:
                self.in_family_hits += 1
            if self._open:
                record = self.spans[self._open[-1]]
                record[5] += spent
                self.oracle_calls[record[0], which] += 1
            else:
                self.oracle_calls[None, which] += 1
            return value

        return call

    def counted(self, adapter):
        """An adapter whose ``MsopInstance`` has counted oracles."""

        def build(*args, **kwargs):
            instance = adapter(*args, **kwargs)
            return dataclasses.replace(
                instance, **{w: self._oracle(w, getattr(instance, w)) for w in ORACLES}
            )

        return build

    def _parser(self, build_parser):
        def build():
            parser = self.call("cli.args", build_parser)
            parser.parse_args = self.wrap("cli.args", parser.parse_args)
            return parser

        return build

    @contextlib.contextmanager
    def patched(self):
        """Install the span-recording wrappers; restore the originals after."""
        steps = lambda chain: {"steps": chain.steps}  # noqa: E731
        patches = [
            (cli, "build_parser", self._parser),
            (cli, "parse_instance",
             lambda f: self.wrap("formats.parse", f, lambda path: {"bytes": os.path.getsize(path)})),
            (cli, "Toolchain", lambda f: self.wrap("cli.toolchain", f)),
            (cli, "greedy_chain", lambda f: self.wrap("core.greedy", f, result_attrs=steps)),
            (cli, "chain_cost", lambda f: self.wrap("core.chain_cost", f)),
            (cli, "chain_to_permutation", lambda f: self.wrap("core.refine", f)),
            (dual, "backward_greedy_chain",
             lambda f: self.wrap("dual.backward", f, result_attrs=steps)),
            (exact, "exact_opt_permutation", lambda f: self.wrap("exact.perm", f)),
            (exact, "exact_opt_chain", lambda f: self.wrap("exact.chain", f)),
            (exact, "histogram_containment_check", lambda f: self.wrap("exact.histogram", f)),
            (mssc, "to_msop", self.counted),
            (orsched, "to_msop", self.counted),
            (rof, "to_msop", self.counted),
            (xsearch, "xsearch_to_msop", self.counted),
            (mssc, "singleton_solver", lambda f: self.solver_factory("mssc.density", f)),
            (orsched, "stem_solver", lambda f: self.solver_factory("orsched.density", f)),
            (orsched, "outtree_solver", lambda f: self.solver_factory("orsched.density", f)),
            (rof, "supplement_solver", lambda f: self.solver_factory("rof.density", f)),
            (exact, "exact_density_solver", lambda f: self.solver_factory("exact.density", f)),
        ]
        originals = [(module, name, getattr(module, name)) for module, name, _ in patches]
        try:
            for module, name, make in patches:
                setattr(module, name, make(getattr(module, name)))
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def self_times(self):
        out = defaultdict(float)
        for name, _, start, end, _, child, _ in self.spans:
            out[name] += end - start - child
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, op, start, end, parent, child, attrs) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "op": op, "name": name, "start": start, "end": end,
                    "parent": parent, "self_s": end - start - child, **attrs,
                }) + "\n")
