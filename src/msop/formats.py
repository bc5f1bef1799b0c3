"""Line-oriented instance files with explicit version headers.

Four formats, one record per line, ``#`` comments, rationals written as
``p/q`` or integer literals (decimals are rejected so everything stays
exact):

    msop mssc v1       elements n / cost v c / edge w v1 v2 ...
    msop orsched v1    job id p w / arc i j
    msop rof v1        var i p c / formula (and x1 (or x2 x3))
    msop xsearch v1    root r / vertex v p / edge u v c

``FILE_KINDS`` is the one table of these kinds: the CLI, the parser and the
serializer read every per-kind decision from it.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import exact, mssc, orsched, rof, xsearch
from .core import DensitySolver, MsopInstance, Rational
from .errors import ParseError, ValidationError
from .mssc import MsscInstance
from .orsched import OrDag
from .rof import GATES, Gate, Leaf, Node, ReadOnceFormula
from .xsearch import SearchGraph

Instance = MsscInstance | OrDag | ReadOnceFormula | SearchGraph


def _shown(token: str) -> str:
    """``token`` as quoted in a message, cut to a short prefix."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"


def _literal(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # past the interpreter's int-from-str digit limit, which Decimal lacks
        if not re.fullmatch("[+-]?[0-9]+", text):
            raise
        from decimal import Decimal

        return int(Decimal(text))


def _rational(token: str) -> Rational:
    """``token``'s value; a bad token raises ValueError with the message."""
    if "." in token:
        raise ValueError(f"decimal literals are not accepted: {_shown(token)}")
    num, slash, den = token.partition("/")
    try:
        if not slash:
            return _literal(num)
        value = Fraction(_literal(num), _literal(den))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {_shown(token)}") from None
    return value if value.denominator != 1 else int(value)


def format_rational(value: Rational) -> str:
    try:
        if type(value) is int:
            return str(value)
        frac = value if type(value) is Fraction else Fraction(value)
        if frac.denominator == 1:
            return str(frac.numerator)
        return f"{frac.numerator}/{frac.denominator}"
    except ValueError:
        # past the interpreter's int-to-str digit limit, which Decimal lacks
        from decimal import Decimal

        frac = Fraction(value)
        num, den = str(Decimal(frac.numerator)), str(Decimal(frac.denominator))
        return num if den == "1" else f"{num}/{den}"


def _records(text: str):
    """(line number, text, tokens) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        yield lineno, line, line.split()


def _field(record, index: int, read: Callable[[str], object] = int, what: str = "integer"):
    """``read`` of the record's token ``index``: ``int``, whose error names
    ``what``, or ``_rational``.  A bad token's error names its 1-based
    column, found only then, so a good file pays nothing for it."""
    try:
        return read(record[2][index])
    except ValueError as exc:
        lineno, line, tokens = record
        message = f"expected an {what}, got {_shown(tokens[index])}" if read is int else str(exc)
        column = [m.start() for m in re.finditer(r"\S+", line)][index] + 1
        raise ParseError(message, lineno, column) from None


def parse_instance_text(text: str) -> Instance:
    records = list(_records(text))
    if not records:
        raise ParseError("empty instance file", 1)
    header_line, header, parts = records[0]
    if len(parts) != 3 or parts[0] != "msop" or parts[2] != "v1":
        raise ParseError(f"bad header {_shown(header)}; expected 'msop <kind> v1'", header_line)
    kind = _BY_NAME.get(parts[1])
    if kind is None:
        raise ParseError(f"unknown kind {_shown(parts[1])}", header_line, len("msop ") + 1)
    return kind.parse(records[1:])


def parse_instance(path: str | os.PathLike) -> Instance:
    """Parse the instance file at ``path``."""
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        return parse_instance_text(handle.read())


def _parse_mssc(body) -> MsscInstance:
    n = None
    costs: dict[int, Rational] = {}
    cost_lines: dict[int, int] = {}
    edges: list[tuple[Rational, frozenset[int]]] = []
    edge_lines: list[int] = []
    for record in body:
        lineno, line, tokens = record
        word = tokens[0]
        if word == "elements":
            if len(tokens) != 2:
                raise ParseError("elements takes one count", lineno)
            if n is not None:
                raise ParseError("only one elements record is allowed", lineno)
            n, elements_line = _field(record, 1), lineno
        elif word == "cost":
            if len(tokens) != 3:
                raise ParseError("cost takes an element id and a value", lineno)
            v = _field(record, 1)
            if v in costs:
                raise ParseError(f"element {v} already has a cost", lineno)
            costs[v] = _field(record, 2, _rational)
            cost_lines[v] = lineno
        elif word == "edge":
            if len(tokens) < 3:
                raise ParseError("edge takes a weight and at least one element", lineno)
            weight = _field(record, 1, _rational)
            try:
                members = frozenset(map(int, tokens[2:]))
            except ValueError:  # the bad member's error, with its column
                members = frozenset(_field(record, i) for i in range(2, len(tokens)))
            edges.append((weight, members))
            edge_lines.append(lineno)
        else:
            raise ParseError(f"unknown record {_shown(word)}", lineno, line.index(word) + 1)
    if n is None:
        raise ParseError("missing 'elements' record", 1)
    for v, lineno in cost_lines.items():
        if not 0 <= v < n:
            raise ParseError(f"cost record references unknown element {v}", lineno)
    named = set(costs).union(*(members for _, members in edges))
    if named and (min(named) < 0 or max(named) >= n):
        for (_, members), lineno in zip(edges, edge_lines):
            unknown = [v for v in members if not 0 <= v < n]
            if unknown:
                raise ParseError(f"hyperedge references unknown element {min(unknown)}", lineno)
    # so the element count is bounded by the file's size, not by its value
    if len(named) < n:
        unnamed = next(v for v in range(n) if v not in named)
        raise ParseError(f"element {unnamed} is named by no cost or edge record", elements_line)
    return MsscInstance(n, tuple(costs.get(v, 1) for v in range(n)), tuple(edges))


def _parse_orsched(body) -> OrDag:
    job_lines: dict[int, int] = {}
    times: list[Rational] = []
    weights: list[Rational] = []
    arcs: list[tuple[int, int]] = []
    arc_lines: list[int] = []
    for record in body:
        lineno, line, tokens = record
        word = tokens[0]
        if word == "job":
            if len(tokens) != 4:
                raise ParseError("job takes id, processing time and weight", lineno)
            job = _field(record, 1)
            if job in job_lines:
                raise ParseError("job ids must be distinct", lineno)
            job_lines[job] = lineno
            times.append(_field(record, 2, _rational))
            weights.append(_field(record, 3, _rational))
        elif word == "arc":
            if len(tokens) != 3:
                raise ParseError("arc takes two job ids", lineno)
            arcs.append((_field(record, 1), _field(record, 2)))
            arc_lines.append(lineno)
        else:
            raise ParseError(f"unknown record {_shown(word)}", lineno, line.index(word) + 1)
    if not job_lines:
        raise ParseError("orsched file lists no jobs", 1)
    for (i, j), lineno in zip(arcs, arc_lines):
        if i not in job_lines or j not in job_lines:
            raise ParseError(f"arc ({i}, {j}) references an unknown job", lineno)
    return OrDag(tuple(job_lines), tuple(times), tuple(weights), tuple(arcs))


def _parse_formula(expr: str, lineno: int, offset: int) -> tuple[Node, dict[int, int]]:
    """The formula's root, and the column of each leaf's variable; a blank
    ``expr`` is refused first, as an empty formula line."""
    if not expr.strip():
        raise ParseError("formula line is empty", lineno)
    pos = 0
    columns: dict[int, int] = {}

    def error(msg: str, at: int):
        raise ParseError(msg, lineno, offset + at + 1)

    def skip_blank():
        nonlocal pos
        while pos < len(expr) and expr[pos].isspace():
            pos += 1

    def read_token() -> tuple[str, int]:
        nonlocal pos
        start = pos
        while pos < len(expr) and not expr[pos].isspace() and expr[pos] not in "()":
            pos += 1
        if start == pos:
            error("expected a token", start)
        return expr[start:pos], start

    # gates still open: operator, position of "(", inputs parsed so far
    stack: list[tuple[str, int, list[Node]]] = []
    while True:
        skip_blank()
        if stack and pos < len(expr) and expr[pos] == ")":
            op, open_at, children = stack.pop()
            pos += 1
            if len(children) != 2:
                error(
                    f"gate has {len(children)} inputs; rewrite as nested binary "
                    "gates, e.g. (and x1 (and x2 x3))",
                    open_at,
                )
            node: Node = Gate(op, children[0], children[1])
        elif pos >= len(expr):  # only inside a gate: ``expr`` is not blank
            error("missing ')'", stack[-1][1])
        elif expr[pos] == "(":
            open_at = pos
            pos += 1
            skip_blank()
            op, op_at = read_token()
            if op not in GATES:
                error(f"unknown gate {_shown(op)}", op_at)
            stack.append((op, open_at, []))
            continue
        elif expr[pos] == ")":
            error("unexpected ')'", pos)
        else:
            token, at = read_token()
            if not re.fullmatch("x[0-9]+", token):
                error(f"expected a variable like x3, got {_shown(token)}", at)
            try:
                node = Leaf(int(token[1:]))
            except ValueError:  # past the interpreter's int-from-str digit limit
                error(f"variable id too long: {_shown(token)}", at)
            if node.var in columns:
                error("each variable may appear in exactly one leaf", at)
            columns[node.var] = offset + at + 1
        if not stack:
            break
        stack[-1][2].append(node)
    skip_blank()
    if pos != len(expr):
        error("trailing text after formula", pos)
    return node, columns


def _parse_rof(body) -> ReadOnceFormula:
    probs: dict[int, Fraction] = {}
    costs: dict[int, int] = {}
    var_lines: dict[int, int] = {}
    root: Node | None = None
    for record in body:
        lineno, line, tokens = record
        word = tokens[0]
        if word == "var":
            if len(tokens) != 4:
                raise ParseError("var takes id, probability and cost", lineno)
            i = _field(record, 1)
            if i in probs:
                raise ParseError(f"variable {i} is already declared", lineno)
            probs[i] = Fraction(_field(record, 2, _rational))
            costs[i] = _field(record, 3, what="integer cost")
            var_lines[i] = lineno
        elif word == "formula":
            if root is not None:
                raise ParseError("only one formula line is allowed", lineno)
            expr = line.split(None, 1)[1] if len(tokens) > 1 else ""
            root, columns = _parse_formula(expr, lineno, line.index(expr))
            formula_line = lineno
        else:
            raise ParseError(f"unknown record {_shown(word)}", lineno, line.index(word) + 1)
    if root is None:
        raise ParseError("missing formula line", 1)
    for i, column in columns.items():
        if i not in probs:
            raise ParseError(f"leaf x{i} has no var record", formula_line, column)
    for i, lineno in var_lines.items():
        if i not in columns:
            raise ParseError(f"variable {i} is not a leaf of the formula", lineno)
    return ReadOnceFormula(root, probs, costs)


def _parse_xsearch(body) -> SearchGraph:
    root = None
    probs: dict[int, Rational] = {}
    edges: list[tuple[int, int, Rational]] = []
    edge_lines: list[int] = []
    for record in body:
        lineno, line, tokens = record
        word = tokens[0]
        if word == "root":
            if len(tokens) != 2:
                raise ParseError("root takes one vertex id", lineno)
            if root is not None:
                raise ParseError("only one root record is allowed", lineno)
            root = _field(record, 1)
        elif word == "vertex":
            if len(tokens) != 3:
                raise ParseError("vertex takes an id and a probability", lineno)
            v = _field(record, 1)
            if v in probs:
                raise ParseError("vertex ids must be distinct", lineno)
            probs[v] = _field(record, 2, _rational)
        elif word == "edge":
            if len(tokens) != 4:
                raise ParseError("edge takes two endpoints and a cost", lineno)
            edges.append((_field(record, 1), _field(record, 2), _field(record, 3, _rational)))
            edge_lines.append(lineno)
        else:
            raise ParseError(f"unknown record {_shown(word)}", lineno, line.index(word) + 1)
    if root is None:
        raise ParseError("missing root record", 1)
    for (u, v, _), lineno in zip(edges, edge_lines):
        if u not in probs or v not in probs:
            raise ParseError(f"edge ({u}, {v}) references an unknown vertex", lineno)
    return SearchGraph(tuple(probs), root, tuple(edges), probs)


def _serialize_formula(root: Node) -> str:
    parts: list[str] = []
    stack: list[Node | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(f"x{item.var}")
        else:
            stack.extend((")", item.right, " ", item.left, f"({item.op} "))
    return "".join(parts)


def _serialize_mssc(instance: MsscInstance) -> Iterable[str]:
    yield f"elements {instance.n}"
    yield from (f"cost {v} {format_rational(c)}" for v, c in enumerate(instance.costs))
    for w, members in instance.edges:
        yield f"edge {format_rational(w)} {' '.join(str(v) for v in sorted(members))}"


def _serialize_orsched(instance: OrDag) -> Iterable[str]:
    for j, p, w in zip(instance.jobs, instance.times, instance.weights):
        yield f"job {j} {format_rational(p)} {format_rational(w)}"
    yield from (f"arc {i} {j}" for i, j in instance.arcs)


def _serialize_rof(instance: ReadOnceFormula) -> Iterable[str]:
    for v in instance.variables:
        yield f"var {v} {format_rational(instance.probs[v])} {instance.costs[v]}"
    yield f"formula {_serialize_formula(instance.root)}"


def _serialize_xsearch(instance: SearchGraph) -> Iterable[str]:
    yield f"root {instance.root}"
    yield from (f"vertex {v} {format_rational(instance.probs[v])}" for v in instance.vertices)
    yield from (f"edge {u} {v} {format_rational(c)}" for u, v, c in instance.edges)


# Each ``*_tools`` function returns the greedy machinery of one parsed
# instance: the MSOP instance, its density solver, alpha and the ``kind=``
# detail.  The adapters and solver factories are looked up on their modules
# at call time, so a wrapper installed there (a tracer's) is the one called.
Tools = tuple[MsopInstance, DensitySolver, Rational, str]


def _mssc_tools(parsed: MsscInstance) -> Tools:
    return mssc.to_msop(parsed), mssc.singleton_solver(parsed), 1, "mssc"


def _orsched_tools(dag: OrDag) -> Tools:
    instance = orsched.to_msop(dag)
    detail = f"orsched/{orsched.classify_dag(dag)}"
    if orsched.is_inforest(dag):
        solver = orsched.stem_solver(dag)
    elif orsched.is_multitree(dag):
        solver = orsched.outtree_solver(dag)
    else:
        # no polynomial density step is known beyond multitrees;
        # fall back to the exhaustive one at desk scale
        solver = exact.exact_density_solver(instance)
    return instance, solver, 1, detail


def _rof_tools(formula: ReadOnceFormula) -> Tools:
    return rof.to_msop(formula), rof.supplement_solver(formula), 2, "rof"


def _xsearch_tools(graph: SearchGraph) -> Tools:
    instance = xsearch.xsearch_to_msop(graph)
    return instance, exact.exact_density_solver(instance), 1, "xsearch"


@dataclass(frozen=True)
class FileKind:
    """One instance file kind: its header word, its instance type, the body
    parser and serializer, and its greedy machinery."""

    name: str
    type: type
    parse: Callable[[list[tuple[int, str]]], Instance]
    serialize: Callable[[Instance], Iterable[str]]
    tools: Callable[[Instance], Tools]


FILE_KINDS = (
    FileKind("mssc", MsscInstance, _parse_mssc, _serialize_mssc, _mssc_tools),
    FileKind("orsched", OrDag, _parse_orsched, _serialize_orsched, _orsched_tools),
    FileKind("rof", ReadOnceFormula, _parse_rof, _serialize_rof, _rof_tools),
    FileKind("xsearch", SearchGraph, _parse_xsearch, _serialize_xsearch, _xsearch_tools),
)
_BY_NAME = {kind.name: kind for kind in FILE_KINDS}
KIND_OF_TYPE = {kind.type: kind for kind in FILE_KINDS}


def serialize_instance(instance: Instance) -> str:
    kind = KIND_OF_TYPE.get(type(instance))
    if kind is None:
        raise ValidationError(f"cannot serialize {type(instance).__name__}")
    return "\n".join((f"msop {kind.name} v1", *kind.serialize(instance))) + "\n"
