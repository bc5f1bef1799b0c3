import argparse
import importlib.util
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from msop import cli, dual, exact, formats, mssc, orsched, rof, xsearch
from msop.cli import run
from msop.errors import BadParams, ParseError, ValidationError
from msop.formats import (
    format_rational,
    parse_instance,
    parse_instance_text,
    serialize_instance,
)
from msop.generators import KINDS, gen_instance
from msop.mssc import MsscInstance
from msop.orsched import OrDag
from msop.rof import Gate, Leaf, ReadOnceFormula
from msop.xsearch import SearchGraph

from helpers import parse_rational

from fractions import Fraction


MSSC_TEXT = """\
msop mssc v1
# a comment
elements 3
cost 0 1
cost 1 2/3
cost 2 5
edge 1 0 1
edge 3/2 2
"""


def test_parse_mssc_header_and_body():
    inst = parse_instance_text(MSSC_TEXT)
    assert isinstance(inst, MsscInstance)
    assert inst.n == 3
    assert inst.costs == (1, Fraction(2, 3), 5)
    assert inst.edges[1] == (Fraction(3, 2), frozenset({2}))


def test_parse_rejects_out_of_range_edge():
    bad = MSSC_TEXT + "edge 1 3\n"
    with pytest.raises(ParseError, match=r"^hyperedge references unknown element 3 \(line 9\)$"):
        parse_instance_text(bad)


def test_parse_rational_rules():
    assert parse_rational("7", 1, 1) == 7
    assert parse_rational("2/4", 1, 1) == Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_rational("0.5", 1, 1)
    with pytest.raises(ParseError):
        parse_rational("1/0", 1, 1)
    assert format_rational(Fraction(4, 2)) == "2"


def test_format_rational_on_ints_and_fractions():
    big = 10**20
    cases = {
        0: "0", 7: "7", -12: "-12", big: str(big),
        Fraction(6, 3): "2", Fraction(-8, 4): "-2", Fraction(0): "0",
        Fraction(2, 4): "1/2", Fraction(-7, 3): "-7/3", Fraction(big + 1, big): f"{big + 1}/{big}",
    }
    for value, text in cases.items():
        assert format_rational(value) == text, value
        assert parse_rational(text, 1, 1) == value
    assert format_rational(True) == "1"  # not an int by type: the Fraction path


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_instance_text("msop mssc v1\nelements 2\nwhatever 1\n")
    assert err.value.line == 3
    for text, message, line, column in [
        ("msop rof v1\nvar 1 1/2 1\nvar 7 1/2 1\nformula x1\n",
         "variable 7 is not a leaf of the formula", 3, None),
        ("msop mssc v1\nelements 2\ncost 5 1\nedge 1 0\n",
         "cost record references unknown element 5", 3, None),
        ("msop mssc v1\nelements 2\nedge 1 0 5\n",
         "hyperedge references unknown element 5", 3, None),
        ("msop orsched v1\njob 0 1 0\njob 1 1 1\narc 0 7\n",
         "arc \\(0, 7\\) references an unknown job", 4, None),
        ("msop xsearch v1\nroot 0\nvertex 0 1/2\nvertex 1 1/2\nedge 0 9 1\n",
         "edge \\(0, 9\\) references an unknown vertex", 5, None),
        ("msop orsched v1\njob 0 1 0\njob 0 1 1\n", "job ids must be distinct", 3, None),
        ("msop xsearch v1\nroot 1\nvertex 1 1/2\nvertex 1 1/2\n",
         "vertex ids must be distinct", 4, None),
        ("msop rof v1\nvar 1 1/2 1\nformula (and x1 x1)\n",
         "each variable may appear in exactly one leaf", 3, 17),
    ]:
        where = f"line {line}" + ("" if column is None else f", column {column}")
        with pytest.raises(ParseError, match=f"^{message} \\({where}\\)$") as err:
            parse_instance_text(text)
        assert (err.value.line, err.value.column) == (line, column)
    with pytest.raises(ParseError):
        parse_instance_text("not a header\n")
    with pytest.raises(ParseError):
        parse_instance_text("msop unknown v1\n")


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("msop mssc v1\nelements x\n", "expected an integer, got 'x'", 2, 10),
        ("msop mssc v1\nelements 1\ncost 0 1.5\n",
         "decimal literals are not accepted: '1.5'", 3, 8),
        ("msop mssc v1\nelements 2\nedge  1/0 0 1\n", "bad rational '1/0'", 3, 7),
        ("msop mssc v1\nelements 2\nedge 1 0 one\n", "expected an integer, got 'one'", 3, 10),
        ("msop orsched v1\njob 0 q 1\n", "bad rational 'q'", 2, 7),
        ("msop orsched v1\njob 0 1 1/x\n", "bad rational '1/x'", 2, 9),
        ("msop rof v1\nvar 1 0.5 1\nformula x1\n",
         "decimal literals are not accepted: '0.5'", 2, 7),
        ("msop rof v1\nvar 1 1/2 1/2\nformula x1\n",
         "expected an integer cost, got '1/2'", 2, 11),
        ("msop xsearch v1\nroot 0\nvertex 0 p\n", "bad rational 'p'", 3, 10),
        ("msop xsearch v1\nroot 0\n  edge 0 1 2.0\n",
         "decimal literals are not accepted: '2.0'", 3, 12),
        ("# no header\n\n", "empty instance file", 1, None),
        ("msop mssc v1\nelements 1 2\n", "elements takes one count", 2, None),
        ("msop mssc v1\nelements 1\ncost 0\n", "cost takes an element id and a value", 3, None),
        ("msop mssc v1\nelements 1\nedge 1\n", "edge takes a weight and at least one element",
         3, None),
        ("msop xsearch v1\nroot 0\nedge 0 1\n", "edge takes two endpoints and a cost", 3, None),
        ("msop orsched v1\njob 0 1\n", "job takes id, processing time and weight", 2, None),
        ("msop orsched v1\njob 0 1 1\narc 0\n", "arc takes two job ids", 3, None),
        ("msop rof v1\nvar 1 1/2\n", "var takes id, probability and cost", 2, None),
        ("msop xsearch v1\nroot\n", "root takes one vertex id", 2, None),
        ("msop xsearch v1\nroot 0\nvertex 0\n", "vertex takes an id and a probability", 3, None),
        ("msop orsched v1\njob 0 1 1\n  task 1\n", "unknown record 'task'", 3, 3),
        ("msop rof v1\nvar 1 1/2 1\nleaf 1\n", "unknown record 'leaf'", 3, 1),
        ("msop xsearch v1\nroot 0\n node 1\n", "unknown record 'node'", 3, 2),
        ("msop mssc v1\ncost 0 1\n", "missing 'elements' record", 1, None),
        ("msop orsched v1\n# no jobs\n", "orsched file lists no jobs", 1, None),
        ("msop rof v1\nvar 1 1/2 1\n", "missing formula line", 1, None),
        ("msop xsearch v1\nvertex 0 1\n", "missing root record", 1, None),
        ("msop rof v1\nvar 1 1/2 1\nformula x1\nformula x1\n",
         "only one formula line is allowed", 4, None),
        ("msop rof v1\nvar 1 1/2 1\nformula   \n", "formula line is empty", 3, None),
        ("msop rof v1\nvar 1 1/2 1\nformula y1\n", "expected a variable like x3, got 'y1'", 3, 9),
        ("msop rof v1\nvar 1 1/2 1\nformula (or x1 x\u00b2)\n",
         "expected a variable like x3, got 'x\u00b2'", 3, 16),
        ("msop rof v1\nvar 1 1/2 1\nformula x" + "1" * 5000 + "\n",
         f"variable id too long: 'x{'1' * 39}'... (5001 characters)", 3, 9),
    ],
    ids=["integer", "mssc-cost-value", "mssc-edge-weight", "mssc-edge-member", "job-time",
         "job-weight", "var-probability", "var-cost", "vertex-probability", "xsearch-edge-cost",
         "empty-file", "elements", "cost", "mssc-edge", "xsearch-edge", "job", "arc",
         "var", "root", "vertex", "orsched-record", "rof-record", "xsearch-record",
         "no-elements", "no-jobs", "no-formula", "no-root", "two-formulas", "empty-formula",
         "variable", "superscript-variable", "long-variable"],
)
def test_parse_error_messages_and_their_place(text, message, line, column):
    where = f"line {line}" + ("" if column is None else f", column {column}")
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert str(err.value) == f"{message} ({where})"
    assert (err.value.line, err.value.column) == (line, column)


def test_unexpected_end_of_formula_needs_an_empty_expression():
    # the parser is the one check of an empty formula: a direct call with
    # empty or blank text ends where a file's empty formula record does
    for text in ("", "   "):
        with pytest.raises(ParseError) as err:
            formats._parse_formula(text, 3, 8)
        assert str(err.value) == "formula line is empty (line 3)"


def test_gen_without_out_writes_the_file_to_stdout(capsys):
    assert run(["gen", "inforest", "--n", "6", "--seed", "2"]) == 0
    assert capsys.readouterr() == (serialize_instance(gen_instance("inforest", 6, 2)), "")
    with pytest.raises(ValidationError, match=r"^cannot serialize dict$"):
        serialize_instance({})


def test_parse_orsched_and_xsearch_and_rof():
    dag = parse_instance_text(
        "msop orsched v1\njob 0 1 0\njob 1 1/2 3\narc 0 1\n"
    )
    assert isinstance(dag, OrDag)
    assert dag.times == (1, Fraction(1, 2))
    graph = parse_instance_text(
        "msop xsearch v1\nroot 0\nvertex 0 0\nvertex 1 1\nedge 0 1 2\n"
    )
    assert isinstance(graph, SearchGraph)
    formula = parse_instance_text(
        "msop rof v1\n"
        "var 1 1/2 1\nvar 2 1/3 2\nvar 3 1/4 1\nvar 4 1/5 1\nvar 5 1/6 3\n"
        "formula (and x1 (and x2 (or (and x3 x4) x5)))\n"
    )
    assert isinstance(formula, ReadOnceFormula)
    assert formula.variables == (1, 2, 3, 4, 5)


def test_formula_parser_rejects_wide_gates_with_hint():
    text = "msop rof v1\nvar 1 1/2 1\nvar 2 1/2 1\nvar 3 1/2 1\nformula (and x1 x2 x3)\n"
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert "nested binary" in str(err.value)


@pytest.mark.parametrize(
    "expr, message, column",
    [
        ("(and x1", "missing ')'", 9),
        ("(and (or x1 x2) (and x3", "missing ')'", 25),
        (")", "unexpected ')'", 9),
        ("(and x1 x2) x3", "trailing text after formula", 21),
        ("(xor x1 x2)", "unknown gate 'xor'", 10),
        ("(and x1 ())", "expected a token", 18),
        ("(or )", "gate has 0 inputs", 9),
        ("(and x1 x3)", "leaf x1 has no var record", 14),
    ],
)
def test_formula_syntax_errors_name_their_column(expr, message, column):
    with pytest.raises(ParseError) as err:
        parse_instance_text(f"msop rof v1\nformula {expr}\n")
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (2, column)


def test_parse_instance_reads_a_path(tmp_path):
    path = tmp_path / "cover.txt"
    path.write_text(MSSC_TEXT, encoding="utf-8")
    for source in (path, str(path)):
        inst = parse_instance(source)
        assert isinstance(inst, MsscInstance)
        assert serialize_instance(inst) == serialize_instance(parse_instance_text(MSSC_TEXT))


def test_round_trip_fuzzed_files():
    count = 0
    for kind in KINDS:
        for seed in range(150):
            n = 2 + seed % 7
            inst = gen_instance(kind, n, seed)
            text = serialize_instance(inst)
            again = serialize_instance(parse_instance_text(text))
            assert text == again, (kind, seed)
            count += 1
    assert count >= 1000


def test_gen_is_deterministic_and_structured():
    a = serialize_instance(gen_instance("inforest", 6, 1))
    b = serialize_instance(gen_instance("inforest", 6, 1))
    assert a == b
    formula = gen_instance("rof", 5, 7)
    assert len(formula.variables) == 5
    with pytest.raises(BadParams):
        gen_instance("nope", 3, 1)
    with pytest.raises(BadParams):
        gen_instance("mssc", 0, 1)


def test_cli_gen_solve_density_exact(tmp_path, capsys):
    path = tmp_path / "inst.msop"
    assert run(["gen", "mssc", "--n", "5", "--seed", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert run(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "greedy_cost=" in out and "permutation=" in out
    assert run(["density", str(path), "--base", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "density=" in out
    assert run(["exact", str(path), "--mode", "chain"]) == 0
    out = capsys.readouterr().out
    assert "cost=" in out


def test_cli_check_ratio_passes_and_is_deterministic(tmp_path, capsys):
    for kind, n in (("mssc", 6), ("pipelined", 6), ("inforest", 7), ("multitree", 6),
                    ("rof", 5), ("xsearch", 5)):
        path = tmp_path / f"{kind}.msop"
        assert run(["gen", kind, "--n", str(n), "--seed", "11", "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["check-ratio", str(path)]) == 0
        first = capsys.readouterr().out
        assert "histogram_contained=true" in first
        assert run(["check-ratio", str(path)]) == 0
        second = capsys.readouterr().out
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("wall_time")]
        assert strip(first) == strip(second)



def test_cli_prints_exact_values_past_the_int_digit_limit(tmp_path, capsys):
    # (10^3000 - 1)^2 has 6,000 digits, past the interpreter's default limit
    # of 4,300 on converting an int to text
    nines = "9" * 3000
    path = tmp_path / "big.msop"
    path.write_text(f"msop mssc v1\nelements 1\ncost 0 {nines}\nedge {nines} 0\n")
    square = "9" * 2999 + "8" + "0" * 2999 + "1"
    for command in ("solve", "check-ratio"):
        capsys.readouterr()
        assert run([command, str(path)]) == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert report["greedy_cost"] == square, command
    assert report["exact_cost"] == square
    assert format_rational(Fraction(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"

def test_cli_reads_integer_literals_past_the_int_digit_limit(tmp_path, capsys):
    # the interpreter refuses to convert more than 4,300 digits of text to
    # an int; a token is cut to a short prefix in the message that echoes it
    nines = "9" * 5000
    path = tmp_path / "big.msop"
    path.write_text(f"msop mssc v1\nelements 1\ncost 0 {nines}\nedge 1 0\n")
    assert run(["solve", str(path)]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert report["greedy_cost"] == nines
    assert parse_rational(f"-{nines}/3", 1, 1) == -(10**5000 - 1) // 3
    assert parse_rational("1" + "0" * 5000 + "/4", 1, 1) == Fraction(10**5000, 4)
    path.write_text(f"msop mssc v1\nelements 1\ncost 0 {nines[1:]}x\nedge 1 0\n")
    assert run(["solve", str(path)]) == 1
    message = f"bad rational {nines[:40]!r}... (5000 characters) (line 3, column 8)"
    assert capsys.readouterr() == ("", f"error: ParseError: {message}\n")
    for token in ("1e" + "0" * 4999, "+-" + nines, nines + "/1.5"):
        with pytest.raises(ParseError) as err:
            parse_rational(token, 1, 1)
        assert len(str(err.value)) < 120, token[:10]


def test_cli_solve_backward(tmp_path, capsys):
    path = tmp_path / "m.msop"
    run(["gen", "mssc", "--n", "4", "--seed", "5", "--out", str(path)])
    capsys.readouterr()
    assert run(["solve", str(path), "--backward"]) == 0
    out = capsys.readouterr().out
    assert "mode=backward" in out


def test_cli_density_cap_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.msop"
    run(["gen", "mssc", "--n", "6", "--seed", "2", "--out", str(path)])
    capsys.readouterr()
    monkeypatch.setattr(exact, "CAPS", {"perm": 3, "chain": 3, "density": 3})
    assert run(["exact", str(path), "--mode", "density"]) == 1
    err = capsys.readouterr().err
    assert "TooLarge" in err


def test_cli_bipartite_and_general_fall_back_to_exact(tmp_path, capsys):
    path = tmp_path / "b.msop"
    run(["gen", "bipartite-or", "--n", "6", "--seed", "4", "--out", str(path)])
    capsys.readouterr()
    assert run(["check-ratio", str(path)]) == 0
    assert "kind=orsched/" in capsys.readouterr().out


def test_cli_check_ratio_skips_exact_above_caps(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.msop"
    run(["gen", "inforest", "--n", "8", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    monkeypatch.setattr(exact, "CAPS", {"perm": 5, "chain": 5, "density": 20})
    # above the cap the record holds the kept chain's greedy cost and the
    # TooLarge text, and the report prints no ratio, histogram or verdict
    solved, report = {}, {}
    for command, lines in (("solve", solved), ("check-ratio", report)):
        assert run([command, str(path)]) == 0
        lines.update(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert report["greedy_cost"] == solved["greedy_cost"] and report["exact_cost"] == "skipped"
    assert report["skip_reason"] == "perm: instance has 8 elements, exhaustive cap is 5"
    assert not {"ratio", "histogram_contained", "verdict"} & set(report)


def test_cli_check_ratio_flags_violations_with_exit_two(tmp_path, capsys, monkeypatch):
    # force an impossibly good "optimum" so the bound check must trip
    path = tmp_path / "v.msop"
    run(["gen", "mssc", "--n", "4", "--seed", "9", "--out", str(path)])
    capsys.readouterr()
    real = exact.exact_opt_permutation

    def liar(instance):
        perm, cost = real(instance)
        return perm, Fraction(cost, 100)

    monkeypatch.setattr(exact, "exact_opt_permutation", liar)
    assert run(["check-ratio", str(path)]) == 2
    out = capsys.readouterr().out
    assert "verdict=BOUND VIOLATED" in out


def test_cli_check_ratio_reports_the_first_histogram_violation(tmp_path, capsys, monkeypatch):
    # a greedy histogram that does not fit under the optimal one: the report
    # names the first point where it sticks out, and the exit code is 2
    path = tmp_path / "v.msop"
    run(["gen", "mssc", "--n", "4", "--seed", "9", "--out", str(path)])
    capsys.readouterr()
    real = cli.exact.check_ratio

    def uncontained(instance, chain, alpha):
        violation = (Fraction(3, 2), Fraction(7, 3), 2)
        return replace(real(instance, chain, alpha), first_violation=violation, violated=True)

    monkeypatch.setattr(cli.exact, "check_ratio", uncontained)
    assert run(["check-ratio", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("histogram_contained=false")
    assert lines[at + 1] == "histogram_violation=x=3/2 height=7/3 limit=2"
    assert lines[-1] == "verdict=BOUND VIOLATED"


# each kind's worst ratio over seeds 1 to 20, its first seed, and the bound
SWEEP_WORST = {"mssc": ("1", "1", "4"), "pipelined": ("81/79", "5", "4"),
               "inforest": ("17/14", "15", "4"), "multitree": ("22/15", "16", "4"),
               "bipartite-or": ("5/4", "17", "4"), "rof": ("1273/1118", "2", "8"),
               "xsearch": ("16/13", "1", "4")}
SWEEP_KEYS = ["kind", "instances", "worst_ratio", "worst_seed", "bound", "contained",
              "wall_time_s", "verdict"]


def _sweep_blocks(out: str) -> list[dict[str, str]]:
    """The ``key=value`` block of each kind, in the order printed."""
    lines = [line.split("=", 1) for line in out.splitlines()]
    blocks = [lines[i:i + len(SWEEP_KEYS)] for i in range(0, len(lines), len(SWEEP_KEYS))]
    assert [[key for key, _ in block] for block in blocks] == [SWEEP_KEYS] * len(blocks), out
    return [dict(block) for block in blocks]


@pytest.mark.parametrize("kind", KINDS)
def test_cli_sweep_certifies_every_kind(capsys, kind):
    assert run(["sweep", "--kinds", kind, "--count", "20", "--seed", "1"]) == 0
    [block] = _sweep_blocks(capsys.readouterr().out)
    assert (block["kind"], block["instances"], block["contained"], block["verdict"]) == (
        kind, "20", "true", "ok")
    assert (block["worst_ratio"], block["worst_seed"], block["bound"]) == SWEEP_WORST[kind]


def test_cli_sweep_flags_a_zero_optimum_under_a_positive_greedy_cost(capsys, monkeypatch):
    # check_ratio's verdict, as in `msop check-ratio`: the ratio is unbounded;
    # every kind is swept by default
    real = exact.exact_opt_permutation
    monkeypatch.setattr(exact, "exact_opt_permutation", lambda inst: (real(inst)[0], 0))
    assert run(["sweep", "--count", "2", "--seed", "1"]) == 2
    blocks = _sweep_blocks(capsys.readouterr().out)
    assert [block["kind"] for block in blocks] == list(KINDS)
    assert (blocks[0]["worst_ratio"], blocks[0]["worst_seed"], blocks[0]["verdict"]) == (
        "inf", "1", "BOUND VIOLATED")


@pytest.mark.parametrize("argv, message", [
    (["--kinds", "mssc,foo"], "unknown kind 'foo'; expected one of mssc, pipelined, "),
    (["--count", "0"], "--count must be at least 1"),
], ids=["unknown-kind", "no-count"])
def test_cli_sweep_bad_arguments_are_errors_not_tracebacks(capsys, argv, message):
    assert run(["sweep", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: BadParams: {message}")


def test_cli_exact_prints_nothing_when_it_fails(tmp_path, capsys):
    path = tmp_path / "big.msop"
    run(["gen", "inforest", "--n", "12", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    for argv in (["exact", str(path)], ["exact", str(path), "--mode", "chain"],
                 ["exact", str(path), "--mode", "density", "--base", "99"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: "), argv


def test_cli_reports_ignore_the_environment(tmp_path, capsys, monkeypatch):
    # the exhaustive caps are fixed in the code: no environment setting,
    # however low or malformed, changes a report or its exit code
    path = tmp_path / "f.msop"
    run(["gen", "inforest", "--n", "7", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    for argv in (["check-ratio", str(path)], ["exact", str(path), "--mode", "chain"]):
        reports = []
        for caps in (None, "perm=3,chain=3,density=3", "perm=x"):
            if caps is None:
                monkeypatch.delenv("MSOP_EXACT_CAPS", raising=False)
            else:
                monkeypatch.setenv("MSOP_EXACT_CAPS", caps)
            assert run(argv) == 0, (argv, caps)
            lines = capsys.readouterr().out.splitlines()
            reports.append([line for line in lines if not line.startswith("wall_time_s=")])
        assert reports[0] == reports[1] == reports[2], argv
        report = dict(line.split("=", 1) for line in reports[0])
        assert re.fullmatch("[0-9]+(/[0-9]+)?", report.get("exact_cost", report.get("cost"))), argv


def _oracle_calls_after_greedy(monkeypatch, backward=False):
    """Record every set the adapter's oracles are asked about once the
    greedy run (forward, or backward through the dual) has returned, and
    the chains that run returned; the permutation DP reads the supplied
    lattice columns, which the counting wrappers keep."""
    asked = {name: [] for name in ("in_family", "cost", "weight")}
    chains = []

    def counted(oracle, name):
        def call(s):
            asked[name].append(frozenset(s))
            return oracle(s)

        if hasattr(oracle, "lattice_column"):
            call.lattice_column = oracle.lattice_column
        return call

    def adapter(dag, to_msop=orsched.to_msop):
        instance = to_msop(dag)
        return replace(instance, **{name: counted(getattr(instance, name), name)
                                    for name in asked})

    module, name = (dual, "backward_greedy_chain") if backward else (cli, "greedy_chain")

    def greedy(*args, run_greedy=getattr(module, name)):
        chains.append(run_greedy(*args))
        for sets in asked.values():
            sets.clear()
        return chains[-1]

    monkeypatch.setattr(orsched, "to_msop", adapter)
    monkeypatch.setattr(module, name, greedy)
    return asked, chains


def test_cli_check_ratio_reads_each_chain_once(tmp_path, capsys, monkeypatch):
    # the greedy run keeps its chain's values, and check_ratio reads both
    # chains' sets off the lattice's columns, so after the greedy run no
    # oracle is asked about any set
    path = tmp_path / "f.msop"
    run(["gen", "inforest", "--n", "4", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    asked, _ = _oracle_calls_after_greedy(monkeypatch)
    assert run(["check-ratio", str(path)]) == 0
    assert "verdict=ok" in capsys.readouterr().out
    assert {name: len(sets) for name, sets in asked.items()} == {
        "in_family": 0, "cost": 0, "weight": 0}


@pytest.mark.parametrize("backward", [False, True])
def test_cli_solve_asks_no_oracle_about_the_greedy_chain(tmp_path, capsys, monkeypatch, backward):
    # chain_cost and the refinement take the chain's values and membership
    # from the greedy run; the refinement asks only about the prefixes
    # inside an increment of more than one element
    path = tmp_path / "f.msop"
    run(["gen", "inforest", "--n", "8", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    asked, chains = _oracle_calls_after_greedy(monkeypatch, backward)
    assert run(["solve", str(path), *["--backward"] * backward]) == 0
    assert "greedy_cost=" in capsys.readouterr().out
    (chain,) = chains
    assert asked["cost"] == asked["weight"] == []
    assert not set(asked["in_family"]) & set(chain.sets)
    assert any(len(b - a) > 1 for a, b in zip(chain.sets, chain.sets[1:]))
    assert asked["in_family"]


def test_cli_missing_file_is_an_error_not_a_traceback(tmp_path, capsys):
    missing = tmp_path / "absent.msop"
    assert run(["solve", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError:")
    assert str(missing) in err


def test_deep_formula_parses_round_trips_and_fails_cleanly(tmp_path, capsys):
    # a right-nested chain of 1200 leaves is far deeper than the recursion limit
    leaves = 1200
    expr = f"x{leaves}"
    for i in range(leaves - 1, 0, -1):
        expr = f"(and x{i} {expr})"
    lines = ["msop rof v1"] + [f"var {i} 1/2 1" for i in range(1, leaves + 1)]
    text = "\n".join(lines + [f"formula {expr}"]) + "\n"
    formula = parse_instance_text(text)
    assert formula.variables == tuple(range(1, leaves + 1))
    assert serialize_instance(formula) == text
    path = tmp_path / "deep.msop"
    path.write_text(text, encoding="utf-8")
    assert run(["exact", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: TooLarge: ")


@pytest.mark.parametrize(
    "kind, n, outside",
    [("inforest", 6, "0,99"), ("mssc", 6, "99"), ("rof", 6, "0")],
)
def test_cli_density_rejects_a_base_outside_the_ground_set(tmp_path, capsys, kind, n, outside):
    # rof variables are numbered from 1, so 0 lies outside its ground set
    path = tmp_path / f"{kind}.msop"
    run(["gen", kind, "--n", str(n), "--seed", "2", "--out", str(path)])
    capsys.readouterr()
    assert run(["density", str(path), "--base", outside]) == 1
    assert capsys.readouterr().err.startswith("error: NotInFamily: base ")


def test_cli_base_with_a_non_integer_id_is_an_error(tmp_path, capsys):
    path = tmp_path / "m.msop"
    run(["gen", "mssc", "--n", "5", "--seed", "3", "--out", str(path)])
    capsys.readouterr()
    for argv in (["density", str(path)], ["exact", str(path), "--mode", "density"]):
        assert run([*argv, "--base", "1,x"]) == 1
        assert capsys.readouterr().err == "error: ParseError: base id 'x' is not an integer\n"


def test_cli_reuses_one_parser_with_the_output_of_a_fresh_one(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "m.msop")
    run(["gen", "pipelined", "--n", "6", "--seed", "4", "--out", path])
    capsys.readouterr()
    calls = [
        ["solve", path, "--backward"],
        ["solve", path],
        ["exact", path, "--mode", "chain"],
        ["exact", path],
        ["solve", path, "--alpha", "3/2"],
        ["solve", path, "--alpha", "x"],
        ["solve", path],
        ["check-ratio"],
        ["exact", path],
    ]

    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        return code, capsys.readouterr().out

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(outcome(argv))
    monkeypatch.setattr(cli, "_parser", None)
    reused, parsers = [], []
    for argv in calls:
        reused.append(outcome(argv))
        parsers.append(cli._parser)
    assert [code for code, _ in fresh] == [0, 0, 0, 0, "exit 1", "exit 1", 0, "exit 1", 0]
    assert reused == fresh
    assert all(parser is parsers[0] for parser in parsers)
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-ratio"], "msop check-ratio: the following arguments are required: file"),
        pytest.param(["solve", "{path}", "--alpha", "3/2"],
                     "msop: unrecognized arguments: --alpha 3/2", id="alpha"),
        ([], "msop: the following arguments are required: command"),
        (["exact", "{path}", "--mode", "all"], "msop exact: argument --mode: invalid choice"),
    ],
)
def test_cli_argument_errors_exit_1_not_the_bound_code(tmp_path, capsys, argv, message):
    path = tmp_path / "m.msop"
    run(["gen", "mssc", "--n", "4", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([arg.format(path=path) for arg in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_readme_command_line_lists_the_options_of_each_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["msop"]:
            listed[words[1]] = {w.strip("[]") for w in words if w.lstrip("[").startswith("--")}
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    accepted = {
        name: {o for action in parser._actions for o in action.option_strings} - {"-h", "--help"}
        for name, parser in commands.choices.items()
    }
    assert listed == accepted


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: msop solve")


# The module attributes a tracer wraps to time density steps and count
# oracle calls.  The kind table must look them up when it is called: one
# that kept the functions it saw at import would bypass every wrapper.
PATCH_POINTS = (
    (mssc, "to_msop"),
    (mssc, "singleton_solver"),
    (orsched, "to_msop"),
    (orsched, "stem_solver"),
    (orsched, "outtree_solver"),
    (rof, "to_msop"),
    (rof, "supplement_solver"),
    (xsearch, "xsearch_to_msop"),
    (exact, "exact_density_solver"),
)
ROUTES = {
    "mssc": ("mssc.to_msop", "mssc.singleton_solver"),
    "pipelined": ("mssc.to_msop", "mssc.singleton_solver"),
    "inforest": ("orsched.to_msop", "orsched.stem_solver"),
    "multitree": ("orsched.to_msop", "orsched.outtree_solver"),
    "bipartite-or": ("orsched.to_msop", "orsched.outtree_solver"),
    "rof": ("rof.to_msop", "rof.supplement_solver"),
    "xsearch": ("xsearch.xsearch_to_msop", "exact.exact_density_solver"),
    "general": ("orsched.to_msop", "exact.exact_density_solver"),
}
# two paths from job 0 to job 3: neither an inforest nor a multitree
DIAMOND = OrDag((0, 1, 2, 3), (1, 1, 1, 1), (1, 1, 1, 1), ((0, 1), (0, 2), (1, 3), (2, 3)))


@pytest.mark.parametrize("kind", [*KINDS, "general"])
def test_solve_reaches_adapter_and_solver_through_their_modules(tmp_path, capsys, monkeypatch, kind):
    path = tmp_path / "i.msop"
    path.write_text(serialize_instance(DIAMOND if kind == "general" else gen_instance(kind, 7, 1)))
    calls = Counter()

    def counting(name, f, factory):
        def call(*args, **kwargs):
            calls[name] += 1
            out = f(*args, **kwargs)
            return counting(f"{name} step", out, False) if factory else out

        return call

    for module, attr in PATCH_POINTS:
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        factory = not attr.endswith("to_msop")
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr), factory))
    assert run(["solve", str(path)]) == 0
    capsys.readouterr()
    adapter, solver = ROUTES[kind]
    assert set(calls) == {adapter, solver, f"{solver} step"}
    assert calls[adapter] == calls[solver] == 1


def test_cli_rejects_a_repeated_or_arc(tmp_path, capsys):
    # counted twice, the arc's successor bit summed to the next job's bit
    path = tmp_path / "dup.msop"
    path.write_text("msop orsched v1\njob 0 1 0\njob 1 5 0\njob 2 1 9\narc 0 1\narc 0 1\narc 1 2\n")
    for argv in (["solve", str(path)], ["exact", str(path)], ["check-ratio", str(path)]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ValidationError: duplicate arc (0, 1)\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("msop mssc v1\nelements 2\nelements 3\n", 3, "only one elements record is allowed"),
        ("msop mssc v1\nelements 2\ncost 0 1\ncost 1 1\ncost 0 2\n", 5,
         "element 0 already has a cost"),
        ("msop rof v1\nvar 1 1/2 1\nvar 2 1/2 1\nvar 1 1/3 2\nformula (or x1 x2)\n", 4,
         "variable 1 is already declared"),
        ("msop xsearch v1\nroot 0\nvertex 0 0\nvertex 1 1\nroot 1\nedge 0 1 1\n", 5,
         "only one root record is allowed"),
    ],
    ids=["elements", "cost", "var", "root"],
)
def test_parse_rejects_a_repeated_one_off_record(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_instance_text(text)
    assert message in str(err.value)
    assert err.value.line == line


@pytest.mark.parametrize("text, unnamed", [
    ("msop mssc v1\nelements 3\ncost 0 1\nedge 1 2\n", 1),
    ("msop mssc v1\nelements 10000000\ncost 0 1\nedge 1 2\n", 1),
    ("msop mssc v1\nelements 99999999999\n", 0),
], ids=["three", "ten-million", "huge"])
def test_parse_requires_every_mssc_element_to_be_named(tmp_path, capsys, text, unnamed):
    # an element that no record names has unit cost and no hyperedge, so it
    # never changes the objective; requiring a record for each bounds the
    # count by the file's size, and a huge count fails at once, before
    # anything of that size is built
    message = f"element {unnamed} is named by no cost or edge record (line 2)"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_instance_text(text)
    path = tmp_path / "unnamed.msop"
    path.write_text(text)
    assert run(["solve", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: ParseError: {message}\n")


def test_tracer_patches_existing_names_and_restores_them():
    # perfbench/spans.py wraps module attributes by name during a traced
    # run; a name that no longer exists must fail here, not in that run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = (cli, dual, exact, mssc, orsched, rof, xsearch)
    before = [dict(vars(module)) for module in modules]
    with spans.Tracer().patched():
        inside = [dict(vars(module)) for module in modules]
    after = [dict(vars(module)) for module in modules]
    changed = {
        (module.__name__, name)
        for module, old, new in zip(modules, before, inside)
        for name in old
        if new[name] is not old[name]
    }
    assert [new.keys() for new in inside] == [old.keys() for old in before]
    assert {(module.__name__, attr) for module, attr in PATCH_POINTS} <= changed
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[name] is old[name] for name in old)


rationals = st.builds(Fraction, st.integers(0, 30), st.integers(1, 12))
positive = st.builds(Fraction, st.integers(1, 30), st.integers(1, 12))


def forward_pairs(draw, n, max_size):
    """Distinct pairs i < j of positions below ``n``."""
    drawn = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=max_size))
    return sorted({(min(i, j), max(i, j)) for i, j in drawn if i != j})


@st.composite
def mssc_instances(draw):
    n = draw(st.integers(1, 7))
    costs = draw(st.lists(positive, min_size=n, max_size=n))
    edges = draw(st.lists(
        st.tuples(rationals, st.frozensets(st.integers(0, n - 1), min_size=1)), max_size=8))
    return MsscInstance(n, tuple(costs), tuple(edges))


@st.composite
def or_dags(draw):
    # arcs run forward in the drawn job order, so the DAG has no cycle
    jobs = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True))
    n = len(jobs)
    arcs = forward_pairs(draw, n, 12)
    times = draw(st.lists(rationals, min_size=n, max_size=n))
    weights = draw(st.lists(rationals, min_size=n, max_size=n))
    return OrDag(tuple(jobs), tuple(times), tuple(weights),
                 tuple((jobs[i], jobs[j]) for i, j in arcs))


@st.composite
def formulas(draw):
    variables = draw(st.lists(st.integers(1, 60), min_size=1, max_size=8, unique=True))
    nodes = [Leaf(v) for v in variables]
    while len(nodes) > 1:
        i = draw(st.integers(0, len(nodes) - 2))
        nodes[i:i + 2] = [Gate(draw(st.sampled_from(("and", "or"))), nodes[i], nodes[i + 1])]
    probs = {v: Fraction(draw(st.integers(1, 10)), 11) for v in variables}
    costs = {v: draw(st.integers(1, 9)) for v in variables}
    return ReadOnceFormula(nodes[0], probs, costs)


@st.composite
def search_graphs(draw):
    # each vertex after the first joins an earlier one, so the graph is connected
    vertices = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True))
    n = len(vertices)
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs.update(forward_pairs(draw, n, 6))
    edges = [(vertices[i], vertices[j], draw(positive)) for i, j in sorted(pairs)]
    mass = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    mass[0] += 1
    probs = {v: Fraction(m, sum(mass)) for v, m in zip(vertices, mass)}
    root = draw(st.sampled_from(vertices))
    return SearchGraph(tuple(vertices), root, tuple(edges), probs)


@pytest.mark.parametrize(
    "instances", [mssc_instances(), or_dags(), formulas(), search_graphs()],
    ids=["mssc", "orsched", "rof", "xsearch"],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_round_trip_drawn_instances(instances, data):
    text = serialize_instance(data.draw(instances))
    assert serialize_instance(parse_instance_text(text)) == text
