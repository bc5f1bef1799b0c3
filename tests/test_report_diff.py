"""scripts/report_diff.py: what counts as a difference, and the per-tree worker."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_wall_time_may_differ(report_diff):
    old = [0, "kind=x\nwall_time_s=0.120\nverdict=ok\n", ""]
    assert report_diff.differences(old, [0, "kind=x\nwall_time_s=9.000\nverdict=ok\n", ""]) == []
    lines = report_diff.differences(old, [2, "kind=x\nwall_time_s=0.1\nverdict=no\n", "error: e\n"])
    assert lines[0] == "  exit code: 0 -> 2"
    assert "  stdout: -verdict=ok" in lines and "  stdout: +verdict=no" in lines
    assert "  stderr: +error: e" in lines
    assert not any("wall_time_s" in line for line in lines)


def test_worker_reports_exit_code_stdout_and_stderr(report_diff):
    golden = str(ROOT / "tests" / "golden" / "mssc.msop")
    worker = report_diff.start(ROOT / "src", [["solve", golden], ["solve", golden + ".missing"],
                                              ["solve", golden, "--no-such-option"]])
    solved, missing, bad_option = report_diff.finish(worker)
    assert solved[0] == 0 and "greedy_cost=" in solved[1] and solved[2] == ""
    assert missing[0] == 1 and missing[1] == "" and missing[2].startswith("error: ")
    assert bad_option[0] == 1 and bad_option[2].startswith("error: msop")
