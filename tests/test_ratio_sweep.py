import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from msop import INF, exact
from msop.generators import KINDS

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ratio_sweep.py"


@pytest.fixture(scope="module")
def ratio_sweep():
    spec = importlib.util.spec_from_file_location("ratio_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_certifies_every_kind(ratio_sweep, kind):
    worst, _, contained, violated, bound, _ = ratio_sweep.sweep(kind, 2, 1)
    assert bound == (8 if kind == "rof" else 4)
    assert contained and worst <= bound and not violated


def test_sweep_flags_a_zero_optimum_under_a_positive_greedy_cost(
        ratio_sweep, monkeypatch, capsys):
    # check_ratio's verdict, as in `msop check-ratio`: the ratio is unbounded
    real = exact.exact_opt_permutation
    monkeypatch.setattr(exact, "exact_opt_permutation", lambda inst: (real(inst)[0], 0))
    worst, seed, contained, violated, _, _ = ratio_sweep.sweep("mssc", 2, 1)
    assert (worst, seed, violated) == (INF, 1, True)
    monkeypatch.setattr(sys, "argv", ["ratio_sweep.py", "--kinds", "mssc", "--count", "2",
                                      "--seed", "1"])
    assert ratio_sweep.main() == 2
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:3] == ["mssc", "2", "inf"] and "VIOLATION" in row


def test_unknown_kind_is_an_error_not_a_traceback(ratio_sweep, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ratio_sweep.py", "--kinds", "mssc,foo"])
    assert ratio_sweep.main() == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown kind 'foo'; expected one of mssc, ")


def test_script_runs_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--kinds", "rof", "--count", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].split()[:2] == ["rof", "1"]
