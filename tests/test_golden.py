"""CLI reports compared byte for byte with committed golden reports.

``tests/golden`` holds one small seeded instance file per kind and the
``solve``, ``solve --backward``, ``density``, ``check-ratio``, ``exact --mode
perm``, ``exact --mode chain`` and ``exact --mode density`` reports on it
(both density steps from the empty base), with the ``wall_time_s`` line left out;
stderr lines and the exit code are appended.  The chain report runs with the
chain cap raised to 9, the largest golden ground set.
A change meant to keep every report byte-identical must leave these tests
passing.  ``python tests/test_golden.py`` writes the instance files and the
reports afresh, for a change that alters a report on purpose.
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

# (kind, n, seed): n <= 8 keeps check-ratio within the exhaustive caps
INSTANCES = (
    ("mssc", 8, 1),
    ("pipelined", 8, 1),
    ("inforest", 8, 1),
    ("multitree", 8, 1),
    ("bipartite-or", 8, 1),
    ("rof", 8, 1),
    ("xsearch", 6, 1),
)
COMMANDS = {
    "solve": ("solve",),
    "backward": ("solve", "--backward"),
    "density": ("density",),
    "check-ratio": ("check-ratio",),
    "exact-perm": ("exact", "--mode", "perm"),
    "exact-chain": ("exact", "--mode", "chain"),
    "exact-density": ("exact", "--mode", "density"),
}
# exhaustive caps a command raises, where ``exact.CAPS`` would refuse it
CAPS = {"exact-chain": {"chain": 9}}


def report(name: str, argv) -> str:
    """The report of ``msop <argv> <name>``, run from the golden directory."""
    from msop.cli import run

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([*argv, name])
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("wall_time_s=")]
    lines += [f"stderr: {line}" for line in err.getvalue().splitlines()]
    lines.append(f"exit={code}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("kind", [kind for kind, _, _ in INSTANCES])
def test_report_matches_golden(kind, command, monkeypatch):
    from msop import exact

    monkeypatch.chdir(GOLDEN)
    monkeypatch.setattr(exact, "CAPS", {**exact.CAPS, **CAPS.get(command, {})})
    want = (GOLDEN / f"{kind}.{command}.out").read_text(encoding="utf-8")
    assert report(f"{kind}.msop", COMMANDS[command]) == want


def write_golden() -> None:
    from msop import exact
    from msop.formats import serialize_instance
    from msop.generators import gen_instance

    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    caps = exact.CAPS
    for kind, n, seed in INSTANCES:
        Path(f"{kind}.msop").write_text(
            serialize_instance(gen_instance(kind, n, seed)), encoding="utf-8"
        )
        for command, argv in COMMANDS.items():
            exact.CAPS = {**caps, **CAPS.get(command, {})}
            Path(f"{kind}.{command}.out").write_text(
                report(f"{kind}.msop", argv), encoding="utf-8"
            )
    exact.CAPS = caps


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    write_golden()
