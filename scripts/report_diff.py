#!/usr/bin/env python3
"""Compare msop's reports at a git revision with the working tree's.

Extracts ``src/`` at REV with ``git archive`` into a temporary directory and
writes the instance files of the three perfbench workloads for each seed
(through ``perfbench.workloads.plan`` and ``generate``, with the working
tree's generators).  Every workload command then runs once under each
tree: one subprocess per tree imports that tree's ``msop`` and runs the
commands in process through ``msop.cli.run``.  Each ``--file`` adds the
commands ``solve``, ``solve --backward``, ``density``, ``check-ratio``,
``exact --mode chain`` and ``exact --mode density`` on that file.

Every command whose stdout (``wall_time_s`` lines aside), stderr or exit
code differs between the trees is printed with its differences, and the
script exits 1 if any differs, else 0.  Stdlib only.

    python scripts/report_diff.py HEAD~
    python scripts/report_diff.py HEAD~ --seeds 1 2 --file big-xsearch.txt
"""

import argparse
import difflib
import io
import json
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

FILE_COMMANDS = (("solve",), ("solve", "--backward"), ("density",), ("check-ratio",),
                 ("exact", "--mode", "chain"), ("exact", "--mode", "density"))
WALL_TIME = re.compile(r"^wall_time_s=.*$", re.MULTILINE)

# run in a subprocess per tree: argv lists on stdin, [exit code, stdout,
# stderr] per command on stdout, both as JSON
WORKER = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from msop import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"crash: {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def extract(rev, into):
    """``src/`` at ``rev`` under ``into``; returns the path of that ``src``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)
    return Path(into) / "src"


def start(src, commands):
    worker = subprocess.Popen([sys.executable, "-c", WORKER, str(src)], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
    worker.stdin.write(json.dumps(commands))
    worker.stdin.close()
    return worker


def finish(worker):
    results = json.loads(worker.stdout.read())
    if worker.wait():
        sys.exit(f"error: a worker exited with code {worker.returncode}")
    return results


def differences(old, new):
    """Lines describing how two [exit code, stdout, stderr] results differ."""
    lines = []
    if old[0] != new[0]:
        lines.append(f"  exit code: {old[0]!r} -> {new[0]!r}")
    for name, a, b in (("stdout", WALL_TIME.sub("wall_time_s=*", old[1]),
                        WALL_TIME.sub("wall_time_s=*", new[1])), ("stderr", old[2], new[2])):
        if a != b:
            diff = difflib.unified_diff(a.splitlines(), b.splitlines(), "REV", "working tree",
                                        lineterm="", n=0)
            lines.extend(f"  {name}: {line[:200]}" for line in diff)
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--file", action="append", default=[],
                        help="an instance file to run six more commands on (repeatable)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        groups = []  # (label, argv lists)
        for workload in workloads.PLANS:
            for seed in args.seeds:
                directory = Path(tmp, "files", workload, str(seed))
                ops, files = workloads.plan(workload, seed, str(directory))
                workloads.generate(files)
                groups.append((f"{workload} seed {seed}", [op.argv for op in ops]))
        for path in args.file:
            groups.append((path, [[command[0], path, *command[1:]] for command in FILE_COMMANDS]))
        commands = [argv for _, argv_lists in groups for argv in argv_lists]
        old_src = extract(args.rev, Path(tmp, "rev"))
        workers = [start(old_src, commands), start(ROOT / "src", commands)]
        old, new = (finish(worker) for worker in workers)

    results = iter(zip(old, new))
    differing = 0
    for label, argv_lists in groups:
        count = 0
        for argv, (was, now) in zip(argv_lists, results):
            lines = differences(was, now)
            if lines:
                count += 1
                print("msop " + " ".join(argv))
                print("\n".join(lines))
        print(f"{label}: {len(argv_lists)} commands, {count} differ")
        differing += count
    print(f"total: {len(commands)} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
