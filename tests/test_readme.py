"""README.md names library code as ``module.name`` (``lattice.RunningOracle``,
``msop.cli.run``, ``lattice.modular(ground, values)``); each such name must
still resolve, so a rename cannot leave the README stale."""

import importlib
import re
from pathlib import Path

import msop

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(p.stem for p in Path(msop.__file__).parent.glob("*.py") if p.stem[0] != "_")
# a backticked dotted name under an msop module, optionally called
NAME = re.compile(r"`(?:msop\.)?((?:%s)(?:\.\w+)+)(?:\([^`]*\))?`" % "|".join(MODULES))


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"msop.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_resolve():
    names = set(NAME.findall(README.read_text(encoding="utf-8")))
    assert len(names) >= 18, sorted(names)
    assert [name for name in sorted(names) if not _resolves(name)] == []
