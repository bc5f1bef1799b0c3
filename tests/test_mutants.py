"""scripts/mutants.py: every catalogue entry still names one exact text and
an existing test.  Running the mutants themselves is the script's job."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_script().MUTANTS


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_text_occurs_once_and_names_an_existing_test(mutant):
    text = (ROOT / mutant.file).read_text()
    found = text.count(mutant.old)
    assert found == 1, f"{mutant.name}: old text occurs {found} times in {mutant.file}"
    assert mutant.new != mutant.old
    path, _, node = mutant.test.partition("::")
    function = re.match(r"\w+", node).group()
    assert re.search(rf"^def {function}\(", (ROOT / path).read_text(), re.MULTILINE), (
        f"{mutant.name}: no test {function} in {path}")
