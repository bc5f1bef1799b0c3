"""The library's public names are the ones its own code reads.

A top-level public function, class or constant of ``src/msop`` that no
library module reads is API that no command reaches; test-only references
live in ``tests/helpers.py`` instead.  The same holds for the public
methods, properties and fields of the library's classes.
"""

import ast
from pathlib import Path

import msop

PACKAGE = Path(msop.__file__).resolve().parent

# read by no library code yet: the hypotheses check that reports will run
# above the exhaustive caps (ROADMAP, "Hypotheses verified over the lattice")
WITHOUT_READER = {("core", "spot_check_hypotheses")}
# class members that no library code reads, each kept for a reader outside it
MEMBERS_WITHOUT_READER = {
    # perfbench's traced spans record each greedy chain's step count
    ("core", "Chain.steps"),
    # argparse calls it on a bad command line, to exit 1 where it would exit 2
    ("cli", "_Parser.error"),
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defined(statement: ast.stmt) -> list[str]:
    """The public names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [node.id for target in statement.targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def _reads(name: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs that module ``name`` reads, each one outside
    the top-level definition of the name it reads: bare names of its own
    definitions, names imported from an msop module, and ``module.name``
    on an msop module it imported.  The package imports its own modules
    relatively, so only relative imports are read."""
    aliases = {}  # local name -> msop module, from ``from . import module``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            aliases.update((a.asname or a.name, a.name) for a in node.names)
    own = {defined for statement in tree.body for defined in _defined(statement)}
    found = set()
    for statement in tree.body:
        inside = set(_defined(statement))
        for node in ast.walk(statement):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in own and node.id not in inside):
                found.add((name, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update((node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                found.add((aliases[node.value.id], node.attr))
    return found


def test_every_public_library_name_has_a_library_reader():
    modules = _modules()
    defined = {(name, public) for name, tree in modules.items()
               for statement in tree.body for public in _defined(statement)}
    read = set().union(*(_reads(name, tree) for name, tree in modules.items()
                         if name != "__init__"))
    unread = sorted(f"{module}.{name}" for module, name in defined - read - WITHOUT_READER)
    assert not unread, f"public names that no library module reads: {', '.join(unread)}"



def test_every_public_class_member_has_a_library_reader():
    # a member is read by any ``x.member`` outside its own definition: the
    # receiver's class is not resolved, so a shared name counts for both
    modules = _modules()
    reads = {}  # attribute name -> ids of the nodes that read it
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if name != "__init__" and isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(id(node))
    unread = []
    for module, tree in modules.items():
        for cls in (statement for statement in tree.body if isinstance(statement, ast.ClassDef)):
            for statement in cls.body:
                inside = set(map(id, ast.walk(statement)))
                unread += [f"{module}.{cls.name}.{member}" for member in _defined(statement)
                           if not reads.get(member, inside) - inside
                           and (module, f"{cls.name}.{member}") not in MEMBERS_WITHOUT_READER]
    assert not unread, f"class members that no library code reads: {', '.join(unread)}"
