"""Every name a module imports, and every private name it defines, is used
in that module.

The project ships no linter, so this reads each module of the library, the
tests and the scripts with the standard library's ``ast``.  An imported
name counts as used when it appears as a name anywhere in the module,
including as the root of an attribute chain (``import a.b`` binds ``a``).
A private name (``_x``, dunders excluded) that a module defines at its top
level must be read somewhere in it, so a helper or constant left behind by
a refactor is caught.  The frozen benchmark under ``perfbench/`` is left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for pattern in ("src/critrank/*.py", "tests/*.py", "scripts/*.py")
    for path in ROOT.glob(pattern))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    defined: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(n.id for target in targets for n in ast.walk(target)
                           if isinstance(n, ast.Name))
    private = {name for name in defined if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


def test_finds_the_modules():
    assert "src/critrank/model.py" in MODULES
    assert "tests/test_imports.py" in MODULES
    assert "scripts/axiom_matrix.py" in MODULES


def test_flags_only_names_never_read():
    source = ("import os.path\nimport sys as system\n"
              "from random import Random, shuffle\n"
              "os.path.join(Random())\n")
    assert unused_imports(source) == ["shuffle", "system"]


def test_flags_only_private_names_never_read():
    source = ("__version__ = '1'\nPUBLIC = 1\n_KEPT = 2\n_LEFT, _PAIR = 3, 4\n"
              "def _helper():\n    return _KEPT\n"
              "def _unused():\n    _local = 5\n"
              "class _Gone:\n    pass\n"
              "_helper()\n")
    assert unread_private_names(source) == ["_Gone", "_LEFT", "_PAIR", "_unused"]


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    assert unread_private_names((ROOT / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((ROOT / module).read_text(encoding="utf-8")) == []
