"""Every name a module imports is used in that module.

The project ships no linter, so this reads each module of the library, the
tests and the scripts with the standard library's ``ast``.  An imported
name counts as used when it appears as a name anywhere in the module,
including as the root of an attribute chain (``import a.b`` binds ``a``).
The frozen benchmark under ``perfbench/`` is left out.
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


def test_finds_the_modules():
    assert "src/critrank/model.py" in MODULES
    assert "tests/test_imports.py" in MODULES
    assert "scripts/axiom_matrix.py" in MODULES


def test_flags_only_names_never_read():
    source = ("import os.path\nimport sys as system\n"
              "from random import Random, shuffle\n"
              "os.path.join(Random())\n")
    assert unused_imports(source) == ["shuffle", "system"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((ROOT / module).read_text(encoding="utf-8")) == []
