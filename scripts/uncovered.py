"""Print the function-body statements of ``src/critrank`` that tier-1 never runs.

Runs the tier-1 suite (``python -m pytest -q --continue-on-collection-errors``
from the repository root) in a subprocess under a ``sys.settrace`` line
tracer that follows only frames whose code lies in ``src/critrank``; code
that the tests run in further subprocesses is not seen.  Then prints
``file:line statement`` for each statement in a function body that never
ran, docstrings excluded, and last the count.  A compound statement
(``if``, ``for``, ``try`` and so on) counts as run when a line of its header
or any statement inside it ran; the body of a nested ``def`` is judged as a
function of its own.  Exits 1 when it lists any statement or when the
traced suite failed, else 0, so a run can gate on it.  Needs only the
standard library and pytest (Python 3.11 has no ``sys.monitoring``); the
traced suite runs a few times slower than plain tier-1.  Arguments go to
pytest, for example a test file to narrow the run:

    python3 scripts/uncovered.py
    python3 scripts/uncovered.py tests/test_model.py
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "critrank"

# run in the child: trace the package's frames line by line through pytest,
# then write the (file, line) pairs that ran
_CHILD = r"""
import json, sys, threading
package, out = sys.argv[1], sys.argv[2]
hits = set()

def lines(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return lines

def calls(frame, event, arg):
    return lines if frame.f_code.co_filename.startswith(package) else None

threading.settrace(calls)
sys.settrace(calls)
import pytest
try:
    status = pytest.main(sys.argv[3:])
finally:
    sys.settrace(None)
    with open(out, "w") as f:
        json.dump(sorted(hits), f)
sys.exit(status)
"""

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _FUNCTIONS + (ast.ClassDef,)


def _blocks(node: ast.AST):
    """The statement lists directly inside a compound statement."""
    if isinstance(node, _SCOPES):
        return
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, [])
    for part in getattr(node, "handlers", []) + getattr(node, "cases", []):
        yield part.body


def _header(node: ast.stmt) -> range:
    """The lines of a statement that run before any statement inside it:
    all of a simple statement, the header of a compound one."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    if isinstance(node, _SCOPES):
        inner = [node.body[0].lineno]
    else:
        inner = [block[0].lineno for block in _blocks(node) if block]
    if not inner:
        return range(first, node.end_lineno + 1)
    return range(first, max(min(inner), node.lineno + 1))


def _unrun(body: list[ast.stmt], hit: set[int], out: list[ast.stmt]) -> bool:
    """Add the statements of ``body`` that never ran to ``out``; whether
    any of them ran."""
    ran_any = False
    for node in body:
        ran = any(line in hit for line in _header(node))
        for block in _blocks(node):
            ran |= _unrun(block, hit, out)
        if not ran:
            out.append(node)
        ran_any |= ran
    return ran_any


def uncovered(source: str, hit: set[int]) -> list[ast.stmt]:
    """The function-body statements of a module that never ran, by line."""
    out: list[ast.stmt] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _FUNCTIONS):
            body = node.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            _unrun(body, hit, out)
    return sorted(out, key=lambda node: node.lineno)


def main(argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "hits.json"
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, str(PACKAGE) + os.sep, str(out),
             "-q", "--continue-on-collection-errors", *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        hits = json.loads(out.read_text())
    if done.returncode:
        print(f"note: the traced suite exited {done.returncode}", file=sys.stderr)
    by_file: dict[str, set[int]] = {}
    for filename, line in hits:
        by_file.setdefault(filename, set()).add(line)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in uncovered(source, by_file.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{node.lineno} {lines[node.lineno - 1].strip()}")
            count += 1
    print(f"{count} function-body statements never ran")
    return 1 if count or done.returncode else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
