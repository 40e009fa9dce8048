"""``QuotientOrder`` checks nothing, so the library builds one only where its
classes are known valid: nonempty, pairwise disjoint masks of the universe.

This reads each module of the library with the standard library's ``ast``
and lists every call of ``QuotientOrder`` with the qualified name of the
function that makes it.  A new construction site joins ``ALLOWED`` with the
reason its classes are valid.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (module, enclosing function) -> why the classes it passes are valid
ALLOWED = {
    ("src/critrank/model.py", "OpinionState.quotient"):
        "the score groups of a valid state's support map",
    ("src/critrank/model.py", "OpinionState._from_classes"):
        "the class list the state realizes: the axiom generators' nonempty, "
        "disjoint masks of the universe",
}


def quotient_calls(source: str) -> list[str]:
    """The qualified name of the function around each ``QuotientOrder(...)``
    or ``<module>.QuotientOrder(...)`` call, in source order; ``<module>``
    for a call outside any function."""
    found = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "QuotientOrder":
                    found.append(".".join(scope) or "<module>")
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_finds_calls_and_their_scopes():
    source = ("import critrank.model as m\n"
              "q = QuotientOrder(3, ())\n"
              "class A:\n    def f(self):\n        return m.QuotientOrder(3, ())\n"
              "def g():\n    def h():\n        return QuotientOrder\n"
              "    return [QuotientOrder(1, ()) for _ in ()]\n")
    assert quotient_calls(source) == ["<module>", "A.f", "g"]


def test_quotients_are_built_only_where_their_classes_are_valid():
    sites = {(path.relative_to(ROOT).as_posix(), scope)
             for path in sorted(ROOT.glob("src/critrank/*.py"))
             for scope in quotient_calls(path.read_text(encoding="utf-8"))}
    assert sites == ALLOWED.keys()
