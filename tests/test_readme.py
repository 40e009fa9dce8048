"""Every ``critrank.…`` name, ``scripts/….py`` path and ``tests/….py::name``
test that the README cites exists, so that a rename or a deletion cannot
leave the README pointing at nothing; every command of its CLI block parses; its library
layout stays a short list of module contracts, and ``main`` pauses the
collector as the ``critrank.cli`` contract says; and neither it nor a library
docstring quotes a timing, whose home is CHANGES.md, the ``BENCH_*.json``
files and ``perfbench/README.md``."""

import ast
import gc
import importlib
import re
import shlex
from pathlib import Path

import critrank.cli
from critrank.cli import _build_parser, main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def resolve(dotted: str) -> object:
    """The object a dotted name denotes: the longest importable module
    prefix, then attributes down the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_cited_library_names_resolve():
    names = sorted(set(re.findall(r"\bcritrank(?:\.\w+)+", README)))
    assert len(names) >= 25
    missing = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def test_cited_scripts_exist():
    paths = sorted(set(re.findall(r"\bscripts/[\w/.-]+\.py\b", README)))
    assert len(paths) >= 2
    assert [p for p in paths if not (ROOT / p).is_file()] == []


def test_cited_tests_exist():
    cited = sorted(set(re.findall(r"\b(tests/\w+\.py)::(\w+)", README)))
    assert len(cited) >= 2
    missing = []
    for path, name in cited:
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        if name not in {node.name for node in tree.body if isinstance(
                node, (ast.ClassDef, ast.FunctionDef))}:
            missing.append(f"{path}::{name}")
    assert missing == []


def test_library_layout_fits_in_60_lines():
    section = README.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    assert len(section.strip().splitlines()) <= 60


# a number of seconds, milliseconds or microseconds, or a percentage
TIMING = re.compile(r"\d\s*(?:ms|µs|us|s)\b|\d\s*%")


def test_quotes_no_timing():
    found = [(lineno, m.group()) for lineno, line in enumerate(README.splitlines(), 1)
             for m in TIMING.finditer(line)]
    assert found == []


def test_library_docstrings_quote_no_timing():
    found = []
    for path in sorted((ROOT / "src" / "critrank").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                found += [(path.name, m.group()) for m in TIMING.finditer(doc)]
    assert found == []


def test_cli_block_commands_parse():
    block = README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("critrank ")]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        # a usage error raises instead of exiting
        assert parser.parse_args(argv[1:]).command == argv[1]


def test_the_paused_collector_is_as_the_cli_contract_says(monkeypatch):
    section = " ".join(README.split("\n- `critrank.cli`.", 1)[1].split("\n\n", 1)[0].split())
    assert ("pauses the cyclic garbage collector while the command runs: "
            "no command leaves a reference cycle") in section
    seen = []
    monkeypatch.setitem(critrank.cli._DISPATCH, "demo",
                        lambda args: seen.append(gc.isenabled()) or 0)
    assert main(["demo"]) == 0
    assert seen == [False]
    assert gc.isenabled()
