"""Every ``critrank.…`` name and every ``scripts/….py`` path that the
README cites exists, so that a rename or a deletion cannot leave the README
pointing at nothing."""

import importlib
import re
from pathlib import Path

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
    assert len(names) >= 9
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
