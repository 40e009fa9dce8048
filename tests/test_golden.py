"""Byte-for-byte CLI output on the worked example, against files in golden/.

Each case runs ``critrank.cli.main`` on the demo criterion table and
profile, or on the opinion file that ``induce`` writes from them, and
compares standard output with ``golden/<case>.txt``.  ``check`` is left
out of these cases: its batches may change on purpose, and the axiom tests
cover them.

After an intended output change, rewrite the expected files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.

``golden/digest_runs.txt`` pins the exit code, stdout and stderr of every
run of ``scripts/output_digest.py``, ``check`` included, each by its
sha256; ``python3 scripts/output_digest.py --write`` rewrites it.  The
test that reruns them computes each ``check`` sweep once and serves both of
its runs, text and lines, from that one result.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from critrank import axioms
from critrank.aggregators import RULES
from critrank.cli import DEMO_PROFILE_TEXT, DEMO_TABLE_TEXT, main

GOLDEN = Path(__file__).parent / "golden"

# case name -> argv, with {table}, {profile} and {opinions} standing for files
CASES: dict[str, list[str]] = {
    "demo-text": ["demo"],
    "demo-lines": ["demo", "--format", "lines"],
    "induce-text": ["induce", "--table", "{table}", "--profile", "{profile}"],
    "induce-lines": ["induce", "--table", "{table}", "--profile", "{profile}",
                     "--format", "lines"],
    **{f"rank-{rule}-table": ["rank", "--rule", rule, "--table", "{table}",
                              "--profile", "{profile}", "--format", "lines"]
       for rule in RULES},
    **{f"rank-{rule}-opinions": ["rank", "--rule", rule, "--opinions", "{opinions}",
                                 "--format", "lines"]
       for rule in RULES},
    **{f"choose-{method}-{fmt}": ["choose", "--table", "{table}", "--profile", "{profile}",
                                  "--method", method, "--format", fmt]
       for method in ("n1", "n2") for fmt in ("text", "lines")},
    "selftest-text": ["selftest", "--trials", "20"],
    "selftest-lines": ["selftest", "--trials", "20", "--format", "lines"],
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def write_inputs(directory: Path) -> dict[str, str]:
    """The demo table, profile and induced opinion file, as paths by role."""
    paths = {role: str(directory / f"demo.{role}") for role in ("table", "profile", "opinions")}
    Path(paths["table"]).write_text(DEMO_TABLE_TEXT, encoding="utf-8")
    Path(paths["profile"]).write_text(DEMO_PROFILE_TEXT, encoding="utf-8")
    code, induced = _run([arg.format(**paths) for arg in CASES["induce-text"]])
    assert code == 0
    Path(paths["opinions"]).write_text(induced, encoding="utf-8")
    return paths


def run_case(name: str, paths: dict[str, str]) -> str:
    code, out = _run([arg.format(**paths) for arg in CASES[name]])
    assert code == 0, f"{name} exited with {code}"
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_golden_file(name, inputs):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name, inputs) == expected


def test_every_golden_file_has_a_case():
    # besides the cases, only the digest runs' pin file
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted([*CASES, "digest_runs"])


def test_every_digest_run_gives_its_pinned_output(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", script)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    pinned = digest.PIN_FILE.read_text(encoding="utf-8").splitlines()
    argvs = digest.runs(str(tmp_path))

    # every check run still goes through cli.main, but the text and lines
    # runs of one sweep share its result: it is computed once, not twice
    sweep = axioms.sweep_axiom
    results: dict[tuple, object] = {}
    served: list[tuple] = []

    def memoized(*key):
        served.append(key)
        if key not in results:
            results[key] = sweep(*key)
        return results[key]

    monkeypatch.setattr(axioms, "sweep_axiom", memoized)
    lines = digest.pin_lines(argvs, str(tmp_path))
    moved = next((new.rpartition(" ")[0] for new, old in zip(lines, pinned) if new != old),
                 None)
    assert moved is None, f"first run whose output moved: {moved}"
    assert len(lines) == len(pinned)

    # each key served exactly its own text run and its lines run
    checks = [dict(zip(argv[1::2], argv[2::2])) for argv in argvs if argv[0] == "check"]
    assert served == [(RULES[a["--rule"]], a["--axiom"], int(a["--alternatives"]),
                       int(a["--seed"]), int(a["--trials"])) for a in checks]
    formats: dict[tuple, list[str]] = {}
    for key, a in zip(served, checks):
        formats.setdefault(key, []).append(a["--format"])
    assert all(sorted(fmts) == ["lines", "text"] for fmts in formats.values())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for case in CASES:
            (GOLDEN / f"{case}.txt").write_text(run_case(case, paths), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
