"""The ranking commands never load the axiom suite or the oracle, and no
command loads ``dataclasses`` or ``inspect``.

``critrank.cli`` imports ``sweep_axiom`` inside ``check`` and
``differential_sweep`` inside ``selftest``, so a one-shot ``rank``,
``induce``, ``choose`` or ``demo`` skips compiling and running
``critrank.axioms`` and ``critrank.oracle``.  The oracle draws its random
states from ``critrank.model``, so ``selftest`` alone leaves the axiom suite
unloaded.  The records are hand-written (``critrank.model._Record``), so no
start pays for ``dataclasses`` and the ``inspect`` it imports.  Each check runs in a fresh interpreter, since this
test process has long since loaded all of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import critrank
from critrank.cli import DEMO_PROFILE_TEXT, DEMO_TABLE_TEXT

# Prepended to every script: which of the WATCH modules are loaded, or "-".
# A script may rebind WATCH before it calls loaded().
LOADED = """
import sys

WATCH = ("critrank.axioms", "critrank.oracle")

def loaded():
    return ",".join(m for m in WATCH if m in sys.modules) or "-"
"""


def fresh_python(code: str, *args: str) -> list[str]:
    """Output lines of ``code`` run by a new interpreter that finds this
    checkout's package first."""
    src = str(Path(critrank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", LOADED + code, *args],
                          capture_output=True, text=True, env=env, check=True)
    return done.stdout.splitlines()


COMMANDS = """
import contextlib, io
import critrank.cli

print("import", loaded())
table, profile, opinions = sys.argv[1:]
pair = ["--table", table, "--profile", profile]
for argv in (["demo"], ["rank", "--rule", "iis", "--opinions", opinions],
             ["rank", "--rule", "lexcel", *pair], ["induce", *pair],
             ["choose", "--method", "n1", *pair],
             ["check", "--axiom", "nt", "--trials", "20"],
             ["selftest", "--trials", "5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = critrank.cli.main(argv)
    print(argv[0], code, loaded())
"""


def command_files(tmp_path) -> list[str]:
    """Paths of the demo table, the demo profile and a small opinion file."""
    paths = [tmp_path / name for name in ("t.txt", "p.txt", "o.txt")]
    texts = (DEMO_TABLE_TEXT, DEMO_PROFILE_TEXT,
             "alternatives: a b c\nopinion {a,b} >= {c} : 2\n")
    for path, text in zip(paths, texts):
        path.write_text(text)
    return [str(path) for path in paths]


def test_only_check_and_selftest_load_axioms_and_oracle(tmp_path):
    assert fresh_python(COMMANDS, *command_files(tmp_path)) == [
        "import -",
        "demo 0 -",
        "rank 0 -",
        "rank 0 -",
        "induce 0 -",
        "choose 0 -",
        "check 0 critrank.axioms",
        "selftest 0 critrank.axioms,critrank.oracle",
    ]


def test_selftest_alone_leaves_the_axiom_suite_unloaded():
    lines = fresh_python("""
import contextlib, io
import critrank.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = critrank.cli.main(["selftest", "--trials", "5"])
print(code, loaded())
""")
    assert lines == ["0 critrank.oracle"]


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    code = 'WATCH = ("dataclasses", "inspect")\nprint("start", loaded())\n' + COMMANDS
    assert fresh_python(code, *command_files(tmp_path)) == [
        "start -",
        "import -",
        "demo 0 -",
        "rank 0 -",
        "rank 0 -",
        "induce 0 -",
        "choose 0 -",
        "check 0 -",
        "selftest 0 -",
    ]


def test_package_loads_axioms_and_oracle_on_first_access():
    lines = fresh_python("""
import critrank

print(loaded())
print(critrank.axioms.__name__, loaded())
print(critrank.oracle.__name__, loaded())
try:
    critrank.nope
except AttributeError as exc:
    print(exc)
""")
    assert lines == [
        "-",
        "critrank.axioms critrank.axioms",
        "critrank.oracle critrank.axioms,critrank.oracle",
        "module 'critrank' has no attribute 'nope'",
    ]
