"""Print one sha256 over the output of a fixed set of CLI runs.

The runs are ``check`` for every rule and axiom at 4, 5 and 12
alternatives, seeds 0 and 1, ``--trials 60``, then ``selftest --trials 40``
and ``demo``, each in both output formats.  For every run, in that order,
the digest takes its exit code and its stdout.  Two checkouts whose CLI
output is byte-identical on these runs print the same digest, so comparing
the line printed by a change with the one printed by its parent shows
whether the change moved any output.  Takes no arguments; run it from any
directory:

    python3 scripts/output_digest.py
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

# the package source beside this script, whatever the working directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from critrank.aggregators import AXIOM_KINDS, RULES
from critrank.cli import main

FORMATS = ("text", "lines")


def runs() -> list[list[str]]:
    """The argv of every run, in digest order."""
    out = []
    for rule in RULES:
        for kind in AXIOM_KINDS:
            for n in (4, 5, 12):
                for seed in (0, 1):
                    for fmt in FORMATS:
                        out.append(["check", "--rule", rule, "--axiom", kind,
                                    "--alternatives", str(n), "--seed", str(seed),
                                    "--trials", "60", "--format", fmt])
    for fmt in FORMATS:
        out.append(["selftest", "--trials", "40", "--format", fmt])
    for fmt in FORMATS:
        out.append(["demo", "--format", fmt])
    return out


def digest(argvs: list[list[str]]) -> str:
    """sha256 over each run's exit code and stdout, both length-framed."""
    h = hashlib.sha256()
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out = buf.getvalue().encode()
        h.update(f"{code} {len(out)}\n".encode() + out)
    return h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python3 scripts/output_digest.py (takes no arguments)")
    print(digest(runs()))
