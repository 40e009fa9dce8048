"""A seeded mutational fuzz of the CLI's readers: malformed input gives exit
1 or 2 and a one-line message, never a traceback.

Each case edits the demo's criterion table, its profile or the opinion file
that ``induce`` writes for them: it inserts, deletes or duplicates a span,
swaps two lines, splices in a token of the formats or flips a bit, so that
some files are not UTF-8.  The edited file goes through one command that
reads it, ``rank --opinions`` with each rule, ``rank --table/--profile``,
``choose`` with both methods or ``induce``, in both formats.  A case passes
when ``main`` returns 0, 1 or 2 and raises nothing; on 1 or 2 stdout is
empty and stderr is one line with the CLI's error prefix; and on 0 from
``rank --opinions`` the state read, written by ``format_opinion_state`` and
read back, is the same state.

Run as a script for a larger budget; it prints each failing case in full::

    PYTHONPATH=src python tests/test_fuzz.py --cases 20000 --seed 1
"""

import argparse
import contextlib
import io
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from random import Random

from critrank.aggregators import RULES, induce_opinion
from critrank.cli import (
    DEMO_PROFILE_TEXT,
    DEMO_TABLE_TEXT,
    _read,
    format_opinion_state,
    main,
    parse_criterion_table,
    parse_opinion_state,
    parse_profile,
)

_TABLE = parse_criterion_table(DEMO_TABLE_TEXT)
SEEDS = {
    "table": DEMO_TABLE_TEXT,
    "profile": DEMO_PROFILE_TEXT,
    "opinions": format_opinion_state(
        _TABLE.alternatives, induce_opinion(_TABLE, parse_profile(DEMO_PROFILE_TEXT, _TABLE))),
}
TOKENS = tuple(token.encode() for token in (
    "{", "}", ">=", ">", ":", ",", "#", " ", "\n", "opinion", "alternatives",
    "criterion", "voter", "Borda", "a", "1" * 25, "\r", "\0", "\ufeff"))
PREFIXES = ("error: ", "invalid input: ", "usage error: ")


def _commands(kind: str) -> list[list[str]]:
    """The argvs that read an edited file of ``kind``; ``{}`` marks its path
    and ``T``/``P`` the clean table and profile."""
    if kind == "opinions":
        return [["rank", "--rule", rule, "--opinions", "{}"] for rule in RULES]
    table, profile = ("{}", "P") if kind == "table" else ("T", "{}")
    pair = ["--table", table, "--profile", profile]
    return ([["rank", "--rule", rule, *pair] for rule in RULES]
            + [["choose", *pair, "--method", method] for method in ("n1", "n2")]
            + [["induce", *pair]])


def mutate(rng: Random, data: bytes) -> bytes:
    """One to three random edits of ``data``."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(6)
        i = rng.randint(0, len(out))
        j = min(len(out), i + rng.randint(0, 12))
        if edit == 0:  # insert a span copied from elsewhere
            k = rng.randint(0, len(out))
            out[k:k] = out[i:j]
        elif edit == 1:  # delete a span
            del out[i:j]
        elif edit == 2:  # duplicate a span in place
            out[j:j] = out[i:j]
        elif edit == 3:  # swap two lines
            lines = out.split(b"\n")
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            out = bytearray(b"\n".join(lines))
        elif edit == 4:  # splice in a token of the formats
            out[i:i] = rng.choice(TOKENS)
        elif out:  # flip one bit
            k = rng.randrange(len(out))
            out[k] ^= 1 << rng.randrange(8)
    return bytes(out)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _fault(argv: list[str], path: str, status: int, out: str, err: str) -> str | None:
    """What is wrong with one run's outcome, or None."""
    if status not in (0, 1, 2):
        return f"exit {status}"
    if status:
        if out:
            return f"exit {status} with stdout {out!r}"
        if not (err.endswith("\n") and err.count("\n") == 1 and err.startswith(PREFIXES)):
            return f"exit {status} with stderr {err!r}"
    elif "--opinions" in argv:
        names, state = parse_opinion_state(_read(path))
        again = parse_opinion_state(format_opinion_state(names, state))
        if again != (names, state):
            return f"state {state.counts} read back as {again[1].counts}"
    return None


def fuzz(seed: int, cases: int, workdir: Path) -> tuple[list[str], Counter]:
    """Run ``cases`` edited files; returns a report of each failing case and
    the count of each (kind of file, exit code)."""
    rng = Random(seed)
    paths = {"T": workdir / "table.txt", "P": workdir / "profile.txt",
             "{}": workdir / "edited.txt"}
    paths["T"].write_text(SEEDS["table"], encoding="utf-8")
    paths["P"].write_text(SEEDS["profile"], encoding="utf-8")
    kinds = tuple(SEEDS)
    commands = {kind: _commands(kind) for kind in kinds}
    failures, outcomes = [], Counter()
    for case in range(cases):
        kind = kinds[case % len(kinds)]
        data = mutate(rng, SEEDS[kind].encode())
        paths["{}"].write_bytes(data)
        argv = [str(paths[arg]) if arg in paths else arg for arg in rng.choice(commands[kind])]
        argv += ["--format", rng.choice(("text", "lines"))]
        try:
            status, out, err = _run(argv)
            outcomes[kind, status] += 1
            fault = _fault(argv, str(paths["{}"]), status, out, err)
        except Exception:  # any escape is the finding
            fault = traceback.format_exc()
        if fault:
            failures.append(f"case {case}: critrank {' '.join(argv)}\n"
                            f"input ({kind}): {data!r}\n{fault}")
    return failures, outcomes


def test_malformed_input_never_raises(tmp_path):
    failures, outcomes = fuzz(seed=0, cases=2000, workdir=tmp_path)
    assert failures == [], "\n\n".join(failures[:5])
    # the edits reach every exit code from every kind of file
    assert set(outcomes) == {(kind, status) for kind in SEEDS for status in (0, 1, 2)}


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--cases", type=int, default=20000)
    cli.add_argument("--seed", type=int, default=1)
    args = cli.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        found, _ = fuzz(args.seed, args.cases, Path(tmp))
    print("\n\n".join(found))
    print(f"{len(found)} of {args.cases} cases failed")
    sys.exit(1 if found else 0)
