"""Print one sha256 over the output of a fixed set of CLI runs.

The runs are ``check`` for every rule and axiom at 4, 5 and 12
alternatives, seeds 0 and 1, ``--trials 60``, then ``selftest --trials 40``
and ``demo``.  Then, on one seeded random criterion table and profile per
voter count (1, 127, 128, 255 and 256 voters, written to a temporary
directory), ``rank --table/--profile`` for every rule, ``induce`` and
``choose --method n1`` and ``n2``.  The profiles separate criteria with
``" > "``, ``">"`` and padded ``">"`` in turn, so the profile reader
reads both shapes.  Then ``rank --rule iis``, ``induce`` and
``choose --method n1`` on five faulty copies of a seeded 40-voter profile:
a repeated voter, an unknown criterion, an omitted criterion, a malformed
order, and a line that is not a voter line after 36 clean ones.  Then
``rank --opinions`` for every rule on two seeded 64-alternative opinion
files: one with 5,000 one-member support classes ranked by mask, and one
with 2,400 subsets in 8 support classes whose subsets contain nested
cores.  Last, ``rank --rule iis`` on six opinion files past the universe
bounds: 65 names, an empty header before an opinion line, and an empty
header alone, each in the machine-written shape (the ``-bulk`` files) and,
with one subset padded or the header indented, in a padded shape (the
``-lines`` files).  Every run is made in both output formats.  For every
run, in that order, the digest takes its exit code, its stdout and its
stderr, so the faulty profiles and the opinion files past the bounds pin
each error message and its line number.  Two checkouts whose CLI output is
byte-identical on these runs print the same digest, so comparing the line
printed by a change with the one printed by its parent shows whether the
change moved any output.

``tests/golden/digest_runs.txt`` pins every run on its own: one line per
run, its argv with the input directory written as ``{work}``, then the
sha256 of its exit code, stdout and stderr.  ``tests/test_golden.py``
reruns them and names the first run whose output moved.  After an
intended output change, ``--write`` rewrites that file; either way the
script prints the digest.  Run it from any directory:

    python3 scripts/output_digest.py [--write]
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from random import Random

# the package source beside this script, whatever the working directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from critrank.aggregators import AXIOM_KINDS, RULES
from critrank.cli import main

PIN_FILE = Path(__file__).resolve().parent.parent / "tests" / "golden" / "digest_runs.txt"
FORMATS = ("text", "lines")
VOTER_COUNTS = (1, 127, 128, 255, 256)
SEPARATORS = (" > ", ">", "  >\t")


def table_and_profile(rng: Random, n_voters: int) -> tuple[str, str]:
    """Texts of a random table (5 to 8 alternatives, 3 to 7 criteria with
    distinct satisfier sets) and of ``n_voters`` random orders of it."""
    names = [f"x{i}" for i in range(rng.randint(5, 8))]
    criteria = [f"c{j + 1}" for j in range(rng.randint(3, 7))]
    masks: list[int] = []
    while len(masks) < len(criteria):
        mask = rng.getrandbits(len(names))
        if mask and mask not in masks:
            masks.append(mask)
    table = ["alternatives: " + " ".join(names)]
    table += [f"criterion {c}: " + " ".join(x for i, x in enumerate(names) if m >> i & 1)
              for c, m in zip(criteria, masks)]
    profile = []
    for v in range(n_voters):
        order = criteria[:]
        rng.shuffle(order)
        profile.append(f"voter v{v + 1}: " + SEPARATORS[v % len(SEPARATORS)].join(order))
    return "\n".join(table) + "\n", "\n".join(profile) + "\n"


def faulty_profiles(profile: str) -> dict[str, str]:
    """Copies of a clean profile of at least 37 voter lines, each with one
    fault, by name."""
    lines = profile.splitlines()

    def edited(lineno: int, line: str) -> str:
        return "\n".join(lines[:lineno - 1] + [line] + lines[lineno:]) + "\n"

    return {
        "repeated-voter": edited(6, "voter v1:" + lines[5].partition(":")[2]),
        "unknown-criterion": edited(2, lines[1] + " > zz"),
        "omitted-criterion": edited(3, lines[2].rpartition(">")[0]),
        "malformed-order": edited(4, lines[3].replace(">", "> >", 1)),
        "later-line": edited(37, "ballot" + lines[36].removeprefix("voter")),
    }


def opinion_file(rng: Random, classes: int, per_class: int) -> str:
    """Text of a random 64-alternative opinion file: ``classes`` support
    values, each held by ``per_class`` distinct masks.  Class k's masks
    contain the k-th of a chain of nested cores, so the running intersection
    survives several classes.  One-member classes get a core of 0 and are
    ranked by mask, largest strongest, so the top classes share high bits
    and keep some alternatives tied for many classes."""
    names = [f"x{i}" for i in range(64)]
    core = (1 << 64) - 1
    support: dict[int, int] = {}
    for value in range(classes, 0, -1):
        core &= (rng.getrandbits(64) | rng.getrandbits(64)) if per_class > 1 else 0
        placed = 0
        while placed < per_class:
            mask = rng.getrandbits(64) | core
            if mask and mask not in support:
                support[mask] = value
                placed += 1
    if per_class == 1:
        support = {mask: value for value, mask in enumerate(sorted(support), 1)}
    lines = ["alternatives: " + " ".join(names)]
    for mask, value in support.items():
        members = ",".join(names[i] for i in range(64) if mask >> i & 1)
        lines.append(f"opinion {{{members}}} >= {{{names[mask % 64]}}} : {value}")
    return "\n".join(lines) + "\n"


def out_of_bounds_files() -> dict[str, str]:
    """Opinion files whose universe is out of bounds or empty, by name: each
    in the shape format_opinion_state writes (``-bulk``), then padded
    (``-lines``); the names are kept, as the pinned runs cite them."""
    many = " ".join(f"x{i}" for i in range(65))
    return {
        "65-names-bulk": f"alternatives: {many}\nopinion {{x0}} >= {{x0}} : 1\n",
        "65-names-lines": f"alternatives: {many}\nopinion {{ x0 }} >= {{x0}} : 1\n",
        "empty-header-bulk": "alternatives:\nopinion {x0} >= {x0} : 1\n",
        "empty-header-lines": "alternatives:\nopinion { x0 } >= {x0} : 1\n",
        "header-alone-bulk": "alternatives:\n",
        "header-alone-lines": "  alternatives:  \n",
    }


def runs(workdir: str) -> list[list[str]]:
    """The argv of every run, in digest order; writes the table and profile
    files the runs read into ``workdir``."""
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
    for n_voters in VOTER_COUNTS:
        table, profile = table_and_profile(Random(f"digest/{n_voters}"), n_voters)
        tpath = Path(workdir, f"table-{n_voters}.txt")
        ppath = Path(workdir, f"profile-{n_voters}.txt")
        tpath.write_text(table)
        ppath.write_text(profile)
        files = ["--table", str(tpath), "--profile", str(ppath)]
        commands = [["rank", *files, "--rule", rule] for rule in RULES]
        commands.append(["induce", *files])
        commands += [["choose", *files, "--method", method] for method in ("n1", "n2")]
        for command in commands:
            for fmt in FORMATS:
                out.append([*command, "--format", fmt])
    table, profile = table_and_profile(Random("digest/faults"), 40)
    tpath = Path(workdir, "table-faults.txt")
    tpath.write_text(table)
    for fault, text in faulty_profiles(profile).items():
        ppath = Path(workdir, f"profile-{fault}.txt")
        ppath.write_text(text)
        files = ["--table", str(tpath), "--profile", str(ppath)]
        for command in (["rank", *files, "--rule", "iis"], ["induce", *files],
                        ["choose", *files, "--method", "n1"]):
            for fmt in FORMATS:
                out.append([*command, "--format", fmt])
    for shape, (classes, per_class) in {"wide": (5000, 1), "tied": (8, 300)}.items():
        path = Path(workdir, f"opinions-{shape}.txt")
        path.write_text(opinion_file(Random(f"digest/{shape}"), classes, per_class))
        for rule in RULES:
            for fmt in FORMATS:
                out.append(["rank", "--opinions", str(path), "--rule", rule, "--format", fmt])
    for name, text in out_of_bounds_files().items():
        path = Path(workdir, f"opinions-{name}.txt")
        path.write_text(text)
        for fmt in FORMATS:
            out.append(["rank", "--opinions", str(path), "--rule", "iis", "--format", fmt])
    return out


def framed_output(argv: list[str]) -> bytes:
    """One run's exit code, stdout and stderr, both streams length-framed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue().encode(), err.getvalue().encode()
    return f"{code} {len(out)} {len(err)}\n".encode() + out + err


def digest(argvs: list[list[str]]) -> str:
    """sha256 over the framed output of every run, in order."""
    return hashlib.sha256(b"".join(map(framed_output, argvs))).hexdigest()


def pin_lines(argvs: list[list[str]], workdir: str) -> list[str]:
    """Per run, its argv with ``workdir`` written as ``{work}``, then the
    sha256 of its framed output."""
    return [" ".join(argv).replace(workdir, "{work}") + " "
            + hashlib.sha256(framed_output(argv)).hexdigest() for argv in argvs]


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--write"]):
        sys.exit("usage: python3 scripts/output_digest.py [--write]")
    with tempfile.TemporaryDirectory() as workdir:
        argvs = runs(workdir)
        if sys.argv[1:]:
            PIN_FILE.write_text("\n".join(pin_lines(argvs, workdir)) + "\n", encoding="utf-8")
        print(digest(argvs))
