"""Command line front end for the criteria-ranking toolkit.

File formats (UTF-8, line oriented, full-line ``#`` comments, blank lines
ignored):

criterion table::

    alternatives: <name> <name> ...
    criterion <name>: <alt> <alt> ...     # the alternatives satisfying it

preference profile (one line per voter, best criterion first)::

    voter <id>: <crit> > <crit> > ... > <crit>

opinion state (raw counts, not tied to any table)::

    alternatives: <name> <name> ...
    opinion {a,b} >= {c} : 3

An opinion line is the word ``opinion``, a brace group, ``>=``, a brace
group and ``:`` followed by the count, with optional whitespace between
these tokens.  A brace group holds no ``{`` or ``}``; its comma-separated
names may be padded, and blank names are skipped.  The count is one or
more decimal digits (``str.isdecimal``, so ``٣`` reads as 3 and ``²`` is
rejected); whitespace is what ``str.isspace`` accepts.

Exit codes: 0 success, 1 usage or parse error or a closed output pipe,
2 validation error, 3 failed assertion, axiom violation, or self-test
mismatch.
"""

import argparse
import contextlib
import functools
import gc
import os
import sys
from pathlib import Path
from typing import NoReturn

from .aggregators import (
    AXIOM_KINDS,
    RULES,
    criterion_score_state,
    induce_opinion,
)
from .choice import (
    borda_criterion_scores,
    cascade_sets,
    nurmi_first,
    nurmi_second,
)
from .model import (
    AltSubset,
    CriterionTable,
    OpinionState,
    PreferenceProfile,
    ValidationError,
    iter_bits,
    ranking_from_scores,
)


class ParseError(Exception):
    """Malformed input text; the message carries the line number."""


# ---------------------------------------------------------------------------
# Parsing

def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _split_directive(lineno: int, line: str) -> tuple[list[str], str]:
    head, sep, body = line.partition(":")
    if not sep:
        raise ParseError(f"line {lineno}: expected '<directive>: ...', got {line!r}")
    return head.split(), body.strip()


def _alternatives_header(lineno: int, body: str, previous: tuple[str, ...] | None
                         ) -> tuple[tuple[str, ...], dict[str, int]]:
    """The names on an 'alternatives:' line, and each name's bit."""
    if previous is not None:
        raise ParseError(f"line {lineno}: second 'alternatives:' header")
    names = tuple(body.split())
    for name in names:
        # these characters delimit subsets in opinion files and output, and
        # '=' splits keys from values in '--format lines'
        if any(ch in name for ch in ",{}="):
            raise ValidationError(
                f"line {lineno}: alternative name '{name}' contains ',', '{{', '}}' or '='")
    bits = {name: 1 << i for i, name in enumerate(names)}
    if len(bits) != len(names):
        raise ValidationError(f"line {lineno}: alternative names must be distinct")
    return names, bits


def _members_mask(bits: dict[str, int], parts: list[str], where: str,
                  arg: object) -> int:
    """OR of the named alternatives' bits; blank parts are skipped.

    ``where.format(arg)`` locates an unknown name in its error, built only
    when the error is raised.
    """
    # the common case, distinct known names, in one call: the sum of
    # distinct bits has one set bit per part
    try:
        mask = sum(map(bits.__getitem__, parts))
    except KeyError:
        pass
    else:
        if mask.bit_count() == len(parts):
            return mask
    mask = 0
    for part in parts:
        bit = bits.get(part)
        if bit is None:
            # names hold no whitespace, so only a part not found as is
            # needs stripping
            name = part.strip()
            if not name:
                continue
            bit = bits.get(name)
            if bit is None:
                raise ValidationError(f"{where.format(arg)} unknown alternative '{name}'")
        mask |= bit
    return mask


def parse_criterion_table(text: str) -> CriterionTable:
    """Read an alternatives header plus one satisfier line per criterion."""
    alternatives: tuple[str, ...] | None = None
    bits: dict[str, int] = {}
    criteria: list[str] = []
    tr: dict[str, AltSubset] = {}
    for lineno, line in _content_lines(text):
        head, body = _split_directive(lineno, line)
        if head == ["alternatives"]:
            alternatives, bits = _alternatives_header(lineno, body, alternatives)
        elif len(head) == 2 and head[0] == "criterion":
            if alternatives is None:
                raise ParseError(
                    f"line {lineno}: 'alternatives:' header must come first")
            name = head[1]
            # '>' separates criteria in profile lines
            if ">" in name:
                raise ValidationError(f"line {lineno}: criterion name '{name}' contains '>'")
            if name in tr:
                raise ParseError(f"line {lineno}: criterion '{name}' listed twice")
            members = body.split()
            if not members:
                raise ValidationError(f"criterion '{name}' is satisfied by nothing")
            mask = _members_mask(bits, members, "criterion '{}' references", name)
            criteria.append(name)
            tr[name] = AltSubset(mask, len(alternatives))
        else:
            raise ParseError(f"line {lineno}: unrecognized directive {line!r}")
    if alternatives is None:
        raise ParseError("missing 'alternatives:' header")
    return CriterionTable(alternatives, tuple(criteria), tr)


def parse_profile(text: str, table: CriterionTable) -> PreferenceProfile:
    """Read voter lines, each a strict order over the table's criteria.

    This is the one profile reader.  It reads each line once, checks each
    order here and nowhere else, and reports the first fault with its line
    number.  An order is split on the exact separator ``" > "`` when no
    criterion name holds ``>`` or whitespace (no name that
    :func:`parse_criterion_table` accepts does) and that split names every
    criterion once; otherwise it is split on ``>`` and its parts stripped,
    which gives the same order for such names.  An order that still does not
    name the table's criteria once each is searched for its first fault.
    The record is built by :meth:`PreferenceProfile._trusted`: the voters
    are distinct and every order has passed.
    """
    known = set(table.criteria)
    n = len(known)
    exact = all(">" not in c and c.split() == [c] for c in known)
    profile: dict[str, tuple[str, ...]] = {}
    for lineno, line in _content_lines(text):
        # _split_directive inlined, as a call per line costs a few percent
        head, sep, body = line.partition(":")
        words = head.split()
        if not sep or len(words) != 2 or words[0] != "voter":
            _split_directive(lineno, line)  # raises first for a line without ':'
            raise ParseError(f"line {lineno}: expected 'voter <id>: ...', got {line!r}")
        voter = words[1]
        if voter in profile:
            raise ParseError(f"line {lineno}: voter '{voter}' listed twice")
        body = body.strip()
        order = tuple(body.split(" > "))
        if not exact or len(order) != n or set(order) != known:
            order = tuple(map(str.strip, body.split(">")))
            if len(order) != n or set(order) != known:
                _order_fault(lineno, voter, body, order, known)
        profile[voter] = order
    if not profile:
        raise ParseError("profile lists no voters")
    return PreferenceProfile._trusted(tuple(profile), tuple(profile.values()))


def _order_fault(lineno: int, voter: str, body: str, order: tuple[str, ...],
                 known: set[str]) -> NoReturn:
    """Raise for the first fault of an order that is not the known criteria
    once each."""
    if any(part.split() != [part] for part in order):
        raise ParseError(f"line {lineno}: malformed order {body!r}")
    seen = set()
    for c in order:
        if c not in known:
            raise ValidationError(f"voter '{voter}' ranks unknown criterion '{c}'")
        if c in seen:
            raise ValidationError(f"voter '{voter}' ranks criterion '{c}' twice")
        seen.add(c)
    missing = sorted(known - seen)
    raise ValidationError(f"voter '{voter}' omits criteria: {', '.join(missing)}")


def _new_mask(bits: dict[str, int], masks: dict[str, int], inner: str, lineno: int) -> int:
    """Parse a subset text not seen before and cache its mask."""
    mask = _members_mask(bits, inner.split(","), "line {}:", lineno)
    if not mask:
        raise ValidationError(f"line {lineno}: empty subset in opinion")
    masks[inner] = mask
    return mask


# The opinion reader takes the text in slices of about this many characters,
# cut at line ends, so that its line lists stay small on large files.
_SLICE = 1 << 15


def parse_opinion_state(text: str) -> tuple[tuple[str, ...], OpinionState]:
    """Read raw opinion counts; returns the alternative names and the state.

    The one opinion reader: it reads the text line by line in slices of about
    ``_SLICE`` characters, each cut just after a ``\\n``, so every error keeps
    its line number.  The state is built unchecked but for the universe:
    masks are nonzero unions of known bits, counts ``isdecimal`` digits.
    """
    names: tuple[str, ...] | None = None
    bits: dict[str, int] = {}
    counts: dict[tuple[int, int], int] = {}
    # subset text -> mask: a criterion-induced state repeats each of its few
    # subsets on many lines, so most texts are looked up, not parsed
    masks: dict[str, int] = {}
    lineno = start = 0
    while start < len(text):
        stop = text.find("\n", start + _SLICE) + 1 or len(text)
        # a slice ends at a '\n', so its lines are the whole text's lines
        for line in text[start:stop].splitlines():
            lineno += 1
            line = line.strip()
            if line.startswith("opinion"):
                if names is None:
                    raise ParseError(
                        f"line {lineno}: 'alternatives:' header must come first")
                # a missing brace empties the rest: `closed` means all four were found
                head, _, rest = line.partition("{")
                left, _, rest = rest.partition("}")
                middle, _, rest = rest.partition("{")
                right, closed, rest = rest.partition("}")
                before, _, digits = rest.partition(":")
                digits = digits.lstrip()
                if not (closed and digits.isdecimal() and not head[7:].strip()
                        and middle.strip() == ">=" and not before.strip()
                        and "{" not in left and "{" not in right):
                    raise ParseError(
                        f"line {lineno}: expected 'opinion {{a,b}} >= {{c}} : N'")
                # masks are never 0, so `or` falls through only on a miss
                key = (masks.get(left) or _new_mask(bits, masks, left, lineno),
                       masks.get(right) or _new_mask(bits, masks, right, lineno))
                try:
                    count = int(digits)
                except ValueError:  # more digits than int() converts
                    raise ValidationError(
                        f"line {lineno}: opinion count has too many digits") from None
                counts[key] = counts.get(key, 0) + count
            elif line.startswith("alternatives") and (
                    _split_directive(lineno, line)[0] == ["alternatives"]):
                names, bits = _alternatives_header(
                    lineno, line.partition(":")[2].strip(), names)
            elif line and line[0] != "#":
                raise ParseError(f"line {lineno}: unrecognized directive {line!r}")
        start = stop
    if names is None:
        raise ParseError("missing 'alternatives:' header")
    return names, OpinionState._trusted(len(names), counts)


# ---------------------------------------------------------------------------
# Serialization

def format_subset(subset: AltSubset, names: tuple[str, ...]) -> str:
    return _format_members(iter_bits(subset.mask), names)


def _format_members(indices, names: tuple[str, ...]) -> str:
    return "{" + ",".join(names[i] for i in sorted(indices)) + "}"


def format_ranking(ranking: tuple[tuple, ...], names: tuple[str, ...] | None = None) -> str:
    """Classes, best first, joined by ' > ', members comma separated in input order."""
    if names is None:
        return " > ".join("{" + ",".join(map(str, cls_)) + "}" for cls_ in ranking)
    return " > ".join(_format_members(cls_, names) for cls_ in ranking)


def _state_rows(names: tuple[str, ...], state: OpinionState, include_supports: bool
                ) -> tuple[list[tuple[str, int]], list[tuple[str, str, int]]]:
    """Sorted (subset, support) rows, empty unless asked for, and sorted
    (left, right, count) opinion rows, every subset as text.

    A criterion-induced state repeats each of its few masks on many rows,
    so each distinct mask is formatted once.  The opinion keys are unique, so
    they are sorted alone and each count looked up: comparing keys is
    cheaper than comparing (key, count) items.
    """
    texts: dict[int, str] = {}

    def text(mask: int) -> str:
        got = texts.get(mask)
        if got is None:
            got = texts[mask] = _format_members(iter_bits(mask), names)
        return got

    supports = ([(text(m), v) for m, v in sorted(state.support_map.items())]
                if include_supports else [])
    counts = state.counts
    opinions = [(text(s), text(t), counts[s, t]) for s, t in sorted(counts)]
    return supports, opinions


def format_opinion_state(names: tuple[str, ...], state: OpinionState,
                         include_supports: bool = False) -> str:
    """Serialize a state so that parse_opinion_state reads it back."""
    supports, opinions = _state_rows(names, state, include_supports)
    lines = ["alternatives: " + " ".join(names)]
    lines += [f"# support {subset} = {value}" for subset, value in supports]
    lines += [f"opinion {s} >= {t} : {count}" for s, t, count in opinions]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The worked running example: seven voting rules judged on six criteria

DEMO_TABLE_TEXT = """\
alternatives: Copeland Dodgson Maximin Kemeny Plurality Borda Approval
criterion a: Copeland Dodgson Maximin Kemeny
criterion b: Copeland Kemeny Borda
criterion c: Copeland Dodgson Maximin Kemeny Plurality
criterion d: Copeland Maximin Kemeny Plurality Borda Approval
criterion e: Copeland Dodgson Maximin Kemeny Plurality Borda
criterion f: Plurality Borda Approval
"""

DEMO_PROFILE_TEXT = """\
voter 1: a > b > c > d > e > f
voter 2: d > c > b > a > f > e
voter 3: f > e > d > c > b > a
"""

# The published value of every demo field, in its --format lines form.
_DEMO_PUBLISHED = {
    "criterion-scores": "10,11,12,13,8,9",
    "criteria-ranking": "{d} > {c} > {b} > {a} > {f} > {e}",
    "stage-1": "{Copeland,Maximin,Kemeny,Plurality,Borda,Approval}",
    "stage-2": "{Copeland,Maximin,Kemeny,Plurality}",
    "stage-3": "{Copeland,Kemeny}",
    "stage-4": "{Copeland,Kemeny}",
    "stage-5": "{}",
    "stage-6": "{}",
    "choice-cascade": "{Copeland,Kemeny}",
    "choice-score": "{Copeland,Kemeny}",
    "alternative-scores": "54,30,43,54,42,41,22",
    "supports": "10,11,12,13,8,9",
    "e-scores": "4,0,2,4,2,1,1",
    "ranking-iis": "{Copeland,Kemeny} > {Maximin,Plurality} > {Borda,Approval} > {Dodgson}",
    "ranking-support":
        "{Copeland,Kemeny} > {Maximin} > {Plurality} > {Borda} > {Dodgson} > {Approval}",
    "ranking-lexcel":
        "{Copeland,Kemeny} > {Maximin} > {Plurality} > {Borda} > {Approval} > {Dodgson}",
    "class-counts-Approval": "1,0,0,0,1,0,62",
    "class-counts-Borda": "1,0,1,0,1,1,60",
}


# ---------------------------------------------------------------------------
# Command dispatch

def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_pair(args: argparse.Namespace) -> tuple[CriterionTable, PreferenceProfile]:
    table = parse_criterion_table(_read(args.table))
    profile = parse_profile(_read(args.profile), table)
    return table, profile


def _render(value, lines: bool) -> str:
    """A field value as printed: a tuple of (name, v) pairs is ``name=v ...``
    as text and ``v,...`` as lines; any other tuple is comma separated."""
    if not isinstance(value, tuple):
        return str(value)
    if value and isinstance(value[0], tuple):
        return (",".join(str(v) for _, v in value) if lines
                else " ".join(f"{name}={v}" for name, v in value))
    return ",".join(map(str, value))


def _emit(args: argparse.Namespace, fields: list[tuple]) -> None:
    """Print (label, key, value) fields as ``label: value`` text, or as
    ``key=value`` lines after ``seed=N`` so that runs can be replayed.  A
    None label or key leaves the field out of that form."""
    if args.fmt == "lines":
        out = [f"seed={args.seed}"]
        out += [f"{key}={_render(value, True)}" for _, key, value in fields
                if key is not None]
    else:
        out = [f"{label}: {_render(value, False)}" for label, _, value in fields
               if label is not None]
    print("\n".join(out))


def _cmd_choose(args: argparse.Namespace) -> int:
    table, profile = _load_pair(args)
    method = nurmi_first if args.method == "n1" else nurmi_second
    chosen = format_subset(method(table, profile), table.alternatives)
    _emit(args, [(None, "method", args.method), ("choice", "choice", chosen)])
    return 0


def _parse_order(text: str, names: tuple[str, ...]) -> tuple[int, ...]:
    parts = [part.strip() for part in text.split(",")]
    if sorted(parts) != sorted(names):
        raise ValidationError(
            "--order must list every alternative exactly once, comma separated")
    return tuple(names.index(p) for p in parts)


def _cmd_rank(args: argparse.Namespace) -> int:
    rule = RULES[args.rule]
    if args.order is not None and not rule.takes_order:
        raise ParseError(f"rule {rule.name} takes no --order")
    if args.opinions is not None:
        if args.table is not None or args.profile is not None:
            raise ParseError("rank takes --opinions or --table/--profile, not both")
        names, state = parse_opinion_state(_read(args.opinions))
    else:
        if args.table is None or args.profile is None:
            raise ParseError("rank needs --opinions, or both --table and --profile")
        table, profile = _load_pair(args)
        names, state = table.alternatives, criterion_score_state(table, profile)
    order = None if args.order is None else _parse_order(args.order, names)
    rendered = format_ranking(rule(state, order), names)
    _emit(args, [(None, "rule", args.rule), ("ranking", "ranking", rendered)])
    return 0


def _cmd_induce(args: argparse.Namespace) -> int:
    table, profile = _load_pair(args)
    state = induce_opinion(table, profile)
    names = table.alternatives
    if args.fmt == "lines":
        supports, opinions = _state_rows(names, state, include_supports=True)
        fields = [(None, "alternatives", names)]
        fields += [(None, f"support{subset}", value) for subset, value in supports]
        fields += [(None, f"opinion{s}>={t}", count) for s, t, count in opinions]
        _emit(args, fields)
    else:
        # The text form is itself a parseable opinion file.
        print(format_opinion_state(names, state, include_supports=True), end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .axioms import sweep_axiom  # only check needs the axiom suite

    result = sweep_axiom(RULES[args.rule], args.axiom,
                         args.alternatives, args.seed, args.trials)
    fields = [(key, key, value) for key, value in (
        ("axiom", args.axiom), ("rule", args.rule), ("alternatives", args.alternatives),
        ("requested", result.requested), ("checked", result.checked),
        ("violations", result.violations))]
    for i, verdict in enumerate(result.examples, 1):
        x, y = verdict.witness
        fields.append(("witness", f"witness-{i}", f"x={x} y={y}: {verdict.note}"))
    fields.append(("result", "result", "pass" if result.violations == 0 else "fail"))
    _emit(args, fields)
    return 0 if result.violations == 0 else 3


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .oracle import differential_sweep  # only selftest needs the oracle

    fields: list[tuple] = [(None, "trials", args.trials)]
    failed = False
    for universe in (3, 4, 5):
        report = differential_sweep(universe, args.trials, args.seed)
        fields += [(f"alternatives {universe}", None,
                    (("trials", report.trials), ("mismatches", report.mismatches))),
                   (None, f"universe-{universe}-mismatches", report.mismatches)]
        for detail in report.details:
            trial, _, problems = detail.partition(": ")
            fields += [(f"  {trial}", None, problems),
                       (None, f"universe-{universe}-detail", detail)]
        failed = failed or not report.clean
    fields.append(("result", "result", "fail" if failed else "pass"))
    _emit(args, fields)
    return 3 if failed else 0


def _cmd_demo(args: argparse.Namespace) -> int:
    table = parse_criterion_table(DEMO_TABLE_TEXT)
    profile = parse_profile(DEMO_PROFILE_TEXT, table)
    names = table.alternatives
    # every field through the functions that choose and rank run
    scores, alt_scores = borda_criterion_scores(table, profile)
    criteria_ranking = ranking_from_scores(scores)
    state = induce_opinion(table, profile)
    supports = [state.support_map.get(table.tr[c].mask, 0) for c in table.criteria]

    fields = [
        ("criterion scores", "criterion-scores", tuple(scores.items())),
        ("criteria ranking", "criteria-ranking", format_ranking(criteria_ranking)),
    ]
    for k, stage in enumerate(cascade_sets(table, profile), 1):
        fields.append((f"stage {k} intersection", f"stage-{k}",
                       _format_members(iter_bits(stage), names)))
    fields += [
        ("choice (cascade)", "choice-cascade", format_subset(nurmi_first(table, profile), names)),
        ("choice (score sum)", "choice-score", format_subset(nurmi_second(table, profile), names)),
        ("alternative scores", "alternative-scores", tuple(zip(names, alt_scores))),
        ("induced supports", "supports", tuple(zip(table.criteria, supports))),
        ("e-scores", "e-scores", tuple(zip(names, state.e_vector))),
    ]
    for rule in ("iis", "support", "lexcel"):
        fields.append((f"ranking ({rule})", f"ranking-{rule}",
                       format_ranking(RULES[rule](state), names)))
    for name in ("Approval", "Borda"):
        fields.append((f"class counts ({name})", f"class-counts-{name}",
                       state.class_count_rows[names.index(name)]))

    printed = {key: (label, _render(value, True)) for label, key, value in fields}
    mismatches = [f"demo mismatch: {label}: got {got}, want {_DEMO_PUBLISHED.get(key)}"
                  for key, (label, got) in printed.items() if got != _DEMO_PUBLISHED.get(key)]
    mismatches += [f"demo mismatch: {key}: not printed"
                   for key in _DEMO_PUBLISHED if key not in printed]
    fields.append(("demo", "status", "fail" if mismatches else "ok"))
    _emit(args, fields)
    for line in mismatches:
        print(line, file=sys.stderr)
    return 3 if mismatches else 0


_DISPATCH = {
    "choose": _cmd_choose,
    "rank": _cmd_rank,
    "induce": _cmd_induce,
    "check": _cmd_check,
    "demo": _cmd_demo,
    "selftest": _cmd_selftest,
}


def run(args: argparse.Namespace) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built on the first ``main`` call and reused:
    parsing leaves it unchanged."""
    parser = _Parser(prog="critrank",
                     description="Rank alternatives from opinions on criteria.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_: str):
        p = sub.add_parser(name, help=help_, description=help_)
        p.add_argument("--format", dest="fmt", choices=("text", "lines"),
                       default="text",
                       help="text report or machine readable key=value lines")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized commands; echoed in lines output")
        return p

    p = add("choose", "pick the best alternatives from a table and a profile")
    p.add_argument("--table", required=True, help="criterion table file")
    p.add_argument("--profile", required=True, help="preference profile file")
    p.add_argument("--method", choices=("n1", "n2"), required=True,
                   help="n1: intersection cascade, n2: criterion score sums")

    p = add("rank", "rank alternatives with an aggregation rule")
    p.add_argument("--rule", choices=tuple(RULES), required=True)
    p.add_argument("--table", help="criterion table file (with --profile)")
    p.add_argument("--profile", help="preference profile file (with --table)")
    p.add_argument("--opinions", help="raw opinion state file")
    p.add_argument("--order",
                   help="comma separated alternative names used by iis-tb-order "
                        "(default: input order)")

    p = add("induce", "turn a table and a profile into an opinion state file")
    p.add_argument("--table", required=True)
    p.add_argument("--profile", required=True)

    p = add("check", "sweep one axiom against a rule on generated states")
    p.add_argument("--axiom", choices=AXIOM_KINDS, required=True)
    p.add_argument("--rule", choices=tuple(RULES), default="iis")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--alternatives", type=int, default=4,
                   help="number of alternatives in generated states")

    add("demo", "run the worked example and assert its published numbers")

    p = add("selftest", "compare fast implementations against brute force")
    p.add_argument("--trials", type=_positive_int, default=200,
                   help="random states per universe size")

    return parser


def main(argv=None) -> int:
    """Parse ``argv`` and run its command; returns the exit code.

    The command runs with the cyclic garbage collector paused, and switched
    back on after only if it was on: no command leaves a reference cycle, so
    reference counting frees everything and the collector would only scan.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = run(ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``critrank ... | head``); as the signal
        # docs advise, let the exit flush go to devnull.  A StringIO has no fd.
        with contextlib.suppress(OSError, ValueError):
            stdout_fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)
        return 1
    finally:
        if collecting:
            gc.enable()
    return code


if __name__ == "__main__":
    sys.exit(main())
