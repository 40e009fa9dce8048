import errno
import gc
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import critrank
import critrank.cli
from critrank.cli import (
    DEMO_PROFILE_TEXT,
    DEMO_TABLE_TEXT,
    ParseError,
    _build_parser,
    format_opinion_state,
    format_ranking,
    format_subset,
    main,
    parse_criterion_table,
    parse_opinion_state,
    parse_profile,
)
from critrank.aggregators import RULES, Rule, iis_rank, support_rank
from critrank.axioms import random_profile, random_table
from critrank.choice import cascade_sets
from critrank.model import (
    AltSubset,
    CriterionTable,
    OpinionState,
    PreferenceProfile,
    ValidationError,
    iter_bits,
)

from conftest import bits, trusted_calls


class TestTableParsing:
    def test_demo_table(self):
        table = parse_criterion_table(DEMO_TABLE_TEXT)
        assert table.alternatives[0] == "Copeland"
        members = iter_bits(table.tr["f"].mask)
        assert tuple(table.alternatives[i] for i in members) == ("Plurality", "Borda", "Approval")

    def test_comments_and_blanks_are_ignored(self):
        text = "# header\n\nalternatives: a b c\n  # noise\ncriterion k: a b\n"
        table = parse_criterion_table(text)
        assert table.criteria == ("k",)

    def test_missing_header(self):
        with pytest.raises(ParseError, match="alternatives"):
            parse_criterion_table("criterion k: a\n")

    def test_comments_only_table_is_exit_1(self, tmp_path, capsys):
        text = "# a table with no lines yet\n\n  # still none\n"
        with pytest.raises(ParseError, match="^missing 'alternatives:' header$"):
            parse_criterion_table(text)
        table = tmp_path / "table.txt"
        profile = tmp_path / "profile.txt"
        table.write_text(text)
        profile.write_text("voter 1: j > k\n")
        assert main(["rank", "--rule", "iis", "--table", str(table),
                     "--profile", str(profile)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: missing 'alternatives:' header\n")

    def test_directive_without_colon(self):
        with pytest.raises(ParseError):
            parse_criterion_table("alternatives a b c\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_criterion_table("alternatives: a b c\nrule k: a\n")

    def test_duplicate_criterion_line(self):
        text = "alternatives: a b c\ncriterion k: a\ncriterion k: b\n"
        with pytest.raises(ParseError, match="listed twice"):
            parse_criterion_table(text)

    def test_unknown_alternative_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="unknown alternative"):
            parse_criterion_table("alternatives: a b c\ncriterion k: z\n")

    def test_empty_satisfier_set_rejected(self):
        with pytest.raises(ValidationError, match="satisfied by nothing"):
            parse_criterion_table("alternatives: a b c\ncriterion k:\n")

    def test_duplicate_alternative_names(self):
        with pytest.raises(ValidationError, match="distinct"):
            parse_criterion_table("alternatives: a a b\ncriterion k: a\n")

    @pytest.mark.parametrize("name", ("a,b", "{a", "a}", "a=b"))
    def test_subset_delimiters_in_names_are_exit_2(self, name, tmp_path, capsys):
        # 'a,b' would print as {a,b} and read back as the pair {a, b}
        text = f"alternatives: {name} a b\ncriterion j: a\ncriterion k: {name}\n"
        with pytest.raises(ValidationError, match="contains"):
            parse_criterion_table(text)
        table = tmp_path / "table.txt"
        profile = tmp_path / "profile.txt"
        table.write_text(text)
        profile.write_text("voter 1: j > k\n")
        assert main(["rank", "--rule", "iis", "--table", str(table),
                     "--profile", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{name}'" in captured.err

    def test_profile_separator_in_a_criterion_name_is_exit_2(self, tmp_path, capsys):
        # 'a>b' could never be ranked: every profile line would split it
        text = "alternatives: x y\ncriterion a>b: x y\ncriterion c: x\n"
        with pytest.raises(ValidationError, match="contains '>'"):
            parse_criterion_table(text)
        table = tmp_path / "table.txt"
        profile = tmp_path / "profile.txt"
        table.write_text(text)
        profile.write_text("voter 1: a>b > c\n")
        assert main(["rank", "--rule", "iis", "--table", str(table),
                     "--profile", str(profile)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: line 2: criterion name 'a>b' contains '>'\n"

    def test_equivalent_criteria_name_both(self):
        text = "alternatives: a b c\ncriterion j: a b\ncriterion k: b a\n"
        with pytest.raises(ValidationError, match="j.*k|k.*j"):
            parse_criterion_table(text)


class TestProfileParsing:
    def test_demo_profile(self):
        table = parse_criterion_table(DEMO_TABLE_TEXT)
        profile = parse_profile(DEMO_PROFILE_TEXT, table)
        assert profile.voters == ("1", "2", "3")
        assert profile.orders[2][0] == "f"

    def fixture_table(self):
        return parse_criterion_table("alternatives: a b c\ncriterion j: a\ncriterion k: b\n")

    def test_malformed_voter_line(self):
        with pytest.raises(ParseError):
            parse_profile("ballot 1: j > k\n", self.fixture_table())

    def test_duplicate_voter(self):
        text = "voter 1: j > k\nvoter 1: k > j\n"
        with pytest.raises(ParseError, match="listed twice"):
            parse_profile(text, self.fixture_table())

    def test_unknown_criterion(self):
        with pytest.raises(ValidationError, match="unknown criterion"):
            parse_profile("voter 1: j > z\n", self.fixture_table())

    def test_omitted_criterion(self):
        with pytest.raises(ValidationError, match="omits"):
            parse_profile("voter 1: j\n", self.fixture_table())

    def test_repeated_criterion(self):
        with pytest.raises(ValidationError, match="twice"):
            parse_profile("voter 1: j > j\n", self.fixture_table())

    def test_empty_profile(self):
        with pytest.raises(ParseError, match="no voters"):
            parse_profile("# nothing\n", self.fixture_table())

    @pytest.mark.parametrize("text, error, message", (
        ("voter 1: j > j\n", ValidationError, "voter '1' ranks criterion 'j' twice"),
        ("voter 1: j > z > j\n", ValidationError, "voter '1' ranks unknown criterion 'z'"),
        ("voter 1: j >  > k\n", ParseError, "line 1: malformed order 'j >  > k'"),
        ("voter 1: j > k k\n", ParseError, "line 1: malformed order 'j > k k'"),
        ("voter 1: j > k\tk\n", ParseError, "line 1: malformed order 'j > k\\tk'"),
        ("voter 1: k\n", ValidationError, "voter '1' omits criteria: j"),
        ("voter 1: j > k\nvoter 1: k > j\n", ParseError, "line 2: voter '1' listed twice"),
    ))
    def test_bad_line_messages(self, text, error, message):
        # the parser reports the line's first fault itself, before
        # PreferenceProfile's coarser checks could
        with pytest.raises(error) as info:
            parse_profile(text, self.fixture_table())
        assert type(info.value) is error
        assert str(info.value) == message


def _strip_path_profile(text: str, table: CriterionTable) -> PreferenceProfile:
    """``parse_profile`` without its exact-separator split: every order is
    split on ``>`` and its parts stripped, and an order that is not the
    table's criteria once each is searched for its first fault."""
    known = set(table.criteria)
    seen: set[str] = set()
    voters, orders = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, body = line.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected '<directive>: ...', got {line!r}")
        head, body = head.split(), body.strip()
        if len(head) != 2 or head[0] != "voter":
            raise ParseError(f"line {lineno}: expected 'voter <id>: ...', got {line!r}")
        voter = head[1]
        if voter in seen:
            raise ParseError(f"line {lineno}: voter '{voter}' listed twice")
        order = tuple(part.strip() for part in body.split(">"))
        if len(order) != len(known) or set(order) != known:
            if any(part.split() != [part] for part in order):
                raise ParseError(f"line {lineno}: malformed order {body!r}")
            ranked: set[str] = set()
            for c in order:
                if c not in known:
                    raise ValidationError(f"voter '{voter}' ranks unknown criterion '{c}'")
                if c in ranked:
                    raise ValidationError(f"voter '{voter}' ranks criterion '{c}' twice")
                ranked.add(c)
            missing = ", ".join(sorted(known - ranked))
            raise ValidationError(f"voter '{voter}' omits criteria: {missing}")
        seen.add(voter)
        voters.append(voter)
        orders.append(order)
    if not voters:
        raise ParseError("profile lists no voters")
    return PreferenceProfile(tuple(voters), tuple(orders))


def _profile_outcome(read, text: str, table: CriterionTable):
    """The profile ``read`` returns, or the type and message it raises."""
    try:
        return read(text, table)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def _read_profile(text: str, table: CriterionTable):
    """``parse_profile``'s outcome, checked to build a returned profile
    through ``PreferenceProfile._trusted`` once, as the public constructor
    would, and to build nothing when it raises."""
    with trusted_calls() as calls:
        outcome = _profile_outcome(parse_profile, text, table)
    made = isinstance(outcome, PreferenceProfile)
    assert calls == ([("parse_profile", outcome)] if made else [])
    return outcome


_JKL_TABLE = parse_criterion_table(
    "alternatives: a b c\ncriterion j: a\ncriterion k: b\ncriterion l: c\n")
_SEPARATORS = (" > ", ">", "  > ", " >  ", "\t>\t", " >\t", "\t> ")


@st.composite
def _order_texts(draw, clean: bool):
    """Orders over j, k and l joined by exact, padded, tab or unspaced
    separators: every criterion once when ``clean``, else often with one
    fault, a trailing separator, or any parts at all."""
    if clean or draw(st.booleans()):
        parts = list(draw(st.permutations("jkl")))
        edit = "keep" if clean else draw(st.sampled_from(
            ("keep", "drop", "repeat", "unknown", "extra")))
        if edit == "drop":
            parts.pop()
        elif edit == "repeat":
            parts[-1] = parts[0]
        elif edit == "unknown":
            parts[-1] = "z"
        elif edit == "extra":
            parts.append(draw(st.sampled_from(("j", "z"))))
    else:
        parts = draw(st.lists(st.sampled_from(("j", "k", "l", "z", "jk", "", " ", "k k", "k\tk")),
                              min_size=1, max_size=4))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS),
                         min_size=len(parts) - 1, max_size=len(parts) - 1))
    text = parts[0] + "".join(sep + part for sep, part in zip(seps, parts[1:]))
    return text if clean else text + draw(st.sampled_from(("", " >", " > ", ">")))


@st.composite
def _profile_texts(draw):
    """Voter lines, comments and blank lines, ended by LF or CRLF.  A clean
    profile has distinct voters and orders naming j, k and l once each;
    any other repeats voter ids and adds faulty orders and malformed lines."""
    clean = draw(st.booleans())
    kinds = ("voter", "voter", "comment", "blank") + (() if clean else ("bad",))
    lines = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=6)):
        if kind == "voter":
            voter = len(lines) if clean else draw(st.integers(1, 4))
            lines.append(f"voter {voter}:{draw(st.sampled_from((' ', '', '  ')))}"
                         f"{draw(_order_texts(clean))}")
        elif kind == "comment":
            lines.append(draw(st.sampled_from(("# voter 9: j", "  # note", "#"))))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(("", "   ", "\t"))))
        else:
            lines.append(draw(st.sampled_from(("ballot 1: j > k > l", "voter 1 j > k > l",
                                               "voter: j > k > l", "voter 1 2: j > k > l"))))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + draw(st.sampled_from(("", eol)))


class TestProfileFastPath:
    """``parse_profile``, the one profile reader, against the strip path."""

    @settings(max_examples=400, deadline=None)
    @given(_profile_texts())
    @example("voter 1: j > k > l\r\nvoter 2: l>k>j\r\n")
    @example("voter 1: j > k\tk > l\n")
    def test_matches_the_strip_path(self, text):
        assert (_read_profile(text, _JKL_TABLE)
                == _profile_outcome(_strip_path_profile, text, _JKL_TABLE))

    # one case per way the exact split can be refused; the plain table
    # names j, k and l, the others a criterion holding '>' or a space
    @pytest.mark.parametrize("names, order, expected", (
        ("jkl", "j>k>l", ("j", "k", "l")),
        ("jkl", "j  > k > l", ("j", "k", "l")),
        ("jkl", "j\t>\tk > l", ("j", "k", "l")),
        ("jkl", "j > k > l >", (ParseError, "line 1: malformed order 'j > k > l >'")),
        ("jkl", "j > k > k", (ValidationError, "voter '1' ranks criterion 'k' twice")),
        ("jkl", "j > k > z", (ValidationError, "voter '1' ranks unknown criterion 'z'")),
        ("jkl", "j > k", (ValidationError, "voter '1' omits criteria: l")),
        (("j>k", "l"), "j>k > l", (ValidationError, "voter '1' ranks unknown criterion 'j'")),
        (("j k", "l"), "j k > l", ("j k", "l")),
        ("jkl", "j > k > l > j", (ValidationError, "voter '1' ranks criterion 'j' twice")),
    ))
    def test_near_misses_take_the_strip_path(self, names, order, expected):
        table = CriterionTable(("a", "b", "c"), tuple(names),
                               {c: AltSubset(1 << i, 3) for i, c in enumerate(names)})
        text = f"voter 1: {order}\n"
        outcome = _read_profile(text, table)
        assert outcome == _profile_outcome(_strip_path_profile, text, table)
        if isinstance(outcome, PreferenceProfile):
            outcome = outcome.orders[0]
        assert outcome == expected

    # whole files on the plain j, k, l table, each with a line that the
    # exact split refuses: the reader must give the strip path's outcome
    @pytest.mark.parametrize("text, expected", (
        pytest.param("voter 1: j\nvoter 1 j > k > l",
                     (ValidationError, "voter '1' omits criteria: k, l"),
                     id="line-1-fault-before-a-malformed-line-2"),
        pytest.param("voter 1: j > k > l\nvoter 2: l > k > j\nvoter 1: k > j > l\n",
                     (ParseError, "line 3: voter '1' listed twice"),
                     id="repeated-voter-on-line-3"),
        pytest.param("voter 1: j  >  k  >  l\nvoter 2: j  >  k  >  l\n",
                     (("j", "k", "l"), ("j", "k", "l")),
                     id="every-line-padded-alike"),
        pytest.param("voter 1: j > k > l\nvoter 2: l  > k >  j\nvoter 3: k>j>l\n",
                     (("j", "k", "l"), ("l", "k", "j"), ("k", "j", "l")),
                     id="exact-and-padded-lines-mixed"),
        pytest.param("# voter 1: j > k > l\n\n  # no voter here\n",
                     (ParseError, "profile lists no voters"),
                     id="comments-only"),
    ))
    def test_whole_files(self, text, expected):
        outcome = _read_profile(text, _JKL_TABLE)
        assert outcome == _profile_outcome(_strip_path_profile, text, _JKL_TABLE)
        if isinstance(outcome, PreferenceProfile):
            outcome = outcome.orders
        assert outcome == expected

    def test_repeated_voter_is_exit_1_with_its_line(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        profile = tmp_path / "profile.txt"
        table.write_text("alternatives: a b c\ncriterion j: a\ncriterion k: b\n"
                         "criterion l: c\n")
        profile.write_text("voter 1: j > k > l\nvoter 2: l > k > j\nvoter 1: k > j > l\n")
        for command in (["rank", "--rule", "iis"], ["induce"], ["choose", "--method", "n1"]):
            assert main([*command, "--table", str(table), "--profile", str(profile)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: line 3: voter '1' listed twice\n")

    def test_a_clean_exact_profile_is_checked_once(self, monkeypatch):
        # the reader's own checks are the only ones: neither a clean exact
        # profile nor a padded one enters the public constructor
        def refuse(*args):
            raise AssertionError("the profile was checked again by PreferenceProfile")

        monkeypatch.setattr(PreferenceProfile, "__init__", refuse)
        clean = "# header\nvoter 1: j > k > l\n\nvoter 2: l > k > j\r\nvoter 3: k > j > l\n"
        assert parse_profile(clean, _JKL_TABLE).orders == (
            ("j", "k", "l"), ("l", "k", "j"), ("k", "j", "l"))
        padded = "voter 1: j > k > l\nvoter 2: l>k>j\n"
        assert parse_profile(padded, _JKL_TABLE).orders == (("j", "k", "l"), ("l", "k", "j"))


class TestOpinionParsing:
    def test_basic_entries(self):
        text = ("alternatives: x y z\n"
                "opinion {x,y} >= {z} : 3\n"
                "opinion {z} >= {x,y} : 1\n")
        names, state = parse_opinion_state(text)
        assert names == ("x", "y", "z")
        xy = AltSubset(bits(0, 1), 3)
        z = AltSubset(bits(2), 3)
        assert state.entries[(xy, z)] == 3
        assert state.entries[(z, xy)] == 1

    def test_duplicate_lines_accumulate(self):
        text = ("alternatives: x y\n"
                "opinion {x} >= {y} : 2\n"
                "opinion {x} >= {y} : 3\n")
        _, state = parse_opinion_state(text)
        assert state.entries[(AltSubset(1, 2), AltSubset(2, 2))] == 5

    def test_zero_counts_normalize_away(self):
        text = "alternatives: x y\nopinion {x} >= {y} : 0\n"
        _, state = parse_opinion_state(text)
        assert state.entries == {}

    def test_header_must_come_first(self):
        with pytest.raises(ParseError, match="header"):
            parse_opinion_state("opinion {x} >= {y} : 1\n")

    def test_malformed_opinion_line(self):
        with pytest.raises(ParseError):
            parse_opinion_state("alternatives: x y\nopinion {x} > {y} : 1\n")

    def test_unknown_member(self):
        with pytest.raises(ValidationError, match="unknown alternative"):
            parse_opinion_state("alternatives: x y\nopinion {q} >= {y} : 1\n")

    def test_duplicate_alternative_names(self, tmp_path, capsys):
        text = "alternatives: a a b\nopinion {a} >= {b} : 1\n"
        with pytest.raises(ValidationError, match="distinct"):
            parse_opinion_state(text)
        opinions = tmp_path / "ops.txt"
        opinions.write_text(text)
        assert main(["rank", "--rule", "iis", "--opinions", str(opinions)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distinct" in captured.err

    @pytest.mark.parametrize("name", ("a,b", "{a", "a}", "a=b"))
    def test_subset_delimiters_in_names_are_exit_2(self, name, tmp_path, capsys):
        text = f"alternatives: {name} a b\nopinion {{a}} >= {{b}} : 1\n"
        with pytest.raises(ValidationError, match="contains"):
            parse_opinion_state(text)
        opinions = tmp_path / "ops.txt"
        opinions.write_text(text)
        assert main(["rank", "--rule", "iis", "--opinions", str(opinions)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{name}'" in captured.err

    def test_empty_subset(self):
        with pytest.raises(ValidationError, match="empty subset"):
            parse_opinion_state("alternatives: x y\nopinion {} >= {y} : 1\n")

    @pytest.mark.parametrize("inner, mask", (
        ("a,a", 0b001), (" a , , b ", 0b011), ("b,a", 0b011), ("c", 0b100)))
    def test_subset_text_reads_as_its_member_set(self, inner, mask):
        text = f"alternatives: a b c\nopinion {{{inner}}} >= {{c}} : 2\n"
        _, state = parse_opinion_state(text)
        assert state.counts == {(mask, 0b100): 2}

    def test_repeats_sum_and_zero_lines_drop_across_spellings(self):
        text = ("alternatives: a b c\n"
                "opinion {a,b} >= {c} : 2\n"
                "opinion {c} >= {a,b} : 0\n"
                "opinion {a,b} >= {c} : 3\n"
                "opinion {b, a} >= { c } : 1\n")
        _, state = parse_opinion_state(text)
        assert state.counts == {(0b011, 0b100): 6}

    @pytest.mark.parametrize("inner, message", (
        ("", "line 4: empty subset in opinion"),
        (" , ", "line 4: empty subset in opinion"),
        ("a b", "line 4: unknown alternative 'a b'"),
        ("a,q", "line 4: unknown alternative 'q'"),
    ))
    def test_bad_subset_is_exit_2_naming_its_own_line(self, inner, message,
                                                       tmp_path, capsys):
        # the good subsets of lines 2 and 3 are read and cached first; the
        # name 'ab' must not make '{a b}' a cache hit
        text = ("alternatives: a b c ab\n"
                "opinion {a} >= {b} : 1\n"
                "opinion {ab} >= {b} : 1\n"
                f"opinion {{a}} >= {{{inner}}} : 1\n")
        opinions = tmp_path / "ops.txt"
        opinions.write_text(text)
        assert main(["rank", "--rule", "iis", "--opinions", str(opinions)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {message}\n"

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter converts ints of any length")
    def test_count_longer_than_int_converts_is_exit_2(self, tmp_path, capsys):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        opinions = tmp_path / "ops.txt"
        opinions.write_text(f"alternatives: a b c\nopinion {{a}} >= {{b}} : {digits}\n")
        assert main(["rank", "--rule", "iis", "--opinions", str(opinions)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: line 2: opinion count has too many digits\n"

    # each file in the machine-written shape and, with one subset padded or
    # the header indented, in a padded shape
    _NAMES_65 = " ".join(f"x{i}" for i in range(65))

    @pytest.mark.parametrize("text, message", (
        (f"alternatives: {_NAMES_65}\nopinion {{x0}} >= {{x0}} : 1\n",
         "universe size must be an integer in [1, 64], got 65"),
        (f"alternatives: {_NAMES_65}\nopinion {{ x0 }} >= {{x0}} : 1\n",
         "universe size must be an integer in [1, 64], got 65"),
        ("alternatives:\nopinion {x0} >= {x0} : 1\n", "line 2: unknown alternative 'x0'"),
        ("alternatives:\nopinion { x0 } >= {x0} : 1\n", "line 2: unknown alternative 'x0'"),
        ("alternatives:\n", "universe size must be an integer in [1, 64], got 0"),
        ("  alternatives:  \n", "universe size must be an integer in [1, 64], got 0"),
    ), ids=("65-names-bulk", "65-names-lines", "empty-header-bulk", "empty-header-lines",
            "header-alone-bulk", "header-alone-lines"))
    def test_universe_bounds_are_exit_2(self, text, message, tmp_path, capsys):
        assert _rank_lines(tmp_path, capsys, text) == (2, "", f"invalid input: {message}\n")


# the regex the opinion-line grammar was first written as, kept as the
# reference for the partition split in the reader that replaced it
_OPINION_RE = re.compile(
    r"opinion\s*\{([^{}]*)\}\s*>=\s*\{([^{}]*)\}\s*:\s*(\d+)$")
_TOKENS = ("opinion", " ", "\t", "\xa0", "{", "}", ",", ">", "=", ":",
           "1", "\u0663", "\u00b2", "x")
_any_text = st.lists(st.sampled_from(_TOKENS), max_size=24).map("".join)


def _run(*tokens, min_size=0):
    return st.lists(st.sampled_from(tokens), min_size=min_size, max_size=3).map("".join)


_space = _run(" ", "\t", "\xa0")
_inner = _run("x", ",", " ")
# grammar-shaped lines, valid unless the count holds a '²'
_shaped = st.tuples(_space, _inner, _space, _space, _inner, _space, _space,
                    _run("1", "\u0663", "\u00b2", min_size=1)).map(
    lambda gaps: "opinion{}{{{}}}{}>={}{{{}}}{}:{}{}".format(*gaps))
# a shaped line with one token put in anywhere: the near misses
_near_miss = st.tuples(_shaped, st.integers(0, 40), st.sampled_from(_TOKENS)).map(
    lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])


def _rank_lines(tmp_path, capsys, text):
    opinions = tmp_path / "ops.txt"
    opinions.write_text(text, encoding="utf-8")
    status = main(["rank", "--rule", "iis", "--format", "lines", "--opinions", str(opinions)])
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _outcome(text):
    try:
        names, state = parse_opinion_state(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return names, state.counts


class TestOpinionGrammar:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(_any_text, _shaped, _near_miss))
    @example("opinion{x}>={y}:1")
    @example("opinion {x} >= {y} : 1\n")
    def test_split_accepts_what_the_regex_accepts(self, line):
        # in a one-line file, an opinion line that the regex rejects is the
        # grammar error, and one it matches reads as its groups written plainly
        outcome = _outcome(f"alternatives: x y\n{line}\n")
        stripped = line.strip()
        match = _OPINION_RE.fullmatch(stripped)
        if match:
            assert outcome == _outcome("alternatives: x y\nopinion {{{}}} >= {{{}}} : {}\n"
                                       .format(*match.groups()))
        else:
            grammar = (ParseError, "line 2: expected 'opinion {a,b} >= {c} : N'")
            assert (outcome == grammar) == stripped.startswith("opinion")

    @pytest.mark.parametrize("line, count", (
        ("opinion{x}>={y}:1", 1),
        ("opinion\t{x}\t>=\t{y}\t:\t3", 3),
        ("opinion\xa0{x} >= {y} : 1", 1),
        ("opinion\xa0{x} >= {y} : \u0663", 3),
    ))
    def test_accepted_edges(self, line, count, tmp_path, capsys):
        status, out, err = _rank_lines(tmp_path, capsys, f"alternatives: x y\n{line}\n")
        assert (status, err) == (0, "")
        assert (status, out, err) == _rank_lines(
            tmp_path, capsys, f"alternatives: x y\nopinion {{x}} >= {{y}} : {count}\n")
        assert parse_opinion_state(f"alternatives: x y\n{line}\n")[1].counts == {
            (0b01, 0b10): count}

    @pytest.mark.parametrize("line", (
        "opinion {x} >= {y} : \u00b2",
        "opinion {x} >= {y} :",
        "opinion {x} >= {y} : -1",
        "opinion {x} >= {y} : 1 2",
        "opinion {x}} >= {y} : 1",
        "opinion {{x} >= {y} : 1",
        "opinion x >= {y} : 1",
        "opinion {x} >= {y} :: 1",
        "opinion {x} => {y} : 1",
        "opinion {x} >= {y} : 1 # c",
    ))
    def test_rejected_edges_are_exit_1(self, line, tmp_path, capsys):
        assert _rank_lines(tmp_path, capsys, f"alternatives: x y\n{line}\n") == (
            1, "", "error: line 2: expected 'opinion {a,b} >= {c} : N'\n")

    def test_a_repeated_top_name_reads_as_its_bit(self, tmp_path, capsys):
        names = " ".join(f"a{i}" for i in range(64))
        text = f"alternatives: {names}\nopinion {{a63,a63}} >= {{a0}} : 1\n"
        assert parse_opinion_state(text)[1].counts == {(1 << 63, 1): 1}
        status, out, err = _rank_lines(tmp_path, capsys, text)
        assert (status, err) == (0, "")
        assert out

    def test_an_unknown_name_is_reported_before_a_later_malformed_line(
            self, tmp_path, capsys):
        text = ("alternatives: x y\n"
                "opinion {x,q} >= {y} : 1\n"
                "opinion {x} >= {y}\n")
        assert _rank_lines(tmp_path, capsys, text) == (
            2, "", "invalid input: line 2: unknown alternative 'q'\n")


# every break str.splitlines knows but '\n', where the reader cuts its slices
_break = st.sampled_from(("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                          "\u2028", "\u2029"))
_known = st.lists(st.sampled_from(("x", "a", "b")), min_size=1, max_size=3, unique=True)
# padded, blank, unknown and repeated names among the known ones
_any_names = st.lists(st.sampled_from(("x", "a", "b", " a", "b ", "", "q")),
                      min_size=1, max_size=3)


def _opinion_line(subset, tail=st.just("")):
    return st.tuples(subset.map(",".join), subset.map(",".join), st.integers(0, 3), tail).map(
        lambda t: "opinion {{{}}} >= {{{}}} : {}{}".format(*t))


_comment = st.sampled_from(("", "#", "# support {x,a} = 2"))
_good_header = st.just("alternatives: x a b")
_header = st.one_of(_good_header, _good_header, _good_header, st.sampled_from((
    "alternatives:  b a x\t", "alternatives: x x", "alternatives: a,b x", "alternatives x a b",
    " alternatives: x a b", "alternatives x: x a b", "# alternatives: x a b",
    "alternatives: x a\x1cb", "")))
# a known-names line with one token or line break put in anywhere
_spoilt = st.tuples(_opinion_line(_known), st.integers(0, 30),
                    st.one_of(st.sampled_from(_TOKENS + ("\n", "+", "_", "-")), _break)).map(
    lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])
# a line that breaks the machine-written shape: malformed, padded, blank,
# indented or split by a line break
_odd = st.one_of(
    _spoilt, _opinion_line(_any_names, st.sampled_from(("", " ", "\t"))), _shaped, _near_miss,
    st.sampled_from(("  ", "  # indented", "alternatives: x a b", " opinion {x} >= {a} : 1")))
@st.composite
def _opinion_files(draw):
    """A file of the shape format_opinion_state writes, with up to two
    lines, breaks or spaces spoilt."""
    lines = [draw(_header), *draw(st.lists(_comment, max_size=2)),
             *draw(st.lists(_opinion_line(_known), max_size=6))]
    breaks = ["\n"] * len(lines)
    any_break = st.one_of(st.just("\n"), _break)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        spoil = draw(st.sampled_from(("insert", "replace", "break", "space")))
        if spoil == "insert" or at == len(lines):
            lines.insert(at, draw(_odd))
            breaks.insert(at, "\n")
        elif spoil == "replace":
            lines[at] = draw(_odd)
        elif spoil == "break":
            breaks[at] = draw(_break)
        elif " " in lines[at]:
            line = lines[at]
            cut = draw(st.sampled_from([i for i, ch in enumerate(line) if ch == " "]))
            lines[at] = line[:cut] + draw(any_break) + line[cut + 1:]
    if draw(st.booleans()):
        breaks[-1] = ""
    return "".join(map("".join, zip(lines, breaks)))


def _wide_text(lines):
    """A benchmark-shaped file; opinion k's pair comes back as opinion k + 120."""
    names = [f"a{i}" for i in range(60)]
    return "alternatives: " + " ".join(names) + "\n" + "".join(
        f"opinion {{{','.join(names[k % 40:k % 40 + 20])}}} >= {{{names[k % 60]}}}"
        f" : {k % 5 + 1}\n" for k in range(lines))


def _read_in_slices(text, size):
    """The reader's outcome on the text with slices of ``size`` characters,
    after asserting that a state it builds equals the public constructor's
    and that a refused file builds none."""
    with pytest.MonkeyPatch.context() as patch, trusted_calls() as calls:
        patch.setattr(critrank.cli, "_SLICE", size)
        try:
            names, state = parse_opinion_state(text)
        except (ParseError, ValidationError) as exc:
            assert calls == []
            return type(exc), str(exc)
        assert calls == [("parse_opinion_state", state)]
        return names, state.counts


def _assert_slice_sizes_agree(text):
    """The reader's outcome on the text is the same at its own slice size and
    at 1, 7 and 64 characters."""
    outcomes = [_read_in_slices(text, size) for size in (critrank.cli._SLICE, 1, 7, 64)]
    assert outcomes == [outcomes[0]] * 4


class TestBulkReading:
    """Files read in slices cut at line ends: where the cuts fall changes
    neither a state nor an error's line."""

    @settings(max_examples=300, deadline=None)
    @given(_opinion_files())
    @example("alternatives: x\nopinion\n {x} >= {x} : 1\n")
    def test_bulk_and_per_line_agree(self, text):
        # one slice holds the whole file; a slice of one character ends at
        # the first line end past its start, so it holds one line (or a
        # blank line and the next)
        _assert_slice_sizes_agree(text)

    @settings(max_examples=200, deadline=None)
    @given(_opinion_files())
    @example("alternatives: x a b\nopinion {x} >= {a} : 0\nopinion {a,b} >= {x} : 2\n")
    @example("alternatives: x a b\nopinion {x} >= {a} : 0\nopinion { a} >= {x} : 0\n")
    def test_both_readers_build_what_the_public_constructor_builds(self, text):
        for size in (critrank.cli._SLICE, 1):
            _read_in_slices(text, size)

    # one file per condition of the machine-written shape, each a single
    # fault away from it
    @pytest.mark.parametrize("text", (
        "alternatives x: x\nopinion {x} >= {x} : 1\n",
        "alternatives: x\x1cy\nopinion {x} >= {x} : 1\n",
        "alternatives: x\nalternatives: x\nopinion {x} >= {x} : 1\n",
        "alternatives: x\nopinionx {x} >= {x} : 1\n",
        "alternatives: x\nopinion {x} => {x} : 1\n",
        "alternatives: x\nopinion {x} >= {x} x: 1\n",
        "alternatives: x\nopinion {x} >= {x} : +1\n",
        "alternatives: x y\nopinion {x,x} >= {y} : 1\n",
        "alternatives: x\nopinion {x} >= {x} : 1\n\n",
    ))
    def test_near_misses_agree(self, text):
        _assert_slice_sizes_agree(text)

    @pytest.mark.parametrize("line, status, err", (
        ("opinion {a1,q} >= {a2} : 1", 2, "invalid input: line 4001: unknown alternative 'q'\n"),
        ("opinion {a1} >= {a2} 1", 1, "error: line 4001: expected 'opinion {a,b} >= {c} : N'\n"),
    ))
    def test_errors_past_the_first_slice_keep_their_line(self, line, status, err,
                                                          tmp_path, capsys):
        lines = _wide_text(5000).split("\n")
        assert len("\n".join(lines[:4000])) > critrank.cli._SLICE
        lines[4000] = line
        assert len(lines) == 5002 and lines[-1] == ""  # 5,001 lines, each ended
        assert _rank_lines(tmp_path, capsys, "\n".join(lines)) == (status, "", err)


class TestRoundTrips:
    def test_opinion_state_with_support_comments(self, demo_state, demo_table):
        text = format_opinion_state(demo_table.alternatives, demo_state,
                                    include_supports=True)
        names, reread = parse_opinion_state(text)
        assert names == demo_table.alternatives
        assert reread == demo_state

    def test_empty_opinion_state(self):
        text = format_opinion_state(("x", "y", "z"), OpinionState(3, {}))
        names, reread = parse_opinion_state(text)
        assert reread.entries == {}


class TestFormatting:
    def test_subsets_keep_input_order(self):
        names = ("c", "a", "b")
        assert format_subset(AltSubset(bits(2, 0), 3), names) == "{c,b}"

    def test_ranking_layout(self):
        assert format_ranking(((1, 0), (2,)), ("x", "y", "z")) == "{x,y} > {z}"
        assert format_ranking((("solo",),)) == "{solo}"


@pytest.fixture
def demo_files(tmp_path):
    table = tmp_path / "table.txt"
    profile = tmp_path / "profile.txt"
    table.write_text(DEMO_TABLE_TEXT)
    profile.write_text(DEMO_PROFILE_TEXT)
    return str(table), str(profile)


def _table_and_profile_texts(table: CriterionTable, profile: PreferenceProfile):
    names = table.alternatives
    lines = ["alternatives: " + " ".join(names)]
    lines += [f"criterion {c}: " + " ".join(names[i] for i in iter_bits(table.tr[c].mask))
              for c in table.criteria]
    voters = [f"voter {v}: " + " > ".join(order)
              for v, order in zip(profile.voters, profile.orders)]
    return "\n".join(lines) + "\n", "\n".join(voters) + "\n"


def _run_main(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableRoute:
    """``rank --table/--profile`` prints what ``induce``, written to a file,
    then ``rank --opinions`` on that file prints, for every rule."""

    @pytest.fixture(params=("demo", "random-128"))
    def pair(self, request, tmp_path):
        if request.param == "demo":
            texts = DEMO_TABLE_TEXT, DEMO_PROFILE_TEXT
        else:
            rng = Random("cli/table-route")
            table = random_table(rng, 7, 6)
            texts = _table_and_profile_texts(table, random_profile(rng, table, 128))
        paths = [tmp_path / "table.txt", tmp_path / "profile.txt"]
        for path, text in zip(paths, texts):
            path.write_text(text)
        return [str(path) for path in paths]

    @pytest.mark.parametrize("fmt", ("text", "lines"))
    def test_every_rule_matches_the_induced_opinion_file(self, pair, fmt, tmp_path, capsys):
        table, profile = pair
        code, induced, _ = _run_main(capsys, ["induce", "--table", table, "--profile", profile])
        assert code == 0
        opinions = tmp_path / "opinions.txt"
        opinions.write_text(induced)
        names = parse_opinion_state(induced)[0]
        for name, rule in RULES.items():
            orders = [[]]
            if rule.takes_order:
                orders.append(["--order", ",".join(reversed(names))])
            for order in orders:
                argv = ["rank", "--rule", name, "--format", fmt, *order]
                direct = _run_main(capsys, [*argv, "--table", table, "--profile", profile])
                assert direct[0] == 0
                assert direct == _run_main(capsys, [*argv, "--opinions", str(opinions)])

    @pytest.mark.parametrize("voter, code, err", (
        ("voter 1: a > b > c\n", 2, "invalid input: voter '1' omits criteria: d, e, f\n"),
        ("voter 1: a > b > c > d > e f\n", 1,
         "error: line 1: malformed order 'a > b > c > d > e f'\n"),
    ))
    def test_a_malformed_profile_fails_as_induce_does(self, voter, code, err,
                                                      demo_files, tmp_path, capsys):
        table, _ = demo_files
        profile = tmp_path / "bad.txt"
        profile.write_text(voter)
        pair = ["--table", table, "--profile", str(profile)]
        assert _run_main(capsys, ["rank", "--rule", "iis", *pair]) == (code, "", err)
        assert _run_main(capsys, ["induce", *pair]) == (code, "", err)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestMainExitCodes:
    def test_demo_runs_clean(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "demo: ok" in out

    def test_module_run_prints_nothing_to_stderr(self):
        src = str(Path(critrank.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        done = subprocess.run(
            [sys.executable, "-m", "critrank.cli", "demo", "--format", "lines"],
            capture_output=True, text=True, env=env, check=False)
        assert done.returncode == 0
        assert done.stderr == ""
        assert "status=ok" in done.stdout

    def test_stdout_that_raises_broken_pipe_is_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["demo", "--format", "lines"]) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_closed_pipe_is_exit_1_and_later_flushes_go_nowhere(self, monkeypatch, capsys):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            assert main(["demo"]) == 1
            # what the interpreter's exit would flush now lands on devnull
            print("more", file=pipe)
            pipe.flush()
        assert capsys.readouterr().err == ""

    def test_choose_both_methods(self, demo_files, capsys):
        table, profile = demo_files
        for method in ("n1", "n2"):
            assert main(["choose", "--table", table, "--profile", profile,
                         "--method", method]) == 0
            assert "choice: {Copeland,Kemeny}" in capsys.readouterr().out

    def test_rank_from_table(self, demo_files, capsys):
        table, profile = demo_files
        assert main(["rank", "--table", table, "--profile", profile,
                     "--rule", "iis"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ranking: {Copeland,Kemeny} > ")

    def test_rank_needs_exactly_one_input_mode(self, demo_files, tmp_path, capsys):
        table, profile = demo_files
        opinions = tmp_path / "ops.txt"
        opinions.write_text("alternatives: x y z\n")
        assert main(["rank", "--rule", "iis"]) == 1
        assert main(["rank", "--rule", "iis", "--table", table,
                     "--profile", profile, "--opinions", str(opinions)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("part", ("k k", "k\tk"))
    def test_whitespace_inside_an_order_part_is_exit_1(self, part, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("alternatives: a b c\ncriterion j: a\ncriterion k: b\n")
        profile = tmp_path / "profile.txt"
        profile.write_text(f"voter 1: j > {part}\n")
        assert main(["rank", "--table", str(table), "--profile", str(profile),
                     "--rule", "iis"]) == 1
        assert capsys.readouterr().err == f"error: line 1: malformed order {'j > ' + part!r}\n"

    def test_missing_file(self, capsys):
        assert main(["rank", "--rule", "iis", "--opinions", "/no/such/file"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--opinions", "--table"))
    def test_non_utf8_file_is_exit_1(self, flag, demo_files, tmp_path, capsys):
        _table, profile = demo_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"alternatives: a b c\n\xff\n")
        inputs = ["--opinions", str(bad)] if flag == "--opinions" else [
            "--table", str(bad), "--profile", profile]
        assert main(["rank", "--rule", "iis", *inputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {bad}: ")

    def test_invalid_table_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("alternatives: a b c\ncriterion j: a\ncriterion k: a\n")
        profile = tmp_path / "p.txt"
        profile.write_text("voter 1: j > k\n")
        assert main(["choose", "--table", str(bad), "--profile", str(profile),
                     "--method", "n1"]) == 2
        assert "invalid input" in capsys.readouterr().err

    def test_bad_order_is_exit_2(self, demo_files, capsys):
        table, profile = demo_files
        assert main(["rank", "--table", table, "--profile", profile,
                     "--rule", "iis-tb-order", "--order", "Copeland"]) == 2
        capsys.readouterr()

    def test_order_with_a_rule_that_takes_none_is_exit_1(self, demo_files, capsys):
        table, profile = demo_files
        order = "Borda,Approval,Copeland,Dodgson,Maximin,Kemeny,Plurality"
        assert main(["rank", "--table", table, "--profile", profile,
                     "--rule", "iis", "--order", order]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rule iis takes no --order" in captured.err

    def test_usage_errors_are_exit_1(self, capsys):
        assert main([]) == 1
        assert main(["rank"]) == 1          # missing --rule
        assert main(["frobnicate"]) == 1
        assert main(["demo", "--bogus"]) == 1
        capsys.readouterr()

    def test_one_parser_serves_every_call(self, capsys):
        # the parser is built once per process; a usage error in between
        # must leave the next call's defaults as a fresh parser has them
        check = ["check", "--axiom", "nt", "--trials", "5", "--format", "lines"]
        assert main([*check, "--rule", "f2"]) == 0
        assert "rule=f2" in capsys.readouterr().out
        assert main(["rank", "--rule", "nope", "--opinions", "o.txt"]) == 1
        assert capsys.readouterr().err.startswith(
            "usage error: argument --rule: invalid choice: 'nope'")
        assert main(check) == 0
        assert "rule=iis" in capsys.readouterr().out
        assert _build_parser() is _build_parser()

    def test_help_is_exit_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_clean_check_is_exit_0(self, capsys):
        assert main(["check", "--axiom", "nt", "--trials", "60",
                     "--alternatives", "3"]) == 0
        assert "result: pass" in capsys.readouterr().out

    def test_violations_are_exit_3(self, capsys):
        assert main(["check", "--axiom", "iws", "--rule", "f2",
                     "--trials", "80", "--alternatives", "3"]) == 3
        out = capsys.readouterr().out
        assert "result: fail" in out
        assert "witness" in out

    def test_selftest_small(self, capsys):
        assert main(["selftest", "--trials", "25"]) == 0
        assert "result: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ("0", "-5", "many"))
    def test_check_rejects_nonpositive_trials(self, trials, capsys):
        assert main(["check", "--axiom", "nt", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "result" not in captured.out
        assert "--trials" in captured.err

    @pytest.mark.parametrize("trials", ("0", "-3"))
    def test_selftest_rejects_nonpositive_trials(self, trials, capsys):
        assert main(["selftest", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert "result" not in captured.out
        assert "--trials" in captured.err

    @pytest.mark.parametrize("axiom", ("iws", "ibs", "inui"))
    def test_check_runs_at_64_alternatives(self, axiom, capsys):
        assert main(["check", "--axiom", axiom, "--alternatives", "64",
                     "--trials", "5"]) == 0
        captured = capsys.readouterr()
        assert "result: pass" in captured.out
        assert captured.err == ""


# Per command shape, its exit code and its argv, built from the input paths
# of ``TestCollectorPause.files``
COMMAND_SHAPES = {
    "rank-opinions": (0, lambda f: ["rank", "--rule", "iis-tb-tau", "--opinions", f["opinions"]]),
    "rank-table": (0, lambda f: ["rank", "--rule", "lexcel", *f["pair"]]),
    "induce": (0, lambda f: ["induce", *f["pair"], "--format", "lines"]),
    "choose-n1": (0, lambda f: ["choose", *f["pair"], "--method", "n1"]),
    "choose-n2": (0, lambda f: ["choose", *f["pair"], "--method", "n2"]),
    "check-pass": (0, lambda f: ["check", "--axiom", "nt", "--trials", "60",
                                 "--alternatives", "5"]),
    "check-fail": (3, lambda f: ["check", "--axiom", "iws", "--rule", "f2",
                                 "--trials", "80", "--alternatives", "3"]),
    "selftest": (0, lambda f: ["selftest", "--trials", "10"]),
    "demo": (0, lambda f: ["demo"]),
    "demo-lines": (0, lambda f: ["demo", "--format", "lines"]),
    "missing-file": (1, lambda f: ["rank", "--rule", "iis", "--opinions", "/no/such/file"]),
    "malformed-profile": (1, lambda f: ["induce", "--table", f["table"],
                                        "--profile", f["bad_profile"]]),
    "usage-error": (1, lambda f: ["rank", "--opinions", f["opinions"]]),
    "invalid-table": (2, lambda f: ["choose", "--table", f["bad_table"],
                                    "--profile", f["profile"], "--method", "n1"]),
}


class TestCollectorPause:
    """``main`` runs each command with the cyclic collector paused, which is
    sound only while no command leaves a reference cycle behind."""

    @pytest.fixture
    def files(self, demo_files, tmp_path):
        """The demo table and profile, an opinion file, a table with a
        repeated criterion and a profile with a malformed order."""
        table, profile = demo_files
        texts = {"opinions": "alternatives: a b c\nopinion {a,b} >= {c} : 3\n"
                             "opinion {c} >= {a} : 1\n",
                 "bad_table": "alternatives: a b\ncriterion j: a\ncriterion k: a\n",
                 "bad_profile": "voter 1: Borda >\n"}
        paths = {}
        for name, text in texts.items():
            paths[name] = str(tmp_path / f"{name}.txt")
            Path(paths[name]).write_text(text)
        return {"table": table, "profile": profile,
                "pair": ["--table", table, "--profile", profile], **paths}

    @pytest.mark.parametrize("shape", COMMAND_SHAPES)
    def test_a_command_leaves_no_cycles(self, shape, files, capsys):
        code, argv = COMMAND_SHAPES[shape]
        # a first run may import modules and fill caches; the second is
        # what every later run of the command leaves behind
        assert main(argv(files)) == code
        gc.collect()
        gc.disable()
        try:
            assert main(argv(files)) == code
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()

    @pytest.mark.parametrize("enabled", (True, False), ids=("on", "off"))
    @pytest.mark.parametrize("shape", ("demo", "usage-error", "missing-file",
                                       "invalid-table", "check-fail"))
    def test_the_collector_is_left_as_it_was_found(self, shape, enabled, files, capsys):
        code, argv = COMMAND_SHAPES[shape]
        if not enabled:
            gc.disable()
        try:
            assert main(argv(files)) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        capsys.readouterr()

    @pytest.mark.parametrize("enabled", (True, False), ids=("on", "off"))
    def test_a_closed_pipe_leaves_the_collector_as_it_was_found(self, enabled,
                                                                 monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        if not enabled:
            gc.disable()
        try:
            assert main(["demo"]) == 1
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestMachineOutput:
    def test_seed_is_always_the_first_line(self, demo_files, capsys):
        table, profile = demo_files
        assert main(["choose", "--table", table, "--profile", profile,
                     "--method", "n1", "--format", "lines", "--seed", "7"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "seed=7"

    def test_identical_runs_are_byte_identical(self, capsys):
        args = ["check", "--axiom", "ibs", "--trials", "50",
                "--alternatives", "4", "--seed", "12", "--format", "lines"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert "seed=12" in first

    def test_demo_lines_report(self, capsys):
        assert main(["demo", "--format", "lines"]) == 0
        out = capsys.readouterr().out
        assert "status=ok" in out
        assert "e-scores=4,0,2,4,2,1,1" in out

    def test_induce_text_output_reparses(self, demo_files, demo_state, capsys):
        table, profile = demo_files
        assert main(["induce", "--table", table, "--profile", profile]) == 0
        out = capsys.readouterr().out
        names, reread = parse_opinion_state(out)
        assert reread == demo_state
        assert iis_rank(reread) == iis_rank(demo_state)
        assert "# support" in out


GOLDEN = Path(__file__).parent / "golden"
SUPPORT_ORDER = ("{Copeland,Kemeny} > {Maximin} > {Plurality} > {Borda} "
                 "> {Dodgson} > {Approval}")
LEXCEL_ORDER = ("{Copeland,Kemeny} > {Maximin} > {Plurality} > {Borda} "
                "> {Approval} > {Dodgson}")
# universe -> (mismatches, trials listed in the details)
SELFTEST_DETAILS = {3: (3, (0, 7, 16)), 4: (11, (0, 3, 5, 6, 9)),
                    5: (9, (0, 6, 11, 12, 13))}
WORST_SPLIT = "strict preference lost after the worst-class split"
# (rule, axiom, alternatives) -> violations, printed witnesses and their
# note under `check --trials 80`: each rival rule on its target axiom
CHECK_WITNESSES = {
    ("f2", "iws", 3): (16, ("x=1 y=0", "x=1 y=0", "x=0 y=1"), WORST_SPLIT),
    ("iis-tb-order", "nt", 12): (40, ("x=7 y=9", "x=0 y=1", "x=0 y=7"),
                                 "relabeling changed the pair's standing"),
    ("iis-tb-tau", "inui", 12): (2, ("x=0 y=5", "x=1 y=0"),
                                 "promotion moved a pair it should not reach"),
    ("f1", "ibs", 12): (2, ("x=11 y=7", "x=7 y=9"),
                        "strict preference lost after the best-class split"),
    ("f2", "iws", 12): (31, ("x=6 y=1", "x=2 y=1", "x=1 y=0"), WORST_SPLIT),
    # veto sets iterate in set order, which past 8 alternatives is not ascending
    ("indifferent", "wivip", 12): (68, ("x=9 y=0",) * 3,
                                   "veto element not ranked strictly above a non-veto one"),
}


def _golden_demo(fmt: str, replace: dict[str, str]) -> str:
    """The golden demo output, with each line that starts with a key of
    ``replace`` ending in that key's value instead."""
    want = []
    for line in (GOLDEN / f"demo-{fmt}.txt").read_text(encoding="utf-8").splitlines():
        for field, value in replace.items():
            if line.startswith(field):
                line = field + value
        want.append(line + "\n")
    return "".join(want)


class TestFailurePathOutput:
    """Exact output of the failure paths that no golden file reaches."""

    @pytest.mark.parametrize("fmt, ranking, status", (
        ("text", "ranking (lexcel): ", "demo: "),
        ("lines", "ranking-lexcel=", "status=")))
    def test_demo_with_a_broken_rule(self, fmt, ranking, status, monkeypatch, capsys):
        monkeypatch.setitem(RULES, "lexcel", Rule("lexcel", support_rank))
        assert main(["demo", "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == _golden_demo(fmt, {ranking: SUPPORT_ORDER, status: "fail"})
        assert captured.err == (
            f"demo mismatch: ranking (lexcel): got {SUPPORT_ORDER}, want {LEXCEL_ORDER}\n")

    @pytest.mark.parametrize("fmt, status", (("text", "demo: "), ("lines", "status=")))
    @pytest.mark.parametrize("method, label, key", (
        ("nurmi_first", "choice (cascade)", "choice-cascade"),
        ("nurmi_second", "choice (score sum)", "choice-score")))
    def test_demo_with_a_wrong_choice(self, method, label, key, fmt, status,
                                      monkeypatch, capsys):
        # the demo reads each choice off the function that choose runs
        monkeypatch.setattr(f"critrank.cli.{method}",
                            lambda table, profile: AltSubset(0b10, table.universe))
        assert main(["demo", "--format", fmt]) == 3
        captured = capsys.readouterr()
        field = f"{label}: " if fmt == "text" else f"{key}="
        assert captured.out == _golden_demo(fmt, {field: "{Dodgson}", status: "fail"})
        assert captured.err == (
            f"demo mismatch: {label}: got {{Dodgson}}, want {{Copeland,Kemeny}}\n")

    def test_demo_field_left_unprinted_fails(self, monkeypatch, capsys):
        # the demo reads its stages off the one cascade walk that choose runs
        monkeypatch.setattr("critrank.cli.cascade_sets",
                            lambda table, profile: cascade_sets(table, profile)[:5])
        assert main(["demo", "--format", "lines"]) == 3
        captured = capsys.readouterr()
        assert "stage-6" not in captured.out
        assert captured.out.endswith("status=fail\n")
        assert captured.err == "demo mismatch: stage-6: not printed\n"

    def test_selftest_details(self, monkeypatch, capsys):
        monkeypatch.setitem(RULES, "lexcel", Rule("lexcel", support_rank))
        text, lines = [], ["seed=0", "trials=30"]
        for universe, (mismatches, trials) in SELFTEST_DETAILS.items():
            text.append(f"alternatives {universe}: trials=30 mismatches={mismatches}")
            lines.append(f"universe-{universe}-mismatches={mismatches}")
            for trial in trials:
                text.append(f"  trial {trial}: ranking-lexcel")
                lines.append(f"universe-{universe}-detail=trial {trial}: ranking-lexcel")
        for fmt, want in (("text", text + ["result: fail"]),
                          ("lines", lines + ["result=fail"])):
            assert main(["selftest", "--trials", "30", "--format", fmt]) == 3
            assert capsys.readouterr().out == "\n".join(want) + "\n"

    @pytest.mark.parametrize("rule, axiom, n", CHECK_WITNESSES)
    def test_check_witnesses(self, capsys, rule, axiom, n):
        violations, witnesses, note = CHECK_WITNESSES[rule, axiom, n]
        fields = [("axiom", axiom), ("rule", rule), ("alternatives", n),
                  ("requested", 80), ("checked", 80), ("violations", violations)]
        text = [f"{key}: {value}" for key, value in fields]
        text += [f"witness: {w}: {note}" for w in witnesses] + ["result: fail"]
        lines = ["seed=0"] + [f"{key}={value}" for key, value in fields]
        lines += [f"witness-{i}={w}: {note}" for i, w in enumerate(witnesses, 1)]
        lines.append("result=fail")
        for fmt, want in (("text", text), ("lines", lines)):
            assert main(["check", "--axiom", axiom, "--rule", rule, "--trials", "80",
                         "--alternatives", str(n), "--format", fmt]) == 3
            assert capsys.readouterr().out == "\n".join(want) + "\n"
