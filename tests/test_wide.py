"""Sparse identities at 60 to 64 alternatives, beyond the oracle's reach.

The brute-force oracle stops at 6 alternatives, so these states are checked
against plain per-subset formulas instead of enumeration.  Each state holds
a few hundred explicit subsets in a handful of support classes; the subsets
of a class are supersets of a core, and the cores are nested, so the
running intersection survives several classes before it dies.
"""

from functools import reduce
from itertools import accumulate
from operator import and_
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from critrank.aggregators import RULES, iis_tiebreak_tau, lexcel_rank, support_rank
from critrank.axioms import check_axiom, generate_instances, permute_state
from critrank.cli import format_opinion_state, parse_opinion_state
from critrank.model import (
    OpinionState,
    Ranking,
    column_sums,
    iter_bits,
    ranking_from_scores,
    score_groups,
)

from conftest import top_k, trailing_merge_sequence


def nested_core_support(rng: Random, universe: int, n_subsets: int,
                        n_values: int) -> dict[int, int]:
    """mask -> support; class j holds supersets of the j-th nested core."""
    top = (1 << universe) - 1
    core = top
    support: dict[int, int] = {}
    for value in range(n_values, 0, -1):
        core &= rng.getrandbits(universe) | rng.getrandbits(universe)
        for _ in range(n_subsets // n_values):
            mask = (core | rng.getrandbits(universe)) & top
            support.setdefault(mask or 1, value)
    return support


@st.composite
def wide_supports(draw, min_universe: int = 60, max_universe: int = 64):
    """(universe, mask -> support) with nested-core classes."""
    universe = draw(st.integers(min_universe, max_universe))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    support = nested_core_support(rng, universe, draw(st.integers(1, 400)),
                                  draw(st.integers(1, 8)))
    # the top bit alone and the full set are the mask edge cases
    top_bit = 1 << (universe - 1)
    for mask in (top_bit, (top_bit << 1) - 1):
        if draw(st.booleans()):
            support.setdefault(mask, 1)
    return universe, support


def wide_states(min_universe: int = 60, max_universe: int = 64):
    return wide_supports(min_universe, max_universe).map(
        lambda drawn: OpinionState.from_support(*drawn))


@st.composite
def wide_opinion_states(draw):
    """Wide states whose every subset also holds an off-diagonal opinion."""
    universe, support = draw(wide_supports())
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    counts: dict[tuple[int, int], int] = {}
    for mask, value in support.items():
        partner = rng.getrandbits(universe) or 1
        counts[(mask, mask)] = rng.randint(0, value - 1)
        counts[(mask, partner)] = counts.get((mask, partner), 0) + value - counts[(mask, mask)]
    return OpinionState(universe, counts)


@settings(max_examples=40, deadline=None)
@given(wide_states())
def test_prefix_intersection_is_a_plain_and_of_the_top_classes(state):
    q = state.quotient
    top = (1 << state.universe) - 1
    for k in range(1, len(q.classes) + 1):
        plain = reduce(and_, (m for members in q.classes[:k] for m in members), top)
        assert top_k(state, k) == frozenset(iter_bits(plain))
    # a few hundred explicit subsets leave singletons in the residual
    assert top_k(state, q.depth) == frozenset()


@settings(max_examples=40, deadline=None)
@given(st.integers(60, 64), st.integers(0, 2**32 - 1), st.integers(1, 200),
       st.integers(1, 8))
def test_a_core_in_every_subset_scores_the_explicit_class_count(universe, seed,
                                                                n_subsets, n_values):
    # the residual then holds every subset missing the core, so it never
    # extends the core's run past the explicit classes
    rng = Random(seed)
    core = rng.getrandbits(universe) or 1
    support = {core | rng.getrandbits(universe): rng.randint(1, n_values)
               for _ in range(n_subsets)}
    state = OpinionState.from_support(universe, support)
    q = state.quotient
    assert q.residual_present
    for x in iter_bits(core):
        assert state.e_vector[x] == len(q.classes)


@settings(max_examples=40, deadline=None)
@given(wide_states())
def test_support_column_sums_match_per_subset_sums(state):
    support = state.support_map
    sums = column_sums(state.universe, support.items())
    assert sums == [sum(v for m, v in support.items() if m >> x & 1)
                    for x in range(state.universe)]
    assert support_rank(state) == ranking_from_scores(dict(enumerate(sums)))


@st.composite
def wide_states_with_a_big_class(draw):
    """Wide states with one class of at least 256 subsets, the top bit alone
    among them, so its counts need more than 8 bit planes."""
    universe, support = draw(wide_supports())
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    core = rng.getrandbits(universe)
    big = {1 << (universe - 1)}
    while len(big) < 300:
        big.add((core | rng.getrandbits(universe)) or 1)
    value = draw(st.integers(1, 9))
    support.update(dict.fromkeys(big, value))
    return OpinionState.from_support(universe, support)


def plain_rows(state):
    """Per alternative, its class counts by a per-subset formula, residual last."""
    n, classes = state.universe, state.quotient.classes
    rows = []
    for x in range(n):
        row = [sum(1 for m in members if m >> x & 1) for members in classes]
        rows.append(tuple(row + [2 ** (n - 1) - sum(row)]))
    return rows


@settings(max_examples=20, deadline=None)
@given(wide_states_with_a_big_class())
def test_class_counts_and_their_rules_match_per_subset_counts(state):
    assert max(len(members) for members in state.quotient.classes) >= 256
    rows = plain_rows(state)
    assert list(state.class_count_rows) == rows
    assert lexcel_rank(state) == ranking_from_scores(dict(enumerate(rows)))
    # tau as first defined: positive-score ties split by running totals
    taus = [tuple(accumulate(row)) for row in rows]
    classes = []
    for value, members in score_groups(dict(enumerate(state.e_vector))):
        if value == 0:
            classes.append(tuple(members))
        else:
            classes += [tuple(tied) for _t, tied in score_groups({x: taus[x] for x in members})]
    assert iis_tiebreak_tau(state) == Ranking(tuple(classes))


def test_lexcel_and_tau_never_read_the_class_count_rows(demo_state, monkeypatch):
    def refuse(_state):
        raise AssertionError("class_count_rows was read")

    monkeypatch.setattr(OpinionState.__dict__["class_count_rows"], "func", refuse)
    wide = OpinionState.from_support(64, nested_core_support(Random(7), 64, 400, 6))
    for state in (OpinionState(demo_state.universe, demo_state.counts), wide):
        lexcel_rank(state)
        iis_tiebreak_tau(state)


@settings(max_examples=30, deadline=None)
@given(wide_states(), st.data())
def test_residual_column_complements_the_explicit_count(state, data):
    n = state.universe
    for x in (0, data.draw(st.integers(0, n - 1)), n - 1):
        row = state.class_count_rows[x]
        explicit = sum(1 for m in state.support_map if m >> x & 1)
        assert sum(row[:-1]) == explicit
        assert row[-1] == 2 ** (n - 1) - explicit


@settings(max_examples=25, deadline=None)
@given(wide_states(), st.data())
def test_relabeling_moves_scores_and_support_totals_along(state, data):
    pi = data.draw(st.permutations(range(state.universe)))
    moved = permute_state(state, pi)
    totals = column_sums(state.universe, state.support_map.items())
    moved_totals = column_sums(state.universe, moved.support_map.items())
    for x in range(state.universe):
        assert moved.e_vector[pi[x]] == state.e_vector[x]
        assert moved_totals[pi[x]] == totals[x]


@settings(max_examples=40, deadline=None)
@given(wide_states())
def test_scores_stay_below_the_quotient_depth(state):
    assert all(e < state.quotient.depth for e in state.e_vector)


@settings(max_examples=25, deadline=None)
@given(wide_states())
def test_trailing_merges_clamp_scores_to_the_kept_depth(state):
    merged = trailing_merge_sequence(state)
    n_classes = len(state.quotient.classes)
    assert len(merged) == n_classes + 1
    for j, shrunk in enumerate(merged):
        keep = n_classes - j
        assert shrunk.e_vector == tuple(min(e, keep) for e in state.e_vector)


@settings(max_examples=40, deadline=None)
@given(wide_supports())
def test_from_support_reproduces_the_support_map(drawn):
    universe, support = drawn
    state = OpinionState.from_support(universe, support)
    assert state.support_map == support
    assert OpinionState.from_support(universe, state.support_map) == state


@settings(max_examples=25, deadline=None)
@given(wide_states(min_universe=64), st.integers(1, 5))
def test_opinion_file_round_trip_keeps_bit_63(state, count):
    counts = dict(state.counts)
    high, full = 1 << 63, (1 << 64) - 1
    counts[(high, full)] = counts.get((high, full), 0) + count
    state = OpinionState(64, counts)
    names = tuple(f"a{i}" for i in range(64))
    assert parse_opinion_state(format_opinion_state(names, state)) == (names, state)


@settings(max_examples=25, deadline=None)
@given(wide_opinion_states())
def test_opinion_file_round_trip_keeps_off_diagonal_counts(state):
    names = tuple(f"a{i}" for i in range(state.universe))
    assert parse_opinion_state(format_opinion_state(names, state)) == (names, state)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(("iws", "ibs")), st.integers(60, 64), st.integers(0, 2**32 - 1))
def test_wide_score_shifts_bind_every_rule_but_the_known_breakers(kind, n, seed):
    # support and lexcel count members per class, which restructuring the
    # worst (iws) or best (ibs) class changes; the target rule breaks it by design
    breakers = {"support", "lexcel"} | {r.name for r in RULES.values() if r.target == kind}
    instances = generate_instances(kind, n, seed, 3)
    assert instances
    for inst in instances:
        for rule in RULES.values():
            if rule.name not in breakers:
                assert check_axiom(rule, inst).passed, (rule.name, kind, n, seed)
