"""Sparse identities at 60 to 64 alternatives, beyond the oracle's reach.

The brute-force oracle stops at 6 alternatives, so these states are checked
against plain per-subset formulas instead of enumeration, among them the
benchmark's independent reference, ``perfbench/reference.py``, loaded by
path and only read.  Each state holds a few hundred explicit subsets in a
handful of support classes; the subsets of a class are supersets of a core,
and the cores are nested, so the running intersection survives several
classes before it dies.
"""

import importlib.util
from functools import reduce
from operator import and_
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critrank.aggregators import RULES, iis_tiebreak_tau, lexcel_rank, support_rank
from critrank.axioms import check_axiom, generate_instances, permute_state
from critrank.cli import format_opinion_state, parse_opinion_state
from critrank.model import (
    OpinionState,
    column_sums,
    iter_bits,
    ranking_from_scores,
    refine_by_class_counts,
)

from conftest import tied, top_k, trailing_merge_sequence

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)


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


def ref_rank(rule, state):
    """The reference's ranking of ``state`` by ``rule``, as a tuple of classes."""
    return tuple(map(tuple, ref.rank(rule, state.universe, state.support_map)))


@settings(max_examples=20, deadline=None)
@given(wide_states_with_a_big_class())
def test_class_counts_and_their_rules_match_per_subset_counts(state):
    assert max(len(members) for members in state.quotient.classes) >= 256
    assert list(state.class_count_rows) == ref.class_counts(state.universe, state.support_map)
    assert lexcel_rank(state) == ref_rank("lexcel", state)
    assert iis_tiebreak_tau(state) == ref_rank("iis-tb-tau", state)


@settings(max_examples=40, deadline=None)
@given(wide_states())
def test_e_vector_matches_the_plain_top_k_formula(state):
    assert list(state.e_vector) == ref.e_scores(state.universe, state.support_map)


@st.composite
def shared_prefix_states(draw, split: bool):
    """(p, q, k, state): up to 300 one-member classes over 60 to 64
    alternatives, in which p and the top alternative q agree on membership
    in the first k classes, and differ at class k when ``split`` is set
    (when it is not, k is the class count and they never differ)."""
    n = draw(st.integers(60, 64))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    p, q = draw(st.integers(0, n - 2)), n - 1
    n_classes = draw(st.integers(1, 300))
    k = draw(st.integers(0, n_classes - 1)) if split else n_classes
    masks: dict[int, None] = {}
    while len(masks) < n_classes:
        m = rng.getrandbits(n)
        m = m & ~(1 << q) | (m >> p & 1) << q
        if len(masks) == k:
            m ^= 1 << q
        if m:
            masks.setdefault(m)
    # the i-th mask drawn is the i-th class
    return p, q, k, OpinionState.from_support(n, {m: n_classes - i for i, m in enumerate(masks)})


@settings(max_examples=40, deadline=None)
@given(shared_prefix_states(split=True))
def test_a_pair_agreeing_on_the_first_k_classes_is_split_by_class_k(drawn):
    p, q, k, state = drawn
    rows = ref.class_counts(state.universe, state.support_map)
    assert rows[p][:k] == rows[q][:k] and rows[p][k] != rows[q][k]
    lexcel = ref_rank("lexcel", state)
    assert lexcel_rank(state) == lexcel and not tied(lexcel, p, q)
    assert iis_tiebreak_tau(state) == ref_rank("iis-tb-tau", state)


@settings(max_examples=30, deadline=None)
@given(shared_prefix_states(split=False))
def test_a_pair_never_split_stays_tied_with_equal_residuals(drawn):
    p, q, _k, state = drawn
    rows = ref.class_counts(state.universe, state.support_map)
    # the residual column is last, so equal rows mean equal residuals too
    assert rows[p] == rows[q]
    lexcel, tau = ref_rank("lexcel", state), ref_rank("iis-tb-tau", state)
    assert lexcel_rank(state) == lexcel and tied(lexcel, p, q)
    assert iis_tiebreak_tau(state) == tau and tied(tau, p, q)


@settings(max_examples=30, deadline=None)
@given(st.integers(60, 64), st.integers(0, 2**32 - 1), st.booleans())
def test_tau_keeps_the_zero_score_band_whole(n, seed, everyone_zero):
    # the strongest class is one mask missing the top alternative, or two
    # disjoint masks, which leave every score at 0
    rng = Random(seed)
    top = (1 << n) - 1
    head = rng.getrandbits(n) & (top >> 1) or 1
    first = {head, top ^ head} if everyone_zero else {head}
    support = dict.fromkeys(first, 1000)
    while len(support) < 200:
        support.setdefault(rng.getrandbits(n) or 1, rng.randint(1, 999))
    state = OpinionState.from_support(n, support)
    zero = tuple(x for x, e in enumerate(ref.e_scores(n, state.support_map)) if e == 0)
    assert n - 1 in zero and (len(zero) == n) == everyone_zero
    lexcel, tau = ref_rank("lexcel", state), ref_rank("iis-tb-tau", state)
    assert iis_tiebreak_tau(state) == tau and tau[-1] == zero
    # the band is kept whole although lexcel splits it
    assert lexcel_rank(state) == lexcel and not tied(lexcel, zero[0], n - 1)


def counts_then_fail(classes):
    """Yield ``classes``, then fail the test if a further class is read."""
    yield from classes
    raise AssertionError("a class was read after every alternative stood alone")


@pytest.mark.parametrize("n", (3, 63, 64))
def test_the_walk_stops_reading_classes_once_the_alternatives_are_separated(n):
    width = (n - 1).bit_length()
    everyone = (1 << n) - 1
    # one-member classes: class j holds the alternatives whose index has bit
    # width-1-j set, so x's row is its index in binary, high bit first
    digits = [frozenset({sum(1 << x for x in range(n) if x >> (width - 1 - j) & 1)})
              for j in range(width)]
    singletons = [1 << x for x in reversed(range(n))]
    assert refine_by_class_counts([everyone], counts_then_fail(digits)) == singletons
    # one class of n-1 nested masks, counted in bit planes: x lies in x of them
    ladder = frozenset(everyone >> i << i for i in range(1, n))
    assert refine_by_class_counts([everyone], counts_then_fail([ladder])) == singletons
    # bands refine on their own, in their order
    low = (1 << n // 2) - 1
    assert refine_by_class_counts([low, everyone ^ low], counts_then_fail([ladder])) == (
        [1 << x for x in reversed(range(n // 2))] + [1 << x for x in reversed(range(n // 2, n))])


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
