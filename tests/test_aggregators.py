from operator import lt
from random import Random

import pytest
from hypothesis import given, settings

from critrank.aggregators import (
    RULES,
    coarse_f1,
    coarse_f2,
    criterion_score_state,
    indifference_rule,
    induce_opinion,
    iis_rank,
    iis_tiebreak_order,
    iis_tiebreak_tau,
    lexcel_rank,
    support_rank,
)
from critrank.axioms import random_profile, random_table
from critrank.choice import borda_criterion_scores
from critrank.cli import parse_profile
from critrank.model import (
    AltSubset,
    OpinionState,
    PreferenceProfile,
    ValidationError,
)

from conftest import bits, max_of, opinion_states, strictly_above, tied, trusted_calls


def classes_of(ranking: tuple) -> tuple:
    return tuple(map(frozenset, ranking))


def naive_pairwise_counts(table, profile) -> dict:
    """The induced counts, one voter and criterion pair at a time, with
    zero counts left out, in table order."""
    n_voters = len(profile.voters)
    positions = [{c: i for i, c in enumerate(order)} for order in profile.orders]
    expected = {}
    for c in table.criteria:
        pos_c = [pos[c] for pos in positions]
        for d in table.criteria:
            pos_d = [pos[d] for pos in positions]
            count = n_voters if c == d else sum(map(lt, pos_c, pos_d))
            if count:
                expected[(table.tr[c].mask, table.tr[d].mask)] = count
    return expected


def profile_text(orders) -> str:
    """A profile file of ``orders``, with exact and other separators in turn."""
    return "".join(f"voter {v}: {(' > ', '>', ' >  ')[v % 3].join(order)}\n"
                   for v, order in enumerate(orders))


class TestInduceOpinion:
    def test_worked_example_spot_entries(self, demo_table, demo_profile, demo_state):
        tr = demo_table.tr
        entries = demo_state.entries
        assert entries[(tr["a"], tr["a"])] == 3
        assert entries[(tr["b"], tr["a"])] == 2
        assert entries[(tr["a"], tr["b"])] == 1
        assert entries[(tr["e"], tr["f"])] == 1

    def test_unlisted_subsets_have_no_support(self, demo_table, demo_state):
        stranger = AltSubset(bits(0, 6), 7)
        assert all(s != stranger and t != stranger for s, t in demo_state.entries)
        assert demo_state.support_map.get(stranger.mask, 0) == 0

    def test_single_voter_gives_a_linear_tournament(self):
        rng = Random("agg/tournament")
        for _ in range(30):
            table = random_table(rng, 4, 4)
            profile = random_profile(rng, table, 1)
            state = induce_opinion(table, profile)
            subsets = [table.tr[c] for c in table.criteria]
            for s in subsets:
                assert state.entries[(s, s)] == 1
                for t in subsets:
                    if s != t:
                        total = (state.entries.get((s, t), 0)
                                 + state.entries.get((t, s), 0))
                        assert total == 1

    def test_opposite_entries_sum_to_the_voter_count(self):
        rng = Random("agg/pairsum")
        for _ in range(30):
            table = random_table(rng, 4, 3)
            n = rng.randint(2, 5)
            profile = random_profile(rng, table, n)
            state = induce_opinion(table, profile)
            subsets = [table.tr[c] for c in table.criteria]
            for s in subsets:
                assert state.entries[(s, s)] == n
                for t in subsets:
                    if s.mask < t.mask:
                        assert (state.entries.get((s, t), 0)
                                + state.entries.get((t, s), 0)) == n

    def test_supports_equal_criterion_scores(self):
        rng = Random("agg/supscore")
        for _ in range(40):
            table = random_table(rng, rng.randint(3, 6), rng.randint(2, 5))
            profile = random_profile(rng, table, rng.randint(1, 4))
            state = induce_opinion(table, profile)
            scores, alt_scores = borda_criterion_scores(table, profile)
            for c in table.criteria:
                assert state.support_map.get(table.tr[c].mask, 0) == scores[c]
            for x in range(table.universe):
                total = sum(v for m, v in state.support_map.items() if m >> x & 1)
                assert total == alt_scores[x]

    @pytest.mark.parametrize("n_voters", (1, 2, 3, 4, 7, 8, 9, 255, 256, 257))
    def test_matches_a_naive_pairwise_count(self, n_voters):
        # voter counts sit at the edges of the per-criterion counter width;
        # unanimous profiles put n_voters off the diagonal, the widest value
        rng = Random(f"agg/naive/{n_voters}")
        for trial in range(8):
            table = random_table(rng, rng.randint(3, 6), rng.randint(2, 7))
            profile = random_profile(rng, table, n_voters)
            if trial % 2:
                profile = PreferenceProfile(profile.voters, (profile.orders[0],) * n_voters)
            expected = naive_pairwise_counts(table, profile)
            state = induce_opinion(table, profile)
            assert state.counts == expected
            assert list(state.counts) == list(expected)

    @pytest.mark.parametrize("n_voters", (1, 127, 128, 255, 256))
    def test_matches_a_naive_count_on_parsed_profiles(self, n_voters):
        # the profile comes through the reader, with exact and other
        # separators, at the edges of one- and two-byte counters
        rng = Random(f"agg/parsed/{n_voters}")
        for trial in range(4):
            table = random_table(rng, rng.randint(3, 8), rng.randint(2, 7))
            orders = random_profile(rng, table, n_voters).orders
            if trial % 2:
                orders = (orders[0],) * n_voters
            profile = parse_profile(profile_text(orders), table)
            assert profile.orders == orders
            state = induce_opinion(table, profile)
            expected = naive_pairwise_counts(table, profile)
            assert state.counts == expected
            assert list(state.counts) == list(expected)


class TestTrustedStates:
    """The table route builds its states and their quotients unchecked; each
    must equal what the public constructors build from the same values."""

    @pytest.mark.parametrize("build", (induce_opinion, criterion_score_state))
    def test_random_tables(self, build):
        rng = Random(f"agg/trusted/{build.__name__}")
        # 3 alternatives and 7 criteria cover every subset: no residual
        shapes = [(3, 7)] * 10 + [(rng.randint(3, 8), rng.randint(1, 7)) for _ in range(190)]
        for universe, n_criteria in shapes:
            table = random_table(rng, universe, n_criteria)
            profile = random_profile(rng, table, rng.choice((1, 2, 5, 127, 128, 256)))
            with trusted_calls() as calls:
                state = build(table, profile)
                quotient = state.quotient
            assert calls == [(build.__name__, state), ("quotient", quotient)]
            assert quotient.residual_present == (n_criteria < 7 or universe > 3)
            if build is induce_opinion and len(profile.voters) == 1:
                # one voter leaves each pair of distinct criteria a count of 0
                # one way round, and those counts are dropped
                assert len(state.counts) == n_criteria * (n_criteria + 1) // 2


class TestCriterionScoreState:
    """The table route's state, one reflexive entry per criterion, has the
    induced state's supports in the same key order, so every rule ranks
    the two alike."""

    @staticmethod
    def assert_ranks_as_induced(table, profile, rng):
        induced = induce_opinion(table, profile)
        scored = criterion_score_state(table, profile)
        assert list(scored.support_map.items()) == list(induced.support_map.items())
        assert len(scored.counts) == len(table.criteria)
        assert all(s == t for s, t in scored.counts)
        order = list(range(table.universe))
        rng.shuffle(order)
        for name, rule in RULES.items():
            for tb in (None, order):
                assert rule(scored, tb) == rule(induced, tb), name

    def test_every_rule_on_random_tables(self):
        rng = Random("agg/scorestate")
        for trial in range(300):
            table = random_table(rng, rng.randint(3, 8), rng.randint(1, 7))
            profile = random_profile(rng, table, rng.randint(1, 9))
            if trial % 3 == 0:  # unanimous: every score class a singleton
                profile = PreferenceProfile(profile.voters,
                                            (profile.orders[0],) * len(profile.voters))
            self.assert_ranks_as_induced(table, profile, rng)

    @pytest.mark.parametrize("n_voters", (1, 127, 128, 255, 256))
    def test_every_rule_on_parsed_profiles(self, n_voters):
        # induce_opinion's counters change width at these voter counts
        rng = Random(f"agg/scorestate/{n_voters}")
        for trial in range(4):
            table = random_table(rng, rng.randint(3, 8), rng.randint(2, 7))
            orders = random_profile(rng, table, n_voters).orders
            if trial % 2:
                orders = (orders[0],) * n_voters
            profile = parse_profile(profile_text(orders), table)
            self.assert_ranks_as_induced(table, profile, rng)

    def test_a_profile_over_other_criteria_is_rejected_as_induction_does(self):
        table = random_table(Random(0), 4, 3)
        profile = PreferenceProfile(("v1",), (("c1", "c2", "z"),))
        for route in (induce_opinion, criterion_score_state):
            with pytest.raises(ValidationError, match="different criterion set"):
                route(table, profile)


class TestEScoreRanking:
    def test_worked_example(self, demo_state):
        assert classes_of(iis_rank(demo_state)) == (
            frozenset({0, 3}), frozenset({2, 4}), frozenset({5, 6}), frozenset({1}))

    def test_empty_state_is_total_indifference(self):
        assert iis_rank(OpinionState(3, {})) == ((0, 1, 2),)


class TestSupportRanking:
    def test_worked_example(self, demo_state):
        assert classes_of(support_rank(demo_state)) == (
            frozenset({0, 3}), frozenset({2}), frozenset({4}),
            frozenset({5}), frozenset({1}), frozenset({6}))

    def test_empty_state_is_total_indifference(self):
        assert support_rank(OpinionState(4, {})) == ((0, 1, 2, 3),)


class TestLexcel:
    def test_worked_example_class_counts_and_ranking(self, demo_state, demo_table):
        app = demo_table.alternatives.index("Approval")
        bor = demo_table.alternatives.index("Borda")
        assert demo_state.class_count_rows[app] == (1, 0, 0, 0, 1, 0, 62)
        assert demo_state.class_count_rows[bor] == (1, 0, 1, 0, 1, 1, 60)
        assert classes_of(lexcel_rank(demo_state)) == (
            frozenset({0, 3}), frozenset({2}), frozenset({4}),
            frozenset({5}), frozenset({6}), frozenset({1}))

    @settings(max_examples=150, deadline=None)
    @given(opinion_states())
    def test_class_count_components_cover_every_containing_subset(self, state):
        for x in range(state.universe):
            assert sum(state.class_count_rows[x]) == 2 ** (state.universe - 1)

    @settings(max_examples=120, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_strict_escore_preference_survives_lexcel(self, state):
        iis = iis_rank(state)
        lex = lexcel_rank(state)
        for x in range(state.universe):
            for y in range(state.universe):
                if x != y and strictly_above(iis, x, y):
                    assert strictly_above(lex, x, y)

    @settings(max_examples=120, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_equal_class_counts_mean_equal_escore(self, state):
        iis = iis_rank(state)
        for x in range(state.universe):
            for y in range(x + 1, state.universe):
                if state.class_count_rows[x] == state.class_count_rows[y]:
                    assert tied(iis, x, y)


class TestOrderTiebreak:
    def test_worked_example_with_alphabetical_order(self, demo_state, demo_table):
        alphabetical = tuple(
            demo_table.alternatives.index(name) for name in sorted(demo_table.alternatives))
        r = iis_tiebreak_order(demo_state, alphabetical)
        # every tied class here sits strictly between the floor and the
        # ceiling, so each one splits
        assert r == ((0,), (3,), (2,), (4,), (6,), (5,), (1,))

    def test_ceiling_ties_are_kept(self):
        state = OpinionState.from_support(3, {0b011: 2, 0b111: 1})
        r = iis_tiebreak_order(state, (0, 1, 2))
        assert r == ((0, 1), (2,))

    def test_floor_ties_are_kept(self):
        state = OpinionState.from_support(3, {0b001: 3, 0b010: 3})
        assert iis_tiebreak_order(state, (2, 1, 0)) == ((0, 1, 2),)

    def test_rejects_non_permutations(self):
        state = OpinionState(3, {})
        with pytest.raises(ValidationError):
            iis_tiebreak_order(state, (0, 1))
        with pytest.raises(ValidationError):
            iis_tiebreak_order(state, (0, 1, 1))
        for order in ((1.0, 0, 2), (True, False, 2)):
            with pytest.raises(ValidationError, match="^tie-break order must be a permutation"):
                iis_tiebreak_order(state, order)

    @settings(max_examples=100, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_refines_the_escore_ranking(self, state):
        iis = iis_rank(state)
        r = iis_tiebreak_order(state, tuple(range(state.universe)))
        for x in range(state.universe):
            for y in range(state.universe):
                if x != y and strictly_above(iis, x, y):
                    assert strictly_above(r, x, y)


class TestTauTiebreak:
    def test_worked_example(self, demo_state):
        assert classes_of(iis_tiebreak_tau(demo_state)) == (
            frozenset({0, 3}), frozenset({2}), frozenset({4}),
            frozenset({5}), frozenset({6}), frozenset({1}))

    def test_equal_class_counts_stay_tied(self):
        state = OpinionState.from_support(3, {0b011: 2})
        r = iis_tiebreak_tau(state)
        assert tied(r, 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_refines_the_escore_ranking(self, state):
        iis = iis_rank(state)
        r = iis_tiebreak_tau(state)
        for x in range(state.universe):
            for y in range(state.universe):
                if x != y and strictly_above(iis, x, y):
                    assert strictly_above(r, x, y)


class TestCoarseRules:
    def test_three_band_rule_on_the_worked_example(self, demo_state):
        assert classes_of(coarse_f1(demo_state)) == (
            frozenset({0, 2, 3, 4}), frozenset({5, 6}), frozenset({1}))

    def test_three_band_rule_collapses_when_all_scores_vanish(self):
        state = OpinionState.from_support(3, {0b001: 1, 0b010: 1})
        assert coarse_f1(state) == ((0, 1, 2),)

    def test_ceiling_band_rule_on_the_worked_example(self, demo_state):
        # nobody reaches the ceiling depth of 6, so one class
        assert coarse_f2(demo_state) == ((0, 1, 2, 3, 4, 5, 6),)

    def test_ceiling_band_rule_tops_a_singleton_first_class(self):
        state = OpinionState.from_support(3, {0b001: 5})
        assert coarse_f2(state) == ((0,), (1, 2))

    def test_ceiling_band_rule_on_a_flat_state(self):
        assert coarse_f2(OpinionState(3, {})) == ((0, 1, 2),)

    def test_indifference_rule_ignores_everything(self, demo_state):
        assert indifference_rule(demo_state) == ((0, 1, 2, 3, 4, 5, 6),)
        assert indifference_rule(OpinionState(4, {})) == ((0, 1, 2, 3),)


class TestMaxOf:
    def test_takes_the_top_class(self, demo_state):
        assert max_of(iis_rank(demo_state)).mask == bits(0, 3)

    def test_single_class_returns_everything(self):
        assert max_of(indifference_rule(OpinionState(3, {}))).mask == bits(0, 1, 2)

    def test_linear_order_returns_a_singleton(self):
        state = OpinionState.from_support(3, {0b001: 3, 0b011: 2, 0b111: 1})
        assert max_of(iis_rank(state)).mask == bits(0)
