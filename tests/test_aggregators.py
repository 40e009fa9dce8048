from operator import lt
from random import Random

import pytest
from hypothesis import given, settings

from critrank.aggregators import (
    coarse_f1,
    coarse_f2,
    indifference_rule,
    induce_opinion,
    iis_rank,
    iis_tiebreak_order,
    iis_tiebreak_tau,
    lexcel_rank,
    max_of,
    support_rank,
)
from critrank.axioms import random_profile, random_table
from critrank.choice import borda_criterion_scores
from critrank.model import (
    AltSubset,
    OpinionState,
    PreferenceProfile,
    Ranking,
    ValidationError,
)

from conftest import bits, opinion_states, strictly_above, tied


def classes_of(ranking: Ranking) -> tuple:
    return tuple(frozenset(c) for c in ranking.classes)


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
            tally = borda_criterion_scores(table, profile)
            for c in table.criteria:
                assert state.support_map.get(table.tr[c].mask, 0) == tally.criterion_scores[c]
            for x in range(table.universe):
                total = sum(v for m, v in state.support_map.items() if m >> x & 1)
                assert total == tally.alternative_scores[x]

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
            positions = [{c: i for i, c in enumerate(order)} for order in profile.orders]
            expected = {}
            for c in table.criteria:
                pos_c = [pos[c] for pos in positions]
                for d in table.criteria:
                    pos_d = [pos[d] for pos in positions]
                    count = n_voters if c == d else sum(map(lt, pos_c, pos_d))
                    if count:
                        expected[(table.tr[c].mask, table.tr[d].mask)] = count
            state = induce_opinion(table, profile)
            assert state.counts == expected
            assert list(state.counts) == list(expected)


class TestEScoreRanking:
    def test_worked_example(self, demo_state):
        assert classes_of(iis_rank(demo_state)) == (
            frozenset({0, 3}), frozenset({2, 4}), frozenset({5, 6}), frozenset({1}))

    def test_empty_state_is_total_indifference(self):
        assert iis_rank(OpinionState(3, {})).classes == ((0, 1, 2),)


class TestSupportRanking:
    def test_worked_example(self, demo_state):
        assert classes_of(support_rank(demo_state)) == (
            frozenset({0, 3}), frozenset({2}), frozenset({4}),
            frozenset({5}), frozenset({1}), frozenset({6}))

    def test_empty_state_is_total_indifference(self):
        assert support_rank(OpinionState(4, {})).classes == ((0, 1, 2, 3),)


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
        assert r.classes == ((0,), (3,), (2,), (4,), (6,), (5,), (1,))

    def test_ceiling_ties_are_kept(self):
        state = OpinionState.from_support(3, {0b011: 2, 0b111: 1})
        r = iis_tiebreak_order(state, (0, 1, 2))
        assert r.classes == ((0, 1), (2,))

    def test_floor_ties_are_kept(self):
        state = OpinionState.from_support(3, {0b001: 3, 0b010: 3})
        assert iis_tiebreak_order(state, (2, 1, 0)).classes == ((0, 1, 2),)

    def test_rejects_non_permutations(self):
        state = OpinionState(3, {})
        with pytest.raises(ValidationError):
            iis_tiebreak_order(state, (0, 1))
        with pytest.raises(ValidationError):
            iis_tiebreak_order(state, (0, 1, 1))

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
        assert coarse_f1(state).classes == ((0, 1, 2),)

    def test_ceiling_band_rule_on_the_worked_example(self, demo_state):
        # nobody reaches the ceiling depth of 6, so one class
        assert coarse_f2(demo_state).classes == ((0, 1, 2, 3, 4, 5, 6),)

    def test_ceiling_band_rule_tops_a_singleton_first_class(self):
        state = OpinionState.from_support(3, {0b001: 5})
        assert coarse_f2(state).classes == ((0,), (1, 2))

    def test_ceiling_band_rule_on_a_flat_state(self):
        assert coarse_f2(OpinionState(3, {})).classes == ((0, 1, 2),)

    def test_indifference_rule_ignores_everything(self, demo_state):
        assert indifference_rule(demo_state).classes == ((0, 1, 2, 3, 4, 5, 6),)
        assert indifference_rule(OpinionState(4, {})).classes == ((0, 1, 2, 3),)


class TestMaxOf:
    def test_takes_the_top_class(self, demo_state):
        assert max_of(iis_rank(demo_state)).mask == bits(0, 3)

    def test_single_class_returns_everything(self):
        assert max_of(indifference_rule(OpinionState(3, {}))).mask == bits(0, 1, 2)

    def test_linear_order_returns_a_singleton(self):
        state = OpinionState.from_support(3, {0b001: 3, 0b011: 2, 0b111: 1})
        assert max_of(iis_rank(state)).mask == bits(0)
