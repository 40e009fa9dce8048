from itertools import combinations
from random import Random

import pytest

from critrank.aggregators import criterion_score_state, support_rank
from critrank.axioms import random_profile, random_table
from critrank.choice import (
    borda_criterion_scores,
    cascade_sets,
    nurmi_first,
    nurmi_second,
    positional_scores,
)
from critrank.model import (
    AltSubset,
    CriterionTable,
    PreferenceProfile,
    ValidationError,
    column_sums,
    iter_bits,
    ranking_from_scores,
)

from conftest import bits, is_symmetric, max_of


def table_of(universe, *tr_sets):
    names = tuple(f"x{i}" for i in range(universe))
    crits = tuple(f"c{i}" for i in range(len(tr_sets)))
    tr = {c: AltSubset(bits(*m), universe) for c, m in zip(crits, tr_sets)}
    return CriterionTable(names, crits, tr)


class TestCriterionScores:
    def test_worked_example_scores(self, demo_table, demo_profile):
        scores, alt_scores = borda_criterion_scores(demo_table, demo_profile)
        assert scores == {"a": 10, "b": 11, "c": 12, "d": 13, "e": 8, "f": 9}
        assert alt_scores == (54, 30, 43, 54, 42, 41, 22)

    def test_single_voter_positional_scores(self):
        table = table_of(3, (0,), (1,), (2,))
        profile = PreferenceProfile(("v",), (("c2", "c0", "c1"),))
        scores, _alt_scores = borda_criterion_scores(table, profile)
        assert scores == {"c0": 2, "c1": 1, "c2": 3}

    def test_rejects_profile_over_other_criteria(self):
        table = table_of(3, (0,), (1,))
        profile = PreferenceProfile(("v",), (("c0", "zzz"),))
        with pytest.raises(ValidationError):
            borda_criterion_scores(table, profile)

    def test_matches_position_sum_recomputation(self):
        rng = Random("choice/positional")
        for _ in range(60):
            table = random_table(rng, rng.randint(3, 6), 5)
            profile = random_profile(rng, table, 3)
            scores, _alt_scores = borda_criterion_scores(table, profile)
            m = len(table.criteria)
            for c in table.criteria:
                direct = sum(
                    sum(1 for d in table.criteria if order.index(c) <= order.index(d))
                    for order in profile.orders
                )
                n = len(profile.voters)
                assert scores[c] == direct
                assert n <= scores[c] <= n * m

    def test_alternative_scores_sum_over_satisfied(self):
        rng = Random("choice/altsum")
        for _ in range(40):
            table = random_table(rng, 4, 4)
            profile = random_profile(rng, table, 2)
            scores, alt_scores = borda_criterion_scores(table, profile)
            for x in range(4):
                direct = sum(scores[c] for c in table.criteria if table.tr[c].mask >> x & 1)
                assert alt_scores[x] == direct

    def test_keys_follow_table_order_whatever_the_first_voter(self):
        # ranking_from_scores keeps this order inside a tie, so the first voter's
        # order must not leak into it
        rng = Random("choice/keyorder")
        for _ in range(40):
            table = random_table(rng, rng.randint(3, 6), rng.randint(3, 6))
            profile = random_profile(rng, table, rng.randint(1, 6))
            first = list(table.criteria)
            while first == list(table.criteria):
                rng.shuffle(first)
            profile = PreferenceProfile(profile.voters, (tuple(first),) + profile.orders[1:])
            scores, _alt_scores = borda_criterion_scores(table, profile)
            assert tuple(scores) == table.criteria
            position = {c: i for i, c in enumerate(table.criteria)}
            for cls_ in ranking_from_scores(scores):
                assert list(cls_) == sorted(cls_, key=position.__getitem__)


class TestCriteriaRanking:
    def test_worked_example_order(self, demo_table, demo_profile):
        r = ranking_from_scores(positional_scores(demo_table, demo_profile))
        assert r == (("d",), ("c",), ("b",), ("a",), ("f",), ("e",))

    def test_unanimous_profile_reproduces_the_order(self):
        table = table_of(3, (0,), (1,), (2,), (0, 1))
        order = ("c2", "c0", "c3", "c1")
        profile = PreferenceProfile(("v1", "v2"), (order, order))
        r = ranking_from_scores(positional_scores(table, profile))
        assert r == (("c2",), ("c0",), ("c3",), ("c1",))

    def test_opposed_pair_ties_their_criteria(self):
        # two voters who swap only the top two criteria leave them tied
        table = table_of(3, (0,), (1,), (2,))
        profile = PreferenceProfile(
            ("v1", "v2"), (("c0", "c1", "c2"), ("c1", "c0", "c2")))
        r = ranking_from_scores(positional_scores(table, profile))
        assert r == (("c0", "c1"), ("c2",))


def weak_orders(items: tuple) -> list[tuple[tuple, ...]]:
    """Every weak order of ``items``, as tiers best first, each tier in the
    order of ``items``."""
    if not items:
        return [()]
    found = []
    for size in range(1, len(items) + 1):
        for first in combinations(items, size):
            rest = tuple(x for x in items if x not in first)
            found += [(first, *tail) for tail in weak_orders(rest)]
    return found


def lift_pair_orders(tiers: tuple[tuple[str, ...], ...]) -> list[tuple[str, ...]]:
    """Orders whose Borda classes are ``tiers``.  The pair "c, then the rest"
    and "c, then the rest reversed" gives c 2m points and every other of the
    m criteria m, so it lifts c by m and ties the rest; each criterion of
    tier j of k, counted from 0, gets k - j - 1 pairs.  One tier is one
    order and its reverse."""
    criteria = tuple(c for tier in tiers for c in tier)
    if len(tiers) == 1:
        return [criteria, criteria[::-1]]
    orders = []
    for j, tier in enumerate(tiers):
        for c in tier:
            rest = tuple(d for d in criteria if d != c)
            orders += [(c, *rest), (c, *rest[::-1])] * (len(tiers) - j - 1)
    return orders


class TestEveryWeakOrderIsABordaOrder:
    def test_lift_pairs_realize_every_weak_order_of_up_to_5_criteria(self):
        realized = 0
        for m in range(1, 6):
            table = table_of(3, *[(0,), (1,), (2,), (0, 1), (0, 2)][:m])
            for tiers in weak_orders(table.criteria):
                orders = lift_pair_orders(tiers)
                profile = PreferenceProfile(tuple(f"v{i}" for i in range(len(orders))),
                                            tuple(orders))
                assert ranking_from_scores(positional_scores(table, profile)) == tiers
                realized += 1
        assert realized == 1 + 3 + 13 + 75 + 541 == 633


class TestCascadeChoice:
    def test_worked_example_stages_and_choice(self, demo_table, demo_profile):
        stages = cascade_sets(demo_table, demo_profile)
        assert stages == (
            bits(0, 2, 3, 4, 5, 6),
            bits(0, 2, 3, 4),
            bits(0, 3),
            bits(0, 3),
            0,
            0,
        )
        assert nurmi_first(demo_table, demo_profile).mask == bits(0, 3)

    def test_single_criterion_returns_its_satisfiers(self):
        table = table_of(4, (1, 2))
        profile = PreferenceProfile(("v",), (("c0",),))
        assert nurmi_first(table, profile).mask == bits(1, 2)

    def test_empty_first_stage_falls_back_to_everything(self):
        # two top-tied criteria with disjoint satisfier sets kill stage one
        table = table_of(4, (0, 1), (2, 3))
        profile = PreferenceProfile(
            ("v1", "v2"), (("c0", "c1"), ("c1", "c0")))
        assert nurmi_first(table, profile).mask == bits(0, 1, 2, 3)

    def test_never_empty_cascade_keeps_the_last_stage(self):
        table = table_of(3, (0, 1, 2), (0, 1), (0,))
        profile = PreferenceProfile(("v",), (("c0", "c1", "c2"),))
        assert nurmi_first(table, profile).mask == bits(0)


class TestScoreChoice:
    def test_worked_example(self, demo_table, demo_profile):
        assert nurmi_second(demo_table, demo_profile).mask == bits(0, 3)

    def test_unsatisfying_alternative_never_chosen(self):
        table = table_of(4, (0, 1), (1, 2))
        profile = PreferenceProfile(("v",), (("c0", "c1"),))
        assert not nurmi_second(table, profile).mask >> 3 & 1

    def test_tied_maximum_returned_whole(self):
        table = table_of(3, (0, 1), (0, 1, 2))
        profile = PreferenceProfile(("v",), (("c0", "c1"),))
        assert nurmi_second(table, profile).mask == bits(0, 1)

    def test_tops_the_support_ranking_on_asymmetric_tables(self):
        # the support totals of the table route's state are the alternative
        # scores whatever the table, so no symmetry is needed, unlike the
        # claim acceptance 6 checks
        rng = Random("choice/score-asymmetric")
        asymmetric = 0
        for _ in range(400):
            table = random_table(rng, rng.randint(3, 7), rng.randint(1, 6))
            if is_symmetric(table):
                continue
            asymmetric += 1
            profile = random_profile(rng, table, rng.randint(1, 6))
            state = criterion_score_state(table, profile)
            totals = column_sums(table.universe, state.support_map.items())
            assert tuple(totals) == borda_criterion_scores(table, profile)[1]
            assert nurmi_second(table, profile) == max_of(support_rank(state))
        assert asymmetric > 300


class TestPermutationEquivariance:
    def test_relabeling_table_relabels_both_choices(self):
        rng = Random("choice/perm")
        for _ in range(50):
            universe = rng.randint(3, 5)
            table = random_table(rng, universe, rng.randint(2, 4))
            profile = random_profile(rng, table, rng.randint(1, 3))
            pi = list(range(universe))
            rng.shuffle(pi)
            relabeled = CriterionTable(
                table.alternatives,
                table.criteria,
                {c: AltSubset(bits(*(pi[i] for i in iter_bits(s.mask))), universe)
                 for c, s in table.tr.items()},
            )
            for method in (nurmi_first, nurmi_second):
                base = method(table, profile).mask
                moved = method(relabeled, profile).mask
                assert sorted(pi[i] for i in iter_bits(base)) == sorted(iter_bits(moved))
