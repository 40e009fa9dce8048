import sys
import threading
from functools import cached_property
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critrank.model import (
    AltSubset,
    CriterionTable,
    OpinionState,
    PreferenceProfile,
    QuotientOrder,
    Ranking,
    ValidationError,
    column_sums,
    iter_bits,
    random_state,
    ranking_from_scores,
)

from conftest import (
    bits,
    is_symmetric,
    opinion_states,
    satisfied_counts,
    strictly_above,
    tied,
    top_k,
    trusted_calls,
    weakly_above,
)


def subset(universe, *indices):
    return AltSubset(bits(*indices), universe)


class TestAltSubset:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            AltSubset(0, 4)

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValidationError):
            AltSubset(0b1000, 3)

    def test_rejects_oversized_universe(self):
        with pytest.raises(ValidationError):
            AltSubset(1, 65)


class TestCriterionTable:
    def make(self, tr_sets, n=4):
        names = tuple("wxyz"[:n])
        crits = tuple(f"c{i}" for i in range(len(tr_sets)))
        tr = {c: subset(n, *m) for c, m in zip(crits, tr_sets)}
        return CriterionTable(names, crits, tr)

    def test_accepts_valid(self):
        t = self.make([(0, 1), (2,), (0, 2, 3)])
        assert t.universe == 4
        assert tuple(t.alternatives[i] for i in iter_bits(bits(1, 3))) == ("x", "z")

    def test_rejects_equivalent_criteria_naming_both(self):
        with pytest.raises(ValidationError, match="c0.*c2|c2.*c0"):
            self.make([(0, 1), (2,), (0, 1)])

    def test_rejects_too_few_alternatives(self):
        with pytest.raises(ValidationError):
            CriterionTable(("a", "b"), ("c0",), {"c0": subset(2, 0)})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError):
            CriterionTable(("a", "a", "b"), ("c0",), {"c0": subset(3, 0)})

    def test_symmetry_detection(self):
        sym = self.make([(0, 1), (2, 3), (0, 2), (1, 3)])
        assert is_symmetric(sym)
        assert satisfied_counts(sym) == (2, 2, 2, 2)
        assert not is_symmetric(self.make([(0, 1), (2,)]))


class TestPreferenceProfile:
    def test_rejects_incomplete_order(self):
        with pytest.raises(ValidationError):
            PreferenceProfile(("v1", "v2"), (("a", "b"), ("a",)))

    def test_rejects_duplicate_in_order(self):
        with pytest.raises(ValidationError):
            PreferenceProfile(("v1",), (("a", "a"),))

    @pytest.mark.parametrize("orders, message", [
        ((("a", "b"), ()), "voter 'v2' has an empty order"),
        ((("a", "a"), ("a", "b")), "voter 'v1' ranks a criterion twice"),
        ((("a", "b"), ("a", "b", "a")), "voter 'v2' ranks a criterion twice"),
        ((("a", "b"), ("a", "c")), "voter 'v2' ranks a different criterion set"),
        ((("a", "b"), ("b",)), "voter 'v2' ranks a different criterion set"),
    ])
    def test_each_order_fault_has_its_message(self, orders, message):
        with pytest.raises(ValidationError, match=f"^{message}"):
            PreferenceProfile(("v1", "v2"), orders)

    def test_orders_list_best_first(self):
        p = PreferenceProfile(("v1", "v2"), (("a", "b"), ("b", "a")))
        assert [order.index("a") for order in p.orders] == [0, 1]
        assert [order.index("b") for order in p.orders] == [1, 0]
        assert p.criteria_set == {"a", "b"}


class TestOpinionState:
    def test_normalizes_zero_counts_away(self):
        s, t = 0b001, 0b010
        state = OpinionState(3, {(s, t): 0, (t, s): 2})
        assert (s, t) not in state.counts
        assert state.counts[(t, s)] == 2

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            OpinionState(3, {(0b001, 0b001): -1})

    def test_rejects_foreign_universe(self):
        with pytest.raises(ValidationError):
            OpinionState(3, {(0b0001, 0b1000): 1})

    def test_from_support_realizes_any_support(self):
        target = {0b011: 4, 0b100: 1}
        state = OpinionState.from_support(3, target)
        assert state.support_map == target

    @pytest.mark.parametrize("mask", (0, 0b1000, -1))
    def test_from_support_rejects_masks_outside_the_universe(self, mask):
        with pytest.raises(ValidationError):
            OpinionState.from_support(3, {mask: 1})


class TestTrustedConstruction:
    """The private constructors, for values their callers already checked."""

    def test_a_trusted_state_drops_zero_counts(self):
        counts = {(0b001, 0b010): 0, (0b011, 0b011): 2, (0b100, 0b001): 0}
        state = OpinionState._trusted(3, dict(counts))
        assert state == OpinionState(3, counts)
        assert state.counts == {(0b011, 0b011): 2}

    @pytest.mark.parametrize("universe", (0, 65))
    def test_a_trusted_state_still_checks_the_universe(self, universe):
        message = f"universe size must be an integer in \\[1, 64\\], got {universe}$"
        with pytest.raises(ValidationError, match=message):
            OpinionState._trusted(universe, {})

    def test_the_public_constructor_copies_the_counts(self):
        counts = {(0b001, 0b001): 1}
        state = OpinionState(3, counts)
        counts[(0b010, 0b010)] = 2
        assert state.counts == {(0b001, 0b001): 1}

    def test_both_constructors_end_in_post_init(self, monkeypatch):
        # the traced benchmark run times every state's __post_init__
        seen = []
        tail = OpinionState.__post_init__

        def counted(state):
            seen.append(state)
            tail(state)

        monkeypatch.setattr(OpinionState, "__post_init__", counted)
        states = [OpinionState(3, {(0b001, 0b001): 1}),
                  OpinionState._trusted(3, {(0b001, 0b001): 1}),
                  random_state(Random(0), 3)]
        assert seen == states

    @pytest.mark.parametrize("support", (
        {m: 8 - m for m in range(1, 8)},       # every subset: no residual
        {m: 1 + m % 2 for m in range(1, 8)},
        {0b011: 2, 0b100: 2, 0b111: 1},
        {},
    ))
    def test_the_quotient_equals_the_public_one(self, support):
        with trusted_calls() as calls:
            q = OpinionState.from_support(3, support).quotient
        assert calls == [("quotient", q)]
        assert q.residual_present == (len(support) < 7)

    @settings(max_examples=100, deadline=None)
    @given(opinion_states())
    def test_the_quotient_of_random_states_equals_the_public_one(self, state):
        with trusted_calls() as calls:
            q = state.quotient
        assert calls == [("quotient", q)]


class TestIntKeyedCounts:
    @pytest.mark.parametrize("counts", (
        {(0, 0b001): 1},                         # mask 0
        {(0b001, 0b1000): 1},                    # at 1 << n
        {(1 << 70, 0b001): 1},
        {(subset(3, 0), subset(3, 0)): 1},       # not an int
        {(0b001, 1.0): 1},
        {("a", 0b001): 1},
        {0b001: 1},                              # not a pair
        {(0b001, 0b010, 0b100): 1},
        {(0b001, 0b010): -1},                    # negative count
        {(0b001, 0b010): 1.0},                   # not an int count
        {(0b001, 0b010): "2"},
    ), ids=repr)
    def test_rejects_bad_keys_and_counts(self, counts):
        with pytest.raises(ValidationError):
            OpinionState(3, counts)

    def test_accepts_bit_63_at_64_alternatives(self):
        high, full = 1 << 63, (1 << 64) - 1
        state = OpinionState(64, {(high, full): 2, (full, high): 1})
        assert state.support_map == {high: 2, full: 1}

    @settings(max_examples=60)
    @given(opinion_states())
    def test_entries_are_the_alt_subset_view_of_counts(self, state):
        n = state.universe
        assert state.entries == {
            (AltSubset(s, n), AltSubset(t, n)): c for (s, t), c in state.counts.items()}

    def test_keeps_the_names_the_traced_benchmark_wraps(self):
        # the traced benchmark run wraps these in place and reads .entries
        assert "__post_init__" in OpinionState.__dict__
        for name in ("entries", "support_map", "quotient", "e_vector"):
            prop = OpinionState.__dict__[name]
            assert isinstance(prop, cached_property) and callable(prop.func)


class TestSupport:
    def test_single_entry_row_sum(self):
        s, t = subset(3, 0, 1), subset(3, 2)
        state = OpinionState(3, {(s.mask, t.mask): 5})
        assert state.support_map.get(s.mask, 0) == 5
        assert state.support_map.get(t.mask, 0) == 0

    def test_empty_state_supports_nothing(self):
        state = OpinionState(3, {})
        assert state.support_map.get(bits(0), 0) == 0
        assert state.support_map == {}

    def test_rows_sum_over_all_partners(self):
        s, t, u = subset(3, 0), subset(3, 1), subset(3, 2)
        state = OpinionState(3, {(s.mask, t.mask): 2, (s.mask, u.mask): 3, (t.mask, s.mask): 7})
        assert state.support_map.get(s.mask, 0) == 5
        assert state.support_map.get(t.mask, 0) == 7


class TestColumnSums:
    @pytest.mark.parametrize("universe", (1, 7, 8, 9, 63, 64))
    def test_matches_the_per_bit_sum_across_byte_boundaries(self, universe):
        top = (1 << universe) - 1
        # each byte edge alone and in pairs that straddle it, plus the full set
        edges = sorted({i for b in range(0, universe, 8) for i in (b, b + 7)
                        if i < universe} | {universe - 1})
        masks = [1 << i for i in edges] + [3 << i & top or 1 for i in edges] + [top]
        weighted = [(m, w) for w, m in enumerate(dict.fromkeys(masks), start=1)]
        weighted += [(top, 5), (1 << (universe - 1), 0)]
        plain = [sum(w for m, w in weighted if m >> x & 1) for x in range(universe)]
        assert column_sums(universe, weighted) == plain
        assert column_sums(universe, iter(weighted)) == plain

    def test_no_masks_sum_to_zero(self):
        assert column_sums(9, []) == [0] * 9


class TestQuotientOrder:
    def test_empty_state_is_one_residual_class(self):
        q = OpinionState(3, {}).quotient
        assert q.classes == ()
        assert q.residual_present
        assert q.depth == 1

    def test_dense_distinct_supports_have_no_residual(self):
        universe = 3
        support = {m: 8 - m for m in range(1, 8)}
        q = OpinionState.from_support(universe, support).quotient
        assert not q.residual_present
        assert len(q.classes) == 7
        assert all(len(members) == 1 for members in q.classes)

    def test_residual_is_derived_from_the_cover(self):
        full = tuple(frozenset({m}) for m in range(1, 8))
        q = QuotientOrder(3, full)
        assert not q.residual_present
        assert q.depth == len(q.classes) == 7
        partial = QuotientOrder(3, full[:5])
        assert partial.residual_present
        assert partial.depth == 6
        assert sum(map(len, partial.classes)) == 5

    def test_values_strictly_decreasing(self):
        state = OpinionState.from_support(3, {0b001: 2, 0b010: 2, 0b100: 1})
        q = state.quotient
        assert q.classes == (frozenset({0b001, 0b010}), frozenset({0b100}))
        assert [state.support_map[min(members)] for members in q.classes] == [2, 1]

    @pytest.mark.parametrize("mask", (0, 0b1000))
    def test_rejects_members_outside_the_universe(self, mask):
        with pytest.raises(ValidationError, match="out of range"):
            QuotientOrder(3, (frozenset({0b001, mask}),))

    @settings(max_examples=150, deadline=None)
    @given(opinion_states())
    def test_flattening_reproduces_supports(self, state):
        q = state.quotient
        support = state.support_map
        values = []
        for members in q.classes:
            in_class = {support[m] for m in members}
            assert len(in_class) == 1
            values += in_class
        assert all(a > b for a, b in zip(values, values[1:]))
        assert sorted(m for members in q.classes for m in members) == sorted(support)
        explicit = sum(len(members) for members in q.classes)
        assert q.residual_present == (explicit < 2 ** state.universe - 1)
        assert q.depth == len(q.classes) + q.residual_present

    @settings(max_examples=150, deadline=None)
    @given(st.permutations(range(1, 8)), st.sets(st.integers(1, 6), max_size=6),
           st.integers(0, 7))
    def test_an_ordered_partition_round_trips_through_its_support(self, masks, cuts, kept):
        """Masks cut into ordered blocks and realized with support len..1 come
        back as exactly those blocks, whatever is left to the residual."""
        bounds = [0, *sorted(c for c in cuts if c < kept), kept]
        classes = tuple(frozenset(masks[a:b]) for a, b in zip(bounds, bounds[1:]) if a < b)
        support = {m: len(classes) - i for i, members in enumerate(classes) for m in members}
        state = OpinionState.from_support(3, support)
        assert state.quotient.classes == classes
        assert QuotientOrder(3, classes) == state.quotient

    @settings(max_examples=100, deadline=None)
    @given(opinion_states())
    def test_a_quotient_is_rebuilt_from_its_classes(self, state):
        assert QuotientOrder(state.universe, state.quotient.classes) == state.quotient


class TestClassUnionIntersection:
    def test_single_subset_top_class_is_itself(self):
        state = OpinionState.from_support(3, {0b101: 3})
        assert top_k(state, 1) == frozenset({0, 2})

    @settings(max_examples=120, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_prefix_intersections_match_enumeration(self, state):
        q = state.quotient
        support = state.support_map
        full = (1 << state.universe) - 1
        by_value: dict[int, list[int]] = {}
        for m in range(1, full + 1):
            v = support.get(m, 0)
            by_value.setdefault(v, []).append(m)
        masks_so_far: list[int] = []
        expected = []
        for v in sorted(by_value, reverse=True):
            masks_so_far += by_value[v]
            inter = full
            for m in masks_so_far:
                inter &= m
            expected.append(frozenset(
                x for x in range(state.universe) if inter >> x & 1))
        assert len(expected) == q.depth
        for k in range(1, q.depth + 1):
            assert top_k(state, k) == expected[k - 1]

    @settings(max_examples=150, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_prefix_intersections_shrink(self, state):
        q = state.quotient
        previous = None
        for k in range(1, q.depth + 1):
            current = top_k(state, k)
            if previous is not None:
                assert current <= previous
            previous = current


class TestEScore:
    def test_singleton_top_class_shuts_others_out(self):
        state = OpinionState.from_support(3, {0b001: 5, 0b011: 1})
        assert state.e_vector[1] == 0
        assert state.e_vector[2] == 0
        assert state.e_vector[0] == 2

    @pytest.mark.parametrize("state", (
        OpinionState(1, {}), OpinionState.from_support(1, {1: 2})))
    def test_one_alternative_scores_the_full_depth(self, state):
        # the lone alternative lies in the only subset, residual or explicit
        assert state.e_vector == (1,)

    @settings(max_examples=200, deadline=None)
    @given(opinion_states())
    def test_depth_bound(self, state):
        q = state.quotient
        assert all(e < q.depth for e in state.e_vector)


class TestCachedValuesAcrossThreads:
    CACHED = ("support_map", "quotient", "e_vector", "class_count_rows")

    def test_racing_first_reads_agree_with_one_thread(self):
        # more threads than cores, switching as often as the interpreter
        # allows, all reading the same fresh states in different orders
        rng = Random(19)
        drawn = [random_state(rng, rng.randint(3, 6)) for _ in range(150)]
        expected = [tuple(getattr(OpinionState(s.universe, dict(s.counts)), name)
                          for name in self.CACHED) for s in drawn]
        shared = [OpinionState(s.universe, dict(s.counts)) for s in drawn]
        n_threads = 8
        start = threading.Barrier(n_threads)
        seen = [[] for _ in range(n_threads)]

        def read(k):
            start.wait(timeout=10)
            order = range(len(shared))
            for i in (order if k % 2 else reversed(order)):
                seen[k].append((i, tuple(getattr(shared[i], name) for name in self.CACHED)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k,)) for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for reads in seen:
            assert len(reads) == len(shared)
            for i, values in reads:
                assert values == expected[i]

    def test_the_quotient_builder_can_be_swapped_and_restored(self):
        # the traced benchmark run wraps ``func`` in place and puts it back
        prop = OpinionState.__dict__["quotient"]
        assert isinstance(prop, cached_property)
        build = prop.func
        calls = []

        def counted(state):
            calls.append(state)
            return build(state)

        prop.func = counted
        try:
            state = OpinionState.from_support(3, {0b011: 2, 0b100: 1})
            assert state.quotient == QuotientOrder(3, (frozenset({0b011}), frozenset({0b100})))
            assert state.quotient is state.quotient and calls == [state]
        finally:
            prop.func = build
        assert OpinionState.__dict__["quotient"].func is build
        assert OpinionState.from_support(3, {0b011: 2}).quotient.depth == 2
        assert calls == [state]


class TestRanking:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            Ranking(((0, 1), (1,)))

    def test_rejects_empty_class(self):
        with pytest.raises(ValidationError):
            Ranking(((0,), ()))

    def test_comparisons(self):
        r = Ranking(((2,), (0, 1)))
        assert strictly_above(r, 2, 0)
        assert tied(r, 0, 1)
        assert weakly_above(r, 1, 0)
        assert not weakly_above(r, 0, 2)
        assert r.top == (2,)

    def test_from_scores_groups_descending(self):
        r = ranking_from_scores({"a": 1, "b": 3, "c": 1, "d": 2})
        assert r.classes == (("b",), ("d",), ("a", "c"))
