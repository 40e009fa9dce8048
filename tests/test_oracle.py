from itertools import product

import pytest
from hypothesis import given, settings

from critrank.aggregators import (
    RULES,
    Rule,
    coarse_f1,
    coarse_f2,
    iis_rank,
    iis_tiebreak_tau,
    lexcel_rank,
    support_rank,
)
from critrank.cli import main
from critrank.model import (
    OpinionState,
    QuotientOrder,
    Ranking,
    ValidationError,
)
from critrank.oracle import (
    _compare_state,
    DenseState,
    ORACLE_MAX_UNIVERSE,
    dense_classes,
    dense_e_score,
    dense_e_vector,
    dense_rankings,
    dense_support_totals,
    dense_class_counts,
    differential_sweep,
)

from conftest import opinion_states


class TestDenseState:
    def test_from_sparse_sums_entry_rows(self):
        s, t = 0b011, 0b100
        state = OpinionState(3, {(s, t): 2, (s, s): 1, (t, s): 4})
        dense = DenseState.from_sparse(state)
        assert dense.support[s - 1] == 3
        assert dense.support[t - 1] == 4
        assert sum(dense.support) == 7

    def test_rejects_oversized_universe(self):
        with pytest.raises(ValidationError):
            DenseState(ORACLE_MAX_UNIVERSE + 1,
                       (0,) * (2 ** (ORACLE_MAX_UNIVERSE + 1) - 1))

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValidationError):
            DenseState(3, (0,) * 6)


class TestDenseRecomputation:
    def test_scores_on_a_nested_chain(self):
        # chain of supports: {x} above {x,y} above {x,y,z}
        state = OpinionState.from_support(3, {0b001: 3, 0b011: 2, 0b111: 1})
        d = DenseState.from_sparse(state)
        assert dense_e_score(d, 0) == 3
        assert dense_e_score(d, 1) == 0
        assert dense_e_score(d, 2) == 0

    def test_zero_class_sits_at_the_bottom(self):
        d = DenseState.from_sparse(OpinionState.from_support(3, {0b011: 2}))
        classes = dense_classes(d)
        assert classes[-1][0] == 0
        assert len(classes) == 2

    def test_flat_state_is_one_class(self):
        d = DenseState.from_sparse(OpinionState(3, {}))
        assert len(dense_classes(d)) == 1
        assert dense_e_vector(d) == (0, 0, 0)


class TestAgreementOnCorners:
    def corner_states(self):
        yield OpinionState(3, {})
        yield OpinionState.from_support(3, {0b111: 4})
        yield OpinionState.from_support(3, {0b001: 1, 0b010: 1, 0b100: 1})
        yield OpinionState.from_support(4, {m: m for m in range(1, 16)})
        yield OpinionState.from_support(5, {0b10101: 2, 0b01010: 2, 0b11111: 1})

    def test_support_quotient_and_scores_agree(self):
        for state in self.corner_states():
            d = DenseState.from_sparse(state)
            totals = dense_support_totals(d)
            for x in range(state.universe):
                direct = sum(v for m, v in state.support_map.items() if m >> x & 1)
                assert totals[x] == direct
            assert dense_e_vector(d) == state.e_vector
            for x in range(state.universe):
                assert dense_class_counts(d, x) == state.class_count_rows[x]

    def test_all_rankings_agree(self):
        for state in self.corner_states():
            d = DenseState.from_sparse(state)
            r = dense_rankings(d)
            assert r.iis == iis_rank(state).classes
            assert r.support == support_rank(state).classes
            assert r.lexcel == lexcel_rank(state).classes
            assert r.iis_tau == iis_tiebreak_tau(state).classes
            assert r.f1 == coarse_f1(state).classes
            assert r.f2 == coarse_f2(state).classes


class TestExhaustiveDepthBound:
    def test_every_small_dense_state_respects_the_bound(self):
        # all 3^7 support vectors with values in {0,1,2} at three alternatives
        for vector in product((0, 1, 2), repeat=7):
            d = DenseState(3, vector)
            depth = len(dense_classes(d))
            for x in range(3):
                assert dense_e_score(d, x) < depth


class TestDifferentialSweep:
    @pytest.mark.parametrize("universe", (2, 3, 4, 5, 6))
    def test_small_sweeps_are_clean(self, universe):
        report = differential_sweep(universe, trials=150, seed=4)
        assert report.clean, report.details
        assert report.trials == 150

    def test_rejects_untestable_universe(self):
        with pytest.raises(ValidationError):
            differential_sweep(ORACLE_MAX_UNIVERSE + 1, 10, 0)

    def test_rejects_a_single_alternative(self):
        # the lone alternative scores the full depth, so e-bound cannot hold
        with pytest.raises(ValidationError, match="2 to"):
            differential_sweep(1, 10, 0)

    def test_sweeps_are_reproducible(self):
        a = differential_sweep(3, 50, 9)
        b = differential_sweep(3, 50, 9)
        assert a == b

    @pytest.mark.parametrize("name", list(RULES))
    def test_a_wrong_rule_is_named(self, name, monkeypatch):
        rule = RULES[name]

        def wrong(state, *order):
            classes = rule.rank(state, *order).classes
            if len(classes) == 1:
                return Ranking(tuple((x,) for x in classes[0]))
            return Ranking(classes[1:] + classes[:1])

        monkeypatch.setitem(RULES, name, Rule(rule.name, wrong, rule.takes_order, rule.target))
        report = differential_sweep(3, 10, 0)
        assert report.mismatches == 10
        for detail in report.details:
            named = [p for p in detail.split(": ", 1)[1].split(", ")
                     if p.startswith("ranking-")]
            assert named == [f"ranking-{name}"], detail

    # One planted fault per state-level check of _compare_state, each made
    # from the right value of one cached property of OpinionState:
    # (property, fault, the problems every mismatching trial names first,
    # whether it names nothing else).  A fault in a quantity that later ones
    # derive from shows in them too, and an e-score past the bound always
    # differs from the oracle's as well.
    _PLANTED = {
        # doubled supports keep every class, score and ranking
        "support": ("support_map", lambda support, state: {
            m: 2 * v for m, v in support.items()}, ["support"], True),
        "quotient-classes": ("quotient", lambda q, state: QuotientOrder._trusted(
            q.universe, q.classes[::-1], q.residual_present), ["quotient-classes"], False),
        "depth": ("quotient", lambda q, state: QuotientOrder._trusted(
            q.universe, q.classes, not q.residual_present), ["depth"], False),
        # a swap keeps the multiset of scores, so never the bound
        "e-vector": ("e_vector", lambda e, state: (e[1], e[0], *e[2:]), ["e-vector"], False),
        "e-bound": ("e_vector", lambda e, state: (state.quotient.depth,) * len(e),
                    ["e-vector", "e-bound"], False),
        "class-counts@1": ("class_count_rows", lambda rows, state: tuple(
            (row[0] + (x == 1), *row[1:]) for x, row in enumerate(rows)),
            ["class-counts@1"], True),
    }

    @pytest.mark.parametrize("problem", list(_PLANTED))
    def test_selftest_names_a_planted_state_fault(self, problem, monkeypatch, capsys):
        prop, fault, named, alone = self._PLANTED[problem]
        cached = OpinionState.__dict__[prop]
        build = cached.func
        monkeypatch.setattr(cached, "func", lambda state: fault(build(state), state))
        assert main(["selftest", "--trials", "16", "--format", "lines"]) == 3
        out = capsys.readouterr().out.splitlines()
        assert "result=fail" in out
        details = [line.split(": ", 1)[1].split(", ") for line in out
                   if line.startswith("universe-") and "-detail=" in line]
        assert details
        for problems in details:
            assert problems[:len(named)] == named, problems
            assert not alone or problems == named, problems
            assert problem != "e-vector" or "e-bound" not in problems

    def test_class_count_rows_are_built_once_per_state(self, monkeypatch):
        cached = OpinionState.__dict__["class_count_rows"]
        build = cached.func
        calls = []

        def counted(state):
            calls.append(state)
            return build(state)

        monkeypatch.setattr(cached, "func", counted)
        state = OpinionState.from_support(4, {0b0011: 3, 0b0110: 3, 0b1111: 1})
        lexcel_rank(state)
        iis_tiebreak_tau(state)
        assert _compare_state(state, (0, 1, 2, 3)) == []
        assert calls == [state]

    def test_a_rule_without_dense_counterpart_fails_loudly(self, monkeypatch):
        monkeypatch.setitem(RULES, "unmatched", Rule("unmatched", iis_rank))
        with pytest.raises(LookupError, match="unmatched"):
            differential_sweep(3, 1, 0)

    @settings(max_examples=80, deadline=None)
    @given(opinion_states())
    def test_random_states_agree_on_quotient_depth(self, state):
        d = DenseState.from_sparse(state)
        assert len(dense_classes(d)) == state.quotient.depth
        totals = dense_support_totals(d)
        for x in range(state.universe):
            assert totals[x] == sum(
                v for m, v in state.support_map.items() if m >> x & 1)
