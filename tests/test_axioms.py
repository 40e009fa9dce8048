import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings

from critrank.aggregators import (
    AXIOM_KINDS,
    RULES,
    Rule,
    coarse_f1,
    coarse_f2,
    indifference_rule,
    iis_rank,
    iis_tiebreak_order,
    iis_tiebreak_tau,
)
from critrank.axioms import (
    AxiomInstance,
    InvalidInstanceError,
    WITNESSES,
    band_rule_ibs_witness,
    ceiling_rule_iws_witness,
    check_axiom,
    generate_instances,
    indifference_wivip_witness,
    order_tiebreak_nt_witness,
    order_tiebreak_nt_witness_interior,
    permute_state,
    random_profile,
    random_table,
    sweep_axiom,
    tau_tiebreak_inui_witness,
    tau_tiebreak_inui_witness_scored,
    validate_instance,
)
from critrank.cli import parse_opinion_state
from critrank.model import OpinionState, Ranking, ValidationError, iter_bits, random_state

from conftest import (
    bits,
    check_choice_equivalence,
    is_symmetric,
    opinion_states,
    random_symmetric_table,
    trailing_merge_sequence,
    trusted_calls,
)


class TestPermutation:
    @settings(max_examples=120, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_relabeling_moves_supports_and_scores_along(self, state):
        rng = Random(state.universe * 1000 + len(state.entries))
        pi = list(range(state.universe))
        rng.shuffle(pi)
        moved = permute_state(state, pi)
        for m, v in state.support_map.items():
            assert moved.support_map.get(bits(*(pi[i] for i in iter_bits(m))), 0) == v
        original = state.e_vector
        relabeled = moved.e_vector
        for x in range(state.universe):
            assert relabeled[pi[x]] == original[x]

    def test_composition_of_relabelings(self):
        state = OpinionState.from_support(3, {0b011: 2, 0b100: 1})
        once = permute_state(state, (1, 2, 0))
        twice = permute_state(once, (1, 2, 0))
        assert twice == permute_state(state, (2, 0, 1))


class TestInstanceValidation:
    def test_generator_output_is_valid_for_every_kind(self):
        for kind in AXIOM_KINDS:
            for universe in (3, 4, 5):
                batch = generate_instances(kind, universe, seed=11, count=25)
                assert batch, f"no instances for {kind} at {universe}"
                for inst in batch:
                    validate_instance(inst)  # must not raise

    # the functions that build each kind's states and quotients unchecked
    _TRUSTED_SITES = {
        "nt": {"random_state", "permute_state"},
        "iws": {"random_support_state", "_state_from_class_masks", "quotient"},
        "ibs": {"random_support_state", "_state_from_class_masks", "quotient"},
        "wivip": {"_gen_wivip", "quotient"},
        "inui": {"random_support_state", "_state_from_class_masks", "quotient"},
    }

    @pytest.mark.parametrize("kind", AXIOM_KINDS)
    def test_generated_states_equal_the_public_constructors(self, kind):
        with trusted_calls() as calls:
            for universe in (3, 4, 5, 6, 12):
                for seed in range(4):
                    generate_instances(kind, universe, seed, 40)
        assert {name for name, _record in calls} == self._TRUSTED_SITES[kind]
        if kind == "wivip":
            # the dense flavor covers every subset: no residual class
            assert any(not q.residual_present for name, q in calls if name == "quotient")

    def test_generation_is_deterministic(self):
        a = generate_instances("iws", 4, seed=5, count=30)
        b = generate_instances("iws", 4, seed=5, count=30)
        assert a == b
        c = generate_instances("iws", 4, seed=6, count=30)
        assert a != c

    def test_universe_bound_is_checked_before_any_draw(self, monkeypatch):
        def no_draws(*_args):
            raise AssertionError("drew instances for an out-of-range universe")

        monkeypatch.setattr("critrank.axioms.Random", no_draws)
        with pytest.raises(ValidationError, match="3 to 64 alternatives"):
            generate_instances("nt", 65, 0, 1)

    def test_relabel_instance_rejects_a_wrong_image(self):
        o1 = OpinionState.from_support(3, {0b011: 2, 0b100: 1})
        wrong = OpinionState.from_support(3, {0b011: 2, 0b010: 1})
        inst = AxiomInstance("nt", o1, o2=wrong, permutation=(1, 2, 0))
        with pytest.raises(InvalidInstanceError):
            validate_instance(inst)

    def test_check_axiom_validates_before_judging(self):
        o1 = OpinionState.from_support(3, {0b011: 2, 0b100: 1})
        wrong = OpinionState.from_support(3, {0b011: 2, 0b010: 1})
        for inst in (AxiomInstance("nt", o1, o2=wrong, permutation=(1, 2, 0)),
                     AxiomInstance("wivip", o1)):
            with pytest.raises(InvalidInstanceError):
                check_axiom(iis_rank, inst)

    def test_relabel_instance_needs_a_permutation(self):
        o1 = OpinionState.from_support(3, {0b011: 2})
        with pytest.raises(InvalidInstanceError):
            validate_instance(AxiomInstance("nt", o1, o2=o1))

    def test_worst_split_rejects_a_touched_top_class(self):
        o1 = OpinionState.from_support(3, {0b011: 2, 0b100: 1})
        o2 = OpinionState.from_support(3, {0b111: 2, 0b100: 1})
        with pytest.raises(InvalidInstanceError):
            validate_instance(AxiomInstance("iws", o1, o2=o2))

    def test_worst_split_of_a_residual_free_last_class_is_accepted(self):
        # o1's last class is explicit, o2's is the residual
        o1 = OpinionState.from_support(3, {0b001: 2, **{m: 1 for m in range(2, 8)}})
        o2 = OpinionState.from_support(3, {0b001: 2, 0b010: 1, 0b011: 1})
        validate_instance(AxiomInstance("iws", o1, o2=o2))

    def test_worst_split_rejects_a_second_state_one_class_short(self):
        o1 = OpinionState.from_support(3, {0b001: 3, 0b010: 2})
        o2 = OpinionState.from_support(3, {0b001: 1})
        with pytest.raises(InvalidInstanceError):
            validate_instance(AxiomInstance("iws", o1, o2=o2))

    def test_best_split_keeping_the_residual_is_accepted(self):
        o1 = OpinionState.from_support(3, {0b011: 2, 0b101: 2, 0b100: 1})
        o2 = OpinionState.from_support(3, {0b011: 4, 0b101: 3, 0b100: 1})
        validate_instance(AxiomInstance("ibs", o1, o2=o2))

    def test_best_split_rejects_a_head_member_dropped_into_the_residual(self):
        # the middle class matches; only the last class tells the states apart
        o1 = OpinionState.from_support(3, {0b011: 2, 0b101: 2, 0b100: 1})
        o2 = OpinionState.from_support(3, {0b011: 3, 0b100: 1})
        with pytest.raises(InvalidInstanceError):
            validate_instance(AxiomInstance("ibs", o1, o2=o2))

    def test_best_split_rejects_a_changed_tail(self):
        o1 = OpinionState.from_support(3, {0b011: 2, 0b100: 1})
        o2 = OpinionState.from_support(3, {0b010: 3, 0b001: 2})  # drops the tail class
        with pytest.raises(InvalidInstanceError):
            validate_instance(AxiomInstance("ibs", o1, o2=o2))

    def test_veto_instance_requires_exactly_two_levels(self):
        o1 = OpinionState.from_support(3, {0b011: 2, 0b100: 1})  # three levels with residual
        with pytest.raises(InvalidInstanceError):
            validate_instance(AxiomInstance("wivip", o1))

    def test_promotion_must_split_a_class_properly(self):
        o1 = OpinionState.from_support(3, {0b001: 2, 0b010: 2})
        whole = frozenset({0b001, 0b010})
        o2 = OpinionState.from_support(3, {0b001: 3, 0b010: 3})
        with pytest.raises(InvalidInstanceError):
            validate_instance(AxiomInstance("inui", o1, o2=o2, promoted=whole))

    def test_promotion_needs_a_class_below_the_split(self):
        # dense state, no residual: the second class is the last one, and
        # splitting the last class is outside the promotion reading
        o1 = OpinionState.from_support(3, {0b001: 2, **{m: 1 for m in range(2, 8)}})
        delta = frozenset({0b010, 0b011})
        o2 = OpinionState.from_support(
            3, {0b001: 3, 0b010: 2, 0b011: 2,
                **{m: 1 for m in range(4, 8)}})
        with pytest.raises(InvalidInstanceError, match="followed"):
            validate_instance(AxiomInstance("inui", o1, o2=o2, promoted=delta))


class TestBaselineRulePassesEverything:
    @pytest.mark.parametrize("kind", AXIOM_KINDS)
    def test_small_sweeps_are_clean(self, kind):
        for universe in (3, 4):
            result = sweep_axiom(iis_rank, kind, universe, seed=2, count=250)
            assert result.violations == 0
            assert result.checked >= 200


RIVALS = sorted(name for name, rule in RULES.items() if rule.target is not None)


class TestRivalRuleDiagonal:
    @pytest.mark.parametrize("variant", RIVALS)
    def test_designated_axiom_breaks_and_others_hold(self, variant):
        rule = RULES[variant]
        target = rule.target
        hits = sum(
            sweep_axiom(rule, target, u, seed=3, count=150).violations
            for u in (3, 4))
        assert hits > 0, f"{variant} never violated {target}"
        for kind in AXIOM_KINDS:
            if kind == target:
                continue
            for u in (3, 4):
                result = sweep_axiom(rule, kind, u, seed=3, count=150)
                assert result.violations == 0, f"{variant} violated {kind}"


class TestNamedWitnesses:
    def test_order_rule_keeps_ceiling_ties_in_the_literal_story(self):
        # the two tied alternatives sit at the ceiling depth, where the rule
        # keeps ties, so this celebrated instance is not actually a violation
        verdict = check_axiom(RULES["iis-tb-order"], order_tiebreak_nt_witness())
        assert verdict.passed

    def test_order_rule_breaks_relabeling_on_an_interior_tie(self):
        verdict = check_axiom(RULES["iis-tb-order"],
                              order_tiebreak_nt_witness_interior())
        assert not verdict.passed

    def test_tau_rule_floor_ties_defuse_the_literal_story(self):
        # every alternative scores zero on both sides, so the rule keeps the
        # pair tied before and after the promotion: no violation
        verdict = check_axiom(iis_tiebreak_tau, tau_tiebreak_inui_witness())
        assert verdict.passed

    def test_tau_rule_breaks_promotion_on_a_scored_instance(self):
        verdict = check_axiom(iis_tiebreak_tau, tau_tiebreak_inui_witness_scored())
        assert not verdict.passed
        assert verdict.witness is not None

    def test_band_rule_breaks_best_class_splits(self):
        assert not check_axiom(coarse_f1, band_rule_ibs_witness()).passed

    def test_ceiling_rule_breaks_worst_class_splits(self):
        assert not check_axiom(coarse_f2, ceiling_rule_iws_witness()).passed

    def test_indifference_breaks_veto(self):
        assert not check_axiom(indifference_rule, indifference_wivip_witness()).passed


class TestIncompleteRanking:
    """A rule whose ranking leaves out an alternative fails the check by name."""

    @staticmethod
    def register(monkeypatch, incomplete):
        # the rule ranks by iis but drops the last alternative from the
        # rankings of the states that ``incomplete`` picks
        def rank(state):
            full = iis_rank(state)
            if not incomplete(state):
                return full
            gone = state.universe - 1
            kept = (tuple(x for x in members if x != gone) for members in full.classes)
            return Ranking(tuple(members for members in kept if members))

        monkeypatch.setitem(RULES, "incomplete", Rule("incomplete", rank))
        return RULES["incomplete"]

    @pytest.mark.parametrize("witness", [indifference_wivip_witness,
                                         order_tiebreak_nt_witness_interior])
    def test_every_ranking_incomplete(self, witness, monkeypatch):
        rule = self.register(monkeypatch, lambda state: True)
        with pytest.raises(ValidationError, match="label 2 not ranked"):
            check_axiom(rule, witness())

    def test_only_the_second_ranking_incomplete(self, monkeypatch):
        inst = order_tiebreak_nt_witness_interior()
        rule = self.register(monkeypatch, lambda state: state is inst.o2)
        with pytest.raises(ValidationError, match="label 2 not ranked"):
            check_axiom(rule, inst)


class TestRuleRegistry:
    def test_order_rules_default_to_the_identity_order(self):
        rule = RULES["iis-tb-order"]
        state = order_tiebreak_nt_witness_interior().o1
        assert rule(state) == iis_tiebreak_order(state, (0, 1, 2))
        assert rule(state, (2, 1, 0)) == iis_tiebreak_order(state, (2, 1, 0))

    def test_every_rival_rule_has_witnesses(self):
        assert set(WITNESSES) == {name for name, rule in RULES.items() if rule.target}

    def test_plain_rules_ignore_an_order(self):
        state = order_tiebreak_nt_witness_interior().o1
        assert RULES["iis"](state, (2, 1, 0)) == iis_rank(state)

    def test_axiom_matrix_prints_one_row_per_rule(self, capsys):
        path = Path(__file__).resolve().parents[1] / "scripts" / "axiom_matrix.py"
        spec = importlib.util.spec_from_file_location("axiom_matrix", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        script.main(["--trials", "5", "--sizes", "3"])
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if line.split() and line.split()[0] in RULES]
        assert rows == list(RULES)

    def test_output_digest_covers_every_rule_and_axiom(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
        spec = importlib.util.spec_from_file_location("output_digest", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        argvs = script.runs(str(tmp_path))
        checks = len(RULES) * len(AXIOM_KINDS) * 3 * 2 * 2
        # per voter count: every rule, induce, and both choose methods
        profile_runs = (len(RULES) + 1 + 2) * 2
        # per faulty profile: rank, induce and one choose method
        fault_runs = 3 * 2
        # per opinion file: every rule
        opinion_runs = 2 * len(RULES) * 2
        # per file past the universe bounds: iis
        bound_runs = 6 * 2
        assert len(argvs) == (checks + 4 + len(script.VOTER_COUNTS) * profile_runs
                              + 5 * fault_runs + opinion_runs + bound_runs)
        assert script.VOTER_COUNTS == (1, 127, 128, 255, 256)
        ranked = {argv[argv.index("--rule") + 1] for argv in argvs[checks + 4:]
                  if argv[0] == "rank"}
        assert ranked == set(RULES)
        for n_voters in script.VOTER_COUNTS:
            profile = (tmp_path / f"profile-{n_voters}.txt").read_text()
            assert len(profile.splitlines()) == n_voters
        bounds = argvs[len(argvs) - bound_runs:]
        argvs = argvs[:len(argvs) - bound_runs]
        assert [argv[:2] for argv in bounds] == [["rank", "--opinions"]] * bound_runs
        assert len({argv[2] for argv in bounds}) == 6
        faulty = argvs[-opinion_runs - 5 * fault_runs:-opinion_runs]
        assert {argv[0] for argv in faulty} == {"rank", "induce", "choose"}
        clean = script.table_and_profile(Random("digest/faults"), 40)[1].splitlines()
        for fault, lineno in (("repeated-voter", 6), ("unknown-criterion", 2),
                              ("omitted-criterion", 3), ("malformed-order", 4),
                              ("later-line", 37)):
            lines = (tmp_path / f"profile-{fault}.txt").read_text().splitlines()
            assert len(lines) == len(clean)
            assert [i for i, (a, b) in enumerate(zip(lines, clean), 1) if a != b] == [lineno]
            assert sum(str(tmp_path / f"profile-{fault}.txt") in argv for argv in faulty) == 6
        assert all(argv[:2] == ["rank", "--opinions"] for argv in argvs[-opinion_runs:])
        for shape, n_classes, size in (("wide", 5000, 1), ("tied", 8, 300)):
            text = (tmp_path / f"opinions-{shape}.txt").read_text()
            _names, state = parse_opinion_state(text)
            classes = state.quotient.classes
            assert state.universe == 64 and len(classes) == n_classes
            assert {len(members) for members in classes} == {size}
            assert any(m >> 63 for members in classes for m in members)
        demo = [["demo"], ["demo", "--format", "lines"]]
        assert script.digest(demo) == script.digest(demo) != script.digest(demo[::-1])

    @pytest.mark.parametrize("argv, message", [
        (["--trials", "0"], "--trials must be at least 1, got 0"),
        (["--trials", "-3"], "--trials must be at least 1, got -3"),
        (["--sizes", "2"], "--sizes must lie in 3..64, got 2"),
        (["--sizes", "3", "65"], "--sizes must lie in 3..64, got 65"),
    ])
    def test_axiom_matrix_rejects_empty_sweeps_and_bad_sizes(self, capsys, argv, message):
        path = Path(__file__).resolve().parents[1] / "scripts" / "axiom_matrix.py"
        spec = importlib.util.spec_from_file_location("axiom_matrix", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        with pytest.raises(SystemExit) as info:
            script.main(argv)
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(f"error: {message}")

    def test_axiom_matrix_runs_outside_the_repository(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "scripts" / "axiom_matrix.py"
        # no PYTHONPATH: the script must find the package on its own
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = subprocess.run(
            [sys.executable, str(path), "--trials", "5", "--sizes", "3"],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True).stdout
        rows, witnesses = {}, {}
        for line in out.splitlines()[1:1 + len(RULES)]:
            name, *cells = line.split()
            rows[name] = dict(zip(AXIOM_KINDS, map(int, cells[:len(AXIOM_KINDS)])))
            witnesses[name] = cells[-1]
        assert list(rows) == list(RULES)
        # the literal tie-break stories defuse; the repaired instances bite
        assert witnesses == {
            "iis": "-", "support": "-", "lexcel": "-",
            "iis-tb-order": "defused/hit", "iis-tb-tau": "defused/hit",
            "f1": "hit", "f2": "hit", "indifferent": "hit"}
        assert set(rows["iis"].values()) == {0}
        for name, rule in RULES.items():
            if rule.target is not None:
                assert all(v == 0 for kind, v in rows[name].items()
                           if kind != rule.target), name


class TestChoiceEquivalence:
    def test_worked_example(self, demo_table, demo_profile):
        eq = check_choice_equivalence(demo_table, demo_profile)
        assert eq.cascade_matches
        assert eq.cascade_choice.mask == bits(0, 3)
        assert not eq.symmetric
        assert eq.score_matches is None

    def test_symmetric_tables_align_the_score_route(self):
        rng = Random("axioms/symmetric")
        for _ in range(40):
            table = random_symmetric_table(rng, rng.randint(3, 6), rng.randint(2, 5))
            assert is_symmetric(table)
            profile = random_profile(rng, table, rng.randint(1, 4))
            eq = check_choice_equivalence(table, profile)
            assert eq.cascade_matches
            assert eq.score_matches is True


class TestTrailingMerges:
    @settings(max_examples=100, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_merging_the_tail_clamps_excellence_scores(self, state):
        original = state.e_vector
        merged = trailing_merge_sequence(state)
        n_classes = len(state.quotient.classes)
        assert len(merged) == n_classes + 1
        for j, shrunk in enumerate(merged):
            keep = n_classes - j
            clamped = tuple(min(e, keep) for e in original)
            assert shrunk.e_vector == clamped

    @settings(max_examples=100, deadline=None)
    @given(opinion_states(max_universe=4))
    def test_baseline_ranking_is_stable_under_canonical_values(self, state):
        # the first merge entry keeps every class but rewrites the support
        # values to a canonical descending run; the ranking cannot move
        first = trailing_merge_sequence(state)[0]
        assert iis_rank(first).classes == iis_rank(state).classes


class TestRandomGenerators:
    def test_random_tables_are_valid_and_distinct(self):
        rng = Random("axioms/tables")
        for _ in range(50):
            table = random_table(rng, rng.randint(3, 7), rng.randint(2, 6))
            masks = [table.tr[c].mask for c in table.criteria]
            assert len(set(masks)) == len(masks)

    def test_random_profiles_are_linear(self):
        rng = Random("axioms/profiles")
        table = random_table(rng, 4, 5)
        for _ in range(20):
            profile = random_profile(rng, table, 3)
            for order in profile.orders:
                assert sorted(order) == sorted(table.criteria)

    def test_random_states_are_reproducible(self):
        a = random_state(Random(9), 4)
        b = random_state(Random(9), 4)
        assert a == b
