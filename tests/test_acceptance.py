"""End-to-end acceptance checks.

Each test prints one summary line "acceptance <n> (<label>): PASS|FAIL"
plus a detail line per failed sub-check.  The rival-rule criterion reads
each rival rule's (literal story, repaired instance) pair from
``critrank.axioms.WITNESSES``.  For the two tie-break rules it asserts
that the literal story, whose tie sits in a band the rule keeps tied, is
not a violation, which pins those kept bands, and that the repaired
instance is one.  For the other rival rules the literal story must be a
violation.
"""

import time
from random import Random

import pytest

from critrank.aggregators import (
    AXIOM_KINDS,
    RULES,
    induce_opinion,
    iis_rank,
    lexcel_rank,
    support_rank,
)
from critrank.axioms import (
    WITNESSES,
    check_axiom,
    generate_instances,
    permute_state,
    random_profile,
    random_state,
    random_support_state,
    random_table,
)
from critrank.choice import (
    borda_criterion_scores,
    borda_ranking,
    cascade_sets,
    nurmi_first,
    nurmi_second,
)
from critrank.cli import main
from critrank.model import AltSubset, iter_bits
from critrank.oracle import differential_sweep

from conftest import bits, check_choice_equivalence, random_symmetric_table, top_k

SWEEP_SEED = 20240
SWEEP_SIZES = (3, 4, 5)
SWEEP_COUNT = 1000


def conclude(number: int, label: str, checks: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"acceptance {number} ({label}): {verdict}")
    for name in failed:
        print(f"  failed sub-check: {name}")
    assert not failed, f"acceptance {number} failed: {', '.join(failed)}"


@pytest.fixture(scope="module")
def instance_batches():
    """Shared generated instances: (axiom, universe) -> tuple of instances."""
    batches = {}
    for kind in AXIOM_KINDS:
        for universe in SWEEP_SIZES:
            batches[(kind, universe)] = tuple(
                generate_instances(kind, universe, SWEEP_SEED, SWEEP_COUNT))
    return batches


def test_golden_choice_example(demo_table, demo_profile):
    def pipeline():
        tally = borda_criterion_scores(demo_table, demo_profile)
        return (
            tally,
            borda_ranking(tally),
            cascade_sets(demo_table, demo_profile),
            nurmi_first(demo_table, demo_profile),
            nurmi_second(demo_table, demo_profile),
        )

    pipeline()  # warm caches before timing
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        pipeline()
        best = min(best, time.perf_counter() - t0)
    tally, ranking, stages, first, second = pipeline()
    checks = [
        ("criterion scores",
         tally.criterion_scores == {"a": 10, "b": 11, "c": 12, "d": 13, "e": 8, "f": 9}),
        ("criteria ranking",
         ranking.classes == (("d",), ("c",), ("b",), ("a",), ("f",), ("e",))),
        ("cascade stages",
         stages == (bits(0, 2, 3, 4, 5, 6), bits(0, 2, 3, 4),
                    bits(0, 3), bits(0, 3), 0, 0)),
        ("cascade choice", first.mask == bits(0, 3)),
        ("score choice", second.mask == bits(0, 3)),
        ("alternative scores",
         tally.alternative_scores == (54, 30, 43, 54, 42, 41, 22)),
        ("under a millisecond", best < 1e-3),
    ]
    conclude(1, "golden choice example", checks)


# o(row, column) over the six satisfier sets, criteria ordered a..f
INDUCED_MATRIX = (
    (3, 1, 1, 1, 2, 2),
    (2, 3, 1, 1, 2, 2),
    (2, 2, 3, 1, 2, 2),
    (2, 2, 2, 3, 2, 2),
    (1, 1, 1, 1, 3, 1),
    (1, 1, 1, 1, 2, 3),
)


def test_golden_induced_state(demo_table, demo_profile, demo_state):
    tr = [demo_table.tr[c] for c in demo_table.criteria]
    entries_ok = all(
        demo_state.entries.get((tr[i], tr[j]), 0) == INDUCED_MATRIX[i][j]
        for i in range(6) for j in range(6)
    )
    supports = tuple(demo_state.support_map.get(s.mask, 0) for s in tr)
    iis = tuple(frozenset(c) for c in iis_rank(demo_state).classes)
    supp = tuple(frozenset(c) for c in support_rank(demo_state).classes)
    checks = [
        ("all 36 induced entries", entries_ok),
        ("entry count", len(demo_state.entries) == 36),
        ("supports", supports == (10, 11, 12, 13, 8, 9)),
        ("e-scores", demo_state.e_vector == (4, 0, 2, 4, 2, 1, 1)),
        ("deepest-intersection ranking",
         iis == (frozenset({0, 3}), frozenset({2, 4}),
                 frozenset({5, 6}), frozenset({1}))),
        ("support ranking",
         supp == (frozenset({0, 3}), frozenset({2}), frozenset({4}),
                  frozenset({5}), frozenset({1}), frozenset({6}))),
    ]
    conclude(2, "golden induced state", checks)


def test_golden_excellence_vectors(demo_table, demo_state):
    app = demo_table.alternatives.index("Approval")
    bor = demo_table.alternatives.index("Borda")
    lex = tuple(frozenset(c) for c in lexcel_rank(demo_state).classes)
    checks = [
        ("class counts of Approval", demo_state.class_count_rows[app] == (1, 0, 0, 0, 1, 0, 62)),
        ("class counts of Borda", demo_state.class_count_rows[bor] == (1, 0, 1, 0, 1, 1, 60)),
        ("lexicographic ranking",
         lex == (frozenset({0, 3}), frozenset({2}), frozenset({4}),
                 frozenset({5}), frozenset({6}), frozenset({1}))),
    ]
    conclude(3, "golden excellence vectors", checks)


def test_baseline_rule_satisfies_all_axioms(instance_batches):
    t0 = time.perf_counter()
    checks = []
    for kind in AXIOM_KINDS:
        for universe in SWEEP_SIZES:
            batch = instance_batches[(kind, universe)]
            violations = sum(
                1 for inst in batch if not check_axiom(iis_rank, inst).passed)
            checks.append(
                (f"{kind} at {universe} alternatives ({len(batch)} instances)",
                 len(batch) >= SWEEP_COUNT * 95 // 100 and violations == 0))
    elapsed = time.perf_counter() - t0
    checks.append(("under a minute", elapsed < 60.0))
    conclude(4, "baseline rule satisfies all five axioms", checks)


def test_rival_rules_break_exactly_their_axiom(instance_batches):
    checks = []
    for variant in sorted(name for name, rule in RULES.items() if rule.target is not None):
        rule = RULES[variant]
        target = rule.target
        primary, adjusted = WITNESSES[variant]
        if adjusted is None:
            checks.append(
                (f"{variant}: {target} witness reported as a violation",
                 not check_axiom(rule, primary()).passed))
        else:
            checks.append(
                (f"{variant}: literal {target} story defused by the kept ties",
                 check_axiom(rule, primary()).passed))
            checks.append(
                (f"{variant}: repaired {target} instance reported as a violation",
                 not check_axiom(rule, adjusted()).passed))
        for kind in AXIOM_KINDS:
            if kind == target:
                continue
            violations = sum(
                1 for universe in SWEEP_SIZES
                for inst in instance_batches[(kind, universe)]
                if not check_axiom(rule, inst).passed)
            checks.append((f"{variant}: clean on {kind}", violations == 0))
    conclude(5, "rival rules break exactly their designated axiom", checks)


def test_choice_methods_match_their_aggregator_routes():
    rng = Random("acceptance/equivalence")
    cascade_ok = True
    for _ in range(500):
        table = random_table(rng, rng.randint(3, 7), rng.randint(2, 6))
        profile = random_profile(rng, table, rng.randint(1, 5))
        eq = check_choice_equivalence(table, profile)
        cascade_ok = cascade_ok and eq.cascade_matches
    score_ok = True
    for _ in range(500):
        table = random_symmetric_table(rng, rng.randint(3, 7), rng.randint(2, 6))
        profile = random_profile(rng, table, rng.randint(1, 5))
        eq = check_choice_equivalence(table, profile)
        score_ok = score_ok and eq.symmetric and eq.score_matches is True
    checks = [
        ("cascade choice equals the top of the deepest-intersection ranking, 500 runs",
         cascade_ok),
        ("score choice equals the top of the support ranking on symmetric tables, 500 runs",
         score_ok),
    ]
    conclude(6, "choice methods match their aggregator routes", checks)


def test_sparse_implementations_match_brute_force():
    checks = []
    for universe, trials in ((3, 10000), (4, 10000), (5, 1000)):
        report = differential_sweep(universe, trials, seed=77)
        checks.append(
            (f"{trials} states at {universe} alternatives", report.clean))
    conclude(7, "sparse implementations match brute force", checks)


def test_structural_identity_suite():
    rng = Random("acceptance/identities")
    checks = []

    induced_support_ok = True
    mirror_ok = True
    for _ in range(1000):
        table = random_table(rng, rng.randint(3, 6), rng.randint(2, 6))
        profile = random_profile(rng, table, rng.randint(1, 5))
        state = induce_opinion(table, profile)
        tally = borda_criterion_scores(table, profile)
        for c in table.criteria:
            score = tally.criterion_scores[c]
            if not (score > 0 and state.support_map.get(table.tr[c].mask, 0) == score):
                induced_support_ok = False
        off = random_support_state(rng, table.universe)
        for m in off.support_map:
            s = AltSubset(m, table.universe)
            if s not in table.tr.values() and state.support_map.get(m, 0) != 0:
                induced_support_ok = False
        q = state.quotient
        ranking = borda_ranking(tally)
        expected_classes = tuple(
            frozenset(table.tr[c].mask for c in cls_) for cls_ in ranking.classes)
        got_classes = tuple(cls_.members for cls_ in q.classes)
        if expected_classes != got_classes or not q.residual_present:
            mirror_ok = False
        stages = cascade_sets(table, profile)
        for k, stage in enumerate(stages, 1):
            if top_k(state, k) != frozenset(iter_bits(stage)):
                mirror_ok = False
    checks.append(("induced supports equal criterion scores and vanish off the table",
                   induced_support_ok))
    checks.append(("induced quotient mirrors the criterion score classes",
                   mirror_ok))

    depth_ok = True
    relabel_ok = True
    for _ in range(1000):
        universe = rng.randint(3, 5)
        state = (random_support_state(rng, universe) if rng.random() < 0.5
                 else random_state(rng, universe))
        q = state.quotient
        scores = state.e_vector
        if not all(e < q.depth for e in scores):
            depth_ok = False
        pi = list(range(universe))
        rng.shuffle(pi)
        moved = permute_state(state, pi).e_vector
        if any(moved[pi[x]] != scores[x] for x in range(universe)):
            relabel_ok = False
    checks.append(("excellence depth stays below the class count", depth_ok))
    checks.append(("relabeling carries excellence scores along", relabel_ok))

    def batch(kind):
        out = []
        for universe in SWEEP_SIZES:
            out.extend(generate_instances(kind, universe, SWEEP_SEED + 1, 400))
        return out

    iws_ok = True
    instances = batch("iws")
    for inst in instances:
        before = inst.o1.e_vector
        after = inst.o2.e_vector
        ceiling = inst.o1.quotient.depth - 1
        for x in range(inst.o1.universe):
            if before[x] < ceiling:
                iws_ok = iws_ok and after[x] == before[x]
            else:
                iws_ok = iws_ok and after[x] >= ceiling
    checks.append((f"worst-class splits keep interior scores ({len(instances)} instances)",
                   len(instances) >= 1000 and iws_ok))

    ibs_ok = True
    instances = batch("ibs")
    for inst in instances:
        before = inst.o1.e_vector
        after = inst.o2.e_vector
        head = inst.o2.quotient.depth - inst.o1.quotient.depth + 1
        for x in range(inst.o1.universe):
            if before[x] > 0:
                ibs_ok = ibs_ok and after[x] == head - 1 + before[x]
            else:
                ibs_ok = ibs_ok and after[x] <= head - 1
    checks.append((f"best-class splits shift positive scores by the head size "
                   f"({len(instances)} instances)",
                   len(instances) >= 1000 and ibs_ok))

    wivip_ok = True
    instances = batch("wivip")
    for inst in instances:
        veto = (1 << inst.o1.universe) - 1
        for m in inst.o1.quotient.classes[0].members:
            veto &= m
        scores = inst.o1.e_vector
        for x in range(inst.o1.universe):
            wivip_ok = wivip_ok and scores[x] == (veto >> x & 1)
    checks.append((f"two-level states score one exactly on the veto set "
                   f"({len(instances)} instances)",
                   len(instances) >= 1000 and wivip_ok))

    inui_ok = True
    instances = batch("inui")
    for inst in instances:
        before = inst.o1.e_vector
        after = inst.o2.e_vector
        inter = (1 << inst.o1.universe) - 1
        for m in inst.promoted:
            inter &= m
        for x in range(inst.o1.universe):
            if not inter >> x & 1:
                inui_ok = inui_ok and after[x] == before[x]
    checks.append((f"promotions leave scores outside the family intersection "
                   f"({len(instances)} instances)",
                   len(instances) >= 1000 and inui_ok))

    conclude(8, "structural identity suite", checks)


def test_large_instance_under_a_second(tmp_path):
    rng = Random(17)
    names = [f"x{i}" for i in range(60)]
    masks = set()
    while len(masks) < 5000:
        masks.add(rng.getrandbits(60) or 1)
    lines = ["alternatives: " + " ".join(names)]
    for rank, m in enumerate(sorted(masks)):
        members = ",".join(names[i] for i in range(60) if m >> i & 1)
        lines.append(f"opinion {{{members}}} >= {{{names[rank % 60]}}} : {rank + 1}")
    path = tmp_path / "big.txt"
    path.write_text("\n".join(lines) + "\n")

    t0 = time.perf_counter()
    code = main(["rank", "--opinions", str(path), "--rule", "iis"])
    elapsed = time.perf_counter() - t0
    checks = [
        ("exit code zero", code == 0),
        ("under a second", elapsed < 1.0),
    ]
    conclude(9, "sixty alternatives and five thousand subsets", checks)
