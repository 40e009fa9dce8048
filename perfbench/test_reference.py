"""Checks of the benchmark's own parts: the reference against the dense
oracle and the worked example, the output check, and BENCHMARK.json.

Run with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from critrank import oracle  # noqa: E402
from critrank.aggregators import induce_opinion  # noqa: E402
from critrank.axioms import random_profile, random_table  # noqa: E402
from critrank.choice import nurmi_first, nurmi_second  # noqa: E402


def _random_support(rng, n):
    """Few small values, so classes tie; sometimes every subset is explicit,
    so there is no residual class."""
    top = (1 << n) - 1
    count = top if rng.random() < 0.1 else rng.randint(0, min(8, top))
    return {m: rng.randint(1, 5) for m in rng.sample(range(1, top + 1), count)}


def _rows(classes):
    return tuple(tuple(c) for c in classes)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reference_matches_the_dense_oracle(n):
    rng = Random(f"reference/{n}")
    for _ in range(150):
        support = _random_support(rng, n)
        dense = oracle.DenseState(n, tuple(support.get(m, 0) for m in range(1, 1 << n)))
        order = list(range(n))
        rng.shuffle(order)
        expected = oracle.dense_rankings(dense)
        assert ref.e_scores(n, support) == list(oracle.dense_e_vector(dense))
        assert ref.support_totals(n, support) == list(oracle.dense_support_totals(dense))
        assert ref.class_counts(n, support) == [oracle.dense_class_counts(dense, x)
                                                for x in range(n)]
        assert ref.depth(n, support) == len(oracle.dense_classes(dense))
        for rule, want in (("iis", expected.iis), ("support", expected.support),
                           ("lexcel", expected.lexcel), ("iis-tb-tau", expected.iis_tau),
                           ("f1", expected.f1), ("f2", expected.f2)):
            assert _rows(ref.rank(rule, n, support)) == want, rule
        assert (_rows(ref.rank("iis-tb-order", n, support, order))
                == oracle.dense_tiebreak_order(dense, tuple(order)))
        assert ref.rank("indifferent", n, support) == [list(range(n))]


def test_reference_choice_and_induction_match_the_library():
    rng = Random("reference/choice")
    for _ in range(60):
        n = rng.randint(3, 6)
        table = random_table(rng, n, rng.randint(2, 6))
        profile = random_profile(rng, table, rng.randint(1, 7))
        satisfiers = [table.tr[c].mask for c in table.criteria]
        index = {c: i for i, c in enumerate(table.criteria)}
        orders = [[index[c] for c in order] for order in profile.orders]
        assert ref.choose_n1(n, satisfiers, orders) == nurmi_first(table, profile).mask
        assert ref.choose_n2(n, satisfiers, orders) == nurmi_second(table, profile).mask
        state = induce_opinion(table, profile)
        assert ref.induced_entries(satisfiers, orders) == {
            (s.mask, t.mask): count for (s, t), count in state.entries.items()}


# The worked example: seven voting rules judged on six criteria a..f.
DEMO_ALTERNATIVES = ["Copeland", "Dodgson", "Maximin", "Kemeny", "Plurality", "Borda",
                     "Approval"]
DEMO_SATISFIERS = [(0, 1, 2, 3), (0, 3, 5), (0, 1, 2, 3, 4), (0, 2, 3, 4, 5, 6),
                   (0, 1, 2, 3, 4, 5), (4, 5, 6)]
DEMO_ORDERS = ["abcdef", "dcbafe", "fedcba"]


def test_reference_reproduces_the_worked_example():
    n = len(DEMO_ALTERNATIVES)
    satisfiers = [sum(1 << i for i in members) for members in DEMO_SATISFIERS]
    orders = [["abcdef".index(c) for c in order] for order in DEMO_ORDERS]
    support = ref.support_of_entries(ref.induced_entries(satisfiers, orders))
    assert [support[m] for m in satisfiers] == [10, 11, 12, 13, 8, 9]
    assert ref.e_scores(n, support) == [4, 0, 2, 4, 2, 1, 1]
    assert ref.rank("iis", n, support) == [[0, 3], [2, 4], [5, 6], [1]]
    assert ref.rank("support", n, support) == [[0, 3], [2], [4], [5], [1], [6]]
    assert ref.rank("lexcel", n, support) == [[0, 3], [2], [4], [5], [6], [1]]
    counts = ref.class_counts(n, support)
    assert counts[6] == (1, 0, 0, 0, 1, 0, 62)
    assert counts[5] == (1, 0, 1, 0, 1, 1, 60)
    assert ref.choose_n1(n, satisfiers, orders) == 0b1001
    assert ref.choose_n2(n, satisfiers, orders) == 0b1001


def test_seed_17_gives_the_acceptance_9_file():
    rng = Random(17)
    names = [f"x{i}" for i in range(60)]
    masks = set()
    while len(masks) < 5000:
        masks.add(rng.getrandbits(60) or 1)
    lines = ["alternatives: " + " ".join(names)]
    for rank, m in enumerate(sorted(masks)):
        members = ",".join(names[i] for i in range(60) if m >> i & 1)
        lines.append(f"opinion {{{members}}} >= {{{names[rank % 60]}}} : {rank + 1}")
    _names, _support, text, _entries = workloads.wide_file(Random(17), 60, 5000)
    assert text == "\n".join(lines) + "\n"


def test_the_output_check_rejects_a_wrong_ranking():
    op = {"kind": "rank-opinions", "expect": "{x0,x2} > {x1}", "items": 3}
    assert workloads.verify(op, 0, "seed=0\nrule=iis\nranking={x0,x2} > {x1}\n") == (None, 3)
    problem, items = workloads.verify(op, 0, "seed=0\nrule=iis\nranking={x0} > {x1,x2}\n")
    assert problem is not None and items == 0
    assert workloads.verify(op, 2, "")[0] == "exit code 2"
    check = {"kind": "check", "trials": 10}
    assert workloads.verify(check, 0, "checked=10\nviolations=0\nresult=pass\n") == (None, 10)
    assert workloads.verify(check, 3, "checked=10\nviolations=1\nresult=fail\n")[0]
    assert workloads.verify(check, 0, "checked=0\nviolations=0\nresult=pass\n")[0]


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "op_ms_p50", "op_ms_p90", "ops_per_s", "items_per_s", "peak_rss_mb", "setup_s"]
