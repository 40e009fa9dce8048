"""The benchmark's traced run still replays every kind of op.

``perfbench/tracing.py`` repeats each CLI command through the library's
public names and wraps a few of them (state construction, the cached
support map, quotient and e-vector, the Borda tally, the oracle's dense
steps).  A library change that renames or reshapes one of those breaks
``perfbench/run.py --trace 1`` without failing any other test, so this test
loads the module from its file, unchanged, and replays a few small ops of
every kind through it.
"""

import importlib.util
from pathlib import Path

import critrank
import critrank.aggregators
import critrank.axioms
import critrank.choice
import critrank.cli
import critrank.model
import critrank.oracle
from critrank.aggregators import RULES
from critrank.cli import DEMO_PROFILE_TEXT, DEMO_TABLE_TEXT

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

OPINIONS = """alternatives: a b c d
opinion {a,b} >= {c} : 2
opinion {a,b,d} >= {a,b,d} : 3
opinion {a} >= {b,c,d} : 1
opinion {b,c} >= {d} : 2
"""


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay_ops(tmp_path) -> list[dict]:
    """Ops shaped like the benchmark's: every rule on an opinion file, a
    ranked, induced and chosen table, one axiom check and one self-test."""
    paths = {}
    for name, text in (("table", DEMO_TABLE_TEXT), ("profile", DEMO_PROFILE_TEXT),
                       ("opinions", OPINIONS)):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text, encoding="utf-8")
    pair = ["--table", str(paths["table"]), "--profile", str(paths["profile"])]
    opinions = len(OPINIONS.encode())
    demo = len(DEMO_TABLE_TEXT.encode()) + len(DEMO_PROFILE_TEXT.encode())
    ops = [{"kind": "rank-opinions", "rule": rule, "input_bytes": opinions,
            "argv": ["rank", "--opinions", str(paths["opinions"]), "--rule", rule]}
           for rule in RULES]
    ops += [
        {"kind": "rank-table", "rule": "lexcel", "input_bytes": demo,
         "argv": ["rank", *pair, "--rule", "lexcel"]},
        {"kind": "induce", "input_bytes": demo, "argv": ["induce", *pair]},
        {"kind": "choose", "method": "n1", "argv": ["choose", *pair, "--method", "n1"]},
        {"kind": "choose", "method": "n2", "argv": ["choose", *pair, "--method", "n2"]},
        {"kind": "check", "rule": "iis", "axiom": "inui", "alternatives": 4,
         "seed": 0, "trials": 5},
        {"kind": "selftest", "seed": 0, "trials": 2},
    ]
    return ops


def test_every_traced_layer_gets_a_span(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    replayer = tracing.Replayer(tracer, critrank)
    quotient = critrank.model.OpinionState.__dict__["quotient"].func
    outputs = []
    for op_id, op in enumerate(replay_ops(tmp_path)):
        tracer.op = op_id
        patches = tracing.Patches(tracer, critrank)
        try:
            out, state = replayer.run(op)
        finally:
            patches.remove()
        outputs.append(out)
        if state is not None:
            counts = tracing.state_counts(op, state)
            assert set(counts) == {name for name, _unit in tracing.COUNTS["rank-wide"]}
            assert counts["model.classes"] == len(state.quotient.classes)
    assert critrank.model.OpinionState.__dict__["quotient"].func is quotient
    spans = {name for name, *_rest in tracer.spans}
    layers = {name for table in tracing.LAYERS.values() for name, _unit in table}
    assert layers - spans == set()
    assert outputs[-2].endswith("result=pass\n")
    assert outputs[-1].endswith("result=pass\n")
