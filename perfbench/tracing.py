"""The traced run: each op replayed through the public functions of
``critrank``, with a span around every call into a layer.

A replay performs the steps the matching ``_cmd_*`` function of
``critrank.cli`` performs, in the same order, and renders the output fields
the benchmark checks.  Layers reached only from inside another public
function (state construction, the cached support map, quotient and
e-vector, the Borda tally, the oracle's dense steps) get their spans from
wrappers this module installs on those names for the duration of the run
and removes afterwards.  Spans are kept in memory and written out at the end.
"""

import functools
import statistics
from pathlib import Path
from time import perf_counter

# (span name, unit) per workload: the per-layer timings reported, each the
# median self time of one call.  this table and BENCHMARK.json must agree.
_RANK_LAYERS = [
    ("cli.parse_opinion_state", "ms"), ("model.OpinionState", "ms"),
    ("model.support_map", "ms"), ("model.quotient", "ms"), ("model.e_vector", "ms"),
    ("aggregators.iis_rank", "ms"), ("aggregators.support_rank", "ms"),
    ("aggregators.lexcel_rank", "ms"), ("aggregators.iis_tiebreak_order", "ms"),
    ("aggregators.iis_tiebreak_tau", "ms"), ("aggregators.coarse_f1", "ms"),
    ("aggregators.coarse_f2", "ms"), ("aggregators.indifference_rule", "ms"),
    ("cli.format_ranking", "ms"),
]
LAYERS = {
    "rank-wide": _RANK_LAYERS,
    "rank-tied": _RANK_LAYERS,
    "induced": [
        ("cli.parse_criterion_table", "ms"), ("cli.parse_profile", "ms"),
        ("aggregators.induce_opinion", "ms"), ("model.OpinionState", "ms"),
        ("model.support_map", "ms"), ("model.quotient", "ms"), ("model.e_vector", "ms"),
        ("choice.borda_criterion_scores", "ms"), ("choice.nurmi_first", "ms"),
        ("choice.nurmi_second", "ms"), ("cli.format_ranking", "ms"),
        ("cli.format_opinion_state", "ms"),
    ],
    "sweep": [
        ("axioms.generate_instances", "ms"), ("axioms.check_axiom", "us"),
        ("model.OpinionState", "us"), ("model.support_map", "us"),
        ("model.quotient", "us"), ("model.e_vector", "us"),
        ("oracle.differential_sweep", "ms"), ("oracle.DenseState.from_sparse", "us"),
        ("oracle.dense_rankings", "us"),
    ],
}
# Counts taken from the program's own objects, once per distinct input of a
# cycle, so they repeat exactly for a given seed.
_STATE_COUNTS = [("cli.input_bytes", "bytes"), ("model.entries", "count"),
                 ("model.explicit_subsets", "count"), ("model.classes", "count"),
                 ("aggregators.class_count_cells", "count")]
COUNTS = {
    "rank-wide": _STATE_COUNTS,
    "rank-tied": _STATE_COUNTS,
    "induced": _STATE_COUNTS,
    "sweep": [("axioms.checked", "count"), ("axioms.checked_ratio", "ratio")],
}
# Whole-run figures of each workload's traced ops.
SUMMARY = [("trace.coverage", "ratio"), ("trace.overhead", "ratio")]
PARSE_SHARE = ("rank-wide.cli.parse_opinion_state.iis_share", "ratio")

_SCALE = {"ms": 1e3, "us": 1e6}


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for workload, layers in LAYERS.items():
        for name, unit in layers:
            out.append((f"{workload}.{name}.{unit}", unit))
        out += [(f"{workload}.{name}", unit) for name, unit in COUNTS[workload]]
        out += [(f"{workload}.{name}", unit) for name, unit in SUMMARY]
    out.append(PARSE_SHARE)
    return out


class Tracer:
    """Spans as (name, start, end, parent index, op id), in begin order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx] = (name, start, perf_counter(), parent, self.op)
            self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


class Patches:
    """Span wrappers on names that public functions look up at call time,
    installed around one replay and removed after it."""

    def __init__(self, tracer, critrank):
        model, choice, oracle = critrank.model, critrank.choice, critrank.oracle
        self._undo = []
        self._set(model.OpinionState, "__post_init__",
                  tracer.wrap("model.OpinionState", model.OpinionState.__post_init__))
        for prop in ("support_map", "quotient", "e_vector"):
            cached = model.OpinionState.__dict__[prop]
            self._set(cached, "func", tracer.wrap(f"model.{prop}", cached.func))
        self._set(choice, "borda_criterion_scores",
                  tracer.wrap("choice.borda_criterion_scores", choice.borda_criterion_scores))
        from_sparse = oracle.DenseState.__dict__["from_sparse"].__func__
        self._set(oracle.DenseState, "from_sparse",
                  classmethod(tracer.wrap("oracle.DenseState.from_sparse", from_sparse)))
        self._set(oracle, "dense_rankings",
                  tracer.wrap("oracle.dense_rankings", oracle.dense_rankings))

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _read(path):
    return Path(path).read_text(encoding="utf-8")


class Replayer:
    """Runs one op's steps under a tracer and renders the checked fields."""

    def __init__(self, tracer, critrank):
        self.t = tracer
        self.cli, self.agg = critrank.cli, critrank.aggregators
        self.choice, self.axioms, self.oracle = critrank.choice, critrank.axioms, critrank.oracle
        a = self.agg
        self.rules = {
            "iis": a.iis_rank, "support": a.support_rank, "lexcel": a.lexcel_rank,
            "iis-tb-order": a.iis_tiebreak_order, "iis-tb-tau": a.iis_tiebreak_tau,
            "f1": a.coarse_f1, "f2": a.coarse_f2, "indifferent": a.indifference_rule,
        }

    def _rule(self, rule):
        """The rule as a one-argument aggregator under its own span."""
        fn = self.rules[rule]
        name = f"aggregators.{fn.__name__}"
        if rule == "iis-tb-order":
            return lambda state: self.t.call(name, fn, state, tuple(range(state.universe)))
        return lambda state: self.t.call(name, fn, state)

    def _pair(self, op):
        t, cli = self.t, self.cli
        table = t.call("cli.parse_criterion_table", cli.parse_criterion_table,
                       _read(_arg(op["argv"], "--table")))
        profile = t.call("cli.parse_profile", cli.parse_profile,
                         _read(_arg(op["argv"], "--profile")), table)
        return table, profile

    def run(self, op):
        """Replay ``op``; returns (output text, opinion state or None)."""
        t, cli, kind = self.t, self.cli, op["kind"]
        if kind in ("rank-opinions", "rank-table"):
            if kind == "rank-opinions":
                names, state = t.call("cli.parse_opinion_state", cli.parse_opinion_state,
                                      _read(_arg(op["argv"], "--opinions")))
            else:
                table, profile = self._pair(op)
                names = table.alternatives
                state = t.call("aggregators.induce_opinion", self.agg.induce_opinion,
                               table, profile)
            ranking = self._rule(op["rule"])(state)
            rendered = t.call("cli.format_ranking", cli.format_ranking, ranking, names)
            return f"rule={op['rule']}\nranking={rendered}\n", state
        if kind == "induce":
            table, profile = self._pair(op)
            state = t.call("aggregators.induce_opinion", self.agg.induce_opinion,
                           table, profile)
            text = t.call("cli.format_opinion_state", cli.format_opinion_state,
                          table.alternatives, state, include_supports=True)
            return text, state
        if kind == "choose":
            table, profile = self._pair(op)
            method = self.choice.nurmi_first if op["method"] == "n1" else self.choice.nurmi_second
            chosen = t.call(f"choice.{method.__name__}", method, table, profile)
            return f"choice={cli.format_subset(chosen, table.alternatives)}\n", None
        if kind == "check":
            aggregate = self._rule(op["rule"])
            instances = t.call("axioms.generate_instances", self.axioms.generate_instances,
                               op["axiom"], op["alternatives"], op["seed"], op["trials"])
            violations = sum(
                not t.call("axioms.check_axiom", self.axioms.check_axiom, aggregate, inst).passed
                for inst in instances)
            return (f"checked={len(instances)}\nviolations={violations}\n"
                    f"result={'fail' if violations else 'pass'}\n"), None
        if kind == "selftest":
            lines, clean = [], True
            for universe in (3, 4, 5):
                report = t.call("oracle.differential_sweep", self.oracle.differential_sweep,
                                universe, op["trials"], op["seed"])
                lines.append(f"universe-{universe}-mismatches={report.mismatches}")
                clean = clean and report.clean
            lines.append(f"result={'pass' if clean else 'fail'}")
            return "\n".join(lines) + "\n", None
        raise ValueError(f"unknown op kind {kind!r}")


def state_counts(op, state):
    """Counts of one distinct input, read from the program's objects."""
    q = state.quotient
    return {
        "cli.input_bytes": op["input_bytes"],
        "model.entries": len(state.entries),
        "model.explicit_subsets": len(state.support_map),
        "model.classes": len(q.classes),
        "aggregators.class_count_cells": state.universe * q.depth,
    }


def self_times(spans):
    """Per span, its duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, start, end, _p, _o) in enumerate(spans)]


def layer_table(spans, ops):
    """Per span name: calls, self time per traced op, and the share of traced
    op wall time it accounts for."""
    wall = sum(traced for _i, _op, traced, _u in ops)
    table = {}
    for (name, *_rest), value in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += value
    return {name: {"calls": row["calls"],
                   "self_ms_per_op": row["self_s"] * 1e3 / len(ops),
                   "share_of_op": row["self_s"] / wall}
            for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])}


def layer_metrics(workload, spans, ops, counts):
    """Per-layer metrics of one workload's traced ops.

    ``ops`` holds (op id, op, traced seconds, untraced seconds); ``counts``
    maps count names to values.  Raises KeyError if a listed layer never ran.
    """
    selfs = self_times(spans)
    by_name = {}
    for (name, *_rest), value in zip(spans, selfs):
        by_name.setdefault(name, []).append(value)
    metrics = {}
    for name, unit in LAYERS[workload]:
        if name not in by_name:
            raise KeyError(f"{workload}: layer {name} never ran")
        metrics[f"{workload}.{name}.{unit}"] = (
            statistics.median(by_name[name]) * _SCALE[unit], unit)
    for name, unit in COUNTS[workload]:
        metrics[f"{workload}.{name}"] = (counts[name], unit)
    covered = {}
    for name, start, end, parent, op_id in spans:
        if parent is None:
            covered[op_id] = covered.get(op_id, 0.0) + end - start
    metrics[f"{workload}.trace.coverage"] = (
        statistics.median(covered.get(i, 0.0) / traced for i, _op, traced, _u in ops), "ratio")
    metrics[f"{workload}.trace.overhead"] = (
        statistics.median(traced / untraced for _i, _op, traced, untraced in ops), "ratio")
    return metrics


def parse_share(spans, ops):
    """Median share of a traced rank-wide ``iis`` op spent in parsing."""
    wall = {i: traced for i, op, traced, _u in ops if op.get("rule") == "iis"}
    shares = [(end - start) / wall[op_id] for name, start, end, _p, op_id in spans
              if name == "cli.parse_opinion_state" and op_id in wall]
    return statistics.median(shares)
