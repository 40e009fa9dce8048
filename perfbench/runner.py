"""Runs the timed loop of a workload in a process of its own.

Usage: python3 perfbench/runner.py PLAN RESULT

``run.py`` generates the inputs and expected outputs, writes them to the
PLAN json file and starts this script, so the peak memory measured here is
that of the program and the loop, not of input generation or the reference.
Every op is one in-process call of ``critrank.cli.main`` with stdout and
stderr captured; the output is checked after the clock stops.  With tracing
on, every op is also replayed under a tracer (see :mod:`tracing`) right after
its untraced run, and the spans are written out at the end.
"""

import contextlib
import gc
import io
import json
import resource
import sys
from time import perf_counter

import calibrate
import tracing
import workloads


def call_main(main, argv):
    """(exit code, stdout, seconds) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = f"exception {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


def warm_up(main, cycle):
    """Run the first op of each kind once, untimed, so imports, regexes and
    allocator pools are ready; a one-shot user pays for them in setup_s."""
    calibrate.job()
    seen = set()
    for op in cycle:
        if op["kind"] not in seen:
            seen.add(op["kind"])
            call_main(main, op["argv"])


def timed_cycles(cycle, seconds, run_op, min_ops=1):
    """Run whole cycles until ``min_ops`` ops have run and another cycle
    would overrun ``seconds``."""
    begin = perf_counter()
    rounds = 0
    while True:
        start = perf_counter()
        for index, op in enumerate(cycle):
            run_op(f"{rounds}:{index}", op)
        rounds += 1
        now = perf_counter()
        if rounds * len(cycle) >= min_ops and now - begin + (now - start) > seconds:
            return rounds


class Tally:
    """Ops attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, op, code, out, label):
        problem, items = workloads.verify(op, code, out)
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label} {' '.join(op['argv'])}: {problem}")
        return items


def untraced(plan, main):
    cycle = plan["cycles"][plan["workload"]]
    warm_up(main, cycle)
    tally = Tally()
    durations, scaled, items = [], [], []
    before = calibrate.seconds()

    def run_op(_op_id, op):
        nonlocal before
        code, out, seconds = call_main(main, op["argv"])
        gc.collect()
        after = calibrate.seconds()
        durations.append(seconds)
        scaled.append(seconds * 2 * calibrate.NOMINAL_S / (before + after))
        before = after
        items.append(tally.check(op, code, out, "op"))

    rounds = timed_cycles(cycle, plan["seconds"], run_op, plan["min_ops"])
    return {
        "durations": durations, "scaled": scaled, "items": items, "cycles": rounds,
        "attempted": tally.attempted, "failures": tally.failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def traced(plan, main, critrank):
    """Every workload in turn, each for an equal share of the seconds."""
    tracer = tracing.Tracer()
    replayer = tracing.Replayer(tracer, critrank)
    tally = Tally()
    metrics, span_log, op_log, tables = {}, {}, {}, {}
    share = plan["seconds"] / len(plan["cycles"])
    for workload, cycle in plan["cycles"].items():
        warm_up(main, cycle)
        tracer.spans = []
        ops, counts, counted = [], {}, set()

        def run_op(op_id, op):
            code, out, untraced_s = call_main(main, op["argv"])
            tally.check(op, code, out, "op")
            gc.collect()
            tracer.op = op_id
            patches = tracing.Patches(tracer, critrank)
            start = perf_counter()
            try:
                out, state = replayer.run(op)
                code = 0
            except Exception as exc:  # a traceback is a failed op, not a crash
                out, state, code = "", None, f"exception {type(exc).__name__}: {exc}"
            finally:
                traced_s = perf_counter() - start
                patches.remove()
                tracer.op = None
            tally.check(op, code, out, "replay")
            ops.append((op_id, op, traced_s, untraced_s))
            if op["input"] not in counted:
                counted.add(op["input"])
                _count(counts, op, state, out)

        timed_cycles(cycle, share, run_op)
        if workload == "sweep":
            checked = counts.get("axioms.checked", 0)
            counts["axioms.checked_ratio"] = checked / counts.get("axioms.requested", 1)
        metrics.update(tracing.layer_metrics(workload, tracer.spans, ops, counts))
        if workload == "rank-wide":
            name, unit = tracing.PARSE_SHARE
            metrics[name] = (tracing.parse_share(tracer.spans, ops), unit)
        tables[workload] = tracing.layer_table(tracer.spans, ops)
        span_log[workload] = tracer.spans
        op_log[workload] = [(i, op["kind"], op.get("rule") or op.get("method") or op.get("axiom"),
                             t, u) for i, op, t, u in ops]
    _write_spans(plan["spans_out"], span_log, op_log, tables)
    return {"metrics": metrics, "layers": tables, "attempted": tally.attempted,
            "failures": tally.failures}


def _count(counts, op, state, out):
    """Add one distinct input's counts."""
    if state is not None:
        for name, value in tracing.state_counts(op, state).items():
            counts[name] = counts.get(name, 0) + value
    elif op["kind"] == "check":
        checked = int(workloads.key_values(out).get("checked", "0"))
        counts["axioms.checked"] = counts.get("axioms.checked", 0) + checked
        counts["axioms.requested"] = counts.get("axioms.requested", 0) + op["trials"]


def _write_spans(path, span_log, op_log, tables):
    """Per workload: its layer table, its ops, the span names, and the spans
    as rows of (name index, start us, end us, parent row, op id), times from
    the first span of the run."""
    origin = min((s[1] for spans in span_log.values() for s in spans), default=0.0)
    doc = {"columns": ["name", "start_us", "end_us", "parent", "op"], "workloads": {}}
    for workload, spans in span_log.items():
        names = sorted({span[0] for span in spans})
        index = {name: i for i, name in enumerate(names)}
        doc["workloads"][workload] = {
            "layers": tables[workload],
            "ops": [{"op": i, "kind": kind, "arg": arg, "traced_s": t, "untraced_s": u}
                    for i, kind, arg, t, u in op_log[workload]],
            "names": names,
            "spans": [[index[name], round((start - origin) * 1e6), round((end - origin) * 1e6),
                       parent, op] for name, start, end, parent, op in spans],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import critrank.cli

    if plan["trace"]:
        result = traced(plan, critrank.cli.main, critrank)
    else:
        result = untraced(plan, critrank.cli.main)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
