"""critrank benchmark: seeded CLI workloads, checked outputs, one JSON line.

Usage, from the repository root:

    python3 perfbench/run.py --workload rank-wide --seed 1 --seconds 25 --trace 0

Each workload is a single-process closed loop with one client: every op is
one in-process call of ``critrank.cli.main`` and the next op starts when it
returns.  The script generates the inputs from ``--seed``, computes every
expected output with the independent reference in ``reference.py``, times
cold starts of ``import critrank.cli`` (``setup_s``), then runs the loop
(``runner.py``) for ``--seconds`` in three child processes, one per fixed
string-hash seed, and checks every output.

``--trace 0`` reports the end-to-end metrics of the named workload.
``--trace 1`` is the traced per-module run: every workload is replayed
through the public functions of each module under spans, and the per-layer
metrics of all four are reported; the spans go to
``perfbench-out/trace-seed<n>.json``.  The input shape of the run is
recorded in ``perfbench-out/traffic-<workload>-seed<n>.json``, or in
``traffic-trace-seed<n>.json`` for the traced run.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 when a result was printed.  Without the
program's sources next to this directory the script exits with 2 and prints
no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
WORKLOADS = tuple(workloads.WHY)
COLD_STARTS = 15
IMPORT = "import critrank.cli"
# setup_s is reported at the host speed where a bare interpreter starts in
# this many seconds.
BARE_S = 0.050
# String hashing decides dict layouts, and on the profile-heavy ops one
# layout can be 10% faster than another.  The untraced loop is split over
# one child process per fixed hash seed, so a run averages over the same
# layouts every time.
HASH_SEEDS = (1, 2, 3)
# p90 needs at least 10 ops beyond it, so a run has at least 100 ops even
# when the host is slow.
MIN_OPS = 102
TIMEOUT_S = 170


def quantile(values, q):
    """Nearest-rank quantile: the smallest value with at least ``q`` of the
    sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _start(env, code):
    """Wall seconds of one fresh interpreter running ``code``."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"python3 -c {code!r} failed: " + proc.stderr.decode()[-500:])
    return elapsed


def cold_starts(env, count):
    """(raw, scaled) seconds per fresh interpreter importing ``critrank.cli``.

    One launch first writes the bytecode caches.  Each timed start is
    bracketed by starts of a bare interpreter, and scaled by ``BARE_S`` over
    their mean: process start-up speed drifts with the host much as the
    calibration job does for ops, but the job itself does not track it.
    """
    _start(env, IMPORT)
    raw, scaled = [], []
    before = _start(env, "pass")
    for _ in range(count):
        elapsed = _start(env, IMPORT)
        after = _start(env, "pass")
        raw.append(elapsed)
        scaled.append(elapsed * 2 * BARE_S / (before + after))
        before = after
    return raw, scaled


def merge(parts):
    """One result from the children's results, ops in run order."""
    merged = {key: [v for part in parts for v in part[key]]
              for key in ("durations", "scaled", "items", "failures")}
    merged["cycles"] = sum(part["cycles"] for part in parts)
    merged["attempted"] = sum(part["attempted"] for part in parts)
    merged["peak_rss_kb"] = max(part["peak_rss_kb"] for part in parts)
    return merged


def end_to_end(durations, items, peak_rss_kb, setup):
    """The end-to-end metrics from per-op seconds and items."""
    busy = sum(durations)
    return {
        "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
        "op_ms_p90": (quantile(durations, 90) * 1e3, "ms"),
        "ops_per_s": (len(durations) / busy, "1/s"),
        "items_per_s": (sum(items) / busy, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def measure(args):
    """Generate the inputs and expectations, time the cold starts, and run
    the loop in child processes.  Returns (traffic, raw and scaled cold-start
    seconds, the children's merged result)."""
    began = perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    chosen = WORKLOADS if args.trace else (args.workload,)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        cycles, traffic = {}, {}
        for name in chosen:
            cycle, shape = workloads.build(name, args.seed, work)
            cycles[name] = cycle
            traffic[name] = {"why": workloads.WHY[name], "ops_per_cycle": len(cycle),
                             "inputs": shape}
        setup_raw, setup = ([], []) if args.trace else cold_starts(env, COLD_STARTS)
        plan = {"src": str(SRC), "trace": bool(args.trace), "workload": args.workload,
                "cycles": cycles, "spans_out": str(OUT / f"trace-seed{args.seed}.json")}
        hash_seeds = (1,) if args.trace else HASH_SEEDS
        parts = []
        for hash_seed in hash_seeds:
            plan["seconds"] = args.seconds / len(hash_seeds)
            plan["min_ops"] = -(-MIN_OPS // len(hash_seeds))
            plan_path, result_path = Path(work, "plan.json"), Path(work, "result.json")
            plan_path.write_text(json.dumps(plan), encoding="utf-8")
            subprocess.run([sys.executable, str(HERE / "runner.py"), str(plan_path),
                            str(result_path)], cwd=ROOT, stdout=sys.stderr, check=True,
                           env=dict(env, PYTHONHASHSEED=str(hash_seed)),
                           timeout=max(10, TIMEOUT_S - (perf_counter() - began)))
            parts.append(json.loads(result_path.read_text(encoding="utf-8")))
    result = parts[0] if args.trace else merge(parts)
    return traffic, setup_raw, setup, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "critrank" / "cli.py").is_file():
        print(f"error: no critrank sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        traffic, setup_raw, setup, result = measure(args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(result["failures"])
    attempted = result["attempted"]
    record = {"seed": args.seed, "seconds": args.seconds, "workloads": traffic,
              "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted}
    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = end_to_end(result["scaled"], result["items"], result["peak_rss_kb"], setup)
        raw = end_to_end(result["durations"], result["items"], result["peak_rss_kb"],
                         setup_raw)
        record.update(ops=len(result["durations"]), cycles=result["cycles"],
                      setup_samples_s=setup_raw,
                      unscaled={name: value for name, (value, _unit) in raw.items()})
    tag = "trace" if args.trace else args.workload
    (OUT / f"traffic-{tag}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in result["failures"][:10]:
        print(f"FAIL {line}", file=sys.stderr)
    for workload, table in result.get("layers", {}).items():
        print(f"{workload}: self time per traced op, largest first", file=sys.stderr)
        for name, row in list(table.items())[:8]:
            print(f"  {name:36s} {row['self_ms_per_op']:9.3f} ms  {row['share_of_op']:6.1%}"
                  f"  {row['calls']} calls", file=sys.stderr)
    if not args.trace:
        print(f"{args.workload}: {len(result['durations'])} ops in {result['cycles']} cycles, "
              f"fail_ratio {failed / attempted:.4f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
