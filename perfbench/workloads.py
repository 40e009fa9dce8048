"""Seeded inputs, operations and expected outputs of the four workloads.

Every workload is a fixed cycle of command lines for ``critrank``.  Inputs
are generated from the run seed and written as files; the expected output of
every operation comes from :mod:`reference`, computed from the generated
masks and orders, never from ``critrank``.  This module does not import
``critrank``.
"""

import os
from random import Random

import reference as ref

WHY = {
    "rank-wide": "60 alternatives, 5,000 one-member support classes: parsing "
                 "dominates, lexcel/tau build 60x5,001 count rows",
    "rank-tied": "64 alternatives, 2,400 subsets in 8 huge support classes with "
                 "nested cores: full mask width, e-scores up to 5, short lexcel rows",
    "induced": "40x40 table, 200 voters: profile parsing, induce_opinion and "
               "choice; a 1,600-entry state bypasses mask and quotient work",
    "sweep": "axiom checks and the dense oracle on thousands of tiny states; "
             "the only workload for axioms and oracle, no files read",
}

RANK_WIDE = dict(alternatives=60, subsets=5000, files=2)
RANK_TIED = dict(alternatives=64, subsets=2400, values=8, cores=(40, 24, 12, 6, 3), files=2)
INDUCED = dict(alternatives=40, criteria=40, voters=200, pairs=2)
SWEEP = dict(trials=300, selftest_trials=30)

AXIOMS = ("nt", "iws", "ibs", "wivip", "inui")
# The axiom each rival rule is built to break; it satisfies the other four.
RIVAL_TARGETS = {"iis-tb-order": "nt", "iis-tb-tau": "inui", "f1": "ibs",
                 "f2": "iws", "indifferent": "wivip"}


def _names(n):
    return [f"x{i}" for i in range(n)]


def _write(workdir, filename, text):
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _opinion_text(names, lines):
    return "\n".join(["alternatives: " + " ".join(names)] + lines) + "\n"


def wide_file(rng, n, count):
    """The acceptance-9 shape: ``count`` distinct random masks, the k-th in
    mask order held once with support k+1.  ``Random(17)`` gives that file."""
    names = _names(n)
    masks = set()
    while len(masks) < count:
        masks.add(rng.getrandbits(n) or 1)
    lines, support = [], {}
    for rank, m in enumerate(sorted(masks)):
        lines.append(f"opinion {ref.subset_text(m, names)} >= {{{names[rank % n]}}} : {rank + 1}")
        support[m] = rank + 1
    return names, support, _opinion_text(names, lines), len(support)


def tied_file(rng, n, count, n_values, core_sizes):
    """``count`` masks over all ``n`` bits in ``n_values`` support classes.

    Class k (k < len(core_sizes)) holds only supersets of a core, and the
    cores are nested, so the running intersection survives one class per
    core; the remaining classes are unconstrained and end it.  Each subset's
    support is split over one or two opinion lines.
    """
    names = _names(n)
    values = sorted(rng.sample(range(2, 1000), n_values), reverse=True)
    order = list(range(n))
    rng.shuffle(order)
    cores = [sum(1 << i for i in order[:size]) for size in core_sizes]
    support = {}
    per_class = count // n_values
    for k, value in enumerate(values):
        core = cores[k] if k < len(cores) else 0
        placed = 0
        while placed < per_class:
            m = rng.getrandbits(n) | core
            if m and m not in support:
                support[m] = value
                placed += 1
    lines, pairs = [], set()
    masks = list(support)
    rng.shuffle(masks)
    for m in masks:
        value = support[m]
        first = rng.randint(1, value - 1) if rng.random() < 0.5 else value
        for part in (first, value - first):
            if part:
                t = rng.getrandbits(n) or 1
                pairs.add((m, t))
                lines.append(f"opinion {ref.subset_text(m, names)} >= {ref.subset_text(t, names)}"
                             f" : {part}")
    return names, support, _opinion_text(names, lines), len(pairs)


def table_and_profile(rng, n, m, voters):
    """A table of ``m`` distinct random satisfier sets and ``voters``
    uniformly random strict orders of the criteria."""
    names = [f"a{i}" for i in range(n)]
    criteria = [f"c{j + 1}" for j in range(m)]
    satisfiers = []
    while len(satisfiers) < m:
        mask = rng.getrandbits(n)
        if mask and mask not in satisfiers:
            satisfiers.append(mask)
    orders = []
    for _ in range(voters):
        order = list(range(m))
        rng.shuffle(order)
        orders.append(order)
    table = ["alternatives: " + " ".join(names)]
    table += [f"criterion {criteria[c]}: " + " ".join(names[i] for i in ref.bits(mask))
              for c, mask in enumerate(satisfiers)]
    profile = [f"voter v{v + 1}: " + " > ".join(criteria[c] for c in order)
               for v, order in enumerate(orders)]
    return names, satisfiers, orders, "\n".join(table) + "\n", "\n".join(profile) + "\n"


def _state_shape(n, support, entries, text):
    return {
        "alternatives": n,
        "entries": entries,
        "subsets": len(support),
        "distinct_support_values": len(set(support.values())),
        "depth": ref.depth(n, support),
        "bytes": len(text.encode()),
    }


def _rank_ops(workload, workdir, files):
    """One rank op per rule, the files taken in turn."""
    paths = [_write(workdir, f"{workload}-{j}.txt", text)
             for j, (_names, _support, text, _entries) in enumerate(files)]
    traffic = [_state_shape(len(names), support, entries, text)
               for names, support, text, entries in files]
    ops = []
    for i, rule in enumerate(ref.RULES):
        names, support, text, _entries = files[i % len(files)]
        path = paths[i % len(files)]
        ops.append({
            "kind": "rank-opinions",
            "input": f"{workload}-{i % len(files)}",
            "argv": ["rank", "--opinions", path, "--rule", rule, "--format", "lines"],
            "rule": rule,
            "input_bytes": len(text.encode()),
            "items": len(support),
            "expect": ref.ranking_text(ref.rank(rule, len(names), support), names),
        })
    return ops, {"files": traffic}


def build(workload, seed, workdir):
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``.

    Returns (cycle, traffic): the ops of one cycle, each with its argv and
    expected output, and the input shape of the workload.
    """
    if workload == "rank-wide":
        p = RANK_WIDE
        files = []
        for j in range(p["files"]):
            rng = Random(seed) if j == 0 else Random(f"rank-wide/{seed}/{j}")
            files.append(wide_file(rng, p["alternatives"], p["subsets"]))
        return _rank_ops(workload, workdir, files)
    if workload == "rank-tied":
        p = RANK_TIED
        files = []
        for j in range(p["files"]):
            rng = Random(f"rank-tied/{seed}/{j}")
            files.append(tied_file(rng, p["alternatives"], p["subsets"],
                                   p["values"], p["cores"]))
        return _rank_ops(workload, workdir, files)
    if workload == "induced":
        return _induced(seed, workdir)
    if workload == "sweep":
        return _sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")


# Induced cycle: 8 rank ops (one per rule), 4 induce ops and 4 choose ops.
# A quarter of the ops are the fast choose mode, so the median and p90 both
# fall inside the slow rank/induce mode rather than between the two modes.
_INDUCED_CYCLE = (
    ("rank", "iis"), ("induce", None), ("rank", "support"), ("choose", "n1"),
    ("rank", "lexcel"), ("induce", None), ("rank", "iis-tb-order"), ("choose", "n2"),
    ("rank", "iis-tb-tau"), ("induce", None), ("rank", "f1"), ("choose", "n1"),
    ("rank", "f2"), ("induce", None), ("rank", "indifferent"), ("choose", "n2"),
)


def _induced(seed, workdir):
    p = INDUCED
    pairs, traffic = [], []
    for j in range(p["pairs"]):
        rng = Random(f"induced/{seed}/{j}")
        names, satisfiers, orders, table, profile = table_and_profile(
            rng, p["alternatives"], p["criteria"], p["voters"])
        entries = ref.induced_entries(satisfiers, orders)
        support = ref.support_of_entries(entries)
        tpath = _write(workdir, f"induced-{j}-table.txt", table)
        ppath = _write(workdir, f"induced-{j}-profile.txt", profile)
        size = len(table.encode()) + len(profile.encode())
        shape = _state_shape(len(names), support, len(entries), table + profile)
        shape.update(criteria=len(satisfiers), voters=len(orders))
        traffic.append(shape)
        pairs.append((names, satisfiers, orders, entries, support, tpath, ppath, size))
    ops = []
    for i, (command, arg) in enumerate(_INDUCED_CYCLE):
        j = i % len(pairs)
        names, satisfiers, orders, entries, support, tpath, ppath, size = pairs[j]
        op = {"input": f"induced-{j}", "input_bytes": size, "items": len(orders)}
        files = ["--table", tpath, "--profile", ppath]
        if command == "rank":
            op.update(kind="rank-table", rule=arg,
                      argv=["rank", *files, "--rule", arg, "--format", "lines"],
                      expect=ref.ranking_text(ref.rank(arg, len(names), support), names))
        elif command == "choose":
            choose = ref.choose_n1 if arg == "n1" else ref.choose_n2
            op.update(kind="choose", method=arg,
                      argv=["choose", *files, "--method", arg, "--format", "lines"],
                      expect=ref.subset_text(choose(len(names), satisfiers, orders), names))
        else:
            op.update(kind="induce", argv=["induce", *files],
                      expect=ref.opinion_file_text(names, entries, with_supports=True))
        ops.append(op)
    return ops, {"pairs": traffic}


def _sweep(seed):
    """iis on every axiom and each rival rule on its four non-target axioms,
    alternating 4 and 5 alternatives, then one sparse-vs-dense self-test."""
    p = SWEEP
    checks = [("iis", axiom) for axiom in AXIOMS]
    checks += [(rule, axiom) for rule, target in RIVAL_TARGETS.items()
               for axiom in AXIOMS if axiom != target]
    ops = []
    for i, (rule, axiom) in enumerate(checks):
        alternatives = 4 + i % 2
        op_seed = seed * 1000 + i
        ops.append({
            "kind": "check", "rule": rule, "axiom": axiom,
            "alternatives": alternatives, "seed": op_seed, "trials": p["trials"],
            "input": f"check-{i}", "input_bytes": 0,
            "argv": ["check", "--axiom", axiom, "--rule", rule,
                     "--trials", str(p["trials"]), "--alternatives", str(alternatives),
                     "--seed", str(op_seed), "--format", "lines"],
        })
    trials = p["selftest_trials"]
    ops.append({
        "kind": "selftest", "seed": seed, "trials": trials,
        "input": "selftest", "input_bytes": 0, "items": 3 * trials,
        "argv": ["selftest", "--trials", str(trials), "--seed", str(seed),
                 "--format", "lines"],
    })
    traffic = {"alternatives": [4, 5], "check_ops": len(checks),
               "trials_per_check": p["trials"], "selftest_states": 3 * trials, "bytes": 0}
    return ops, traffic


def key_values(out):
    """The ``key=value`` lines of ``--format lines`` output, first wins."""
    kv = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            kv.setdefault(key, value)
    return kv


def verify(op, code, out):
    """Check one op's exit code and stdout against its expectation.

    Returns (problem, items): problem is None when the output is right;
    items is the work the op completed (subsets ranked, voters read, or
    axiom instances checked plus oracle states compared).
    """
    if code != 0:
        return f"exit code {code}", 0
    kind = op["kind"]
    if kind == "induce":
        return (None if out == op["expect"] else "induced opinion file differs"), op["items"]
    kv = key_values(out)
    if kind in ("rank-opinions", "rank-table", "choose"):
        key = "choice" if kind == "choose" else "ranking"
        got = kv.get(key)
        if got != op["expect"]:
            return f"{key} {got!r}, want {op['expect']!r}", 0
        return None, op["items"]
    if kind == "check":
        if kv.get("result") != "pass" or kv.get("violations") != "0":
            return f"result={kv.get('result')} violations={kv.get('violations')}", 0
        checked = int(kv.get("checked", "0"))
        if not 0 < checked <= op["trials"]:
            return f"checked={checked} of {op['trials']} requested", 0
        return None, checked
    if kind == "selftest":
        for universe in (3, 4, 5):
            got = kv.get(f"universe-{universe}-mismatches")
            if got != "0":
                return f"{universe} alternatives: mismatches={got}", 0
        if kv.get("result") != "pass":
            return f"result={kv.get('result')}", 0
        return None, op["items"]
    raise ValueError(f"unknown op kind {kind!r}")
