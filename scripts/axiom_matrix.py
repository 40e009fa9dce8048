"""Print the rule-by-axiom violation matrix over random instance sweeps.

There is one row per rule in ``critrank.aggregators.RULES``.  Each cell counts
violations across all universe sizes.  The baseline rule should show a zero
row; every rival rule should be zero everywhere except its target axiom
column.  Rules outside the independence argument show "-" as their target.
The witness column reports the named instances per rival rule, from
``critrank.axioms.WITNESSES``: the literal story and, where there is one,
the repaired instance.
"""

import argparse
import sys
from pathlib import Path

# the package source beside this script, whatever the working directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from critrank.aggregators import AXIOM_KINDS, RULES
from critrank.axioms import WITNESSES, check_axiom, sweep_axiom
from critrank.model import MAX_UNIVERSE


def violation_row(rule, sizes, seed, trials):
    return [
        sum(sweep_axiom(rule, kind, u, seed, trials).violations for u in sizes)
        for kind in AXIOM_KINDS
    ]


def witness_summary(rule):
    if rule.name not in WITNESSES:
        return "-"
    return "/".join("hit" if not check_axiom(rule, witness()).passed else "defused"
                    for witness in WITNESSES[rule.name] if witness is not None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=300,
                        help="instances per axiom per universe size")
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    for size in args.sizes:
        if not 3 <= size <= MAX_UNIVERSE:
            parser.error(f"--sizes must lie in 3..{MAX_UNIVERSE}, got {size}")

    width = max(len(name) for name in RULES) + 2
    header = "".join(f"{kind:>8}" for kind in AXIOM_KINDS)
    print(f"{'rule':<{width}}{header}  target   witnesses")
    for name, rule in RULES.items():
        row = violation_row(rule, args.sizes, args.seed, args.trials)
        cells = "".join(f"{v:>8}" for v in row)
        print(f"{name:<{width}}{cells}  {rule.target or '-':<8} {witness_summary(rule)}")
    print(f"\n{args.trials} instances per cell per universe size, "
          f"sizes {args.sizes}, seed {args.seed}")


if __name__ == "__main__":
    main()
