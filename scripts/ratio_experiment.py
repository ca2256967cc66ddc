#!/usr/bin/env python3
"""Measured performance vs the analytical guarantee across instance families.

For each generated instance: Monte Carlo ratio estimate, the exact
enumeration value when the instance is small enough, and the worst-case
guarantee.  The guarantee is loose by design; the point of the table is that
no estimate ever falls below it.

Usage: python scripts/ratio_experiment.py [--p P] [--trials N] [--seed S]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from laminar_secretary import (
    GenSpec,
    exact_ratio,
    generate,
    monte_carlo_ratio,
    ratio_lower_bound,
)
from laminar_secretary.exact import _enumerable
from laminar_secretary.experiments import _check_run

SPECS = [
    GenSpec("uniform", 6, 1, "uniform", rank=2),
    GenSpec("uniform", 14, 2, "exponential", rank=5),
    GenSpec("partition", 7, 3, "uniform", parts=3),
    GenSpec("partition", 18, 4, "power_law", parts=4, part_capacity=2),
    GenSpec("chain", 7, 5, "near_ties", depth=3),
    GenSpec("chain", 16, 6, "uniform", depth=4),
    GenSpec("random_tree", 7, 7),
    GenSpec("random_tree", 20, 8, "exponential"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=0.08)
    ap.add_argument("--trials", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    try:
        _check_run(args.p, args.trials, args.seed)
    except ValueError as exc:
        ap.exit(2, f"error: {exc}\n")

    bound = ratio_lower_bound(args.p) if args.p < 0.5 else float("nan")
    print(f"p = {args.p}, trials = {args.trials}, guarantee = {bound:.6f}")
    print(f"{'instance':>24} {'n':>3} {'nodes':>5} {'estimate':>9} {'std err':>8} "
          f"{'exact':>9} {'margin':>8}")
    for spec in SPECS:
        inst = generate(spec)
        rep = monte_carlo_ratio(inst, args.p, args.trials, args.seed)
        exact = exact_ratio(inst, args.p) if _enumerable(inst.n) else None
        exact_str = f"{exact:9.6f}" if exact is not None else "        -"
        margin = rep.ratio.value - bound
        print(f"{inst.name:>24} {inst.n:>3} {len(inst.nodes):>5} "
              f"{rep.ratio.value:9.6f} {rep.ratio.std_err:8.6f} {exact_str} {margin:+8.4f}")


if __name__ == "__main__":
    main()
