#!/usr/bin/env python3
"""Time the two layers of one exact enumeration, as ``exact_expectation``
runs them, past ``EXACT_ENUM_LIMIT``.

Usage: python scripts/exact_layers.py [--family F] [--n N] [--p P]
           [--seed S] [--rounds R] [--no-padding]

The instance is ``generate(GenSpec(family, n, seed))``.  Each round times:

- ``starts``: the bit layout and every sample split's start state
  (``exact._enum_states``, one greedy pass on ints per split);
- ``recursion``: ``exact._expected_splits``, the split loop of
  ``exact_expectation``: ``exact._expected_rest`` from every split's
  start state with one fresh memo, and the splits' probabilities and
  contributions summed.

The script calls these internals directly, so it is not held to
``EXACT_ENUM_LIMIT`` (8); it refuses n above ``MAX_N`` = 16, as the memo
then grows past a few hundred MiB on the deeper families.  The report
gives the median over rounds of each layer in ms, with the lowest and
highest round, the expected weight, the memo's entries, and the
tracemalloc peak of one more round that runs both layers under tracemalloc
(not timed).  The memo holds canonical states only, each computed once:
no dead rank still to arrive (one that finds no lighter entry at its
minimal node) and no field bit that no rank still to come can read
(``exact._expected_rest``).  Stdlib only and seeded: the weight and the
memo size depend on the flags alone, the times on the host too.  n,
rounds outside 1..1000 and a bad p exit 2 before any work.  The ROADMAP table of exact enumeration
past the limit comes from runs such as ``--family random_tree --n 12``.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from laminar_secretary import GenSpec, generate
from laminar_secretary.exact import _enum_states, _expected_splits, _set_bits
from laminar_secretary.generators import FAMILIES
from laminar_secretary.kicknext import _check_p

MAX_N = 16
LAYERS = ("starts", "recursion")


def _round(pre, p, padding):
    """One round: seconds per layer, the expected weight and the memo's
    size."""
    t0 = time.perf_counter()
    steps, starts = _enum_states(pre, padding)
    t1 = time.perf_counter()
    expected, _, memo = _expected_splits(pre, p, steps, starts)
    t2 = time.perf_counter()
    return {"starts": t1 - t0, "recursion": t2 - t1}, expected, len(memo)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=FAMILIES, default="random_tree")
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--p", type=float, default=0.08)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--no-padding", dest="padding", action="store_false")
    args = ap.parse_args()
    try:
        if not 1 <= args.n <= MAX_N:
            raise ValueError(f"n must be in 1..{MAX_N}, got {args.n}")
        if not 1 <= args.rounds <= 1000:
            raise ValueError(f"rounds must be in 1..1000, got {args.rounds}")
        _check_p(args.p)
        inst = generate(GenSpec(args.family, args.n, args.seed))
    except ValueError as exc:
        ap.exit(2, f"error: {exc}\n")
    pre = inst.pre()
    _set_bits(pre.n_real)  # as ``exact_expectation`` does, before the rounds
    times = {k: [] for k in LAYERS}
    for _ in range(args.rounds):
        spent, expected, states = _round(pre, args.p, args.padding)
        for k in LAYERS:
            times[k].append(spent[k] * 1e3)
    tracemalloc.start()
    try:
        _round(pre, args.p, args.padding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"{inst.name}: n = {pre.n_real}, {len(pre.mu)} nodes, p = {args.p}, "
          f"{args.rounds} rounds, padding {'on' if args.padding else 'off'}")
    print(f"expected weight {expected!r}, memo states {states} canonical, "
          f"tracemalloc peak {peak / 2**20:.2f} MiB")
    print(f"{'layer':>10} {'median ms':>10} {'min':>9} {'max':>9}")
    for k in LAYERS:
        xs = times[k]
        print(f"{k:>10} {statistics.median(xs):10.2f} {min(xs):9.2f} {max(xs):9.2f}")


if __name__ == "__main__":
    main()
