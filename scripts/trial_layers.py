#!/usr/bin/env python3
"""Time the layers of one Monte Carlo trial, as ``_trial_weights_chunk``
runs them above ``SMALL_N`` elements.

Usage: python scripts/trial_layers.py [--family F] [--n N] [--p P]
           [--seed S] [--parts K] [--trials T] [--rounds R] [--no-padding]

The instance is ``generate(GenSpec(family, n, seed, parts=K))``.  Each
round draws trials 0..T-1 of master seed S and times, per trial:

- ``draw``: the arrivals and their sort keys (``_arrival_draws``);
- ``refs``: the reference lists, rebuilding only the nodes whose OPT holds
  an arrival (``matroid._ref_rank_lists``);
- ``live``: keeping the live arrivals and sorting them on their keys
  (``experiments._live_order``);
- ``walk``: walking the live arrivals (``kicknext._run_weight``);

and, for comparison, two layers the trial no longer runs: ``full_refs``,
one full bottom-up pass over the sample flags, padded on every node
(``matroid._greedy_ranks``, then ``matroid._pad``), and
``sort_all``, ordering every arrival (``kicknext._order`` on a copy).
The layers run one after another within each round, the rounds
repeat them, and the report gives the median over rounds of each layer's
time per trial, with the lowest and highest round, plus the mean arrivals
and live arrivals per trial, and the share of ``_gap_table(p)``'s buckets
that are mixed: the expected share of gap words whose gap the draw
computes rather than looks up.  Stdlib only and seeded: every count and
share depends on the flags alone, the times on the host too.

A round holds every trial's draw and reference lists at once: per trial
up to n arrivals with their keys, one list per node and the lists'
entries, ``sum(_Pre.slots)`` at most.  These items cost up to about 116
bytes each (every element arriving, at p = 0.999), so a round of more
than ``MAX_ROUND`` = 10^6 of them, trials x (elements + nodes + slots),
is refused with exit 2: on ``--trials`` x ``--n`` before the instance is
built, and on the whole count before any round.  So are rounds outside
1..1000, a bad p, trial count or seed, and ``--parts`` off the partition
family (``generators.FAMILY_FIELDS``), which ``generate`` would ignore.

The ROADMAP table of where a trial's time goes comes from runs such as
``--family partition --n 2000 --parts 40``.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from laminar_secretary import GenSpec, generate
from laminar_secretary.experiments import SMALL_N, _arrival_draws, _check_run, _live_order
from laminar_secretary.generators import FAMILIES, FAMILY_FIELDS
from laminar_secretary.kicknext import GAP_BITS, _gap_table, _order, _run_weight
from laminar_secretary.matroid import _flags, _greedy_ranks, _pad, _ref_rank_lists

MAX_ROUND = 10**6
LAYERS = ("draw", "refs", "live", "walk", "full_refs", "sort_all")


def _check_round(trials, items):
    """Refuse a round of ``trials`` trials of ``items`` items each when it
    would hold more than ``MAX_ROUND`` items."""
    if trials * items > MAX_ROUND:
        raise ValueError(f"a round holds trials x (elements + nodes + slots) items, "
                         f"limited to {MAX_ROUND}, got {trials} x {items}")


def _round(pre, p, seed, trials, padding):
    """One round: seconds per layer, and the arrival and live counts."""
    n = pre.n_real
    home = [ch[0] for ch in pre.chain_by_rank]
    spent = {}
    t0 = time.perf_counter()
    draws = list(_arrival_draws(pre, p, seed, 0, trials))
    t1 = time.perf_counter()
    refs = [_ref_rank_lists(pre, arrivals, padding) for arrivals, _ in draws]
    t2 = time.perf_counter()
    live = [_live_order(home, R, arrivals, key) for R, (arrivals, key) in zip(refs, draws)]
    t3 = time.perf_counter()
    for R, order in zip(refs, live):
        _run_weight(pre, R, order)
    t4 = time.perf_counter()
    for arrivals, _ in draws:
        full = _greedy_ranks(pre, _flags(n, arrivals))
        if padding:
            _pad(pre, full, range(len(full)))
    t5 = time.perf_counter()
    for arrivals, key in draws:
        _order(arrivals[:], key)
    t6 = time.perf_counter()
    spent.update(draw=t1 - t0, refs=t2 - t1, live=t3 - t2, walk=t4 - t3,
                 full_refs=t5 - t4, sort_all=t6 - t5)
    arrived = sum(len(arrivals) for arrivals, _ in draws)
    return spent, arrived, sum(map(len, live))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--family", choices=FAMILIES, default="partition")
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--p", type=float, default=0.08)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--parts", type=int, default=None)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--no-padding", dest="padding", action="store_false")
    args = ap.parse_args()
    try:
        _check_run(args.p, args.trials, args.seed)
        if not 1 <= args.rounds <= 1000:
            raise ValueError(f"rounds must be in 1..1000, got {args.rounds}")
        if args.parts is not None and "parts" not in FAMILY_FIELDS[args.family]:
            raise ValueError(f"--parts does not apply to the {args.family} family")
        _check_round(args.trials, args.n)
        inst = generate(GenSpec(args.family, args.n, args.seed, parts=args.parts))
        pre = inst.pre()
        _check_round(args.trials, pre.n_real + len(pre.mu) + sum(pre.slots))
    except ValueError as exc:
        ap.exit(2, f"error: {exc}\n")
    if pre.n_real <= SMALL_N:
        print(f"# note: n <= {SMALL_N}; Monte Carlo memoizes weights there and "
              f"walks every arrival")
    times = {k: [] for k in LAYERS}
    for _ in range(args.rounds):
        spent, arrived, live = _round(pre, args.p, args.seed, args.trials, args.padding)
        for k in LAYERS:
            times[k].append(spent[k] / args.trials * 1e6)
    print(f"{inst.name}: {len(pre.mu)} nodes, p = {args.p}, {args.trials} trials x "
          f"{args.rounds} rounds, padding {'on' if args.padding else 'off'}")
    mixed = _gap_table(args.p).count(0) / 2**GAP_BITS
    print(f"arrivals per trial {arrived / args.trials:.2f}, live {live / args.trials:.2f} "
          f"(share {live / arrived if arrived else 0.0:.3f}), "
          f"mixed gap buckets {mixed:.3f}")
    print(f"{'layer':>10} {'median us':>10} {'min':>8} {'max':>8}")
    for k in LAYERS:
        xs = times[k]
        print(f"{k:>10} {statistics.median(xs):10.2f} {min(xs):8.2f} {max(xs):8.2f}")


if __name__ == "__main__":
    main()
