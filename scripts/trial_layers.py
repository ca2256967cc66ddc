#!/usr/bin/env python3
"""Time the layers of one Monte Carlo trial, as ``_trial_weights_chunk``
runs them above ``SMALL_N`` elements, and the two per-trial check layers
of CLI ``verify`` on the same trial.

Usage: python scripts/trial_layers.py [--family F] [--n N] [--p P]
           [--seed S] [--parts K] [--trials T] [--rounds R] [--no-padding]

The instance is ``generate(GenSpec(family, n, seed, parts=K))``.  Each
round draws trials 0..T-1 of master seed S and times, per trial:

- ``draw``: the arrivals and their sort keys (``_arrival_draws``);
- ``fields``: the reference sets as one int per node, rebuilding only the
  nodes whose OPT holds an arrival (``matroid._ref_fields``);
- ``live``: keeping the live arrivals, those below their minimal node's
  top bit, and sorting them on their keys (``kicknext._order``);
- ``walk``: walking the live arrivals through the fields
  (``kicknext._run_weight``);

and the checks, which read the trial's fields and its full arrival order,
as ``verify_report`` runs them:

- ``dominance``: the backward-rank dominance step
  (``experiments._Dominance.step``);
- ``failures``: the eviction-failure walk of every arrival, which also
  gives the trial's root weight (``experiments._EvictionFailures.walk``).

The draws come first, for the whole round; then the other layers run one
after another on batches of ``BATCH`` = 64 trials.  The checks read a
copy of the batch's fields taken before the walk consumes them, and the
full orders, sorted outside the timed layers.  The report gives
the median over rounds of each layer's time per trial, with the lowest
and highest round, plus the mean arrivals and live arrivals per trial,
and the share of ``_gap_table(p, n)``'s buckets that are mixed at the
instance's n: the expected share of gap words whose gap the draw computes
rather than looks up.  Stdlib only and seeded: every count and share
depends on the flags alone, the times on the host too.

A round holds every trial's draw at once, per trial up to n arrivals with
their keys, and one batch's sets: per trial two lists of one int of up to
n + ``slots`` bits per node, the fields and the checks' copy.  The draws
and sets cost at most about 116 bytes an item (every element arriving, at
p = 0.999), so a round of more
than ``MAX_ROUND`` = 10^6 items, trials x (elements + nodes + slots), is
refused with exit 2: on ``--trials`` x ``--n`` before the instance is
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
from laminar_secretary.experiments import (
    SMALL_N,
    _arrival_draws,
    _check_run,
    _Dominance,
    _EvictionFailures,
)
from laminar_secretary.generators import FAMILIES, FAMILY_FIELDS
from laminar_secretary.kicknext import GAP_BITS, _gap_table, _order, _run_weight
from laminar_secretary.matroid import _ref_fields

MAX_ROUND = 10**6
BATCH = 64
LAYERS = ("draw", "fields", "live", "walk", "dominance", "failures")


def _check_round(trials, items):
    """Refuse a round of ``trials`` trials of ``items`` items each when it
    would hold more than ``MAX_ROUND`` items."""
    if trials * items > MAX_ROUND:
        raise ValueError(f"a round holds trials x (elements + nodes + slots) items, "
                         f"limited to {MAX_ROUND}, got {trials} x {items}")


def _round(pre, p, seed, trials, padding):
    """One round: seconds per layer, and the arrival and live counts."""
    home = [ch[0] for ch in pre.chain_by_rank]
    clock = time.perf_counter
    spent = dict.fromkeys(LAYERS, 0.0)
    dominance = _Dominance(pre)
    failures = _EvictionFailures(pre)
    t0 = clock()
    draws = list(_arrival_draws(pre, p, seed, 0, trials))
    spent["draw"] = clock() - t0
    live = 0
    for i in range(0, trials, BATCH):
        batch = draws[i:i + BATCH]
        full = [_order(list(arrivals), key) for arrivals, key in batch]
        t0 = clock()
        fields = [_ref_fields(pre, arrivals, padding) for arrivals, _ in batch]
        t1 = clock()
        kept = [F[:] for F in fields]
        t1b = clock()  # the copy is in no layer
        orders = []
        for F, (arrivals, key) in zip(fields, batch):
            top = list(map(int.bit_length, F))
            orders.append(_order([r for r in arrivals if r + 1 < top[home[r]]], key))
        t2 = clock()
        for F, order in zip(fields, orders):
            _run_weight(pre, F, order)
        t3 = clock()
        for j, (F, order) in enumerate(zip(kept, full), i):
            dominance.step(j, order, F)
        t4 = clock()
        for F, order in zip(kept, full):
            failures.walk(F, order)
        t5 = clock()
        for k, t in zip(LAYERS[1:], (t1 - t0, t2 - t1b, t3 - t2, t4 - t3, t5 - t4)):
            spent[k] += t
        live += sum(map(len, orders))
    return spent, sum(len(arrivals) for arrivals, _ in draws), live


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
    mixed = _gap_table(args.p, pre.n_real).count(0) / 2**GAP_BITS
    print(f"arrivals per trial {arrived / args.trials:.2f}, live {live / args.trials:.2f} "
          f"(share {live / arrived if arrived else 0.0:.3f}), "
          f"mixed gap buckets {mixed:.3f}")
    print(f"{'layer':>10} {'median us':>10} {'min':>8} {'max':>8}")
    for k in LAYERS:
        xs = times[k]
        print(f"{k:>10} {statistics.median(xs):10.2f} {min(xs):8.2f} {max(xs):8.2f}")


if __name__ == "__main__":
    main()
