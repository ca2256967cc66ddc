"""The KickNext online selection rule.

A run splits the ground set into a sample phase and a selection phase: each
element lands in the sample independently with probability ``1 - p`` and the
remaining elements arrive one by one in uniformly random order.  (This joint
law matches drawing the sample size from Binom(n, 1-p) and taking that prefix
of a uniform permutation, since only the sample *set* and the relative order
of the rest are ever observed.)

From the sample, every family node gets a reference set: the sample optimum
restricted to that node, optionally padded with zero-weight virtual elements
up to the node's capacity (``matroid._ref_fields`` builds them from the
ranks outside the sample, holding only the ``_Pre.slots`` that a walk can
reach).  An arriving element is then pushed through the chain of nodes
from its minimal set to the root.  At each node it is accepted iff the
reference set still holds some lighter element, in which case the
*heaviest* reference element lighter than the arrival is evicted; otherwise
the chain walk stops and the element is rejected from the overall solution.
Acceptances at inner nodes are kept even when an outer node rejects — the
walk never rolls back.  The run's output is the root's accepted list.
Every walk takes that step on the sets held as one int per node
(``matroid._ref_fields``), bit r for rank r, where the heaviest lighter
entry is the lowest set bit above the arrival's rank, which the step
clears: ``run_kicknext``, which records each step, ``_run_weight``, the
Monte Carlo walk, which adds only the root's weight, and the checks' walk
(``experiments._EvictionFailures.walk``).  Lists come out only with ids:
``matroid._ref_rank_lists`` decodes fields for ``_id_lists``.

A 64-bit seed names a stream, the SHAKE-128 output of the seed read as
64-bit words, and a stream holds consecutive draws: ``_draws`` reads a
draw's words in rank space, and the next draw starts at the next unread
word.  The arrivals are the ranks hit by geometric gaps with success
probability p, one word per gap, ``floor(log U / log(1-p))`` for the word
read as U in (0, 1]; ``_gap_table(p, n)`` holds that gap for each bucket
of words (their top ``GAP_BITS`` bits) in which every word has the same
one, and n + 1 for each bucket whose gaps all end a draw over n ranks, so
most words need no ``log``.  A draw yields the arrivals ascending with
one further word each, its sort key.  ``_order`` is the one arrival
order rule: it sorts arrivals on their keys (ties, with chance below
n^2/2^65, go to the lower rank), so a reader that needs only some
arrivals in order, or none, orders what it needs.  A stream serves up to
``_block_size(n, p)`` draws (64 on small instances), so one hash call
sets up a block of trials.  ``_stream`` is the one SHAKE-128 reader: one
hash object per stream, yielding its words without end, a first read
sized by ``_first_read``, about ``BLOCK_WORDS`` words (32 KiB) at most
unless one draw alone needs more, then the new words of each doubled
read.  ``_draws`` draws a whole call's blocks, so its per-call constants
are set up once; ``_sample_ids`` is the first draw of one seed's stream,
with the sample flags.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from hashlib import shake_128
from itertools import chain
from math import isfinite, log, log1p, sqrt
from typing import Mapping, Sequence

from .model import InstanceError, LaminarInstance
from .matroid import _rank_flags, _ref_fields, _ref_rank_lists

_MASK64 = (1 << 64) - 1
# a stream serves up to MAX_BLOCK draws, fewer where that many would read
# more than BLOCK_WORDS words on average; see ``_block_size``
MAX_BLOCK = 64
BLOCK_WORDS = 4096
# a gap word's top GAP_BITS bits index its bucket in ``_gap_table``
GAP_BITS = 8
_BIG_ENDIAN = sys.byteorder == "big"


@dataclass(frozen=True)
class Trial:
    """One seeded randomness realization: the sample set and the arrival
    order of the remaining elements.  Rebuilding from the same seed
    reproduces both bit-exactly."""

    seed: int
    p: float
    sample_set: frozenset[int]
    arrival_order: tuple[int, ...]


@dataclass(frozen=True)
class TraceEvent:
    step: int
    element: int
    node: int
    action: str  # "accept" or "break"
    evicted: int | None
    evicted_virtual: bool


@dataclass(frozen=True)
class BreakRecord:
    """Where an arriving element's chain walk stopped.  ``initial_below``
    counts the reference elements lighter than it at phase start; at a break
    every one of them has already been evicted."""

    node: int
    step: int
    initial_below: int


@dataclass
class RunResult:
    """One run's outcome.  ``initial_refsets`` and ``final_refsets`` hold
    each node's reference ids lightest first, laid out as
    ``reference_sets`` lays them out."""

    sol_root: tuple[int, ...]
    sol_per_node: dict[int, tuple[int, ...]]
    initial_refsets: dict[int, tuple[int, ...]]
    final_refsets: dict[int, tuple[int, ...]]
    breaks: dict[int, BreakRecord]
    events: tuple[TraceEvent, ...]


def make_trial(inst: LaminarInstance, p: float, seed: int) -> Trial:
    """Draw the sample/selection split and the arrival order from a seed
    in 0..2^64-1."""
    _check_p(p)
    _check_seed(seed)
    pre = inst.pre()
    in_s, order = _sample_ids(pre, p, seed)
    ids = pre.ids_by_rank
    sample = frozenset(ids[r] for r, s in enumerate(in_s) if s)
    return Trial(seed, p, sample, tuple(ids[r] for r in order))


def _check_p(p: float) -> None:
    """Refuse a selection probability outside (0, 1), or one so small that
    the longest geometric gap of ``_draws`` is not a finite float."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if not isfinite(log(2**-53) / log1p(-p)):
        raise ValueError(f"p is too small: the longest trial gap is not finite, got {p}")


def _check_seed(seed: int) -> None:
    """Refuse a seed that is not a plain int, bool included, and one that
    the 8-byte stream key cannot hold, rather than wrap it onto another
    seed's stream."""
    if type(seed) is not int:  # not bool, which subclasses int
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in 0..2^64-1, got {seed}")


def _stream(seed: int, count: int):
    """The stream of ``seed`` without end: the little-endian 64-bit words
    of SHAKE-128 of the seed, as arrays, the first ``count``, then the new
    words of each doubled read.  SHAKE-128 is an extendable-output
    function, so a longer read of the one hash object starts with the same
    words, and a read here holds only its own new words."""
    xof = shake_128(seed.to_bytes(8, "little"))
    start = 0
    while True:
        words = array("Q", xof.digest(8 * count)[8 * start:])
        if _BIG_ENDIAN:
            words.byteswap()
        yield words
        start, count = count, 2 * count


def _block_size(n: int, p: float) -> int:
    """Draws per stream: ``MAX_BLOCK``, or fewer when that many would read
    more than ``BLOCK_WORDS`` words on average (2np + 1 words a draw).  A
    pure function of (n, p), so the trial stream depends on nothing else:
    64 at n <= 200 for p = 0.08, 50 at n = 200 for p = 0.2, and 12 at
    n = 2000 for p = 0.08."""
    return max(1, min(MAX_BLOCK, int(BLOCK_WORDS / (2.0 * n * p + 1.0))))


def _first_read(n: int, p: float, draws: int = 1) -> int:
    """Words in the first read of ``draws`` draws of one stream: the
    t + draws gaps and t keys of up to ``m + 2*sqrt(m) + 4`` arrivals,
    m = draws*n*p, about two standard deviations above the mean, rounded up
    to whole SHAKE-128 blocks of 21 words, since a block costs the same
    read in full.  For one draw at n = 2000 and p = 0.08 that is 399 words,
    and 0.1% of draws read again.  A whole block (``_block_size`` draws)
    reads at most about ``BLOCK_WORDS`` words (4053, 32 KiB, at n = 2000,
    p = 0.08), unless one draw alone needs more; at n = 6 and p = 0.08 its
    64 draws read 168 words."""
    m = draws * n * p
    t = m + 2.0 * sqrt(m) + 4.0
    return -(-(2 * int(t) + draws) // 21) * 21


@lru_cache(maxsize=16)
def _gap_table(p: float, n: int) -> tuple[int, ...]:
    """The gaps of whole buckets of gap words for draws over n ranks: entry
    j is ``n + 1`` when every word u with ``u >> (64 - GAP_BITS) == j`` has
    a gap of n or more under ``_draws``' formula ``int(log(U) / lq)``, U =
    ((u >> 11) + 1) * 2^-53 and lq = log1p(-p), which ends the draw as
    that gap would; otherwise ``1 + gap`` when its words all have the same
    gap, and 0 when they have several.  Bucket j holds U in (j, j + 1] *
    2^-GAP_BITS, so its gaps lie between the formula at its two edges, a =
    log(j * 2^-GAP_BITS) / lq (infinite at j = 0) and b, the same at j + 1:
    the true quotient is monotone in U, and libm's ``log`` (error below 1
    ulp) and the correctly rounded division keep each computed gap, edges
    included, within about 1e-15 of it, relative.  So with a 1e-9 margin
    the smallest gap is at least ``int(b * (1 - 1e-9))``, and a bucket
    whose edges floor alike, ``int(a * (1 + 1e-9)) == int(b * (1 - 1e-9))``,
    floors every word alike.  At small n most buckets end the draw: at
    n = 6 the mixed share is 0.02 at p = 0.05 against 0.27 at n = 200.
    One table per (p, n), memoized (16 pairs at most), as a build costs
    about 100-150 µs, a few hundred gap words' worth."""
    lq = log1p(-p)
    edges = [log(j * 2.0**-GAP_BITS) / lq for j in range(1, 2**GAP_BITS + 1)]
    table = [n + 1 if int(edges[0] * (1 - 1e-9)) >= n else 0]
    for a, b in zip(edges, edges[1:]):
        gap = int(b * (1 - 1e-9))
        table.append(n + 1 if gap >= n else 1 + gap if int(a * (1 + 1e-9)) == gap else 0)
    return tuple(table)


def _draws(pre, p: float, blocks):
    """Trials in rank space, drawn from ``blocks``, an iterable of
    ``(seed, draws)``: the first ``draws`` draws of the stream of each
    seed, each as ``(arrivals, key)``.  In a draw each rank arrives
    independently with probability p; the words are read as geometric gaps
    between arrivals, giving ``arrivals`` ascending, then as one sort key
    per arrival, ``key[r]`` for arrival r.  ``key`` is ``None`` when fewer
    than two arrive, as no order then depends on a key: the common draw at
    small n * p then builds no dict.  A draw with t arrivals reads t + 1
    gap words and then t keys, and the next draw of the stream starts at
    the next unread word.  Each block reads its words through one iterator
    over ``_stream``, which reads ``_first_read`` words at first and more
    on demand.  A gap word u's gap is ``floor(log U / log(1 - p))``, U =
    ((u >> 11) + 1) * 2^-53, read from ``_gap_table(p, n)`` by u's top
    ``GAP_BITS`` bits where that bucket has one gap or only gaps of n or
    more, which end the draw alike, and computed where it has several,
    some below n (0.19 of the words at p = 0.08 and n = 200, 0.02 at n = 6):
    the same draw either way, as r is not read once the draw ends."""
    n = pre.n_real
    lq = log1p(-p)
    gaps = _gap_table(p, n)
    shift = 64 - GAP_BITS
    for seed, draws in blocks:
        words = chain.from_iterable(_stream(seed, _first_read(n, p, draws)))
        for _ in range(draws):
            arrivals: list[int] = []
            r = -1
            for u in words:
                r += gaps[u >> shift] or 1 + int(log(((u >> 11) + 1) * 2**-53) / lq)
                if r >= n:
                    break
                arrivals.append(r)
            if len(arrivals) > 1:
                # ``zip`` stops at the last arrival, so it reads exactly t keys
                yield arrivals, dict(zip(arrivals, words))
            else:
                if arrivals:
                    next(words)  # a lone arrival's key orders nothing
                yield arrivals, None


def _order(arrivals: list[int], key) -> list[int]:
    """The arrival order rule: ``arrivals``, ascending ranks of one draw of
    ``_draws`` or some of them, sorted in place on their words in ``key``
    and returned.  The sort is stable, so tied keys (chance below
    n^2/2^65) go to the lower rank.  Nothing is sorted when ``key`` is
    ``None`` or fewer than two ranks are given, as no order then depends
    on a key."""
    if key is not None and len(arrivals) > 1:
        arrivals.sort(key=key.__getitem__)
    return arrivals


def _flags(n: int, arrivals) -> list[bool]:
    """Sample flag of every rank: True unless the rank arrives."""
    in_s = [True] * n
    for r in arrivals:
        in_s[r] = False
    return in_s


def _sample_ids(pre, p: float, seed: int):
    """One trial in rank space: ``(in_s, order_ranks)``, the sample flag of
    every rank and the arrival order (``_order``) of the first draw of
    ``seed``'s stream."""
    order = _order(*next(_draws(pre, p, ((seed, 1),))))
    return _flags(pre.n_real, order), order


def reference_sets(inst: LaminarInstance, sample, padding: bool = True) -> dict[int, list[int]]:
    """Per-node reference sets as element ids sorted lightest-first.
    Virtual padding elements get fresh ids above every real id.  A padded
    set holds ``min(capacity, elements inside the node)`` ids, the slots a
    run can reach; the virtual ids past that are left out."""
    pre = inst.pre()
    arrivals = [r for r, s in enumerate(_rank_flags(pre, sample)) if not s]
    return _id_lists(pre, _ref_fields(pre, arrivals, padding), list)


def _id_lists(pre, fields, kind) -> dict:
    """Reference fields per node index (``matroid._ref_fields``) as
    ``kind`` (``list`` or ``tuple``) id sequences per node id, lightest
    first."""
    return {nid: kind(map(pre.id_of, reversed(ranks)))
            for nid, ranks in zip(pre.node_ids, _ref_rank_lists(pre, fields))}


def _run_weight(pre, fields: list[int], order_ranks) -> float:
    """Total weight accepted at the root when ``order_ranks`` arrive against
    the reference sets ``fields``, one int per node (``matroid._ref_fields``),
    which the walk consumes.  At each node of r's chain the lowest set bit
    of ``field & -(2 << r)`` is the heaviest reference entry lighter than
    r, which the step clears, and none breaks the walk; ``run_kicknext``
    takes the same step and records it.  r gains its weight only when it
    passes every node, added in arrival order."""
    w = pre.w_by_rank
    chains = pre.chain_by_rank
    total = 0.0
    for r in order_ranks:
        m = -(2 << r)
        for b in chains[r]:
            x = fields[b] & m
            if not x:
                break
            fields[b] ^= x & -x
        else:
            total += w[r]
    return total


def run_kicknext(inst: LaminarInstance, trial: Trial, *, padding: bool = True) -> RunResult:
    """Execute one full run and report per-node acceptances, reference-set
    evolution, break records and the per-step event trace.  The trial must
    split the ground set: ``InstanceError`` refuses an unknown id, an
    arrival that repeats or is sampled, and an element in neither set."""
    pre = inst.pre()
    in_s = _rank_flags(pre, trial.sample_set)
    order_ranks = [pre.rank_of(eid) for eid in trial.arrival_order]
    seen = in_s[:]
    for eid, r in zip(trial.arrival_order, order_ranks):
        if seen[r]:
            what = "is sampled and arrives" if in_s[r] else "arrives twice"
            raise InstanceError(f"element {eid} {what}")
        seen[r] = True
    if not all(seen):
        raise InstanceError(f"element {pre.ids_by_rank[seen.index(False)]} is neither "
                            f"sampled nor arriving")

    fields = _ref_fields(pre, order_ranks, padding)
    initial = fields[:]
    n, base = pre.n_real, pre.virtual_rank_base
    sol: list[list[int]] = [[] for _ in pre.mu]
    breaks: dict[int, BreakRecord] = {}
    events: list[TraceEvent] = []

    # ``_run_weight``'s step: the lowest set bit of ``field & m`` is the
    # evicted entry, bit i < n real rank i, bit n + j virtual rank base + j
    for step, r in enumerate(order_ranks):
        eid = pre.ids_by_rank[r]
        m = -(2 << r)
        for b in pre.chain_by_rank[r]:
            x = fields[b] & m
            if not x:
                breaks[eid] = BreakRecord(pre.node_ids[b], step, (initial[b] & m).bit_count())
                events.append(TraceEvent(step, eid, pre.node_ids[b], "break", None, False))
                break
            low = x & -x
            fields[b] ^= low
            sol[b].append(r)
            i = low.bit_length() - 1
            events.append(TraceEvent(step, eid, pre.node_ids[b], "accept",
                                     pre.id_of(i if i < n else base[b] + i - n), i >= n))

    return RunResult(
        sol_root=tuple(pre.ids_by_rank[r] for r in sol[pre.root_idx]),
        sol_per_node={pre.node_ids[b]: tuple(pre.ids_by_rank[r] for r in sol[b]) for b in range(len(sol))},
        initial_refsets=_id_lists(pre, initial, tuple),
        final_refsets=_id_lists(pre, fields, tuple),
        breaks=breaks,
        events=tuple(events),
    )


def qualifies(inst: LaminarInstance, element_id: int, node_id: int,
              refsets: Mapping[int, Sequence[int]]) -> bool:
    """True iff the element outweighs the lightest reference element at every
    node on its chain up to ``node_id``.  Only such elements can ever be
    accepted at (or evict from) that node.  Empty reference sets disqualify.
    """
    pre = inst.pre()
    r = pre.rank_of(element_id)
    up = pre.upto(r, pre.node_idx(node_id))
    if up is None:
        raise InstanceError(f"element {element_id} is not contained in node {node_id}")
    rank, n_real = pre.rank_by_id.get, pre.n_real  # an id that is not real is virtual
    for b in up:
        ids = refsets.get(pre.node_ids[b], ())
        if not ids or max(rank(x, n_real) for x in ids) <= r:
            return False
    return True


def trace_csv(result: RunResult) -> str:
    """Event log as CSV: step, element_id, node_id, action, evicted_id,
    evicted_virtual."""
    lines = ["step,element_id,node_id,action,evicted_id,evicted_virtual"]
    for ev in result.events:
        evicted = "" if ev.evicted is None else str(ev.evicted)
        lines.append(
            f"{ev.step},{ev.element},{ev.node},{ev.action},{evicted},{int(ev.evicted_virtual)}"
        )
    return "\n".join(lines) + "\n"
