"""Independence oracle and optima for laminar capacity constraints.

A subset is independent when, for every family node, the number of selected
elements inside that node's set stays within its capacity.  The
maximum-weight independent subset is found greedily (scan in weight order,
keep whatever still fits); for laminar constraints the greedy result is
exact.

Every node's optimum comes out of one bottom-up pass.  Node b's optimum is
the heaviest capacity-many of b's own elements together with its children's
optima (an element that misses a node's optimum misses every ancestor's
optimum too), so the pass visits the nodes children first and builds each
optimum from the node's first capacity-many flagged own ranks and its
children's optima, sorted and cut to capacity.  The per-element filtering,
merging and sorting run in C builtins, so a pass costs a few interpreted
steps per node rather than per element.
This module is the one place that builds optima and a sample's
reference sets: the whole ground set's optima OPT, built once per
instance by one list pass and cached unpadded (``_global_optima``); the
reference sets of a sample, given by its arrivals, as one int per node,
bit r for rank r (``_ref_fields``, for every run: Monte Carlo, the checks
and the single runs of ``kicknext``), which rebuilds only the nodes whose
OPT holds an arrival and takes OPT's cached fields everywhere else, as a
node's optimum is OPT's wherever the sample holds OPT; and
``greedy_opt`` and ``brank``, which read OPT or, given a subset, index
one pass over it.
On bits a node keeps the lowest capacity-many set bits of its
candidates, by ``_lowest_bits``, which exact enumeration's pass
(``exact._enum_states``) shares, so neither builds a list.  Lists come
out only where ids do: ``_ref_rank_lists`` decodes a run's fields to
ascending rank lists for ``kicknext.run_kicknext`` and
``kicknext.reference_sets``.
An optimum's weight is one float sum added left to right
(``_left_sum``), as are the chain-decay sums of ``theory``.
``brute_force_opt`` re-derives an optimum by exhaustive search and exists
purely as a cross-check oracle for small inputs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import add
from typing import Iterable

from .model import InstanceError, LaminarInstance

BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class RankedOptimum:
    """A per-node optimum: element ids sorted lightest-first."""

    node: int
    elements: tuple[int, ...]
    weight: float

    @property
    def ids(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def is_independent(inst: LaminarInstance, element_ids: Iterable[int]) -> bool:
    """True iff every node's capacity accommodates its share of the set."""
    pre = inst.pre()
    usage = [0] * len(pre.mu)
    for eid in element_ids:
        for b in pre.chain_by_rank[pre.rank_of(eid)]:
            usage[b] += 1
    return all(u <= cap for u, cap in zip(usage, pre.mu))


def _rank_flags(pre, subset) -> list[bool]:
    if subset is None:
        return [True] * pre.n_real
    flags = [False] * pre.n_real
    for eid in subset:
        flags[pre.rank_of(eid)] = True
    return flags


def _greedy_ranks(pre, in_v: list[bool]) -> list[list[int]]:
    """Every node's optimum of the flagged ranks, in one bottom-up pass.

    The nodes are visited children first (``pre.bottom_up``); node ``x``
    takes its first ``mu[x]`` flagged own ranks, merges in its children's
    optima and keeps the ``mu[x]`` heaviest, so entry ``x`` of the result is
    the optimum of node ``x``'s subtree.  Each list built holds ranks
    heaviest first and is a fresh object that callers may mutate."""
    mu = pre.mu
    own_ranks = pre.own_ranks
    children_idx = pre.children_idx
    flagged = in_v.__getitem__
    opt = [None] * len(mu)  # ``bottom_up`` sets every entry
    for x in pre.bottom_up:
        cap = mu[x]
        chosen = list(islice(filter(flagged, own_ranks[x]), cap))
        kids = children_idx[x]
        if kids:
            for c in kids:
                chosen += opt[c]
            chosen.sort()
            del chosen[cap:]
        opt[x] = chosen
    return opt


def _ref_rank_lists(pre, fields) -> list[list[int]]:
    """The ascending rank lists (heaviest first) that reference fields of
    ``_ref_fields`` stand for, one per node index b: bit r is real rank r
    and bit n + j is b's virtual rank ``virtual_rank_base[b] + j``,
    n = ``n_real``.  Each field is read lowest set bit first, one step per
    entry whatever the field's width."""
    n = pre.n_real
    lists = []
    for f, base in zip(fields, pre.virtual_rank_base):
        ranks = []
        while f:
            low = f & -f
            f ^= low
            i = low.bit_length() - 1
            ranks.append(i if i < n else base + i - n)
        lists.append(ranks)
    return lists


def _lowest_bits(bits: int, k: int, cap: int) -> int:
    """The ``cap`` lowest set bits of ``bits``, which has ``k`` > ``cap``
    set bits: on a rank set, its ``cap`` heaviest ranks.  Where one of the
    two counts is at most 16 it clears bits one at a time, the fewer way:
    the ``k - cap`` highest, by ``bit_length``, or the ``cap`` lowest from
    a copy, whose bits left are then the ones to clear.  Otherwise it
    bisects on the cut, the least bit position with ``cap`` set bits below
    it, by the popcount of the masked prefix: about log2 of the width
    operations, where one bit at a time would take hundreds at n = 2000
    (uniform, rank 667, ran 2x slower per trial that way)."""
    drop = k - cap
    if drop <= cap:
        if drop <= 16:
            for _ in range(drop):
                bits ^= 1 << bits.bit_length() - 1
            return bits
    elif cap <= 16:
        cut = bits
        for _ in range(cap):
            cut &= cut - 1
        return bits ^ cut
    lo, hi = cap, bits.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (bits & (1 << mid) - 1).bit_count() < cap:
            lo = mid + 1
        else:
            hi = mid
    return bits & (1 << lo) - 1


def _ref_fields(pre, arrivals, padding: bool) -> list[int]:
    """The reference sets of the sample that leaves out ``arrivals``
    (unsampled ranks, any order), one int per node index b: b's optimum
    of the sample, padded when ``padding`` by virtual entries up to
    ``pre.slots[b]``, the slots a walk can reach (see ``model._Pre``).
    Bit r stands for real rank r and bit n + j for virtual slot j (rank
    ``virtual_rank_base[b] + j``), n = ``n_real``, so bit order is rank
    order (``_ref_rank_lists`` decodes them).  A node whose OPT holds no
    arrival gets OPT's field, from ``pre.opt_fields``; ints are immutable,
    so the shallow copy of that tuple is the whole start.  The others, the
    union of the arrivals' ``opt_masks`` read lowest bit first, so children
    first, are rebuilt as ``_greedy_ranks`` builds them: a node's sampled
    own ranks, ``own_bits`` less the arrivals, with its children's real
    bits (rebuilt or OPT's), cut to the ``mu`` lowest by ``_lowest_bits``;
    padded, the field then holds slots k.. of the node's ``slots``, k its
    count of real bits.  The sampled ranks come as one int parsed from a
    string of binary digits, set per arrival, rather than ORed from
    ``1 << r`` per arrival, each an int up to n bits wide: at n = 2000 and
    p = 0.08 this builder took 19 µs in place of 24 on a 40-part
    partition and 15 in place of 19 on a rank-667 uniform matroid, and
    0.3 µs more on the 60- and 200-element random trees.  A fresh list
    for the caller to consume."""
    if pre.opt_masks is None:
        _opt_tables(pre)
    masks = pre.opt_masks
    n = pre.n_real
    touched = 0
    digits = bytearray(b"1") * n  # digit r: rank r is sampled
    for r in arrivals:
        touched |= masks[r]
        digits[r] = 48  # b"0"
    fields = list(pre.opt_fields[padding])
    if not touched:
        return fields
    keep = int(digits[::-1], 2)
    real = list(pre.opt_fields[False]) if padding else fields  # unpadded: one list
    mu, slots, own = pre.mu, pre.slots, pre.own_bits
    bottom_up, children_idx = pre.bottom_up, pre.children_idx
    while touched:
        low = touched & -touched
        touched ^= low
        x = bottom_up[low.bit_length() - 1]
        chosen = own[x] & keep
        for c in children_idx[x]:
            chosen |= real[c]
        k = chosen.bit_count()
        if k > mu[x]:
            chosen = _lowest_bits(chosen, k, mu[x])
            k = mu[x]
        real[x] = chosen
        if padding:
            fields[x] = chosen | ((1 << slots[x]) - (1 << k)) << n
    return fields


def _global_optima(pre) -> tuple[tuple[int, ...], ...]:
    """Every node's optimum of the whole ground set (OPT) as an ascending
    rank tuple, unpadded.  Built once per instance and kept on ``pre``;
    tuples, so no caller can change them."""
    if pre.global_optima is None:
        pre.global_optima = tuple(map(tuple, _greedy_ranks(pre, [True] * pre.n_real)))
    return pre.global_optima


def _opt_tables(pre) -> tuple[int, ...]:
    """OPT's real bits per node index, bit r for each rank r of OPT_b:
    the unpadded field of ``_ref_fields`` wherever the sample holds
    OPT_b.  The first call fills the tables that ``_ref_fields`` reads,
    once per instance: per rank the nodes whose OPT holds it
    (``pre.opt_masks``), as a mask with bit i for node ``bottom_up[i]``, 0
    for a rank in no OPT (those nodes are a prefix of the rank's chain, as
    an element that misses a node's optimum misses every ancestor's);
    OPT's fields unpadded and padded (``pre.opt_fields``, indexed by the
    padding flag) and each node's own ranks as bits (``pre.own_bits``).
    The bit tables hold one int per node, each at most n + ``slots`` bits
    wide; no table is kept per rank or per count of a node's entries."""
    if pre.opt_masks is not None:
        return pre.opt_fields[False]
    opt = _global_optima(pre)
    masks = [0] * pre.n_real
    for i, b in enumerate(pre.bottom_up):
        for r in opt[b]:
            masks[r] |= 1 << i
    pre.opt_masks = masks
    n = pre.n_real
    real = tuple(sum(1 << r for r in ranks) for ranks in opt)
    pre.opt_fields = (real, tuple(bits | ((1 << v) - (1 << len(ranks))) << n
                                  for bits, v, ranks in zip(real, pre.slots, opt)))
    pre.own_bits = tuple(sum(1 << r for r in ranks) for ranks in pre.own_ranks)
    return real


def _optimum_ranks(pre, subset, b: int):
    """Node index ``b``'s optimum of ``subset`` as ranks, heaviest first:
    the cached OPT when ``subset`` is ``None``, else one pass."""
    if subset is None:
        return _global_optima(pre)[b]
    return _greedy_ranks(pre, _rank_flags(pre, subset))[b]


def _left_sum(values) -> float:
    """``values`` added left to right, one float at a time, from 0.0: the
    one float sum of weights and decay terms.  ``sum`` would round
    differently, as it compensates from Python 3.12 on."""
    return reduce(add, values, 0.0)


def _ranked_optimum(inst: LaminarInstance, node_id: int, ranks_heavy_first) -> RankedOptimum:
    pre = inst.pre()
    ids = tuple(pre.ids_by_rank[r] for r in reversed(ranks_heavy_first))
    weight = _left_sum(map(pre.w_by_rank.__getitem__, ranks_heavy_first))
    return RankedOptimum(node_id, ids, weight)


def greedy_opt(inst: LaminarInstance, subset, node_id: int) -> RankedOptimum:
    """Maximum-weight independent subset of ``subset`` restricted to the
    node's set and its capacity subtree.  ``subset=None`` means the whole
    ground set."""
    pre = inst.pre()
    return _ranked_optimum(inst, node_id, _optimum_ranks(pre, subset, pre.node_idx(node_id)))


def brank(inst: LaminarInstance, element_id: int, node_id: int, subset=None) -> int:
    """Backward rank: how many elements of the node's optimum (restricted to
    ``subset``) are strictly lighter than the given element."""
    pre = inst.pre()
    r = pre.rank_of(element_id)
    b = pre.node_idx(node_id)
    if pre.upto(r, b) is None:
        raise InstanceError(f"element {element_id} is not contained in node {node_id}")
    opt = _optimum_ranks(pre, subset, b)  # ascending ranks
    return len(opt) - bisect_right(opt, r)


def brute_force_opt(inst: LaminarInstance, subset, node_id: int) -> RankedOptimum:
    """Exhaustive maximum-weight independent subset (test oracle).

    Tie-breaking mirrors the element order exactly: among equal-weight
    subsets the one holding the earlier element in weight order wins, which
    is what the greedy scan produces.  Sums are compared as exact rationals
    so float rounding can never flip a comparison.
    """
    pre = inst.pre()
    b = pre.node_idx(node_id)
    in_v = _rank_flags(pre, subset)
    pool = [r for r in pre.members(b) if in_v[r]]
    if len(pool) > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute-force oracle limited to {BRUTE_FORCE_LIMIT} elements, got {len(pool)}"
        )
    counts = [0] * len(pre.mu)
    best_sum = Fraction(0)
    best_seq: tuple[int, ...] = ()
    cur: list[int] = []

    def walk(idx: int, cur_sum: Fraction) -> None:
        nonlocal best_sum, best_seq
        if idx == len(pool):
            if cur_sum > best_sum or (cur_sum == best_sum and tuple(cur) < best_seq):
                best_sum, best_seq = cur_sum, tuple(cur)
            return
        r = pool[idx]
        up = pre.upto(r, b)
        if all(counts[nx] < pre.mu[nx] for nx in up):
            for nx in up:
                counts[nx] += 1
            cur.append(r)
            walk(idx + 1, cur_sum + Fraction(pre.w_by_rank[r]))
            cur.pop()
            for nx in up:
                counts[nx] -= 1
        walk(idx + 1, cur_sum)

    walk(0, Fraction(0))
    return _ranked_optimum(inst, node_id, list(best_seq))
