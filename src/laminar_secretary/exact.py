"""Exact expected weight of KickNext by enumeration.

The exact expectation sums over every sample split, and within a split
recurses over the next arrival: KickNext's future depends only on the
arrivals still to come and the current reference lists, so the recursion is
memoized on that pair, held as one int.  Its low n bits are the arrivals to
come; then each node has a field of n + ``_Pre.slots`` bits, a
real rank r at bit r and the j-th virtual slot at bit n + j, so that the
KickNext step is a mask, a lowest-set-bit and a clear (``_enum_states``).
Each split's start state comes from one bottom-up greedy pass on ints
in ``_enum_states``, ``matroid._greedy_ranks`` on bit sets, so enumeration
builds no list, and the recursion reads a state's arrivals from a table of
set bits.  A field is laid out as a Monte Carlo trial's
(``matroid._ref_fields``), shifted to its offset in the state, and both
cut a node's candidates to its capacity by ``matroid._lowest_bits``.  The
state fixes the value whatever split reached it, so one memo serves every
split of a call (its measured sizes are at ``EXACT_ENUM_LIMIT``).  No
field is wider than 2n bits, so capacity does not drive the cost.

The memo holds canonical states only, as an arrival only evicts and a
field only loses bits.  Field bits that no arrival still to come can read
are cleared (``_readable``, one table per call), and an arrival that finds
no lighter entry at its minimal node, which stays so, leaves the state: a
start state by one scan of its arrivals (``_expected_splits``), a child
state by the ranks its step kills (``_expected_rest``).  The first rule is
bit-identical; the second sums other terms than an average over every
arrival would, and can move a value by one ulp.

``EXACT_ENUM_LIMIT`` is the one bound on enumeration, and every gate reads
it at call time: ``exact_expectation`` through ``_check_enumerable``, and
the callers that choose whether to enumerate through ``_enumerable``.
"""

from __future__ import annotations

import math

from .kicknext import _check_p
from .matroid import _lowest_bits
from .model import LaminarInstance

# ``exact_expectation`` enumerates 2^n sample splits and shares one memo of
# canonical (arrivals to come, reference lists) states across them, so the
# memo lives for the whole call.  On ``generate(GenSpec(family, n, 7))`` of
# the four families at p = 0.08, padding on and off (Python 3.11, 2 shared
# cores): at n = 8 it ends with 20 to 2852 canonical states, far fewer
# than the 109600 (split, order) leaves, the sum of C(n, t) * t!, and a
# call takes 0.4 to 11 ms and at most 0.4 MiB under tracemalloc; at n = 10,
# 36 to 12377 states, 1.6 to 54 ms and at most 1.6 MiB.  The chain with
# padding is the largest at both sizes.
EXACT_ENUM_LIMIT = 8


def _enumerable(n: int) -> bool:
    """True when ``EXACT_ENUM_LIMIT`` allows enumerating n elements."""
    return n <= EXACT_ENUM_LIMIT


def _check_enumerable(n: int) -> None:
    """Refuse exact enumeration over more than ``EXACT_ENUM_LIMIT`` elements."""
    if not _enumerable(n):
        raise ValueError(f"exact enumeration limited to {EXACT_ENUM_LIMIT} elements, got {n}")


def _enum_states(pre, padding: bool) -> tuple[list[tuple[tuple[int, ...], ...]], list[int]]:
    """The bit layout of ``_expected_rest``'s states: per rank, one step per
    node of its chain, (lighter, homed, offset, width): the mask of the
    node's field bits lighter than the rank, the ranks whose minimal node
    it is, and the field's offset in the state and its width mask; and the
    start state of every sample split, indexed by its mask.

    Bits 0..n-1 hold the ranks still to arrive.  Node b's field follows,
    ``n + pre.slots[b]`` bits wide: real rank r at bit r of the field and
    virtual slot j at bit n + j, so the field's bit order is the padded
    list's rank order, and the field holds the slots that a padded
    reference list reaches (``model._Pre`` shows a walk never needs more).
    A split's field holds the node's optimum of the sampled ranks, and
    when padding, slots k.. of the field, where k is the node's number of
    real entries: one precomputed fill per (node, k).  One greedy pass on
    ints per split builds them, ``matroid._greedy_ranks`` on bit sets: the
    nodes are visited children first, and node x keeps the lowest
    ``mu[x]`` set bits (the heaviest ranks, by ``matroid._lowest_bits``)
    of its sampled own ranks and its children's real bits, which alone go
    up to a parent."""
    n = pre.n_real
    slots = pre.slots
    offset = []
    top = n
    for v in slots:
        offset.append(top)
        top += n + v
    fill = [[((1 << v) - (1 << k)) << (o + n) if padding else 0 for k in range(v + 1)]
            for v, o in zip(slots, offset)]
    homed = [0] * len(slots)
    for r, ch in enumerate(pre.chain_by_rank):
        homed[ch[0]] |= 1 << r
    steps = [tuple((((1 << n + slots[b]) - (2 << r)) << offset[b], homed[b], offset[b],
                    (1 << n + slots[b]) - 1) for b in ch)
             for r, ch in enumerate(pre.chain_by_rank)]
    plan = [(x, sum(1 << r for r in pre.own_ranks[x]), pre.mu[x], pre.children_idx[x],
             offset[x], fill[x]) for x in pre.bottom_up]
    bits = [0] * len(slots)  # per node, its real bits in the current split
    full = (1 << n) - 1
    starts = [0]  # the split with no arrival has nothing to recurse on
    for mask in range(1, 1 << n):  # set bit r: rank r arrives in the selection phase
        keep = full ^ mask
        state = mask
        for x, mine, cap, kids, o, f in plan:
            chosen = keep & mine
            for c in kids:
                chosen |= bits[c]
            k = chosen.bit_count()
            if k > cap:
                chosen = _lowest_bits(chosen, k, cap)
                k = cap
            bits[x] = chosen
            state |= chosen << o | f[k]
        starts.append(state)
    return steps, starts


# per state of the ranks still to arrive, its set bits lowest first as
# (r, 1 << r) pairs, for ``_expected_rest``: one index per state costs less
# than splitting off each lowest bit.  ``_set_bits`` builds it for every
# state up to 2^EXACT_ENUM_LIMIT at import (256 entries, about 17 KiB) and
# extends it when a call enumerates more ranks; its entries depend on the
# state alone, so growing it changes no result
_SET_BITS: list[tuple[tuple[int, int], ...]] = [()]


def _set_bits(n: int) -> None:
    """Extend ``_SET_BITS`` in place to cover the states of n ranks."""
    table = _SET_BITS
    if len(table) < 1 << n:
        pairs = [(r, 1 << r) for r in range(n)]
        for state in range(len(table), 1 << n):
            low = state & -state
            table.append((pairs[low.bit_length() - 1],) + table[state ^ low])


_set_bits(EXACT_ENUM_LIMIT)


def _readable(steps) -> list[int]:
    """Per set R of ranks still to arrive, indexed by its mask (n =
    ``len(steps)`` ranks), the bits of a state that the rest of the
    enumeration can read: R's own bits and, at each node b, the field
    positions above q(b, R), the least rank of R whose chain holds b.  An
    arrival r reads b's field only above r (its lighter masks in
    ``steps[r]``) and a step clears only a bit it read, so the positions up
    to q(b, R) are never read or changed again, nor any position of a field
    that no rank of R passes.  The set is the union over r in R of r's bit
    and its lighter masks, built in one pass by splitting off R's lowest
    rank.  2^n ints, as ``_SET_BITS``."""
    reach = []
    for r, chain in enumerate(steps):
        bits = 1 << r
        for m, _, _, _ in chain:
            bits |= m
        reach.append(bits)
    table = [0]
    for R in range(1, 1 << len(steps)):
        r, low = _SET_BITS[R][0]
        table.append(table[R ^ low] | reach[r])
    return table


def _expected_rest(state: int, steps, w, readable, memo: dict) -> float:
    """Expected root weight that the ranks still to arrive in ``state``
    (bits 0..n-1, n = ``len(w)``) add, each of them arriving next with
    equal chance; see ``_enum_states`` for the layout.  The ranks still to
    arrive are read from ``_SET_BITS``.  An arrival r takes the step of
    ``kicknext._run_weight`` on the packed state: at each node of its
    chain the lowest set bit of ``state & lighter`` is the heaviest
    lighter reference, which the step clears, and an empty field breaks
    the walk.  It gains its weight only when it passes every node.
    KickNext's future depends on nothing else, so the value is memoized on
    the state; callers look it up before calling.

    Every state is canonical, which follows from one fact: an arrival only
    evicts, so a field only loses bits.  A rank still to arrive is dead
    when its minimal node holds no lighter entry: it breaks there and
    evicts nothing whenever it comes, and it stays dead.  The ranks around
    it arrive in a uniform order among themselves, so a state's value is
    that of the state without its dead ranks, or 0.0 when none is live,
    and no state here holds one.  A step kills only where it evicts the
    last entry lighter than r: there the ranks homed at the node that are
    lighter than the field's new lightest entry die, one mask and no scan.
    Each child state without them is cut by ``readable`` of its ranks
    still to arrive (``_readable``): the bits it clears are never read
    again, so every state merged by the cut runs the same steps on the
    same floats.  Dropping a dead rank sums other terms than the average
    over every arrival would, so a value can differ from that average in
    the last ulp."""
    remaining = state & ((1 << len(w)) - 1)
    acc = []
    for r, low in _SET_BITS[remaining]:
        after = state ^ low
        rest = remaining ^ low
        for m, homed, o, width in steps[r]:
            x = after & m
            if not x:
                break
            y = x & -x
            after ^= y
            if x == y:  # the last entry lighter than r went: its lighter homed ranks die
                rest &= ~(homed & -(1 << (after >> o & width).bit_length()))
        else:
            acc.append(w[r])
        if rest:
            after &= readable[rest]
            value = memo.get(after)
            if value is None:
                value = _expected_rest(after, steps, w, readable, memo)
            acc.append(value)
    value = math.fsum(acc) / remaining.bit_count()
    memo[state] = value
    return value


def _split_law(n: int, p: float) -> list[float]:
    """The probability of one sample split of n elements with t arrivals,
    for t = 0..n: each element arrives with probability p, independently."""
    return [(1.0 - p) ** (n - t) * p ** t for t in range(n + 1)]


def _expected_splits(pre, p: float, steps, starts) -> tuple[float, float, dict]:
    """The sum over every sample split of its probability times its
    expectation, ``_expected_rest`` of its start state in ``starts`` (from
    ``_enum_states``, with ``steps``), and the sum of the probabilities.
    A split's probability depends only on its number of arrivals t, so it
    is computed once per t.  One memo serves every split: a state's value
    is computed the same way whichever split reaches it first, so sharing
    changes no bit of the result.  Each start state drops its dead ranks,
    found by one scan of its arrivals, and is cut by ``_readable`` of the
    rest before its lookup, as ``_expected_rest`` makes each child state
    canonical; a split with no live arrival adds nothing.  Returns
    (expected weight, probability mass, memo)."""
    n = pre.n_real
    w = pre.w_by_rank
    law = _split_law(n, p)
    contribs: list[float] = []
    probs: list[float] = []
    readable = _readable(steps)
    memo: dict = {}
    for mask, state in enumerate(starts):
        prob = law[mask.bit_count()]
        probs.append(prob)
        live = mask
        for r, low in _SET_BITS[mask]:
            if not state & steps[r][0][0]:
                live ^= low
        if not live:
            continue
        state &= readable[live]
        value = memo.get(state)
        if value is None:
            value = _expected_rest(state, steps, w, readable, memo)
        contribs.append(prob * value)
    return math.fsum(contribs), math.fsum(probs), memo


def exact_expectation(inst: LaminarInstance, p: float, *, padding: bool = True):
    """Expected solution weight, exact over every sample split and every
    arrival order.  Returns (expected_weight, total_probability); the latter
    is a self-check and equals 1 up to float rounding.

    Each split's expectation is ``_expected_rest`` of all its arrivals: a
    recursion over the next arrival, memoized on one int that holds the
    arrivals still to come and every node's reference list, in a canonical
    form (see ``_enum_states``, which builds every split's start state on
    ints, with no reference list, and ``_expected_rest``).
    ``_expected_splits`` sums the splits with one memo for the call (see
    ``EXACT_ENUM_LIMIT`` for its measured size), instead of walking all
    C(n, t) * t! arrival orders.  A node's field is
    at most 2n bits wide whatever its capacity, as its padded list holds at
    most n slots, so neither time nor memory grows with capacity."""
    _check_p(p)
    pre = inst.pre()
    n = pre.n_real
    _check_enumerable(n)
    _set_bits(n)  # a no-op unless the limit was raised at run time
    steps, starts = _enum_states(pre, padding)
    expected, mass, _ = _expected_splits(pre, p, steps, starts)
    return expected, mass
