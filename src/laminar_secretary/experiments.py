"""Empirical verification harness.

Everything here is seeded and reproducible: trials come in blocks of
B = ``kicknext._block_size(n, p)``, and trial ``i`` of a run with master
seed ``s`` is draw ``i % B`` of the stream of ``derive_seed(s, i // B)``,
a pure function of the pair, so serial and parallel execution produce
identical statistics.  ``_arrival_draws`` is the one map from (master
seed, first trial, count) to draws, each arrival with its sort key, and
``kicknext._order`` the one rule that orders them; a range that starts
inside a block draws the block's earlier draws and drops them.
``RNG_VERSION`` names that trial stream, and every summary prints it, so
that a printed estimate says which draws it rests on.  Aggregation goes
through ``math.fsum`` (exact summation), which keeps results independent
of chunking.

Each reader orders only what it needs.  Every sampled trial, Monte Carlo
or check, holds its reference sets as one int per node from
``matroid._ref_fields``: bit r for real rank r and bit n + j for virtual
slot j, so bit order is rank order and the entries up to a rank are the
set bits of a masked prefix.  The checks take trials from ``_trials``, as
full arrival orders and fresh fields.  The Monte Carlo ratio walks each
trial by ``kicknext._run_weight``, a mask, a lowest set bit and a clear
per node.  Above ``SMALL_N`` elements it sorts and walks only the live
arrivals, those below the top bit of their minimal node's field when the
phase starts, as a dead arrival never evicts or gains; and the
qualifying law reads unsorted arrivals.  An eviction-failure event is a
node of an arrival's chain whose field holds no bit above the arrival's
rank.  Every slot a set leaves out up to capacity is virtual and lighter
than every real rank, so a dominance check compares the counts of
entries up to a rank, trial set against OPT, in which capacity cancels,
and a qualifying count is indexed by the padded set's own lighter
entries.  The capacity-padded backward ranks that a witness prints are
``mu`` less those counts, the trial's and OPT's.  Up to ``SMALL_N``
elements, draws repeat often, and the Monte Carlo ratio memoizes each arrival order's weight, which the order fixes.  The
reference sets and the whole ground set's optima OPT, which the ratio
denominators and the checks measure against, come from ``matroid``
(``_ref_fields``, ``_global_optima`` and OPT's bits ``_opt_tables``,
built once per instance and read by each check itself); no reader here
builds a rank list.
Every sampling entry point checks its trial count (at most
``MAX_TRIALS``), p and master seed through ``_check_run``.

CLI ``verify`` reads ``verify_report``, which draws each trial once: the
backward-rank dominance reads a trial's fresh fields, and one walk of
them gives both its root weight for the ratio and its eviction failures.
``verify_lemmas`` and ``allkicked_frequency`` drive the same per-trial
steps (``_Dominance``, ``_EvictionFailures``) from their own trial loops,
so each returns what its part of the report holds; ``monte_carlo_ratio``
walks the trials by ``_trial_weights_chunk`` instead, whose weights, and
so whose ratio, equal those of the report.

The backward-rank dominance step costs what a trial changes, not n: the
weak check tests only the bits a node's field holds and OPT's does not,
and the optimum and strict checks read only the trial's arrivals along
their chains (see ``_Dominance``).  Ids appear only in the printed
witnesses, each the least example by (trial, node index, rank), so
relabelling the ids without changing the weight order changes no more
than the ids printed.

The exact expectation by enumeration lives in ``exact``; ``exact_ratio``
divides it by the optimum's weight, as the Monte Carlo ratio does.

Estimators that condition on an event (an element landing in the selection
phase) do so by rejection: trials violating the condition are discarded,
which is unbiased.  Statistical acceptance in reports is one-sided at a few
standard errors, matching the direction of the analytical bounds.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice, starmap

from .model import InstanceError, LaminarInstance
from .matroid import _global_optima, _left_sum, _opt_tables, _ref_fields
from .exact import _check_enumerable, _enumerable, _split_law, exact_expectation
from .kicknext import (
    _MASK64,
    _block_size,
    _check_p,
    _check_seed,
    _draws,
    _order,
    _run_weight,
)
from .theory import (
    _decay_sum,
    _decay_terms,
    _padded_brank,
    allkicked_bound,
    g_refined_bound,
    g_weak_bound,
    ratio_lower_bound,
    theory_params,
    weighted_penalty,
    weighted_penalty_telescoped,
)

RNG_VERSION = 3
# every sampling entry point refuses more trials than this, as a Monte Carlo
# run keeps one float per trial (about 32 bytes each above ``SMALL_N``)
MAX_TRIALS = 10_000_000
# up to this many elements, ``_trial_weights_chunk`` memoizes each arrival
# order's weight, as draws repeat often
SMALL_N = 16
# ``verify_report`` runs the backward-rank dominance checks on at most this
# many trials
LEMMA_TRIALS = 500
_WEIGHT_MEMO_CAP = 1 << 14
_TOL = 1e-12


def derive_seed(master_seed: int, index: int) -> int:
    """Seed of the stream of block ``index`` (trials ``index * B`` on, see
    ``_arrival_draws``): SplitMix64 finalizer applied to
    ``master_seed + GOLDEN * (index + 1)``.  Stable across platforms.
    A seed outside 0..2^64-1 or a negative index raises ``ValueError``."""
    _check_seed(master_seed)
    if type(index) is not int or index < 0:  # not bool, which subclasses int
        raise ValueError(f"index must be a non-negative integer, got {index!r}")
    z = (master_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# -- report types ------------------------------------------------------------


@dataclass(frozen=True)
class RatioEstimate:
    value: float
    std_err: float
    trials: int
    padding: bool
    bound: float | None  # analytical lower bound when p < 1/2


@dataclass(frozen=True)
class AllKickedRow:
    """One eviction-failure row: an optimum element, a node of its chain,
    and the event's frequency among the element's arrivals.  ``brank`` is
    the element's *unpadded* backward rank at the node, the entries of
    OPT's list there that are lighter than it, and ``bound`` is
    ``allkicked_bound`` at that rank.  Every other backward rank in the
    package is capacity-padded; the padded rank here would be larger by the
    node's unfilled capacity slots, each of which would tighten the bound
    by a factor c."""

    element: int
    node: int
    brank: int
    conditioned_trials: int
    frequency: float
    std_err: float
    bound: float


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool | None  # None = skipped or informational
    detail: str = ""


@dataclass(frozen=True)
class QualifyingProbability:
    probability: float
    bound: float
    exact: bool
    std_err: float | None = None
    conditioned_trials: int | None = None


@dataclass
class ExperimentReport:
    instance: str
    p: float
    trials: int
    master_seed: int
    ratio: RatioEstimate | None = None
    allkicked: list[AllKickedRow] = field(default_factory=list)
    lemma_checks: list[LemmaCheck] = field(default_factory=list)

    def rows(self):
        """(check_name, instance, p, value, bound_or_reference, std_err, pass)."""
        out = []
        if self.ratio is not None:
            r = self.ratio
            if r.bound is None:
                verdict = "1"
            else:
                verdict = "1" if r.value >= r.bound - 4.0 * r.std_err else "0"
            out.append(("ratio_estimate", self.instance, self.p, r.value,
                        r.bound, r.std_err, verdict))
        for row in self.allkicked:
            ok = row.frequency <= row.bound + 4.0 * row.std_err
            out.append((f"allkicked_e{row.element}_n{row.node}", self.instance,
                        self.p, row.frequency, row.bound, row.std_err,
                        "1" if ok else "0"))
        for chk in self.lemma_checks:
            verdict = "skip" if chk.passed is None else ("1" if chk.passed else "0")
            out.append((f"lemma_{chk.name}", self.instance, self.p,
                        None, None, None, verdict))
        return out

    def to_csv(self) -> str:
        def fmt(x):
            return "" if x is None else (repr(x) if isinstance(x, float) else str(x))

        lines = ["check_name,instance,p,value,bound_or_reference,std_err,pass"]
        for row in self.rows():
            lines.append(",".join(fmt(x) for x in row))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"instance {self.instance}  p={self.p}  trials={self.trials}  "
                 f"seed={self.master_seed}  rng={RNG_VERSION}"]
        if self.ratio is not None:
            r = self.ratio
            bound = "n/a" if r.bound is None else f"{r.bound:.6f}"
            lines.append(
                f"  ratio estimate {r.value:.6f} +- {r.std_err:.6f}  (guarantee {bound})"
            )
        if self.allkicked:
            worst = max(
                (row.frequency - row.bound for row in self.allkicked), default=0.0
            )
            lines.append(
                f"  eviction-failure frequencies: {len(self.allkicked)} (element, node) pairs, "
                f"worst margin over bound {worst:+.6f}"
            )
        for chk in self.lemma_checks:
            state = "skip" if chk.passed is None else ("pass" if chk.passed else "FAIL")
            detail = f" ({chk.detail})" if chk.detail else ""
            lines.append(f"  lemma {chk.name}: {state}{detail}")
        return "\n".join(lines) + "\n"

    def all_passed(self) -> bool:
        return all(row[-1] != "0" for row in self.rows())


# -- Monte Carlo ratio -------------------------------------------------------


def _check_run(p: float, trials: int, master_seed: int) -> None:
    """Refuse a sampling run with a trial count that is not a plain int
    (bool included), fewer than one trial or more than ``MAX_TRIALS``, a
    bad p or a master seed that is not an int in 0..2^64-1, checked in
    that order."""
    if type(trials) is not int:  # not bool, which subclasses int
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials limited to {MAX_TRIALS}, got {trials}")
    _check_p(p)
    _check_seed(master_seed)


def _arrival_draws(pre, p: float, master_seed: int, start: int, count: int):
    """Trials ``start`` to ``start + count - 1`` as ``kicknext._draws``
    yields them: ``(arrivals, key)``, the arrivals ascending and their
    sort keys, for the reader to order with ``kicknext._order``, in whole
    or in part.  Trial i is draw ``i % B`` of the stream of
    ``derive_seed(master_seed, i // B)``, with B = ``kicknext._block_size(n,
    p)``.  A range that starts inside a block draws the block's earlier
    draws, at most B - 1 of them, and drops them."""
    size = _block_size(pre.n_real, p)
    first, skip = divmod(start, size)
    end = start + count
    blocks = ((derive_seed(master_seed, b), min(end - b * size, size))
              for b in range(first, -(-end // size)))
    return islice(_draws(pre, p, blocks), skip, None)


def _trials(pre, p, master_seed, start, count, padding):
    """Trials ``start`` to ``start + count - 1`` of ``master_seed`` as
    ``(order, fields)``: the full arrival order and the reference sets as
    one int per node (``matroid._ref_fields``), a fresh list for the
    caller to consume."""
    for order in starmap(_order, _arrival_draws(pre, p, master_seed, start, count)):
        yield order, _ref_fields(pre, order, padding)


def _trial_weights_chunk(inst, p, start, count, master_seed, padding):
    """Root weight of each of trials ``start`` to ``start + count - 1``,
    each walked by ``kicknext._run_weight`` through the trial's reference
    sets as bits (``matroid._ref_fields``).

    Above ``SMALL_N`` elements only the live arrivals are ordered and
    walked: those heavier than the lightest entry of their minimal node's
    set, rank r below the field's top bit, ``bit_length() - 1``.  Any other
    arrival is dead: it finds no lighter entry there when the phase starts,
    and sets only lose entries, so whenever it comes it breaks there,
    evicting and gaining nothing, and the walk of the live ones adds the
    same weights in the same order.

    Up to ``SMALL_N`` elements the weight is memoized on the arrival order,
    which fixes it: the arrivals fix the sample, so the reference sets,
    and the walk is deterministic.  The memo lives for one call (one
    ``--jobs`` chunk) and stops inserting at ``_WEIGHT_MEMO_CAP`` entries, so
    whatever the trial count it holds at most 2^14 keys of up to 16 small
    ints each: about 3.6 MiB, 228 bytes an entry on 64-bit CPython 3.11."""
    pre = inst.pre()
    if pre.n_real > SMALL_N:
        home = [ch[0] for ch in pre.chain_by_rank]  # each rank's minimal node
        out = []
        for arrivals, key in _arrival_draws(pre, p, master_seed, start, count):
            fields = _ref_fields(pre, arrivals, padding)
            top = list(map(int.bit_length, fields))
            live = [r for r in arrivals if r + 1 < top[home[r]]]
            out.append(_run_weight(pre, fields, _order(live, key)))
        return out
    memo: dict[tuple[int, ...], float] = {}
    out = []
    for arrivals, key in _arrival_draws(pre, p, master_seed, start, count):
        # ``kicknext._order`` inlined, as this is the small-n hot path: one call
        # per trial cost mc_small 2% of its trials per second, 382.5k -> 374.8k,
        # slower in 8 of 8 interleaved pairs (Python 3.11, 2 shared cores)
        if key is not None:
            arrivals.sort(key=key.__getitem__)
        order = tuple(arrivals)
        w = memo.get(order)
        if w is None:
            w = _run_weight(pre, _ref_fields(pre, order, padding), order)
            if len(memo) < _WEIGHT_MEMO_CAP:
                memo[order] = w
        out.append(w)
    return out


def _sample_variance(values, mean: float) -> float:
    """Unbiased sample variance, summed in a second pass around ``mean``.
    The one-pass ``sum(x*x) - n*mean**2`` cancels to 0 on nearly equal
    values, which would shrink a standard error to nothing."""
    return math.fsum((x - mean) ** 2 for x in values) / (len(values) - 1)


def _chunk_plan(trials: int, jobs: int) -> list[tuple[int, int]]:
    """(start, count) per worker.  ``jobs`` is clamped to the core count and
    to ``trials``, so no flag value can start more workers than that."""
    jobs = max(1, min(jobs, os.cpu_count() or 1, trials))
    step = (trials + jobs - 1) // jobs
    return [(start, min(step, trials - start)) for start in range(0, trials, step)]


def _opt_weight(inst: LaminarInstance) -> float:
    """The offline optimum's weight, the denominator of every ratio.  A zero
    optimum is refused, as no ratio is defined for it."""
    pre = inst.pre()
    w_opt = _left_sum(map(pre.w_by_rank.__getitem__, _global_optima(pre)[pre.root_idx]))
    if not w_opt > 0.0:
        raise ValueError("degenerate instance: optimum weight is zero")
    return w_opt


def exact_ratio(inst: LaminarInstance, p: float, *, padding: bool = True) -> float:
    """Exact expected ratio; see ``exact.exact_expectation`` for the guard."""
    w_opt = _opt_weight(inst)
    expected, _ = exact_expectation(inst, p, padding=padding)
    return expected / w_opt


def monte_carlo_ratio(inst: LaminarInstance, p: float, trials: int, master_seed: int,
                      *, padding: bool = True, jobs: int = 1) -> ExperimentReport:
    """Estimate the expected solution-to-optimum weight ratio over ``trials``
    independent runs.  ``jobs`` (an int, at least 1) only parallelizes; it
    never changes values."""
    _check_run(p, trials, master_seed)
    if type(jobs) is not int:  # not bool, which subclasses int
        raise ValueError(f"jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    w_opt = _opt_weight(inst)

    plan = _chunk_plan(trials, jobs)
    if len(plan) == 1:
        weights = _trial_weights_chunk(inst, p, 0, trials, master_seed, padding)
    else:
        # imported here, as a run on one worker starts no pool
        from multiprocessing import Pool

        args = [(inst, p, start, count, master_seed, padding) for start, count in plan]
        with Pool(processes=len(args)) as pool:
            chunks = pool.starmap(_trial_weights_chunk, args)
        weights = [w for ch in chunks for w in ch]

    report = ExperimentReport(inst.name, p, trials, master_seed)
    report.ratio = _ratio_estimate(weights, w_opt, p, padding)
    return report


def _ratio_estimate(weights: list[float], w_opt: float, p: float,
                    padding: bool) -> RatioEstimate:
    """Mean and standard error of the per-trial ratios ``weight / w_opt``,
    one trial per weight, next to the guarantee when p < 1/2."""
    trials = len(weights)
    ratios = [w / w_opt for w in weights]
    mean = math.fsum(ratios) / trials
    se = math.sqrt(_sample_variance(ratios, mean) / trials) if trials > 1 else 0.0
    bound = ratio_lower_bound(p) if p < 0.5 else None
    return RatioEstimate(mean, se, trials, padding, bound)


# -- eviction-failure frequencies ---------------------------------------------


class _EvictionFailures:
    """Eviction-failure counts in three steps: set up once per instance,
    ``walk`` once per trial, ``rows`` at the end.  An event is an optimum
    element arriving at a chain node that holds no lighter reference: on
    a field, no set bit above the element's rank."""

    def __init__(self, pre):
        self.pre = pre
        self.opt = opt = _global_optima(pre)
        self.seen = dict.fromkeys(opt[pre.root_idx], 0)  # arrivals per optimum element
        self.hits: dict[tuple[int, int], int] = defaultdict(int)

    def walk(self, fields: list[int], order) -> float:
        """Walk one trial's arrivals through ``fields``, one int per node
        (``matroid._ref_fields``), which the walk consumes, counting the
        events; returns the weight accepted at the root.  The step is
        ``kicknext._run_weight``'s, and the weights are added in the same
        order, so the two walks return the same float."""
        chains = self.pre.chain_by_rank
        w = self.pre.w_by_rank
        seen = self.seen
        hits = self.hits
        total = 0.0
        for r in order:
            m = -(2 << r)  # the bits of ranks lighter than r, virtual ones included
            ch = chains[r]
            k = 0  # nodes passed
            for b in ch:
                x = fields[b] & m
                if not x:
                    break
                fields[b] ^= x & -x
                k += 1
            else:
                total += w[r]
            if r in seen:
                seen[r] += 1
                # every node the walk passed held a lighter reference, and
                # the walk left the rest of the chain as it found it
                for b in ch[k:]:
                    if not fields[b] & m:
                        hits[r, b] += 1
        return total

    def rows(self, params) -> list[AllKickedRow]:
        """One row per (optimum element, chain node), lightest element
        first: the event's frequency among the element's arrivals, next to
        ``allkicked_bound`` at its unpadded backward rank against OPT."""
        pre, opt = self.pre, self.opt
        rows = []
        for r in reversed(opt[pre.root_idx]):  # lightest first
            ncond = self.seen[r]
            for b in pre.chain_by_rank[r]:
                d = _padded_brank(opt[b], r)  # unpadded (see ``AllKickedRow``)
                freq = self.hits[r, b] / ncond if ncond else 0.0
                se = math.sqrt(freq * (1.0 - freq) / ncond) if ncond else 0.0
                rows.append(AllKickedRow(pre.ids_by_rank[r], pre.node_ids[b], d, ncond, freq,
                                         se, allkicked_bound(params, d)))
        return rows


def allkicked_frequency(inst: LaminarInstance, p: float, trials: int, master_seed: int,
                        *, padding: bool = True) -> list[AllKickedRow]:
    """For every optimum element and every node on its chain, estimate the
    conditional probability (given the element arrives in the selection
    phase) that all lighter reference elements at that node were already
    evicted when it arrived, next to the analytical bound."""
    _check_run(p, trials, master_seed)
    params = theory_params(p)  # the bound needs p < 1/2
    pre = inst.pre()
    failures = _EvictionFailures(pre)
    for order, fields in _trials(pre, p, master_seed, 0, trials, padding):
        failures.walk(fields, order)
    return failures.rows(params)


# -- qualifying-count joint probabilities --------------------------------------


def _qualifying_members(pre, b: int, skip: int) -> dict[int, tuple[int, ...]]:
    """The ranks inside node index ``b`` other than ``skip``, each mapped to
    its chain up to ``b``: what ``_qualifying_counts`` looks a trial's
    arrivals up in, built once per call rather than once per trial."""
    return {r: pre.upto(r, b) for r in pre.members(b) if r != skip}


def _qualifying_counts(fields: list[int], b: int, members, arrivals) -> list[int]:
    """Counts per entry of node index ``b``'s padded reference set
    (``slots[b]`` of them, its set bits, lightest first) of the ranks in
    ``arrivals`` that are keys of ``members`` (from
    ``_qualifying_members``) and qualify for the node, given ``fields``,
    the padded reference sets (``matroid._ref_fields``) of the sample that
    leaves out ``arrivals``: each outweighs the lightest reference entry
    at every node of its chain up to ``b``, a set bit above its rank, and
    is counted at the heaviest entry lighter than it, at the set's own
    lighter-entry count less one.  The capacity-long counts put
    ``mu[b] - slots[b]`` zeros in front: a member's capacity-padded
    backward rank exceeds this count by the slots the set leaves out."""
    F = fields[b]
    got = [0] * F.bit_count()
    for r in arrivals:
        up = members.get(r)
        if up is not None and all(fields[x] >> (r + 1) for x in up):
            got[(F >> (r + 1)).bit_count() - 1] += 1  # qualifying implies >= 1
    return got


def _count(value) -> int:
    """A qualifying count: an int, or a float with an integral value.
    Booleans, strings and fractional or non-finite numbers are refused
    rather than truncated."""
    if type(value) is int:  # not bool, which subclasses int
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"counts must be integers, got {value!r}")


def qualifying_joint_probability(inst: LaminarInstance, p: float, node_id: int,
                                 counts, element_id: int, *, master_seed: int = 0,
                                 trials: int = 20000,
                                 method: str = "auto") -> QualifyingProbability:
    """Probability, conditional on ``element_id`` arriving in the selection
    phase, that the per-slot qualifying counts at ``node_id`` equal
    ``counts`` exactly — together with the product bound p^(sum of counts).

    Exact by enumeration when the instance is small enough, Monte Carlo
    otherwise (``method`` forces either).  An element outside the node is
    refused with ``InstanceError``, as ``brank`` refuses it, before any
    draw or enumeration.
    """
    _check_run(p, trials, master_seed)
    pre = inst.pre()
    b = pre.node_idx(node_id)
    mu = pre.mu[b]
    # ``_qualifying_counts`` leaves out the lightest ``mu - slots`` counts,
    # always zero, so a nonzero one matches no trial: one pass validates
    # ``counts`` and keeps only the ``slots``-long tail, whatever the capacity
    head = mu - pre.slots[b]
    tail: list[int] | None = []
    nonzero_head = False
    length = total = 0
    for x in map(_count, counts):
        if x < 0:
            raise ValueError("counts must be non-negative")
        if length < head:
            nonzero_head = nonzero_head or x > 0
        elif length < mu:
            tail.append(x)
        length += 1
        total += x
    if length != mu:
        raise ValueError(
            f"counts must have one entry per reference slot ({mu} for node {node_id})"
        )
    if nonzero_head:
        tail = None
    skip = pre.rank_of(element_id)
    if pre.upto(skip, b) is None:
        raise InstanceError(f"element {element_id} is not contained in node {node_id}")
    bound = p ** total
    n = inst.n
    if method not in ("auto", "exact", "mc"):
        raise ValueError(f"unknown method {method!r}")
    use_exact = method == "exact" or (method == "auto" and _enumerable(n))
    members = _qualifying_members(pre, b, skip)

    if use_exact:
        _check_enumerable(n)
        if tail is None:  # a nonzero head count: no split matches
            return QualifyingProbability(0.0, bound, True)
        law = _split_law(n - 1, p)  # the other n - 1 elements, given skip arrives
        acc = []
        for mask in range(1 << n):  # the splits of ``exact._enum_states``: set bit r, r arrives
            if mask >> skip & 1:
                arrivals = [r for r in range(n) if mask >> r & 1]
                if _qualifying_counts(_ref_fields(pre, arrivals, True), b, members,
                                      arrivals) == tail:
                    acc.append(law[mask.bit_count() - 1])
        return QualifyingProbability(math.fsum(acc), bound, True)

    hits = 0
    ncond = 0
    for arrivals, _ in _arrival_draws(pre, p, master_seed, 0, trials):
        if skip not in arrivals:
            continue  # rejection sampling for the conditional law
        ncond += 1
        if _qualifying_counts(_ref_fields(pre, arrivals, True), b, members, arrivals) == tail:
            hits += 1
    if ncond == 0:
        raise ValueError("no trial satisfied the conditioning event; raise trials")
    freq = hits / ncond
    se = math.sqrt(freq * (1.0 - freq) / ncond)
    return QualifyingProbability(freq, bound, False, se, ncond)


# -- lemma verification --------------------------------------------------------


def _exact_lemma_checks(inst: LaminarInstance, c: float) -> list[LemmaCheck]:
    """The chain-decay, weighted-penalty and telescoping checks, exact per
    instance; skipped unless c < 1/2, the decay bounds' hypothesis.  The
    penalty's bound reads ``_opt_weight``, so a zero optimum is refused."""
    if not c < 0.5:
        reason = f"skipped: hypothesis not met (c={c:.4f} >= 1/2)"
        return [LemmaCheck(name, None, reason)
                for name in ("g-chain-decay", "weighted-penalty", "telescoping-identity")]
    pre = inst.pre()
    opt = _global_optima(pre)
    checks = []
    witness = ""  # the first failure; empty while every check holds
    pairs = sum(len(O) + 1 for O in opt)
    for b, nid in enumerate(pre.node_ids):
        terms, starts = _decay_terms(pre, b, c)  # each m's ``g_exact``, from one list
        for m, start in enumerate(starts):
            g = _decay_sum(terms, start)
            refined = g_refined_bound(m, pre.mu[b], c)
            weak = g_weak_bound(m, c)
            if g > refined + _TOL or refined > weak + _TOL:
                witness = (f"node {nid}, m={m}: g={g!r}, refined={refined!r}, "
                           f"weak={weak!r}")
                break
        if witness:
            break
    checks.append(LemmaCheck(
        "g-chain-decay", not witness,
        witness or f"{pairs} (node, m) pairs: exact <= refined <= weak"))

    pen = weighted_penalty(inst, c)
    cap_bound = g_weak_bound(1, c) * _opt_weight(inst)
    checks.append(LemmaCheck(
        "weighted-penalty", pen <= cap_bound + _TOL,
        f"penalty={pen!r} vs 2c/(1-c)*w(OPT)={cap_bound!r}"))

    tele = weighted_penalty_telescoped(inst, c)
    scale = max(1.0, abs(pen))
    checks.append(LemmaCheck(
        "telescoping-identity", abs(pen - tele) <= 1e-9 * scale,
        f"direct={pen!r} telescoped={tele!r}"))
    return checks


class _Dominance:
    """Backward-rank dominance of sample optima, in the padded view, in three
    steps: set up once per instance, ``step`` once per trial on its fresh
    fields (``matroid._ref_fields``, padded) and its arrivals, ``checks``
    at the end.  The first example reported is the least by (trial, node
    index, rank), so it depends on the weight order alone, not on how ids
    are chosen or how a set of them iterates.

    The capacity-padded backward rank of a member r of node b is ``mu[b]``
    less the entries up to r of the set it is taken against, as every slot
    up to capacity that a set leaves out is virtual (``theory._global_brank``).
    So ``mu[b]`` cancels: r's rank against the sample's set R is smaller
    than against OPT exactly when R holds more entries up to r than OPT
    does, and the checks compare those counts, with no capacity read.  On
    a field, R's count up to r is the popcount of the field masked to
    bits 0..r, as virtual bits lie above every real one, and OPT's count is
    the same popcount of its bits (``matroid._opt_tables``).  The padded
    ranks a witness prints are computed only when it is recorded.
    The weak check tests, per node, only the real bits of R that OPT does
    not hold: R's count excess over OPT rises only at such a bit, so its
    first positive value, if any, is at one of them, lowest first, which
    also covers R holding more real entries than OPT.  A node the trial
    left as OPT's has none, and the witness is the least such bit with an
    excess, as R's real entries are members of b.  The optimum and strict
    checks concern arriving ranks only, so they read the trial's arrivals
    along their chains.  A trial costs O(nodes + R's entries outside OPT +
    the arrivals' chain lengths) popcounts and masks, not O(n)."""

    def __init__(self, pre):
        self.pre = pre
        self.opt_bits = opt_bits = _opt_tables(pre)
        real = (1 << pre.n_real) - 1
        self.outside = [real & ~O for O in opt_bits]  # per node, the real ranks outside OPT
        # per rank, per node of its chain: the node, OPT's entries up to the
        # rank and whether OPT holds it, which no trial changes
        self.chain_opt = [tuple((b, (opt_bits[b] & (2 << r) - 1).bit_count(),
                                 opt_bits[b] >> r & 1) for b in ch)
                          for r, ch in enumerate(pre.chain_by_rank)]
        self.weak_witness = ""  # first failures, as in ``_exact_lemma_checks``
        self.member_witness = ""
        self.strict_violations = 0
        self.strict_example = ""

    def step(self, t_idx: int, order, fields: list[int]) -> None:
        if not self.weak_witness:
            self.weak_witness = self._weak_witness(t_idx, fields)
        want_member = not self.member_witness
        want_strict = not self.strict_example
        member = strict = None  # this trial's least (node, rank)
        violations = 0
        chain_opt = self.chain_opt
        for r in order:
            upto = (2 << r) - 1
            for b, k, in_opt in chain_opt[r]:
                if (fields[b] & upto).bit_count() < k:  # a larger padded rank than OPT's
                    continue
                if in_opt:
                    if want_member and (member is None or (b, r) < member):
                        member = (b, r)
                else:
                    violations += 1
                    if want_strict and (strict is None or (b, r) < strict):
                        strict = (b, r)
        self.strict_violations += violations
        if member is not None:
            self.member_witness = self._witness(t_idx, *member, fields) + "+1"
        if strict is not None:
            self.strict_example = self._witness(t_idx, *strict)

    def _witness(self, t_idx: int, b: int, r: int, fields=None) -> str:
        """Where rank ``r`` fails at node index ``b`` in trial ``t_idx``; given
        the trial's ``fields``, then ``bs < bu``: its padded ranks, trial, OPT."""
        pre = self.pre
        text = f"trial {t_idx}, element {pre.ids_by_rank[r]}, node {pre.node_ids[b]}"
        if fields is None:
            return text
        upto = (2 << r) - 1
        bs = pre.mu[b] - (fields[b] & upto).bit_count()
        return f"{text}: {bs} < {pre.mu[b] - (self.opt_bits[b] & upto).bit_count()}"

    def _weak_witness(self, t_idx: int, fields: list[int]) -> str:
        """The trial's first weak violation, or ``""``: the first failing
        node, at its heaviest member with a count excess."""
        for b, (F, out, O) in enumerate(zip(fields, self.outside, self.opt_bits)):
            x = F & out  # R's real entries outside OPT
            while x:
                low = x & -x
                x ^= low
                upto = (low << 1) - 1
                if (F & upto).bit_count() > (O & upto).bit_count():
                    return self._witness(t_idx, b, low.bit_length() - 1, fields)
        return ""

    def checks(self, trials: int) -> list[LemmaCheck]:
        example = self.strict_example
        return [
            LemmaCheck("brank-dominance", not self.weak_witness,
                       self.weak_witness or f"{trials} trials, all nodes"),
            LemmaCheck("brank-dominance-optimum", not self.member_witness,
                       self.member_witness or "strict +1 for optimum elements held"),
            LemmaCheck("brank-dominance-strict", None,
                       f"informational: +1 for arbitrary arriving elements violated "
                       f"{self.strict_violations} times"
                       + (f" (first: {example})" if example else "")),
        ]


def verify_lemmas(inst: LaminarInstance, p: float, *, trials: int = 200,
                  master_seed: int = 0) -> list[LemmaCheck]:
    """Exact per-instance checks of the chain-decay and weighted-penalty
    bounds plus sampled backward-rank dominance checks.  The decay bounds
    require c = 4p(1-p) < 1/2 and are reported as skipped otherwise."""
    _check_run(p, trials, master_seed)
    params = theory_params(p)
    pre = inst.pre()
    checks = _exact_lemma_checks(inst, params.c)
    dominance = _Dominance(pre)
    for t_idx, (order, fields) in enumerate(_trials(pre, p, master_seed, 0, trials, True)):
        dominance.step(t_idx, order, fields)
    return checks + dominance.checks(trials)


# -- CLI verify: every check from one pass ---------------------------------------


def verify_report(inst: LaminarInstance, p: float, trials: int,
                  master_seed: int) -> ExperimentReport:
    """The report of CLI ``verify``: the padded Monte Carlo ratio, the lemma
    checks and the eviction-failure rows, from one pass that draws each
    trial once.  The backward-rank dominance reads the fresh fields of the
    first ``min(trials, LEMMA_TRIALS)`` trials; then one walk of the
    fields gives both the trial's root weight and its eviction failures.
    Each part equals what ``monte_carlo_ratio``, ``verify_lemmas`` (on the
    capped trial count) and ``allkicked_frequency`` return on their own.
    Checked before any trial is drawn, in this order: the run, a zero
    optimum, and p < 1/2."""
    _check_run(p, trials, master_seed)
    w_opt = _opt_weight(inst)
    params = theory_params(p)
    pre = inst.pre()
    lemma_trials = min(trials, LEMMA_TRIALS)
    dominance = _Dominance(pre)
    failures = _EvictionFailures(pre)
    weights = []
    for t_idx, (order, fields) in enumerate(_trials(pre, p, master_seed, 0, trials, True)):
        if t_idx < lemma_trials:
            dominance.step(t_idx, order, fields)
        weights.append(failures.walk(fields, order))
    report = ExperimentReport(inst.name, p, trials, master_seed)
    report.ratio = _ratio_estimate(weights, w_opt, p, True)
    report.lemma_checks = (_exact_lemma_checks(inst, params.c)
                           + dominance.checks(lemma_trials))
    report.allkicked = failures.rows(params)
    return report
