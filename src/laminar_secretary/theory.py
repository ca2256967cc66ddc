"""Closed-form quantities behind the KickNext competitive-ratio guarantee.

For a selection-phase probability p < 1/2 the analysis runs on two derived
constants,

    alpha = (p + (1-p) ln(1-p)) / (2 (1-p) p^2)       (alpha -> 1/4 as p -> 0)
    c     = 4 p (1-p),

and bounds the probability that an optimum element finds all of its lighter
reference elements already evicted by  alpha c^(d+1) / (1-c),  where d is the
element's backward rank at the node in question.  Summing those failure
probabilities through a geometric-decay argument yields the guarantee

    E[solution weight] >= p (1 - 2 alpha c / (1-c)^2) * optimum weight,

which evaluates to a touch above 0.053 at p = 0.08.

Backward ranks here are taken in the capacity-padded view: every per-node
optimum is conceptually filled up to the node's capacity with zero-weight
virtual elements.  Without that convention the per-node geometric sums are
simply false on sparse instances (a lone element under k nested capacities
would contribute k*c instead of c + c^2 + ... + c^k).  All logarithms are
natural.  One reader departs from it on purpose: the eviction-failure rows
(``experiments.AllKickedRow``) report and bound the unpadded backward rank.

Backward ranks are counted in rank space.  ``_global_brank`` is the one
capacity-padded backward rank: at node b, against a per-node table of
ascending rank lists (OPT from ``matroid._global_optima``, unpadded, or
any table padded only to the slots a walk can reach, see
``model._Pre``), it is ``mu[b]`` less the list's entries up to the rank.
The chain-decay sums read it, each node's from one list of its terms
(``_decay_terms``), and every float sum here adds left to right
(``matroid._left_sum``).  The checks hold a trial's sets and OPT's as one
int per node and compare popcounts of masked prefixes instead, in which
capacity cancels.  ``_padded_brank`` counts a list's own entries lighter
than a rank and reads no capacity.  ``p_grid``
is the one grid of p values; it raises ``ValueError`` on a bad step or range.  ``_theory_csv`` is the one table of
the guarantee over a grid, for CLI ``theory`` and ``scripts/theory_sweep.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice

from .matroid import _global_optima, _left_sum
from .model import LaminarInstance

MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class TheoryParams:
    p: float
    alpha: float
    c: float
    c_geo: float  # c / (1-c), the limit of the partial sums c + c^2 + ...


def theory_params(p: float) -> TheoryParams:
    """Derived analysis constants; requires 0 < p < 1/2."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"p must be in (0, 1/2), got {p}")
    if p >= 1e-3:
        alpha = (p + (1.0 - p) * math.log1p(-p)) / (2.0 * (1.0 - p) * p * p)
    else:
        # p + (1-p) ln(1-p) = sum_{k>=2} p^k / (k(k-1)), summed over p^2: the
        # closed form cancels to noise, and p * p underflows below 1e-162
        alpha = math.fsum(p ** (k - 2) / (k * (k - 1)) for k in range(2, 9)) / (2.0 * (1.0 - p))
    c = 4.0 * p * (1.0 - p)
    return TheoryParams(p, alpha, c, c / (1.0 - c))


def allkicked_bound(params: TheoryParams, d: int) -> float:
    """Failure-probability bound alpha * c^(d+1) / (1-c) for an element of
    backward rank d; strictly decreasing in d."""
    if d < 0:
        raise ValueError(f"backward rank must be non-negative, got {d}")
    return params.alpha * params.c ** (d + 1) / (1.0 - params.c)


def geometric_sum(c: float, i: int) -> float:
    """c + c^2 + ... + c^i in closed form (0 for i = 0)."""
    if i < 0:
        raise ValueError(f"sum length must be non-negative, got {i}")
    if i == 0:
        return 0.0
    return c * (1.0 - c ** i) / (1.0 - c)


def _padded_brank(R: list[int], r: int) -> int:
    """The list's own lighter entries: those of the ascending rank list
    ``R`` lighter than rank ``r``, virtual entries included, 0 when none is
    left.  Whatever the name says, it reads no capacity; the capacity-padded
    backward rank is ``_global_brank``.  ``experiments._EvictionFailures.rows``
    reads it, on OPT's lists."""
    return len(R) - bisect_right(R, r)


def _global_brank(pre, lists, x: int, r: int) -> int:
    """Capacity-padded backward rank of the real rank ``r`` at node index
    ``x`` against ``lists``, a table of ascending rank lists per node
    index, OPT from ``_global_optima`` wherever the package reads it.  The
    list's entries lighter than ``r`` and the virtual slots up to capacity
    that it leaves out, all lighter than every real rank, are the
    ``mu[x]`` slots less the entries up to ``r``."""
    return pre.mu[x] - bisect_right(lists[x], r)


def _decay_terms(pre, b: int, c: float) -> tuple[list[float], list[int]]:
    """The chain-decay terms of node index ``b``'s optimum OPT_b, built once
    for every m: c^(1 + backward rank) per element of OPT_b and node of
    its chain up to ``b``, lightest element first, and per m the index at
    which the terms of the m heaviest elements start.  ``_decay_sum`` of
    that suffix is ``g_exact`` for m."""
    opt = _global_optima(pre)
    terms: list[float] = []
    starts = []
    for r in reversed(opt[b]):  # lightest first
        starts.append(len(terms))
        for x in pre.upto(r, b):
            terms.append(c ** (1 + _global_brank(pre, opt, x, r)))
    starts.append(len(terms))
    starts.reverse()  # starts[m]: the m heaviest are the last m elements
    return terms, starts


def _decay_sum(terms: list[float], start: int) -> float:
    """``terms[start:]`` added left to right (``matroid._left_sum``)."""
    return _left_sum(islice(terms, start, None))


def g_exact(inst: LaminarInstance, m: int, node_id: int, c: float) -> float:
    """Exact chain-decay sum for the m heaviest optimum elements of a node:
    each contributes c^(1 + backward rank) at every node of its chain up to
    ``node_id``, added lightest element first."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must be in (0, 1), got {c}")
    pre = inst.pre()
    b = pre.node_idx(node_id)
    opt = _global_optima(pre)
    if not 0 <= m <= len(opt[b]):
        raise ValueError(f"m must be within 0..{len(opt[b])}, got {m}")
    terms, starts = _decay_terms(pre, b, c)
    return _decay_sum(terms, starts[m])


def g_refined_bound(m: int, k: int, c: float) -> float:
    """Sharper per-node bound 2 c_1 + ... + 2 c_{m-1} + c_m + c_m c_{k-m},
    where c_i = c + ... + c^i and k is the node capacity."""
    if not 0 <= m <= k:
        raise ValueError(f"need 0 <= m <= k, got m={m}, k={k}")
    if not 0.0 < c < 0.5:
        raise ValueError(f"c must be in (0, 1/2), got {c}")
    if m == 0:
        return 0.0
    total = 2.0 * _left_sum(geometric_sum(c, j) for j in range(1, m))
    cm = geometric_sum(c, m)
    return total + cm + cm * geometric_sum(c, k - m)


def g_weak_bound(m: int, c: float) -> float:
    """The simpler bound 2c/(1-c) * m implied by the refined one."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if not 0.0 < c < 0.5:
        raise ValueError(f"c must be in (0, 1/2), got {c}")
    return 2.0 * c / (1.0 - c) * m


def weighted_penalty(inst: LaminarInstance, c: float) -> float:
    """Weighted chain-decay sum over the global optimum:
    sum_i w(i) * sum over i's chain of c^(1 + backward rank), i's slice of
    the root's ``_decay_terms``.  Bounded by 2c/(1-c) times the optimum
    weight whenever c < 1/2."""
    if not 0.0 < c < 0.5:
        raise ValueError(f"c must be in (0, 1/2), got {c}")
    pre = inst.pre()
    terms, starts = _decay_terms(pre, pre.root_idx, c)
    ends = starts[::-1]  # lightest first: element i's terms are ends[i]:ends[i + 1]
    lightest_first = reversed(_global_optima(pre)[pre.root_idx])
    return _left_sum(pre.w_by_rank[r] * _left_sum(terms[a:b])
                     for r, a, b in zip(lightest_first, ends, ends[1:]))


def weighted_penalty_telescoped(inst: LaminarInstance, c: float) -> float:
    """The same weighted sum assembled from unweighted prefix sums: sort the
    optimum heaviest-first and pay each weight *difference* once per prefix.
    Agrees with ``weighted_penalty`` exactly; used as a cross-check."""
    if not 0.0 < c < 0.5:
        raise ValueError(f"c must be in (0, 1/2), got {c}")
    pre = inst.pre()
    ws = [pre.w_by_rank[r] for r in _global_optima(pre)[pre.root_idx]]  # heaviest first
    terms, starts = _decay_terms(pre, pre.root_idx, c)  # g_exact of each prefix
    return _left_sum((w - nxt) * _decay_sum(terms, start)
                     for w, nxt, start in zip(ws, ws[1:] + [0.0], starts[1:]))


def ratio_lower_bound(p: float) -> float:
    """Guaranteed fraction of the optimum weight collected in expectation:
    p * (1 - 2 alpha c / (1-c)^2)."""
    t = theory_params(p)
    return p * (1.0 - 2.0 * t.alpha * t.c / (1.0 - t.c) ** 2)


def _theory_csv(grid) -> str:
    """The guarantee table of CLI ``theory`` and ``scripts/theory_sweep.py``:
    a header, then p, alpha, c and the ratio guarantee per point of ``grid``."""
    lines = ["p,alpha,c,ratio_lower_bound"]
    for p in grid:
        t = theory_params(p)
        lines.append(f"{p!r},{t.alpha!r},{t.c!r},{ratio_lower_bound(p)!r}")
    return "\n".join(lines) + "\n"


def p_grid(step: float, p_min: float | None = None, p_max: float | None = None) -> list[float]:
    """Grid of p values: the multiples ``k * step`` (k >= 1) below 1/2, or,
    given ``p_min``, the points ``p_min + k * step`` (k >= 0) up to ``p_max``
    (default ``p_min``) plus their rounding, under 4 ulps and a quarter step.
    Raises ``ValueError`` before building any point when ``step`` is not
    positive and finite, ``p_max < p_min``, a point would fall outside
    (0, 1/2), the grid would exceed ``MAX_GRID_POINTS`` points, or points
    could coincide (a step of 2 ulps of the end or less)."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if p_min is None:
        if p_max is not None:
            raise ValueError("p_max needs p_min")
        start, first, end = 0.0, 1, math.nextafter(0.5, 0.0)  # q <= end iff q < 1/2
    else:
        hi = p_min if p_max is None else p_max
        if not -math.inf < p_min <= hi < math.inf:
            raise ValueError(f"need finite p_min <= p_max, got {p_min!r} and {hi!r}")
        start, first, end = p_min, 0, hi + min(4 * math.ulp(hi), step / 4)
    if (end - start) / step > MAX_GRID_POINTS:
        raise ValueError(f"step {step!r} gives more than {MAX_GRID_POINTS} grid points")
    # the last index first, so that every check runs before a point is built
    last = int((end - start) / step)
    if step > 2 * math.ulp(end):  # then p_min + k * step increases with k
        while start + (last + 1) * step <= end:
            last += 1
        while not start + last * step <= end:
            last -= 1
    elif last > first:
        raise ValueError(f"step {step!r} is too small to give distinct grid points")
    if last < first:
        raise ValueError(f"step {step!r} leaves no grid point below 1/2")
    for q in (start + first * step, start + last * step):
        if not 0.0 < q < 0.5:
            raise ValueError(f"grid point {q!r} is outside (0, 1/2)")
    return [start + k * step for k in range(first, last + 1)]


def best_p(step: float, p_min: float | None = None, p_max: float | None = None):
    """Grid argmax of the ratio lower bound over ``p_grid(step, p_min, p_max)``."""
    best = max(p_grid(step, p_min, p_max), key=ratio_lower_bound)
    return best, ratio_lower_bound(best)
