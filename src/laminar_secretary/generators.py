"""Seeded generation of instance families.

Four tree shapes (single capacity node, disjoint parts under a slack root,
a nested chain, and a random tree) crossed with four weight regimes.  All
construction is deterministic in the seed, always passes model validation,
and emits strictly increasing capacities toward the root so normalization is
a no-op.

The draws read only ``Random.getrandbits`` and ``Random.random``, in the
order structure, membership, weights.  Each column gives the values the
stdlib's higher-level methods give on CPython 3.10-3.13, in the same order,
and leaves the generator in the same state:

- an integer below k (``_below``) is ``k.bit_length()`` bits, redrawn while
  they are k or more, which is ``Random._randbelow_with_getrandbits``.  So
  ``randrange(k)`` is ``_below(k)``, ``randint(a, b)`` is
  ``a + _below(b - a + 1)`` and ``choice(seq)`` is ``seq[_below(len(seq))]``;
- uniform weights are ``1.0 - random()``, in (0, 1];
- exponential ones are ``-log(1.0 - random())``, redrawn while 0.0 or less,
  which is ``expovariate(1.0)`` (its ``/ 1.0`` is exact);
- power-law ones are ``(1.0 - random()) ** (-1.0 / exponent)``, which is
  ``paretovariate(exponent)``;
- near ties are ``(1.0, 2.0, 3.0)[_below(3)]``, which is ``choice``.

An instance file thus rests on seeding, ``random()`` (the one sequence
Python documents as reproducible) and ``getrandbits`` alone, not on how a
Python version writes the methods above; a column drawn in one loop also
skips their per-call layers.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from itertools import accumulate
from math import log

from .model import LaminarInstance, _assemble

FAMILIES = ("uniform", "partition", "chain", "random_tree")
WEIGHTS = ("uniform", "exponential", "power_law", "near_ties")
# ``generate`` builds lists of n elements, of parts and of chain nodes, so a
# larger n, ``parts`` or ``depth`` is refused before anything is allocated
MAX_GEN_SIZE = 10**6
# the ``GenSpec`` shape fields that each family reads; ``generate`` ignores
# the others, so a front end refuses a flag that sets one of them
FAMILY_FIELDS = {"uniform": ("rank",), "partition": ("parts", "part_capacity"),
                 "chain": ("depth",), "random_tree": ("max_branching",)}
# ``GenSpec`` fields that must be plain ints (not bool) when set
_INT_FIELDS = ("n", "seed", "rank", "parts", "part_capacity", "depth", "max_branching")


@dataclass(frozen=True)
class GenSpec:
    family: str
    n: int
    seed: int
    weights: str = "uniform"
    rank: int | None = None          # uniform: the single capacity
    parts: int | None = None         # partition: number of parts
    part_capacity: int = 1           # partition: capacity of each part
    depth: int | None = None         # chain: number of nested nodes
    max_branching: int = 3           # random_tree: children per node limit
    power_exponent: float = 2.0      # power_law shape


def _below(rnd: random.Random, k: int, count: int) -> list[int]:
    """``count`` draws of ``rnd.randrange(k)``, k >= 1, in order."""
    bits = rnd.getrandbits
    b = k.bit_length()
    column = []
    for _ in range(count):
        r = bits(b)
        while r >= k:
            r = bits(b)
        column.append(r)
    return column


def _weights(rnd: random.Random, kind: str, n: int, exponent: float) -> list[float]:
    """n weights of one kind, in draw order."""
    u = rnd.random
    if kind == "uniform":
        return [1.0 - u() for _ in range(n)]  # (0, 1]
    if kind == "exponential":
        column = []
        for _ in range(n):
            w = -log(1.0 - u())
            while w <= 0.0:
                w = -log(1.0 - u())
            column.append(w)
        return column
    if kind == "power_law":
        e = -1.0 / exponent
        return [(1.0 - u()) ** e for _ in range(n)]
    return list(map((1.0, 2.0, 3.0).__getitem__, _below(rnd, 3, n)))  # near_ties


def generate(spec: GenSpec) -> LaminarInstance:
    """Build the instance described by ``spec``; identical specs give
    structurally identical instances.  A bad spec raises ``ValueError``
    before any draw."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.weights not in WEIGHTS:
        raise ValueError(f"unknown weight distribution {spec.weights!r}")
    for name in _INT_FIELDS:
        value = getattr(spec, name)
        if value is not None and type(value) is not int:  # not bool, which subclasses int
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if spec.n < 1:
        raise ValueError(f"need at least one element, got n={spec.n}")
    if spec.n > MAX_GEN_SIZE:
        raise ValueError(f"need at most {MAX_GEN_SIZE} elements, got n={spec.n}")
    if spec.seed < 0:  # random.Random(-s) would seed as random.Random(s)
        raise ValueError(f"seed must be non-negative, got {spec.seed}")
    exponent = spec.power_exponent
    if type(exponent) not in (int, float):  # not bool, None or a string
        raise ValueError(f"power exponent must be an int or a float, got {exponent!r}")
    # a Pareto law needs a positive shape: 0 divides by zero, and a negative
    # one draws weights in (0, 1]; an int past the float range cannot divide
    if not 0.0 < exponent <= sys.float_info.max:
        raise ValueError(f"power exponent must be positive and finite, got {exponent!r}")
    rnd = random.Random(spec.seed)

    if spec.family == "uniform":
        k = spec.rank if spec.rank is not None else min(3, spec.n)
        if not 1 <= k <= spec.n:
            raise ValueError(f"rank must satisfy 1 <= k <= n, got k={k}, n={spec.n}")
        nodes = [(0, k, None)]
        membership = {i: 0 for i in range(spec.n)}

    elif spec.family == "partition":
        parts = spec.parts if spec.parts is not None else 2
        cap = spec.part_capacity
        if parts < 1 or cap < 1:
            raise ValueError(f"need parts >= 1 and part capacity >= 1, got {parts}, {cap}")
        if parts > MAX_GEN_SIZE:
            raise ValueError(f"need at most {MAX_GEN_SIZE} parts, got {parts}")
        root_cap = parts * cap if parts > 1 else cap + 1
        nodes = [(0, root_cap, None)]
        nodes += [(j, cap, 0) for j in range(1, parts + 1)]
        membership = {i: 1 + j for i, j in enumerate(_below(rnd, parts, spec.n))}

    elif spec.family == "chain":
        depth = spec.depth if spec.depth is not None else 3
        if not 1 <= depth <= MAX_GEN_SIZE:
            raise ValueError(f"chain depth must be in 1..{MAX_GEN_SIZE}, got {depth}")
        # each node adds randint(1, 2) to the capacity of the one below it
        caps = list(accumulate(1 + s for s in _below(rnd, 2, depth)))
        caps.reverse()  # caps[0] largest -> root
        nodes = [(j, caps[j], None if j == 0 else j - 1) for j in range(depth)]
        membership = dict(enumerate(_below(rnd, depth, spec.n)))

    else:  # random_tree
        if spec.max_branching < 1:
            raise ValueError(f"max branching must be >= 1, got {spec.max_branching}")
        target = 1 + _below(rnd, min(8, spec.n), 1)[0]
        caps = [2 + _below(rnd, max(2, spec.n) - 1, 1)[0]]
        parents: list[int | None] = [None]
        kids = [0]
        for j in range(1, target):
            open_nodes = [
                x for x in range(j)
                if caps[x] >= 2 and kids[x] < spec.max_branching
            ]
            if not open_nodes:
                break
            par = open_nodes[_below(rnd, len(open_nodes), 1)[0]]
            caps.append(1 + _below(rnd, caps[par] - 1, 1)[0])
            parents.append(par)
            kids[par] += 1
            kids.append(0)
        nodes = [(j, caps[j], parents[j]) for j in range(len(caps))]
        membership = dict(enumerate(_below(rnd, len(caps), spec.n)))

    weights = _weights(rnd, spec.weights, spec.n, exponent)
    name = f"{spec.family}-n{spec.n}-s{spec.seed}"
    # the model's one validator takes the columns and the (id, capacity,
    # parent) node triples as they are drawn
    return _assemble(name, list(range(spec.n)), weights, nodes, membership)
