"""Seeded generation of instance families.

Four tree shapes (single capacity node, disjoint parts under a slack root,
a nested chain, and a random tree) crossed with four weight regimes.  All
construction is deterministic in the seed, always passes model validation,
and emits strictly increasing capacities toward the root so normalization is
a no-op.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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


def _draw_weight(rnd: random.Random, kind: str, exponent: float) -> float:
    if kind == "uniform":
        return 1.0 - rnd.random()  # (0, 1]
    if kind == "exponential":
        w = rnd.expovariate(1.0)
        while w <= 0.0:
            w = rnd.expovariate(1.0)
        return w
    if kind == "power_law":
        return rnd.paretovariate(exponent)
    if kind == "near_ties":
        return rnd.choice((1.0, 2.0, 3.0))
    raise ValueError(f"unknown weight distribution {kind!r}")


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
    # a Pareto law needs a positive shape: 0 divides by zero, and a negative
    # one draws weights in (0, 1]
    if not 0.0 < spec.power_exponent < math.inf:
        raise ValueError(
            f"power exponent must be positive and finite, got {spec.power_exponent!r}")
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
        membership = {i: 1 + rnd.randrange(parts) for i in range(spec.n)}

    elif spec.family == "chain":
        depth = spec.depth if spec.depth is not None else 3
        if not 1 <= depth <= MAX_GEN_SIZE:
            raise ValueError(f"chain depth must be in 1..{MAX_GEN_SIZE}, got {depth}")
        caps = [rnd.randint(1, 2)]
        for _ in range(depth - 1):
            caps.append(caps[-1] + rnd.randint(1, 2))
        caps.reverse()  # caps[0] largest -> root
        nodes = [(j, caps[j], None if j == 0 else j - 1) for j in range(depth)]
        membership = {i: rnd.randrange(depth) for i in range(spec.n)}

    else:  # random_tree
        if spec.max_branching < 1:
            raise ValueError(f"max branching must be >= 1, got {spec.max_branching}")
        target = rnd.randint(1, min(8, max(1, spec.n)))
        caps = [rnd.randint(2, max(2, spec.n))]
        parents: list[int | None] = [None]
        kids = [0]
        for j in range(1, target):
            open_nodes = [
                x for x in range(j)
                if caps[x] >= 2 and kids[x] < spec.max_branching
            ]
            if not open_nodes:
                break
            par = rnd.choice(open_nodes)
            caps.append(rnd.randint(1, caps[par] - 1))
            parents.append(par)
            kids[par] += 1
            kids.append(0)
        nodes = [(j, caps[j], parents[j]) for j in range(len(caps))]
        membership = {i: rnd.randrange(len(caps)) for i in range(spec.n)}

    weights = [_draw_weight(rnd, spec.weights, spec.power_exponent) for _ in range(spec.n)]
    name = f"{spec.family}-n{spec.n}-s{spec.seed}"
    # the model's one validator takes the columns and the (id, capacity,
    # parent) node triples as they are drawn
    return _assemble(name, list(range(spec.n)), weights, nodes, membership)
