"""Domain model: weighted elements under a laminar family of capacity limits.

A laminar family is a collection of subsets of the ground set in which any
two members are either nested or disjoint, so the family forms a rooted tree
whose root is the whole ground set.  Every family set carries a positive
integer capacity; a selection is feasible when no set's capacity is exceeded
by the selected elements inside it.

Elements attach to their *minimal* containing set only; membership in every
larger set follows from the tree (an element belongs to a node's set iff its
minimal node lies in that node's subtree).

Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# ``_Pre`` keeps every node's chain to the root, one slot per node on it, so
# the tables grow with the sum of (depth + 1) over the nodes.  A tree that
# needs more slots than this is refused: the limit is about 40 MiB of
# pointers, above a 3000-node chain (4.5M slots), and a chain of 100k nodes
# would need 5 * 10^9.
MAX_CHAIN_SLOTS = 5_000_000


class InstanceError(ValueError):
    """An instance file or structure violates a model invariant."""


@dataclass(frozen=True)
class Element:
    """A ground-set element.  Padding uses virtual ranks past the real ones,
    ``_Pre.slots[b]`` of them at most per node from
    ``_Pre.virtual_rank_base[b]``, never an ``Element``."""

    id: int
    weight: float


@dataclass(frozen=True)
class FamilyNode:
    """One set of the laminar family, stored as a tree node."""

    id: int
    capacity: int
    parent: int | None
    children: tuple[int, ...] = ()


def order_key(weight: float, element_id: int) -> tuple[float, int]:
    """Strict total order over elements: heavier first, smaller id breaking
    ties.  Equal raw weights are legal input; the id tie-break plays the role
    of an infinitesimal perturbation and is used consistently everywhere."""
    return (-weight, element_id)


class _Pre:
    """Per-instance precomputed tables (rank-space views of the tree).

    Ranks number the real elements 0..n-1 in weight order (rank 0 is the
    heaviest).  ``x`` is lighter than ``y`` iff rank(x) > rank(y).  Virtual
    padding slots are addressed by ranks >= n_real, one block of capacity
    length per node (``virtual_rank_base``), so they sort below every real
    element; a list uses the first ``slots[b]`` ranks of its block at most.

    ``own_ranks[x]`` holds the ranks whose minimal node is ``x`` (ascending)
    and ``children_idx[x]`` the child node indices.  One walk down from the
    root gives ``depth``, ``node_chain`` (each node's path up to the root,
    itself first), ``children_idx`` and ``bottom_up``, every node once with
    each child before its parent.  ``chain_by_rank[r]`` is the chain of rank
    r's minimal node.  ``global_optima`` is filled on first use by
    ``matroid._global_optima``.

    Subtree membership is decided here and nowhere else: node b lies on a
    chain exactly at ``depth[b]`` places from its root end, so ``upto``
    tests one index, and ``members`` scans the ranks with that test.

    ``slots[b]``, the length of node b's padded reference list, is decided
    here too: ``min(mu[b], ranks inside b)``, counted children first over
    ``bottom_up``.  The analysis pads every list to capacity, but a walk
    never reaches past ``slots[b]``.  Node b's list starts with its k real
    entries, all sampled ranks inside b.  Only unsampled ranks inside b
    reach it, at most (ranks inside b) - k of them, and each evicts one
    entry at most, virtual ones lowest first.  When ``mu[b]`` is the
    smaller count the two lists are the same; otherwise the shorter one
    holds a virtual entry for every possible arrival, so neither runs out
    of lighter entries, and both evict the same entries.  Only a backward
    rank reads the slots left out, all lighter than every real rank:
    against a list padded to ``slots[b]``, or not at all, the
    capacity-padded backward rank of a real rank r is ``mu[b]`` less the
    list's entries up to r (``theory._global_brank``).

    The chains hold one slot per (node, node on its chain); a tree that
    needs more than ``MAX_CHAIN_SLOTS`` raises ``InstanceError`` during the
    walk, before the chains that would pass the limit are built.
    """

    __slots__ = (
        "ids_by_rank", "rank_by_id", "w_by_rank", "n_real", "max_id",
        "node_ids", "node_index", "mu", "slots", "depth", "node_chain",
        "own_ranks", "chain_by_rank", "children_idx", "bottom_up",
        "root_idx", "virtual_rank_base", "global_optima",
    )

    def __init__(self, inst: "LaminarInstance"):
        ranked = sorted(inst.elements, key=lambda e: order_key(e.weight, e.id))
        self.ids_by_rank = [e.id for e in ranked]
        self.rank_by_id = {e.id: r for r, e in enumerate(ranked)}
        self.w_by_rank = [e.weight for e in ranked]
        self.n_real = len(ranked)
        self.max_id = max((e.id for e in inst.elements), default=-1)

        self.node_ids = [nd.id for nd in inst.nodes]
        self.node_index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.mu = [nd.capacity for nd in inst.nodes]
        self.root_idx = next(i for i, nd in enumerate(inst.nodes) if nd.parent is None)

        n_nodes = len(inst.nodes)
        depth = [0] * n_nodes
        chains: list[tuple[int, ...]] = [()] * n_nodes
        children: list[tuple[int, ...]] = [()] * n_nodes
        chains[self.root_idx] = (self.root_idx,)
        slots = 1  # chain slots so far: depth + 1 per node
        top_down = [self.root_idx]
        for x in top_down:  # the list grows as it is read: parents before children
            kids = tuple(self.node_index[c] for c in inst.nodes[x].children)
            children[x] = kids
            up = chains[x]
            slots += len(kids) * (len(up) + 1)
            if slots > MAX_CHAIN_SLOTS:  # checked before the children's chains exist
                raise InstanceError(f"capacity tree too deep: its node chains need more "
                                    f"than {MAX_CHAIN_SLOTS} slots")
            for c in kids:
                chains[c] = (c,) + up
                depth[c] = len(up)
            top_down += kids
        self.depth = depth
        self.node_chain = chains
        self.children_idx = children
        self.bottom_up = tuple(reversed(top_down))

        self.chain_by_rank = [
            chains[self.node_index[inst.membership[eid]]]
            for eid in self.ids_by_rank
        ]
        own: list[list[int]] = [[] for _ in inst.nodes]
        for r, ch in enumerate(self.chain_by_rank):
            own[ch[0]].append(r)
        self.own_ranks = own
        inside = [len(rs) for rs in own]  # ranks inside each node, children first
        for x in self.bottom_up:
            for c in children[x]:
                inside[x] += inside[c]
        self.slots = [min(cap, k) for cap, k in zip(self.mu, inside)]

        base, acc = [], self.n_real
        for cap in self.mu:
            base.append(acc)
            acc += cap
        self.virtual_rank_base = base
        self.global_optima = None

    def upto(self, r: int, b: int) -> tuple[int, ...] | None:
        """Rank ``r``'s chain from its minimal node up to node index ``b``,
        both ends included, or ``None`` when ``r`` lies outside ``b``."""
        ch = self.chain_by_rank[r]
        cut = len(ch) - self.depth[b]
        return ch[:cut] if cut > 0 and ch[cut - 1] == b else None

    def members(self, b: int) -> list[int]:
        """The ranks inside node index ``b``, ascending."""
        d = self.depth[b]
        return [r for r, ch in enumerate(self.chain_by_rank) if len(ch) > d and ch[-1 - d] == b]

    def id_of(self, r: int) -> int:
        """The id of real or virtual rank ``r``: virtual ranks take fresh ids
        above every real id, in rank order."""
        return self.ids_by_rank[r] if r < self.n_real else self.max_id + 1 + (r - self.n_real)

    def rank_of(self, element_id: int) -> int:
        r = self.rank_by_id.get(element_id)
        if r is None:
            raise InstanceError(f"unknown element id {element_id}")
        return r

    def node_idx(self, node_id: int) -> int:
        b = self.node_index.get(node_id)
        if b is None:
            raise InstanceError(f"unknown node id {node_id}")
        return b


@dataclass(eq=False)
class LaminarInstance:
    """A named ground set with weights plus the rooted capacity tree.

    ``membership`` maps each element id to the id of its minimal containing
    node.  Treat instances as frozen once built.
    """

    name: str
    elements: tuple[Element, ...]
    nodes: tuple[FamilyNode, ...]
    membership: dict[int, int]
    _pre: _Pre | None = field(default=None, repr=False, compare=False)

    def pre(self) -> _Pre:
        if self._pre is None:
            self._pre = _Pre(self)
        return self._pre

    # -- lookups ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def root_id(self) -> int:
        return self.pre().node_ids[self.pre().root_idx]

    def element(self, element_id: int) -> Element:
        return Element(element_id, self.weight(element_id))

    def node(self, node_id: int) -> FamilyNode:
        return self.nodes[self.pre().node_idx(node_id)]

    def weight(self, element_id: int) -> float:
        pre = self.pre()
        return pre.w_by_rank[pre.rank_of(element_id)]

    def key(self, element_id: int) -> tuple[float, int]:
        """Order key for a real or virtual element id.  Ids beyond the real
        range are virtual and carry weight zero, so they sort last."""
        pre = self.pre()
        r = pre.rank_by_id.get(element_id)
        return order_key(0.0 if r is None else pre.w_by_rank[r], element_id)

    def minimal_node(self, element_id: int) -> int:
        try:
            return self.membership[element_id]
        except KeyError:
            raise InstanceError(f"unknown element id {element_id}") from None

    def members(self, node_id: int) -> frozenset[int]:
        """All element ids contained in the node's set (subtree closure)."""
        pre = self.pre()
        return frozenset(pre.ids_by_rank[r] for r in pre.members(pre.node_idx(node_id)))

    def element_ids(self) -> frozenset[int]:
        return frozenset(e.id for e in self.elements)


# -- construction and validation -------------------------------------------


def make_instance(name, elements, nodes, membership) -> LaminarInstance:
    """Validate and assemble an instance; children links are recomputed."""
    if type(name) is not str:
        raise InstanceError(f"name must be a string, got {name!r}")
    elements = tuple(elements)
    seen: set[int] = set()
    for e in elements:  # before the sort, which compares ids
        if type(e.id) is not int or e.id < 0:  # bool is not an id
            raise InstanceError(f"element id must be a non-negative integer: {e.id!r}")
        if e.id in seen:
            raise InstanceError(f"duplicate element id {e.id}")
        seen.add(e.id)
        # a float, the common case, needs no call
        w = e.weight if type(e.weight) is float else _weight(e.weight, e.id)
        if not 0.0 < w < math.inf:
            what = "non-positive" if e.weight <= 0 else "non-finite"
            raise InstanceError(f"element {e.id}: {what} weight {e.weight!r}")
    elements = tuple(sorted(elements, key=lambda e: e.id))

    raw = {}
    for nd in nodes:
        if type(nd.id) is not int or nd.id < 0:
            raise InstanceError(f"node id must be a non-negative integer: {nd.id!r}")
        if nd.id in raw:
            raise InstanceError(f"duplicate node id {nd.id}")
        if type(nd.capacity) is not int:
            raise InstanceError(f"node {nd.id}: capacity must be an integer: {nd.capacity!r}")
        if nd.capacity <= 0:
            raise InstanceError(f"node {nd.id}: non-positive capacity")
        raw[nd.id] = nd
    if not raw:
        raise InstanceError("no root node (empty family)")

    roots = [nid for nid, nd in raw.items() if nd.parent is None]
    if len(roots) > 1:
        raise InstanceError(f"multiple roots (nodes {roots[0]} and {roots[1]})")
    if not roots:
        raise InstanceError("no root node")
    children: dict[int, list[int]] = {nid: [] for nid in raw}
    for nd in raw.values():
        if nd.parent is not None:
            if nd.parent not in raw:
                raise InstanceError(f"node {nd.id}: unknown parent {nd.parent}")
            children[nd.parent].append(nd.id)
    # a node the root does not reach lies on or below a cycle of parent links
    reached = [roots[0]]
    for nid in reached:  # grows as it is read; every node has one parent
        reached += children[nid]
    if len(reached) < len(raw):
        cut = raw.keys() - reached
        nid = next(nid for nid in raw if nid in cut)  # the first in input order
        raise InstanceError(f"node {nid}: cycle in parent links")

    membership = dict(membership)
    for eid in membership:
        if eid not in seen:
            raise InstanceError(f"membership: unknown element {eid}")
    for e in elements:
        if e.id not in membership:
            raise InstanceError(f"element {e.id} not assigned to any node")
        if membership[e.id] not in raw:
            raise InstanceError(
                f"element {e.id}: membership references unknown node {membership[e.id]}"
            )

    linked = tuple(
        FamilyNode(nd.id, nd.capacity, nd.parent, tuple(sorted(children[nd.id])))
        for nd in sorted(raw.values(), key=lambda x: x.id)
    )
    return LaminarInstance(name, elements, linked, membership)


def load_instance(text: str) -> LaminarInstance:
    """Parse and validate the JSON instance format (see README)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise InstanceError(f"malformed instance text: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceError("malformed instance text: top level must be an object")
    for key in ("name", "elements", "nodes", "membership"):
        if key not in doc:
            raise InstanceError(f"missing field '{key}'")
    try:
        elements = [
            Element(_json_int(e["id"], "element id"), _weight(e["weight"], e["id"]))
            for e in doc["elements"]
        ]
        nodes = [
            FamilyNode(
                _json_int(nd["id"], "node id"),
                _json_int(nd["capacity"], f"node {nd['id']!r}: capacity"),
                None if nd["parent"] is None else _json_int(nd["parent"], f"node {nd['id']!r}: parent"),
            )
            for nd in doc["nodes"]
        ]
        membership = {
            _json_key(k): _json_int(v, "membership value") for k, v in doc["membership"].items()
        }
    except (AttributeError, KeyError, TypeError) as exc:
        raise InstanceError(f"malformed instance text: {exc}") from None
    return make_instance(doc["name"], elements, nodes, membership)


def _json_int(value, what: str) -> int:
    """An integral JSON number.  Booleans, strings and fractional or
    non-finite numbers are refused rather than coerced."""
    if type(value) is int:  # not bool, which subclasses int
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise InstanceError(f"{what} must be an integer, got {value!r}")


def _weight(value, element_id) -> float:
    """A weight as a float: an int or a float, not a bool, and refused as
    non-finite when an int is too large for a float.  ``make_instance``
    checks the range; it keeps the weight it was given."""
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise InstanceError(f"element {element_id!r}: non-finite weight {value!r}") from None
    raise InstanceError(f"element {element_id!r}: weight must be a number, got {value!r}")


def _json_key(key: str) -> int:
    """A membership key: the canonical decimal form of an element id."""
    try:
        eid = int(key)
    except ValueError:
        eid = None
    if eid is None or str(eid) != key:
        raise InstanceError(f"membership key must be an element id, got {key!r}")
    return eid


def dump_instance(inst: LaminarInstance) -> str:
    """Canonical JSON serialization; loading it back round-trips exactly."""
    doc = {
        "name": inst.name,
        "elements": [{"id": e.id, "weight": e.weight} for e in inst.elements],
        "nodes": [
            {"id": nd.id, "capacity": nd.capacity, "parent": nd.parent}
            for nd in inst.nodes
        ],
        "membership": {str(k): inst.membership[k] for k in sorted(inst.membership)},
    }
    return json.dumps(doc, sort_keys=True, indent=1)


# -- structure operations ----------------------------------------------------


def normalize_family(inst: LaminarInstance) -> LaminarInstance:
    """Drop capacity-redundant nodes.

    A node whose capacity is at least the capacity of one of its proper
    ancestors can never be the binding constraint, so it is removed and the
    elements attached to it move to the nearest surviving ancestor.  The
    feasible-set family is unchanged and the surviving tree has strictly
    increasing capacities toward the root.
    """
    by_id = {nd.id: nd for nd in inst.nodes}
    removed: set[int] = set()
    for nd in inst.nodes:
        cur = nd.parent
        while cur is not None:
            if by_id[cur].capacity <= nd.capacity:
                removed.add(nd.id)
                break
            cur = by_id[cur].parent
    if not removed:
        return make_instance(inst.name, inst.elements, inst.nodes, inst.membership)

    def surviving(node_id: int) -> int:
        while node_id in removed:
            node_id = by_id[node_id].parent  # root is never removed
        return node_id

    nodes = [
        FamilyNode(nd.id, nd.capacity, surviving(nd.parent) if nd.parent is not None else None)
        for nd in inst.nodes
        if nd.id not in removed
    ]
    membership = {eid: surviving(nid) for eid, nid in inst.membership.items()}
    return make_instance(inst.name, inst.elements, nodes, membership)
