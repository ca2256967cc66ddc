"""Domain model: weighted elements under a laminar family of capacity limits.

A laminar family is a collection of subsets of the ground set in which any
two members are either nested or disjoint, so the family forms a rooted tree
whose root is the whole ground set.  Every family set carries a positive
integer capacity; a selection is feasible when no set's capacity is exceeded
by the selected elements inside it.

Elements attach to their *minimal* containing set only; membership in every
larger set follows from the tree (an element belongs to a node's set iff its
minimal node lies in that node's subtree).

An instance holds its elements as two id-ordered columns, ``ids`` and
``weights``.  ``load_instance`` reads them from the JSON with one pass per
column, and the membership by looking each element id up by its decimal
text, so no key is parsed unless that lookup misses.  ``_Pre`` builds the
rank tables from the columns, so loading and running build no
``Element``; ``LaminarInstance.elements`` builds the tuple of them on
first read, and ``_Pre.rank_by_id`` the id->rank table on the first
lookup by id.  ``load_instance``, ``make_instance`` and the generators
share one validator, ``_assemble``, which tests each rule of the format
on a whole column and scans for the first bad entry only to word the
error.

Instances are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter

# ``_Pre`` keeps every node's chain to the root, one slot per node on it, so
# the tables grow with the sum of (depth + 1) over the nodes.  A tree that
# needs more slots than this is refused: the limit is about 40 MiB of
# pointers, above a 3000-node chain (4.5M slots), and a chain of 100k nodes
# would need 5 * 10^9.
MAX_CHAIN_SLOTS = 5_000_000
# JSON writes a high surrogate followed by a low one as two escapes, which
# read back as one astral character, so a name holding such a pair is refused
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


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
    heaviest).  ``x`` is lighter than ``y`` iff rank(x) > rank(y).  The
    rank tables come straight from the instance's id-ordered columns: one
    stable sort of their positions by weight, heaviest first, keeps equal
    weights in id order, the tie-break of ``order_key``, and
    ``ids_by_rank``, ``w_by_rank`` and ``chain_by_rank`` read the columns
    through that order.  Virtual
    padding slots are addressed by ranks >= n_real, one block of capacity
    length per node (``virtual_rank_base``), so they sort below every real
    element; a list uses the first ``slots[b]`` ranks of its block at most.

    ``own_ranks[x]`` holds the ranks whose minimal node is ``x`` (ascending)
    and ``children_idx[x]`` the child node indices.  One walk down from the
    root gives ``depth``, ``children_idx``, ``bottom_up`` (every node once
    with each child before its parent) and each node's chain, its path up
    to the root, itself first.  ``chain_by_rank[r]`` is the chain of rank
    r's minimal node; no table keeps the chains by node.
    ``global_optima`` is filled on first use by ``matroid._global_optima``,
    and ``opt_masks``, ``opt_fields`` and ``own_bits`` by
    ``matroid._opt_tables``.  ``rank_by_id``, the id->rank table, is built
    on the first lookup by id (``rank_of``, ``LaminarInstance.key``,
    ``kicknext.qualifies``); the rank-space runs never read it.

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
        "ids_by_rank", "_rank_by_id", "w_by_rank", "n_real", "max_id",
        "node_ids", "node_index", "mu", "slots", "depth",
        "own_ranks", "chain_by_rank", "children_idx", "bottom_up",
        "root_idx", "virtual_rank_base", "global_optima", "opt_masks",
        "opt_fields", "own_bits",
    )

    def __init__(self, inst: "LaminarInstance"):
        ids, weights = inst.ids, inst.weights
        # reverse=True keeps a stable sort stable: equal weights stay in id order
        order = sorted(range(len(ids)), key=weights.__getitem__, reverse=True)
        self.ids_by_rank = list(map(ids.__getitem__, order))
        self._rank_by_id: dict[int, int] | None = None
        self.w_by_rank = list(map(weights.__getitem__, order))
        self.n_real = len(order)
        self.max_id = ids[-1] if ids else -1

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
        self.children_idx = children
        self.bottom_up = tuple(reversed(top_down))

        chain_of = dict(zip(self.node_ids, chains))  # node id -> its chain
        self.chain_by_rank = list(map(chain_of.__getitem__,
                                      map(inst.membership.__getitem__, self.ids_by_rank)))
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
        self.global_optima = self.opt_masks = None
        self.opt_fields = self.own_bits = None

    @property
    def rank_by_id(self) -> dict[int, int]:
        """Each real id's rank, built on first read: Monte Carlo, exact
        enumeration, the checks and the optima work in rank space, and
        only lookups by id read it."""
        if self._rank_by_id is None:
            self._rank_by_id = dict(zip(self.ids_by_rank, range(self.n_real)))
        return self._rank_by_id

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


class LaminarInstance:
    """A named ground set with weights plus the rooted capacity tree.

    ``ids`` lists the element ids ascending and ``weights[i]`` is the weight
    of ``ids[i]``: two read-only columns.  ``elements`` gives the same as
    ``Element`` objects, built on first read.  ``membership`` maps each
    element id to the id of its minimal containing node.  Treat instances
    as frozen once built; build them with ``make_instance`` or
    ``load_instance``, which validate.
    """

    __slots__ = ("name", "ids", "weights", "nodes", "membership", "_elements", "_pre")

    def __init__(self, name: str, ids: list[int], weights: list[float],
                 nodes: tuple[FamilyNode, ...], membership: dict[int, int]):
        self.name = name
        self.ids = ids
        self.weights = weights
        self.nodes = nodes
        self.membership = membership
        self._elements: tuple[Element, ...] | None = None
        self._pre: _Pre | None = None

    @property
    def elements(self) -> tuple[Element, ...]:
        """The elements in id order."""
        if self._elements is None:
            self._elements = tuple(map(Element, self.ids, self.weights))
        return self._elements

    def pre(self) -> _Pre:
        if self._pre is None:
            self._pre = _Pre(self)
        return self._pre

    # -- lookups ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

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
        return frozenset(self.ids)


# -- construction and validation -------------------------------------------


def make_instance(name, elements, nodes, membership) -> LaminarInstance:
    """Validate and assemble an instance; children links are recomputed.
    Each element keeps the weight it was given."""
    elements = tuple(elements)
    inst = _assemble(name, [e.id for e in elements], [e.weight for e in elements],
                     [(nd.id, nd.capacity, nd.parent) for nd in nodes], dict(membership))
    # ``_assemble`` finds keys and values by value, so True passes as 1 and
    # 2.0 as 2.  Loading and generating make plain ints, so only this entry
    # tests their types, after the rules that word an unknown id or node.
    m = inst.membership
    if not set(map(type, m)) <= {int}:
        eid = next(eid for eid in m if type(eid) is not int)
        raise InstanceError(f"membership key must be an element id, got {eid!r}")
    if not set(map(type, m.values())) <= {int}:
        nid = next(nid for nid in m.values() if type(nid) is not int)
        raise InstanceError(f"membership value must be an integer, got {nid!r}")
    return inst


def _assemble(name, ids: list, weights: list, nodes: list[tuple], membership: dict
              ) -> LaminarInstance:
    """The one validator, for ``make_instance``, ``load_instance`` and the
    generators: check the instance, put the element columns in id order
    and link the tree.  ``nodes`` holds (id, capacity, parent) triples.
    Each rule is one test over a whole column; only when it fails is the
    column scanned, for the first bad entry, to word the error.
    ``membership`` becomes the instance's own."""
    if type(name) is not str:
        raise InstanceError(f"name must be a string, got {name!r}")
    pair = _SURROGATE_PAIR.search(name)
    if pair:
        raise InstanceError(f"name holds a surrogate pair at index {pair.start()}, "
                            f"which would load back as one character")
    if not set(map(type, ids)) <= {int} or (ids and min(ids) < 0):  # bool is not an id
        bad = next(i for i in ids if type(i) is not int or i < 0)
        raise InstanceError(f"element id must be a non-negative integer: {bad!r}")
    known = set(ids)
    if len(known) < len(ids):
        seen: set[int] = set()
        for i in ids:
            if i in seen:
                raise InstanceError(f"duplicate element id {i}")
            seen.add(i)
    # floats, the common case, need no call
    floats = weights if set(map(type, weights)) <= {float} else list(map(_weight, weights, ids))
    # a NaN or an infinity fails the sum's test, and so may finite weights
    # whose sum overflows: a failed test only starts the scan, which decides
    if floats and not (0.0 < min(floats) and sum(floats) < math.inf):
        for f, w, i in zip(floats, weights, ids):
            if not 0.0 < f < math.inf:
                what = "non-positive" if w <= 0 else "non-finite"
                raise InstanceError(f"element {i}: {what} weight {w!r}")
    if ids != sorted(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = list(map(ids.__getitem__, order))
        weights = list(map(weights.__getitem__, order))

    raw: dict[int, tuple] = {}
    for nd in nodes:
        nid, cap, parent = nd
        if type(nid) is not int or nid < 0:
            raise InstanceError(f"node id must be a non-negative integer: {nid!r}")
        if nid in raw:
            raise InstanceError(f"duplicate node id {nid}")
        if type(cap) is not int:
            raise InstanceError(f"node {nid}: capacity must be an integer: {cap!r}")
        if cap <= 0:
            raise InstanceError(f"node {nid}: non-positive capacity")
        if parent is not None and type(parent) is not int:  # True would link under node 1
            raise InstanceError(f"node {nid}: parent must be an integer, got {parent!r}")
        raw[nid] = nd
    if not raw:
        raise InstanceError("no root node (empty family)")

    roots = [nid for nid, (_, _, parent) in raw.items() if parent is None]
    if len(roots) > 1:
        raise InstanceError(f"multiple roots (nodes {roots[0]} and {roots[1]})")
    if not roots:
        raise InstanceError("no root node")
    children: dict[int, list[int]] = {nid: [] for nid in raw}
    for nid, _, parent in raw.values():
        if parent is not None:
            if parent not in raw:
                raise InstanceError(f"node {nid}: unknown parent {parent}")
            children[parent].append(nid)
    # a node the root does not reach lies on or below a cycle of parent links
    reached = [roots[0]]
    for nid in reached:  # grows as it is read; every node has one parent
        reached += children[nid]
    if len(reached) < len(raw):
        cut = raw.keys() - reached
        nid = next(nid for nid in raw if nid in cut)  # the first in input order
        raise InstanceError(f"node {nid}: cycle in parent links")

    if not known.issuperset(membership):
        eid = next(eid for eid in membership if eid not in known)
        raise InstanceError(f"membership: unknown element {eid}")
    if len(membership) < len(ids):  # its keys are known ids, so some id has none
        eid = next(eid for eid in ids if eid not in membership)
        raise InstanceError(f"element {eid} not assigned to any node")
    if not set(membership.values()) <= raw.keys():
        eid = next(eid for eid in ids if membership[eid] not in raw)
        raise InstanceError(
            f"element {eid}: membership references unknown node {membership[eid]}"
        )

    linked = tuple(FamilyNode(*raw[nid], tuple(sorted(children[nid]))) for nid in sorted(raw))
    return LaminarInstance(name, ids, weights, linked, membership)


def load_instance(text: str) -> LaminarInstance:
    """Parse and validate the JSON instance format (see README).  Each
    column is read and type-checked in one pass: integral floats become
    ints, int weights become floats.  The membership is read by element
    id; its keys are parsed, and a bad one worded, only when that misses."""
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
        raw_ids = list(map(itemgetter("id"), doc["elements"]))
        raw_weights = list(map(itemgetter("weight"), doc["elements"]))
        nodes = [
            (
                _json_int(nd["id"], "node id"),
                _json_int(nd["capacity"], f"node {nd['id']!r}: capacity"),
                None if nd["parent"] is None else _json_int(nd["parent"], f"node {nd['id']!r}: parent"),
            )
            for nd in doc["nodes"]
        ]
        members = doc["membership"]
        pairs = members.items()
    except (AttributeError, KeyError, TypeError) as exc:
        raise InstanceError(f"malformed instance text: {exc}") from None
    ids = _json_ints(raw_ids, "element id")
    weights = (raw_weights if set(map(type, raw_weights)) <= {float}
               else list(map(_weight, raw_weights, raw_ids)))  # worded with the id as written
    # each id looked up by its decimal text: when every id is found, with a
    # plain int, and no key is left over, the keys are exactly the ids'
    # texts and no key needs parsing; otherwise the keys are parsed, which
    # words a bad one and reads an integral float value
    nids = list(map(members.get, map(str, ids)))
    membership = dict(zip(ids, nids))
    if not (len(membership) == len(members) == len(ids) and set(map(type, nids)) <= {int}):
        eids = list(map(_json_key, map(itemgetter(0), pairs)))
        nids = _json_ints(list(map(itemgetter(1), pairs)), "membership value")
        membership = dict(zip(eids, nids))
    return _assemble(doc["name"], ids, weights, nodes, membership)


def _json_ints(col: list, what: str) -> list:
    """A column of integral JSON numbers (see ``_json_int``)."""
    return col if set(map(type, col)) <= {int} else [_json_int(v, what) for v in col]


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
    non-finite when an int is too large for a float.  ``_assemble`` checks
    the range; it keeps the weight it was given."""
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


# The layout of ``json.dumps(doc, sort_keys=True, indent=1)``: keys sorted,
# one entry per line, one space of indent per level.  ``indent`` makes
# ``json`` fall back to its pure-Python encoder, so the text is joined here.
_ELEMENT = '  {\n   "id": %r,\n   "weight": %r\n  }'
_NODE = '  {\n   "capacity": %r,\n   "id": %r,\n   "parent": %s\n  }'
_MEMBER = '  "%s": %r'


def _block(brackets: str, entries: list[str]) -> str:
    """A JSON array or object at the top level of the document."""
    if not entries:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(entries) + f"\n {brackets[1]}"


def dump_instance(inst: LaminarInstance) -> str:
    """Canonical JSON serialization; loading it back round-trips exactly.

    The text is that of ``json.dumps`` with ``sort_keys=True, indent=1``,
    written directly: membership keys sort as strings ("10" before "9"),
    numbers are their ``repr``, as in ``json``, and the name is escaped by
    ``json``'s own ASCII routine.  A validated instance holds only plain
    ints and finite floats in the numeric fields."""
    m = inst.membership
    elements = [_ELEMENT % e for e in zip(inst.ids, inst.weights)]
    members = [_MEMBER % kv for kv in sorted(zip(map(str, m), m.values()))]
    nodes = [_NODE % (nd.capacity, nd.id, "null" if nd.parent is None else nd.parent)
             for nd in inst.nodes]
    return "".join((
        '{\n "elements": ', _block("[]", elements),
        ',\n "membership": ', _block("{}", members),
        ',\n "name": ', encode_basestring_ascii(inst.name),
        ',\n "nodes": ', _block("[]", nodes),
        "\n}",
    ))


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

    def surviving(node_id: int) -> int:
        while node_id in removed:
            node_id = by_id[node_id].parent  # root is never removed
        return node_id

    nodes = [
        (nd.id, nd.capacity, surviving(nd.parent) if nd.parent is not None else None)
        for nd in inst.nodes
        if nd.id not in removed
    ]
    membership = {eid: surviving(nid) for eid, nid in inst.membership.items()}
    return _assemble(inst.name, list(inst.ids), list(inst.weights), nodes, membership)
