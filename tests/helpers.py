"""Shared instance builders, run-replay checks and id-space reference
implementations for the test suite."""

import json
import math
import random
from bisect import bisect_left, bisect_right
from collections import defaultdict
from hashlib import shake_128
from itertools import permutations
from operator import gt

from hypothesis import strategies as st

from laminar_secretary import (
    AllKickedRow,
    Element,
    FamilyNode,
    GenSpec,
    InstanceError,
    RunResult,
    Trial,
    allkicked_bound,
    brank,
    derive_seed,
    generate,
    greedy_opt,
    load_instance,
    make_instance,
    order_key,
    reference_sets,
    run_kicknext,
    theory_params,
)
from laminar_secretary.kicknext import BreakRecord, TraceEvent, _block_size, _order
from laminar_secretary.matroid import _global_optima, _greedy_ranks
from laminar_secretary.model import _assemble, _json_int, _json_key, _weight
from laminar_secretary.theory import _global_brank, _padded_brank

# The documented four-element example: two heavy elements share a unit-capacity
# inner node, two lighter ones sit directly under the root.
FOUR_ELEMENT_TEXT = json.dumps(
    {
        "name": "four",
        "elements": [
            {"id": 0, "weight": 10},
            {"id": 1, "weight": 7},
            {"id": 2, "weight": 5},
            {"id": 3, "weight": 2},
        ],
        "nodes": [
            {"id": 0, "capacity": 3, "parent": None},
            {"id": 1, "capacity": 1, "parent": 0},
        ],
        "membership": {"0": 1, "1": 1, "2": 0, "3": 0},
    }
)


def four_element():
    return load_instance(FOUR_ELEMENT_TEXT)


def corrupt_four_element(field, value):
    """The four-element document with one numeric field replaced."""
    doc = json.loads(FOUR_ELEMENT_TEXT)
    if field == "weight":
        doc["elements"][0]["weight"] = value
    elif field == "element id":
        doc["elements"][0]["id"] = value
    elif field == "node id":
        doc["nodes"][1]["id"] = value
    elif field == "capacity":
        doc["nodes"][1]["capacity"] = value
    elif field == "parent":
        doc["nodes"][1]["parent"] = value
    else:
        doc["membership"]["0"] = value
    return json.dumps(doc)


def instance_doc(inst):
    """The document that ``dump_instance`` writes, built field by field."""
    return {
        "name": inst.name,
        "elements": [{"id": i, "weight": w} for i, w in zip(inst.ids, inst.weights)],
        "nodes": [
            {"id": nd.id, "capacity": nd.capacity, "parent": nd.parent}
            for nd in inst.nodes
        ],
        "membership": {str(k): inst.membership[k] for k in sorted(inst.membership)},
    }


def dump_instance_by_json(inst):
    """The canonical text by ``json.dumps``, whose ``indent`` runs the
    pure-Python encoder: the oracle for ``dump_instance``."""
    return json.dumps(instance_doc(inst), sort_keys=True, indent=1)


def load_instance_by_key_parse(text):
    """Reference for ``load_instance``: the membership read by parsing
    every key, each checked to be the canonical decimal form of an id,
    rather than looked up by element id."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceError(f"malformed instance text: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceError("malformed instance text: top level must be an object")
    for key in ("name", "elements", "nodes", "membership"):
        if key not in doc:
            raise InstanceError(f"missing field '{key}'")
    try:
        raw_ids = [e["id"] for e in doc["elements"]]
        raw_weights = [e["weight"] for e in doc["elements"]]
        nodes = [
            (
                _json_int(nd["id"], "node id"),
                _json_int(nd["capacity"], f"node {nd['id']!r}: capacity"),
                None if nd["parent"] is None else _json_int(nd["parent"], f"node {nd['id']!r}: parent"),
            )
            for nd in doc["nodes"]
        ]
        pairs = list(doc["membership"].items())
    except (AttributeError, KeyError, TypeError) as exc:
        raise InstanceError(f"malformed instance text: {exc}") from None
    ids = [_json_int(v, "element id") for v in raw_ids]
    weights = [w if type(w) is float else _weight(w, i) for w, i in zip(raw_weights, raw_ids)]
    eids = [_json_key(k) for k, _ in pairs]
    nids = [_json_int(v, "membership value") for _, v in pairs]
    return _assemble(doc["name"], ids, weights, nodes, dict(zip(eids, nids)))


def rank1(weights, capacity=1, name="rank1"):
    """Single-node instance: select at most ``capacity`` of the elements."""
    elements = [Element(i, float(w)) for i, w in enumerate(weights)]
    nodes = [FamilyNode(0, capacity, None)]
    return make_instance(name, elements, nodes, {i: 0 for i in range(len(weights))})


def tree(name, node_specs, membership, weights):
    """Builder from raw parts: ``node_specs`` is [(id, capacity, parent)]."""
    elements = [Element(i, float(w)) for i, w in enumerate(weights)]
    nodes = [FamilyNode(nid, cap, par) for nid, cap, par in node_specs]
    return make_instance(name, elements, nodes, dict(membership))


def mixed_instances(count, seed0=0, n_lo=4, n_hi=12):
    """Deterministic list of instances cycling families, sizes, and weight
    regimes; the workhorse pool for randomized invariants."""
    out = []
    families = ("random_tree", "uniform", "partition", "chain", "random_tree")
    weights = ("uniform", "exponential", "near_ties", "power_law")
    for i in range(count):
        n = n_lo + (seed0 + i) % (n_hi - n_lo + 1)
        family = families[i % len(families)]
        kind = weights[i % len(weights)]
        spec = GenSpec(
            family,
            n,
            seed=seed0 + 1000 + i,
            weights=kind,
            rank=max(1, n // 3) if family == "uniform" else None,
            parts=2 + i % 2 if family == "partition" else None,
            part_capacity=1 + i % 2,
            depth=2 + i % 2 if family == "chain" else None,
        )
        out.append(generate(spec))
    return out


def family_instance(family, n, seed):
    """A generated instance of any family, its parameters drawn from the seed."""
    weights = ("uniform", "exponential", "near_ties", "power_law")[seed % 4]
    return generate(GenSpec(family, n, seed, weights,
                            rank=max(1, n // 3) if family == "uniform" else None,
                            parts=1 + seed % 4 if family == "partition" else None,
                            part_capacity=1 + seed % 3,
                            depth=2 + seed % 3 if family == "chain" else None))


def _draw_weight_by_stdlib(rnd, kind, exponent):
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


def generate_by_stdlib(spec):
    """``generate`` as it was written on ``randrange``, ``randint``,
    ``choice``, ``expovariate`` and ``paretovariate``, one call per value:
    the oracle for its column draws.  The draws are verbatim; the checks of
    the spec are left to ``generate``, so give this valid specs only."""
    rnd = random.Random(spec.seed)

    if spec.family == "uniform":
        k = spec.rank if spec.rank is not None else min(3, spec.n)
        nodes = [(0, k, None)]
        membership = {i: 0 for i in range(spec.n)}

    elif spec.family == "partition":
        parts = spec.parts if spec.parts is not None else 2
        cap = spec.part_capacity
        root_cap = parts * cap if parts > 1 else cap + 1
        nodes = [(0, root_cap, None)]
        nodes += [(j, cap, 0) for j in range(1, parts + 1)]
        membership = {i: 1 + rnd.randrange(parts) for i in range(spec.n)}

    elif spec.family == "chain":
        depth = spec.depth if spec.depth is not None else 3
        caps = [rnd.randint(1, 2)]
        for _ in range(depth - 1):
            caps.append(caps[-1] + rnd.randint(1, 2))
        caps.reverse()  # caps[0] largest -> root
        nodes = [(j, caps[j], None if j == 0 else j - 1) for j in range(depth)]
        membership = {i: rnd.randrange(depth) for i in range(spec.n)}

    else:  # random_tree
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

    weights = [_draw_weight_by_stdlib(rnd, spec.weights, spec.power_exponent)
               for _ in range(spec.n)]
    name = f"{spec.family}-n{spec.n}-s{spec.seed}"
    return _assemble(name, list(range(spec.n)), weights, nodes, membership)


@st.composite
def shaped_trees(draw, max_elements=30, max_capacity=4):
    """A hand-built instance: a deep chain, a wide star or a random tree of
    up to 40 nodes, node ids shuffled so that the id order is not the tree
    order, capacities 1..``max_capacity``, and up to ``max_elements``
    elements spread over the nodes."""
    size = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(("deep", "wide", "random")))
    parents = [None] + [
        i - 1 if shape == "deep" else 0 if shape == "wide" else draw(st.integers(0, i - 1))
        for i in range(1, size)
    ]
    ids = draw(st.permutations(range(size)))
    nodes = [FamilyNode(ids[i], draw(st.integers(1, max_capacity)), None if q is None else ids[q])
             for i, q in enumerate(parents)]
    n = draw(st.integers(1, max_elements))
    elements = [Element(e, draw(st.floats(0.5, 100.0))) for e in range(n)]
    membership = {e: ids[draw(st.integers(0, size - 1))] for e in range(n)}
    return make_instance("shaped", elements, nodes, membership)


FAMILY_OR_SHAPED = st.one_of(
    st.builds(family_instance, st.sampled_from(("uniform", "partition", "chain", "random_tree")),
              st.integers(1, 30), st.integers(0, 10_000)),
    shaped_trees(),
)


def path_up(inst, from_node, to_node):
    """Node ids from ``from_node`` up to ``to_node`` by parent links, both
    ends included, or ``None`` when ``to_node`` is not on the way up."""
    parent = {nd.id: nd.parent for nd in inst.nodes}
    out = [from_node]
    while out[-1] != to_node:
        if parent[out[-1]] is None:
            return None
        out.append(parent[out[-1]])
    return out


def rank_tables_by_elements(elements, nodes, membership):
    """Reference for ``_Pre``'s rank tables from raw parts in any order:
    the ``Element``s sorted by ``order_key``, and each rank's chain of node
    indices (nodes numbered in id order) walked up by parent links."""
    ranked = sorted(elements, key=lambda e: order_key(e.weight, e.id))
    index = {nid: i for i, nid in enumerate(sorted(nd.id for nd in nodes))}
    parent = {nd.id: nd.parent for nd in nodes}

    def chain(nid):
        out = []
        while nid is not None:
            out.append(index[nid])
            nid = parent[nid]
        return tuple(out)

    return {
        "n_real": len(ranked),
        "ids_by_rank": [e.id for e in ranked],
        "w_by_rank": [e.weight for e in ranked],
        "rank_by_id": {e.id: r for r, e in enumerate(ranked)},
        "max_id": max((e.id for e in ranked), default=-1),
        "chain_by_rank": [chain(membership[e.id]) for e in ranked],
    }


def stream_by_prefix(n, p, seed, draws):
    """Reference for ``kicknext._draws``, each draw ordered by
    ``kicknext._order``: the first ``draws`` draws of the stream of
    ``seed``, from one read of the ``draws * (2n + 1)`` words that they can
    use at most (n + 1 gaps and n keys each), each word decoded by
    ``int.from_bytes``, read in order: a draw's gaps, then its keys, then
    the next draw.  Returns one ``(in_s, order)`` per draw."""
    buf = shake_128(seed.to_bytes(8, "little")).digest(8 * draws * (2 * n + 1))
    words = iter([int.from_bytes(buf[j:j + 8], "little") for j in range(0, len(buf), 8)])
    out = []
    for _ in range(draws):
        arrivals = []
        r = -1
        for u in words:
            r += 1 + int(math.log(((u >> 11) + 1) * 2**-53) / math.log1p(-p))
            if r >= n:
                break
            arrivals.append(r)
        keys = [next(words) for _ in arrivals]
        order = [r for _, r in sorted(zip(keys, arrivals))]
        out.append(([r not in arrivals for r in range(n)], order))
    return out


def sample_ranks_by_prefix(n, p, seed):
    """Reference for ``kicknext._sample_ids``: the first draw of the stream
    of ``seed``.  Returns ``(in_s, order)``."""
    return stream_by_prefix(n, p, seed, 1)[0]


def trials_by_prefix(n, p, master_seed, start, count):
    """Reference for trials ``start`` to ``start + count - 1`` of
    ``master_seed`` (stream rng=3): trial i is draw ``i % B`` of the stream
    of ``derive_seed(master_seed, i // B)``, B = ``_block_size(n, p)``.
    Returns one ``(in_s, order)`` per trial."""
    size = _block_size(n, p)
    streams = {}
    out = []
    for i in range(start, start + count):
        block, j = divmod(i, size)
        if block not in streams:
            streams[block] = stream_by_prefix(n, p, derive_seed(master_seed, block), size)
        out.append(streams[block][j])
    return out


def trial_weights_by_full_walk(inst, p, start, count, master_seed, padding):
    """Reference for ``experiments._trial_weights_chunk``: each trial's
    full arrival order (``_arrival_draws``, ordered by ``_order``) walked,
    every arrival, through the lists of one full pass over its sample flags
    (``ref_lists_by_full_pass``)."""
    from laminar_secretary.experiments import _arrival_draws

    pre = inst.pre()
    weights = []
    for arrivals, key in _arrival_draws(pre, p, master_seed, start, count):
        order = _order(arrivals, key)
        arrived = set(order)
        in_s = [r not in arrived for r in range(pre.n_real)]
        weights.append(run_weight_by_lists(pre, ref_lists_by_full_pass(pre, in_s, padding), order))
    return weights


def run_weight_by_lists(pre, refs, order_ranks):
    """Reference for ``kicknext._run_weight``, the walk on lists: total
    weight accepted at the root when ``order_ranks`` arrive against the
    ascending rank lists ``refs``, which the walk consumes.  At each node of
    r's chain it pops the heaviest entry lighter than r, found by
    ``bisect_right``, and stops at the first node with none; r gains its
    weight only when it passes every node, added in arrival order."""
    w = pre.w_by_rank
    total = 0.0
    for r in order_ranks:
        for b in pre.chain_by_rank[r]:
            R = refs[b]
            i = bisect_right(R, r)
            if i == len(R):
                break
            R.pop(i)
        else:
            total += w[r]
    return total


def decode_fields(pre, fields):
    """The ascending rank lists that the reference fields of
    ``matroid._ref_fields`` stand for: bit r is real rank r and bit n + j
    is node b's virtual rank ``virtual_rank_base[b] + j``."""
    n = pre.n_real
    return [[i if i < n else pre.virtual_rank_base[b] + i - n
             for i in range(f.bit_length()) if f >> i & 1]
            for b, f in enumerate(fields)]


def encode_fields(pre, refs):
    """The reference fields that the ascending rank lists ``refs`` stand
    for, the inverse of ``decode_fields``: bit r for real rank r and bit
    n + j for node b's virtual rank ``virtual_rank_base[b] + j``."""
    n = pre.n_real
    return [sum(1 << (r if r < n else n + r - base) for r in R)
            for R, base in zip(refs, pre.virtual_rank_base)]


def dominance_by_lists(pre, trials):
    """Reference for ``experiments._Dominance`` on rank lists: its checks
    as they ran before they moved to fields.  ``trials`` holds
    (order, refs) pairs, refs ascending rank lists.  A rank's count of
    entries up to it is a ``bisect_right``; the weak check flags a node
    whose list holds more real entries than OPT's or, entry by entry, a
    heavier one, and scans that node's members, heaviest first, for the
    witness.  Returns (weak_witness, member_witness, strict_violations,
    strict_example)."""
    opt = _global_optima(pre)
    opt_upto = [tuple(bisect_right(opt[b], r) for b in ch)
                for r, ch in enumerate(pre.chain_by_rank)]
    in_opt = [set(rs) for rs in opt]

    def witness(t_idx, b, r, refs=None):
        text = f"trial {t_idx}, element {pre.ids_by_rank[r]}, node {pre.node_ids[b]}"
        if refs is None:
            return text
        return f"{text}: {_global_brank(pre, refs, b, r)} < {_global_brank(pre, opt, b, r)}"

    weak_witness = member_witness = strict_example = ""
    strict_violations = 0
    for t_idx, (order, refs) in enumerate(trials):
        for b, (O, R) in enumerate(zip(opt, refs)):
            if weak_witness:
                break
            if bisect_left(R, pre.n_real) > len(O) or any(map(gt, O, R)):
                for r in pre.members(b):
                    if bisect_right(R, r) > bisect_right(O, r):
                        weak_witness = witness(t_idx, b, r, refs)
                        break
        member = strict = None  # this trial's least (node, rank)
        for r in order:
            for b, k in zip(pre.chain_by_rank[r], opt_upto[r]):
                if bisect_right(refs[b], r) < k:
                    continue
                if r in in_opt[b]:
                    if not member_witness and (member is None or (b, r) < member):
                        member = (b, r)
                else:
                    strict_violations += 1
                    if not strict_example and (strict is None or (b, r) < strict):
                        strict = (b, r)
        if member is not None:
            member_witness = witness(t_idx, *member, refs) + "+1"
        if strict is not None:
            strict_example = witness(t_idx, *strict)
    return weak_witness, member_witness, strict_violations, strict_example


def failures_by_lists(pre, trials, params):
    """Reference for ``experiments._EvictionFailures`` on rank lists: each
    trial's arrivals walked through its lists by ``arrive``,
    which the walk consumes, an event counted at every node from the
    break on whose list holds no entry lighter than the arrival.
    ``trials`` holds (order, refs) pairs.  Returns the root weight of each
    trial and the rows, lightest optimum element first."""
    opt = _global_optima(pre)
    w = pre.w_by_rank
    seen = dict.fromkeys(opt[pre.root_idx], 0)
    hits = defaultdict(int)
    weights = []
    for order, refs in trials:
        total = 0.0
        for r in order:
            ch = pre.chain_by_rank[r]
            k = len(arrive(refs, ch, r))
            if k == len(ch):
                total += w[r]
            if r in seen:
                seen[r] += 1
                for b in ch[k:]:
                    if _padded_brank(refs[b], r) == 0:
                        hits[r, b] += 1
        weights.append(total)
    rows = []
    for r in reversed(opt[pre.root_idx]):
        ncond = seen[r]
        for b in pre.chain_by_rank[r]:
            d = _padded_brank(opt[b], r)
            freq = hits[r, b] / ncond if ncond else 0.0
            se = math.sqrt(freq * (1.0 - freq) / ncond) if ncond else 0.0
            rows.append(AllKickedRow(pre.ids_by_rank[r], pre.node_ids[b], d, ncond, freq,
                                     se, allkicked_bound(params, d)))
    return weights, rows


def qualifying_counts_by_lists(pre, b, members, arrived):
    """Reference for ``experiments._qualifying_counts`` on rank lists: the
    padded lists of the sample that leaves out the set ``arrived``
    (``ref_lists_by_full_pass``), and per entry of node index ``b``'s
    list the members (rank -> chain up to ``b``) that arrive and outweigh
    the lightest (last) entry of every list of their chain up to ``b``,
    each counted at its own lighter-entry count in ``b``'s list less one."""
    refs = ref_lists_by_full_pass(pre, [r not in arrived for r in range(pre.n_real)], True)
    R = refs[b]
    got = [0] * len(R)
    for r, up in members.items():
        if r in arrived and all(refs[x][-1] > r for x in up):
            got[_padded_brank(R, r) - 1] += 1
    return got


def ref_lists_by_full_pass(pre, in_s, padding):
    """The reference lists of a sample as ascending rank lists (heaviest
    first), given the sample flags ``in_s``: one full bottom-up pass over
    the flags (``_greedy_ranks``), then every node's list ``pad``-ded when
    padding.  ``decode_fields`` of ``matroid._ref_fields`` must equal it."""
    refs = _greedy_ranks(pre, in_s)
    if padding:
        pad(pre, refs, range(len(refs)))
    return refs


def pad(pre, lists, nodes):
    """Extend the list of each node index b in ``nodes`` in place by
    virtual ranks up to ``pre.slots[b]``, the slots a walk can reach, not
    up to capacity (see ``model._Pre``)."""
    base, slots = pre.virtual_rank_base, pre.slots
    for b in nodes:
        chosen = lists[b]
        chosen.extend(range(base[b] + len(chosen), base[b] + slots[b]))


def arrive(refs, chain, r):
    """The eviction step on lists, the oracle of the step on bits: one
    arrival of rank ``r``; at each node of ``chain``, minimal first, evict
    the heaviest reference rank lighter than ``r``, and stop at the first
    node with none.  Returns the evicted ranks, one per accepting node."""
    evicted = []
    for b in chain:
        R = refs[b]
        i = bisect_right(R, r)
        if i == len(R):
            break
        evicted.append(R.pop(i))
    return evicted


def run_kicknext_by_lists(inst, trial, *, padding=True):
    """Reference for ``kicknext.run_kicknext`` on rank lists, for a trial
    that splits the ground set: the lists of one full pass over the sample
    flags (``ref_lists_by_full_pass``), each arrival walked through them
    by ``arrive``, and a break's lighter entries counted by ``bisect_right``
    on the initial list."""
    pre = inst.pre()
    order = [pre.rank_of(eid) for eid in trial.arrival_order]
    in_s = [pre.ids_by_rank[r] in trial.sample_set for r in range(pre.n_real)]
    refs = ref_lists_by_full_pass(pre, in_s, padding)
    initial = [tuple(x) for x in refs]
    sol = [[] for _ in pre.mu]
    breaks = {}
    events = []
    for step, r in enumerate(order):
        eid = pre.ids_by_rank[r]
        ch = pre.chain_by_rank[r]
        evicted = arrive(refs, ch, r)
        for b, x in zip(ch, evicted):
            sol[b].append(r)
            events.append(TraceEvent(step, eid, pre.node_ids[b], "accept",
                                     pre.id_of(x), x >= pre.n_real))
        if len(evicted) < len(ch):
            b = ch[len(evicted)]
            below = len(initial[b]) - bisect_right(initial[b], r)
            breaks[eid] = BreakRecord(pre.node_ids[b], step, below)
            events.append(TraceEvent(step, eid, pre.node_ids[b], "break", None, False))

    def id_lists(lists):
        return {nid: tuple(map(pre.id_of, reversed(R))) for nid, R in zip(pre.node_ids, lists)}

    return RunResult(
        sol_root=tuple(pre.ids_by_rank[r] for r in sol[pre.root_idx]),
        sol_per_node={nid: tuple(pre.ids_by_rank[r] for r in S)
                      for nid, S in zip(pre.node_ids, sol)},
        initial_refsets=id_lists(initial),
        final_refsets=id_lists(refs),
        breaks=breaks,
        events=tuple(events),
    )


def per_node_greedy_ranks(pre, in_v, b):
    """Reference greedy scan for one node: walk the node's members in weight
    order and keep each flagged rank whose chain up to ``b`` still has room
    everywhere.  Returns node ``b``'s optimum as ranks, heaviest first."""
    counts = [0] * len(pre.mu)
    out = []
    for r in pre.members(b):
        if not in_v[r]:
            continue
        up = pre.upto(r, b)
        if all(counts[nx] < pre.mu[nx] for nx in up):
            for nx in up:
                counts[nx] += 1
            out.append(r)
    return out


def padded_brank_by_ids(inst, opts, element_id, node_id):
    """Reference padded backward rank in id space: the node's optimum
    elements (``opts`` from ``reference_sets(inst, None, padding=False)``)
    lighter than the element, plus one per unfilled capacity slot."""
    opt = opts[node_id]
    key = inst.key(element_id)
    below = sum(1 for eid in opt if inst.key(eid) > key)
    deficit = inst.node(node_id).capacity - len(opt)
    return below + deficit


def allkicked_frequency_by_trace(inst, p, trials, master_seed, *, padding=True):
    """Reference eviction-failure frequencies rebuilt from the event trace of
    ``run_kicknext``: an optimum element hits at a node when the evictions
    before its arrival removed every initial reference element lighter than
    it."""
    params = theory_params(p)
    root = inst.root_id
    opt = greedy_opt(inst, None, root)
    chains = {eid: path_up(inst, inst.membership[eid], root) for eid in opt.elements}
    hits = defaultdict(int)
    seen = defaultdict(int)
    ids = inst.pre().ids_by_rank
    for in_s, order in trials_by_prefix(inst.n, p, master_seed, 0, trials):
        sample = frozenset(eid for eid, s in zip(ids, in_s) if s)
        trial = Trial(master_seed, p, sample, tuple(ids[r] for r in order))
        res = run_kicknext(inst, trial, padding=padding)
        arrived = {eid: s for s, eid in enumerate(trial.arrival_order)}
        ev_by_node = defaultdict(list)
        for ev in res.events:
            if ev.action == "accept":
                ev_by_node[ev.node].append((ev.step, inst.key(ev.evicted)))
        for eid in opt.elements:
            step_i = arrived.get(eid)
            if step_i is None:
                continue  # sampled, not conditioned on
            seen[eid] += 1
            key = inst.key(eid)
            for nid in chains[eid]:
                init_below = sum(1 for x in res.initial_refsets[nid] if inst.key(x) > key)
                gone = sum(1 for s, k in ev_by_node[nid] if s < step_i and k > key)
                if gone == init_below:
                    hits[(eid, nid)] += 1
    rows = []
    for eid in opt.elements:
        ncond = seen[eid]
        for nid in chains[eid]:
            d = brank(inst, eid, nid, None)
            freq = hits[(eid, nid)] / ncond if ncond else 0.0
            se = math.sqrt(freq * (1.0 - freq) / ncond) if ncond else 0.0
            rows.append(AllKickedRow(eid, nid, d, ncond, freq, se, allkicked_bound(params, d)))
    return rows


def qualifies_by_ids(inst, element_id, node_id, refsets):
    """Reference for ``kicknext.qualifies`` in id space: the element outweighs,
    by ``inst.key``, the lightest reference element at every node on its
    parent-link path up to ``node_id``; empty reference sets disqualify."""
    path = path_up(inst, inst.membership[element_id], node_id)
    if path is None:
        raise InstanceError(f"element {element_id} is not contained in node {node_id}")
    key = inst.key(element_id)
    for nid in path:
        ids = refsets.get(nid, ())
        if not ids:
            return False
        lightest = max(inst.key(x) for x in ids)
        if not lightest > key:
            return False
    return True


def qualifying_counts_by_ids(inst, node_id, element_id, sample):
    """Reference qualifying counts in id space, from ``reference_sets`` and
    ``qualifies_by_ids``: per reference slot (lightest first), the selection-phase
    elements other than ``element_id`` that qualify for the node and fall
    strictly between consecutive reference elements by weight."""
    refs = reference_sets(inst, sample, padding=True)
    capacity = inst.node(node_id).capacity
    got = [0] * capacity  # one slot per unit of capacity
    sample = set(sample)
    real = [inst.key(x) for x in refs[node_id] if x in inst.membership]  # virtual ids are in no node
    for x in inst.members(node_id):
        if x == element_id or x in sample:
            continue
        if not qualifies_by_ids(inst, x, node_id, refs):
            continue
        kx = inst.key(x)
        # reference slots strictly lighter: the lighter real elements, and
        # one virtual per capacity slot that no real element fills
        j = sum(1 for k in real if k > kx) + capacity - len(real)
        got[j - 1] += 1  # qualifying implies j >= 1
    return got


def dominance_by_scan(inst, trials):
    """Reference for ``experiments._Dominance``: the backward-rank dominance
    checks by a scan of every node's members, heaviest first, on every
    trial.  ``trials`` holds (in_s, refs) pairs, refs padded.  A sample
    backward rank counts the list's real entries lighter than the member
    and one virtual per capacity slot that no real entry fills.  Returns
    (weak_witness, member_witness, strict_violations, strict_example)."""
    pre = inst.pre()
    opt = _global_optima(pre)
    ids = pre.ids_by_rank
    members = [pre.members(b) for b in range(len(pre.node_ids))]
    bu_by_node = [[_global_brank(pre, opt, b, r) for r in rs] for b, rs in enumerate(members)]
    in_opt_by_node = [set(rs) for rs in opt]
    weak_witness = member_witness = strict_example = ""
    strict_violations = 0
    for t_idx, (in_s, refs) in enumerate(trials):
        for b, nid in enumerate(pre.node_ids):
            real = [x for x in refs[b] if x < pre.n_real]
            virtual = pre.mu[b] - len(real)
            in_opt = in_opt_by_node[b]
            for r, bu in zip(members[b], bu_by_node[b]):
                bs = sum(1 for x in real if x > r) + virtual
                if bs < bu and not weak_witness:
                    weak_witness = f"trial {t_idx}, element {ids[r]}, node {nid}: {bs} < {bu}"
                if in_s[r]:
                    continue
                if r in in_opt:
                    if bs < bu + 1 and not member_witness:
                        member_witness = (f"trial {t_idx}, element {ids[r]}, node {nid}: "
                                          f"{bs} < {bu}+1")
                elif bs < bu + 1:
                    strict_violations += 1
                    if not strict_example:
                        strict_example = f"trial {t_idx}, element {ids[r]}, node {nid}"
    return weak_witness, member_witness, strict_violations, strict_example


def exact_expectation_by_permutations(inst, p, *, padding=True):
    """Reference for ``exact.exact_expectation``: every sample split in the
    same order, and within a split a ``run_weight_by_lists`` walk of every
    arrival order.
    Returns (expected_weight, total_probability)."""
    pre = inst.pre()
    n = pre.n_real
    contribs = []
    probs = []
    for mask in range(1 << n):  # set bit r: rank r arrives in the selection phase
        t_ranks = [r for r in range(n) if (mask >> r) & 1]
        t = len(t_ranks)
        prob = (1.0 - p) ** (n - t) * p ** t
        probs.append(prob)
        if t == 0:
            continue
        in_s = [not ((mask >> r) & 1) for r in range(n)]
        template = ref_lists_by_full_pass(pre, in_s, padding)
        share = prob / math.factorial(t)
        acc = [
            run_weight_by_lists(pre, [list(x) for x in template], perm)
            for perm in permutations(t_ranks)
        ]
        contribs.append(share * math.fsum(acc))
    return math.fsum(contribs), math.fsum(probs)


def _canonical_by_tuples(pre, remaining, refs):
    """The canonical form of a tuple state, as ``exact`` makes each bit
    state canonical: a rank whose minimal node holds no lighter entry
    leaves the arrivals, then each node's list drops its entries up to the
    least rank still to come whose chain holds the node, or all of them
    when no such rank passes it.  Returns (live ranks, lists)."""
    live = remaining
    for r in range(pre.n_real):
        if remaining >> r & 1:
            R = refs[pre.chain_by_rank[r][0]]
            if bisect_right(R, r) == len(R):
                live ^= 1 << r
    least = [None] * len(refs)
    for r in reversed(range(pre.n_real)):
        if live >> r & 1:
            for b in pre.chain_by_rank[r]:
                least[b] = r
    return live, tuple(() if q is None else R[bisect_right(R, q):] for R, q in zip(refs, least))


def _expected_rest_by_tuples(pre, remaining, refs, memo):
    """The recursion of ``exact_expectation_by_tuples``, as
    ``exact._expected_rest`` recurses on bits: the state is (arrivals still
    to come, padded reference lists as rank tuples), and the KickNext step
    slices a new tuple for every node it passes.  Each state is made
    canonical (``_canonical_by_tuples``) before its lookup, and the memo
    holds canonical keys only; a state with no live rank is worth 0.0 and
    is not stored."""
    key = _canonical_by_tuples(pre, remaining, refs)
    remaining, refs = key
    if not remaining:
        return 0.0
    value = memo.get(key)
    if value is not None:
        return value
    w = pre.w_by_rank
    acc = []
    bits = remaining
    while bits:
        low = bits & -bits
        bits ^= low
        r = low.bit_length() - 1
        after = list(refs)
        for b in pre.chain_by_rank[r]:
            R = after[b]
            i = bisect_right(R, r)
            if i == len(R):
                break
            after[b] = R[:i] + R[i + 1:]
        else:
            acc.append(w[r])
        if remaining != low:
            acc.append(_expected_rest_by_tuples(pre, remaining ^ low, tuple(after), memo))
    value = math.fsum(acc) / remaining.bit_count()
    memo[key] = value
    return value


def enum_states_by_lists(pre, padding):
    """Reference for ``exact._enum_states``: the same steps and start
    states, a node's homed ranks found by a scan of every rank's minimal
    node, and each start state ORed together one bit per entry of the
    split's reference lists from one full list pass
    (``ref_lists_by_full_pass``, unpadded), plus the fill of the slots after
    the node's real entries."""
    n = pre.n_real
    slots = pre.slots
    offset = []
    top = n
    for v in slots:
        offset.append(top)
        top += n + v
    fill = [[((1 << v) - (1 << k)) << (o + n) if padding else 0 for k in range(v + 1)]
            for v, o in zip(slots, offset)]
    steps = [tuple((((1 << n + slots[b]) - (2 << r)) << offset[b],
                    sum(1 << q for q in range(n) if pre.chain_by_rank[q][0] == b),
                    offset[b], (1 << n + slots[b]) - 1) for b in ch)
             for r, ch in enumerate(pre.chain_by_rank)]
    starts = [0]  # the split with no arrival has nothing to recurse on
    for mask in range(1, 1 << n):  # set bit r: rank r arrives in the selection phase
        state = mask
        refs = ref_lists_by_full_pass(pre, [not ((mask >> r) & 1) for r in range(n)], False)
        for R, o, f in zip(refs, offset, fill):
            for r in R:
                state |= 1 << (o + r)
            state |= f[len(R)]
        starts.append(state)
    return steps, starts


def exact_expectation_by_tuples(inst, p, *, padding=True):
    """Reference for ``exact.exact_expectation`` with the same splits, the
    same recursion order and the same sums (``exact._expected_splits``),
    on tuple states.  Returns
    (expected_weight, total_probability, memo_size)."""
    pre = inst.pre()
    n = pre.n_real
    contribs = []
    probs = []
    memo = {}
    for mask in range(1 << n):  # set bit r: rank r arrives in the selection phase
        t = mask.bit_count()
        prob = (1.0 - p) ** (n - t) * p ** t
        probs.append(prob)
        if t == 0:
            continue
        in_s = [not ((mask >> r) & 1) for r in range(n)]
        refs = tuple(map(tuple, ref_lists_by_full_pass(pre, in_s, padding)))
        contribs.append(prob * _expected_rest_by_tuples(pre, mask, refs, memo))
    return math.fsum(contribs), math.fsum(probs), len(memo)


def enumerable_suite():
    """Twenty enumeration-friendly instances (n <= 7) across all families."""
    specs = [
        GenSpec("uniform", 4, 101, "uniform", rank=1),
        GenSpec("uniform", 5, 102, "exponential", rank=2),
        GenSpec("uniform", 6, 103, "power_law", rank=3),
        GenSpec("uniform", 7, 104, "near_ties", rank=2),
        GenSpec("uniform", 7, 105, "uniform", rank=4),
        GenSpec("partition", 5, 106, "uniform", parts=2),
        GenSpec("partition", 6, 107, "exponential", parts=3),
        GenSpec("partition", 7, 108, "uniform", parts=2, part_capacity=2),
        GenSpec("partition", 7, 109, "near_ties", parts=3),
        GenSpec("chain", 5, 110, "uniform", depth=2),
        GenSpec("chain", 6, 111, "exponential", depth=3),
        GenSpec("chain", 7, 112, "uniform", depth=3),
        GenSpec("chain", 7, 113, "power_law", depth=2),
        GenSpec("chain", 6, 114, "near_ties", depth=2),
        GenSpec("random_tree", 6, 115),
        GenSpec("random_tree", 7, 116, "exponential"),
        GenSpec("random_tree", 7, 117, "near_ties"),
        GenSpec("random_tree", 6, 118, "power_law"),
        GenSpec("random_tree", 7, 119),
        GenSpec("random_tree", 5, 120, "uniform"),
    ]
    return [generate(s) for s in specs]


def replay_events(inst, result):
    """Re-derive the reference-set evolution from the event log.

    Asserts, at every accept, that the evicted element was the heaviest
    reference element strictly lighter than the arrival, and at every break
    that no lighter reference element remained.  ``result.breaks`` must
    hold one record per break event, at its node and step, counting the
    node's initial reference elements lighter than the arrival.  Returns
    the reconstructed final reference sets.
    """
    assert result.events is not None, "replay needs a traced run"
    refs = {nid: list(ids) for nid, ids in result.initial_refsets.items()}
    breaks = {}
    for ev in result.events:
        key = inst.key(ev.element)
        below = [x for x in refs[ev.node] if inst.key(x) > key]
        if ev.action == "accept":
            assert below, "accepted with no lighter reference element"
            heaviest_below = min(below, key=inst.key)
            assert ev.evicted == heaviest_below, "evicted element was not the heaviest below"
            refs[ev.node].remove(ev.evicted)
        else:
            assert ev.action == "break"
            assert not below, "broke while a lighter reference element remained"
            initial = result.initial_refsets[ev.node]
            breaks[ev.element] = (ev.node, ev.step,
                                  sum(1 for x in initial if inst.key(x) > key))
    assert {e: (b.node, b.step, b.initial_below) for e, b in result.breaks.items()} == breaks
    for nid, ids in result.final_refsets.items():
        assert sorted(refs[nid]) == sorted(ids)
    return refs


def check_run_invariants(inst, result):
    """Structural invariants every run must satisfy."""
    from laminar_secretary import is_independent

    assert is_independent(inst, result.sol_root)
    members = {nid: inst.members(nid) for nid in (nd.id for nd in inst.nodes)}
    for nd in inst.nodes:
        sol_b = result.sol_per_node[nd.id]
        assert len(sol_b) <= nd.capacity
        # conservation: every acceptance at a node evicted exactly one element
        assert len(result.initial_refsets[nd.id]) - len(result.final_refsets[nd.id]) == len(sol_b)
        # root acceptance implies acceptance at every node on the chain
        assert set(result.sol_root) & members[nd.id] <= set(sol_b)
