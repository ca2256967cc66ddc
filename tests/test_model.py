import contextlib
import io
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from laminar_secretary import (
    Element,
    FamilyNode,
    GenSpec,
    InstanceError,
    dump_instance,
    exact_expectation,
    exact_ratio,
    generate,
    greedy_opt,
    is_independent,
    load_instance,
    make_instance,
    make_trial,
    monte_carlo_ratio,
    normalize_family,
    order_key,
    qualifies,
    reference_sets,
    verify_report,
)

import laminar_secretary.cli as cli
import laminar_secretary.model as model
from laminar_secretary.matroid import _global_optima
from laminar_secretary.theory import _global_brank, _padded_brank

from helpers import (
    FAMILY_OR_SHAPED,
    FOUR_ELEMENT_TEXT,
    corrupt_four_element,
    dump_instance_by_json,
    family_instance,
    four_element,
    instance_doc,
    load_instance_by_key_parse,
    path_up,
    rank_tables_by_elements,
    ref_lists_by_full_pass,
    tree,
)


def _doc(**overrides):
    doc = json.loads(FOUR_ELEMENT_TEXT)
    doc.update(overrides)
    return json.dumps(doc)


class TestLoad:
    def test_four_element_shape(self):
        inst = four_element()
        assert inst.n == 4
        assert len(inst.nodes) == 2
        assert inst.root_id == 0
        assert inst.minimal_node(0) == 1
        assert inst.members(1) == {0, 1}
        assert inst.members(0) == {0, 1, 2, 3}

    def test_round_trip(self):
        text = dump_instance(four_element())
        assert dump_instance(load_instance(text)) == text

    def test_multiple_roots(self):
        bad = _doc(nodes=[
            {"id": 0, "capacity": 3, "parent": None},
            {"id": 1, "capacity": 1, "parent": None},
        ])
        with pytest.raises(InstanceError, match="multiple roots"):
            load_instance(bad)

    def test_zero_capacity(self):
        bad = _doc(nodes=[
            {"id": 0, "capacity": 3, "parent": None},
            {"id": 1, "capacity": 0, "parent": 0},
        ])
        with pytest.raises(InstanceError, match="non-positive capacity"):
            load_instance(bad)

    def test_duplicate_element_id(self):
        bad = _doc(elements=[{"id": 0, "weight": 1}, {"id": 0, "weight": 2}],
                   membership={"0": 0})
        with pytest.raises(InstanceError, match="duplicate element id 0"):
            load_instance(bad)

    def test_membership_unknown_node(self):
        bad = _doc(membership={"0": 1, "1": 1, "2": 0, "3": 9})
        with pytest.raises(InstanceError, match="unknown node 9"):
            load_instance(bad)

    def test_membership_missing_element(self):
        bad = _doc(membership={"0": 1, "1": 1, "2": 0})
        with pytest.raises(InstanceError, match="element 3 not assigned"):
            load_instance(bad)

    def test_cycle_in_parents(self):
        bad = _doc(nodes=[
            {"id": 0, "capacity": 5, "parent": None},
            {"id": 1, "capacity": 3, "parent": 2},
            {"id": 2, "capacity": 2, "parent": 1},
        ])
        with pytest.raises(InstanceError, match="cycle"):
            load_instance(bad)

    def test_cycle_names_the_first_node_the_root_misses(self):
        # node 7 hangs below the cycle 1 -> 2 -> 1 and comes first in the input
        bad = _doc(nodes=[
            {"id": 7, "capacity": 1, "parent": 2},
            {"id": 0, "capacity": 5, "parent": None},
            {"id": 1, "capacity": 3, "parent": 2},
            {"id": 2, "capacity": 2, "parent": 1},
        ])
        with pytest.raises(InstanceError, match=r"^node 7: cycle in parent links$"):
            load_instance(bad)

    def test_non_positive_weight(self):
        bad = _doc(elements=[{"id": 0, "weight": 0.0}], membership={"0": 0})
        with pytest.raises(InstanceError, match="non-positive weight"):
            load_instance(bad)

    def test_malformed_text(self):
        with pytest.raises(InstanceError, match="malformed"):
            load_instance("{not json")
        with pytest.raises(InstanceError, match="missing field"):
            load_instance("{}")

    def test_deeply_nested_text(self):
        # the JSON decoder recurses once per level and runs out of stack
        with pytest.raises(InstanceError, match="malformed instance text"):
            load_instance("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("name", [[1, 2], None, 7, 1.5, True, {"a": 1}])
    def test_non_string_name(self, name):
        with pytest.raises(InstanceError, match="name must be a string"):
            load_instance(_doc(name=name))


class _NoScan(tuple):
    def __iter__(self):
        raise AssertionError("the node list was scanned")


class TestLookups:
    def test_node_is_indexed(self):
        inst = four_element()
        inst.pre()
        inst.nodes = _NoScan(inst.nodes)
        assert inst.node(1).capacity == 1 and inst.node(0).parent is None

    def test_unknown_node(self):
        inst = four_element()
        with pytest.raises(InstanceError, match="unknown node id 99"):
            inst.node(99)
        with pytest.raises(InstanceError, match="unknown node id 99"):
            inst.members(99)

    def test_element_is_the_stored_one(self):
        inst = four_element()
        for e in inst.elements:
            assert inst.element(e.id) == e
        with pytest.raises(InstanceError, match="unknown element id 99"):
            inst.element(99)


INT_FIELDS = ("element id", "node id", "capacity", "parent", "membership")
NOT_AN_INTEGER = st.one_of(
    st.booleans(),
    st.text(),
    st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not x.is_integer()),
)
NOT_A_WEIGHT = st.one_of(
    st.booleans(),
    st.text(),
    st.sampled_from([math.inf, -math.inf, math.nan, 10 ** 400]),
)


class TestLoadRejects:
    """Bad numbers fail loudly instead of being coerced."""

    @given(st.sampled_from(INT_FIELDS), NOT_AN_INTEGER)
    def test_non_integer_fields(self, field, value):
        with pytest.raises(InstanceError):
            load_instance(corrupt_four_element(field, value))

    @given(NOT_A_WEIGHT)
    def test_bad_weights(self, value):
        with pytest.raises(InstanceError):
            load_instance(corrupt_four_element("weight", value))

    @pytest.mark.parametrize("field,value,message", [
        ("capacity", 2.7, "capacity must be an integer, got 2.7"),
        ("capacity", True, "capacity must be an integer, got True"),
        ("weight", True, "weight must be a number, got True"),
        ("weight", math.inf, "non-finite weight inf"),
        ("weight", math.nan, "non-finite weight nan"),
    ])
    def test_messages(self, field, value, message):
        with pytest.raises(InstanceError, match=message):
            load_instance(corrupt_four_element(field, value))

    @pytest.mark.parametrize("key", ["01", " 0", "0.0", "x"])
    def test_non_canonical_membership_key(self, key):
        doc = json.loads(FOUR_ELEMENT_TEXT)
        doc["membership"][key] = doc["membership"].pop("0")
        with pytest.raises(InstanceError, match="membership key"):
            load_instance(json.dumps(doc))

    def test_integral_float_is_an_integer(self):
        inst = load_instance(corrupt_four_element("capacity", 1.0))
        assert inst.node(1).capacity == 1 and isinstance(inst.node(1).capacity, int)

    def test_make_instance_checks_too(self):
        with pytest.raises(InstanceError, match="non-finite weight"):
            make_instance("x", [Element(0, math.inf)], [FamilyNode(0, 1, None)], {0: 0})
        with pytest.raises(InstanceError, match="non-finite weight"):
            make_instance("x", [Element(0, 10 ** 400)], [FamilyNode(0, 1, None)], {0: 0})
        with pytest.raises(InstanceError, match="capacity must be an integer"):
            make_instance("x", [Element(0, 1.0)], [FamilyNode(0, 1.5, None)], {0: 0})

    def test_make_instance_checks_ids_before_sorting(self):
        elements = [Element(1, 1.0), Element("0", 2.0)]
        with pytest.raises(InstanceError, match="element id must be a non-negative integer: '0'"):
            make_instance("x", elements, [FamilyNode(0, 1, None)], {1: 0, "0": 0})

    def test_make_instance_refuses_a_string_weight(self):
        with pytest.raises(InstanceError, match="element 0: weight must be a number, got '2.5'"):
            make_instance("x", [Element(0, "2.5")], [FamilyNode(0, 1, None)], {0: 0})

    def test_make_instance_refuses_a_bool_weight(self):
        with pytest.raises(InstanceError, match="element 0: weight must be a number, got True"):
            make_instance("x", [Element(0, True)], [FamilyNode(0, 1, None)], {0: 0})


@given(st.sampled_from(("uniform", "partition", "chain", "random_tree")),
       st.sampled_from(("uniform", "exponential", "power_law", "near_ties")),
       st.integers(1, 30), st.integers(0, 10_000))
def test_dump_load_round_trip(family, weights, n, seed):
    inst = generate(GenSpec(family, n, seed, weights))
    text = dump_instance(inst)
    back = load_instance(text)
    assert dump_instance(back) == text
    assert back.elements == inst.elements and back.membership == inst.membership


# the extremes of the float range, a float whose repr is short but not
# exact, and int weights, which ``make_instance`` keeps as given
EDGE_WEIGHTS = (5e-324, 1e-300, 0.1, 1e16, 1.7976931348623157e308, 1, 7, 10 ** 300)
EDGE_NAMES = ('say "hi"', "back\\slash", "\x00\x1f\x7f\n\t", "Kettenbr\u00fcche \u03bb \u4e2d",
              "lone \ud800 surrogate", "\udfff", "\U0001f600", "")
SURROGATES = st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=("Cs",))


def holds_surrogate_pair(name):
    """True iff a high surrogate is directly followed by a low one, which
    JSON writes as an escaped pair that loads back as one character."""
    return any(0xD800 <= ord(a) <= 0xDBFF and 0xDC00 <= ord(b) <= 0xDFFF
               for a, b in zip(name, name[1:]))


@st.composite
def written_instances(draw):
    """``make_instance``'s arguments for the writer: one node, a deep chain
    or a random tree, sparse node and element ids up to 10^6 in no order,
    weights of every magnitude, floats or ints, and any name, surrogates
    included."""
    size = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(("deep", "random")))
    node_ids = draw(st.lists(st.integers(0, 10 ** 6), min_size=size, max_size=size, unique=True))
    parents = [None] + [i - 1 if shape == "deep" else draw(st.integers(0, i - 1))
                        for i in range(1, size)]
    nodes = [FamilyNode(nid, draw(st.integers(1, 10 ** 6)), None if q is None else node_ids[q])
             for nid, q in zip(node_ids, parents)]
    eids = draw(st.lists(st.integers(0, 10 ** 6), max_size=25, unique=True))
    weight = st.one_of(st.sampled_from(EDGE_WEIGHTS),
                       st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
                       st.integers(1, 10 ** 308))
    elements = [Element(e, draw(weight)) for e in eids]
    membership = {e: draw(st.sampled_from(node_ids)) for e in eids}
    name = draw(st.one_of(st.sampled_from(EDGE_NAMES), st.text(),
                          st.text(st.one_of(SURROGATES, st.characters(max_codepoint=0x7F)))))
    return name, elements, nodes, membership


class TestWriter:
    """``dump_instance`` writes the text of ``json.dumps(doc, sort_keys=True,
    indent=1)`` without ``json``'s encoder."""

    @given(written_instances())
    def test_same_text_as_json_dumps(self, args):
        # a name is refused, or its instance round-trips
        name = args[0]
        try:
            inst = make_instance(*args)
        except InstanceError as err:
            assert holds_surrogate_pair(name) and "surrogate pair" in str(err)
            return
        assert not holds_surrogate_pair(name)
        text = dump_instance(inst)
        assert text == dump_instance_by_json(inst)
        assert json.loads(text) == instance_doc(inst)
        assert load_instance(text).name == name

    @pytest.mark.parametrize("weight", EDGE_WEIGHTS)
    @pytest.mark.parametrize("name", EDGE_NAMES)
    def test_edge_weights_and_names(self, weight, name):
        inst = make_instance(name, [Element(9, weight), Element(10, 2.5)],
                             [FamilyNode(10 ** 6, 1, None)], {10: 10 ** 6, 9: 10 ** 6})
        text = dump_instance(inst)
        assert text == dump_instance_by_json(inst)
        assert json.loads(text) == instance_doc(inst)

    def test_empty_columns(self):
        inst = make_instance("none", [], [FamilyNode(0, 1, None)], {})
        assert dump_instance(inst) == dump_instance_by_json(inst)
        assert '"elements": [],' in dump_instance(inst)
        assert '"membership": {},' in dump_instance(inst)


class TestNormalize:
    def test_removes_equal_capacity_child(self):
        inst = tree(
            "redundant",
            [(0, 3, None), (1, 3, 0)],
            {0: 1, 1: 1, 2: 0},
            [4.0, 3.0, 2.0],
        )
        norm = normalize_family(inst)
        assert [nd.id for nd in norm.nodes] == [0]
        assert norm.membership == {0: 0, 1: 0, 2: 0}

    def test_identity_on_monotone(self):
        inst = four_element()
        assert dump_instance(normalize_family(inst)) == dump_instance(inst)

    def test_chain_5_2_4(self):
        # capacities 5 (root) -> 2 -> 4: the innermost node is dominated by
        # its parent (4 >= 2) and must go; the middle one stays.
        inst = tree(
            "path524",
            [(0, 5, None), (1, 2, 0), (2, 4, 1)],
            {0: 2, 1: 1, 2: 0},
            [3.0, 2.0, 1.0],
        )
        # independent oracle: pairwise ancestor scan on the raw tree
        parents = {0: None, 1: 0, 2: 1}
        caps = {0: 5, 1: 2, 2: 4}
        expect_removed = set()
        for nid in caps:
            anc = parents[nid]
            while anc is not None:
                if caps[anc] <= caps[nid]:
                    expect_removed.add(nid)
                    break
                anc = parents[anc]
        assert expect_removed == {2}

        norm = normalize_family(inst)
        assert {nd.id for nd in norm.nodes} == {0, 1}
        assert norm.membership[0] == 1  # re-mapped to the removed node's parent

    def test_preserves_feasible_sets(self):
        inst = tree(
            "messy",
            [(0, 4, None), (1, 5, 0), (2, 2, 1), (3, 2, 2), (4, 1, 0)],
            {0: 3, 1: 3, 2: 2, 3: 1, 4: 4, 5: 0},
            [6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
        )
        norm = normalize_family(inst)
        ids = sorted(inst.element_ids())
        for mask in range(1 << len(ids)):
            subset = {ids[i] for i in range(len(ids)) if (mask >> i) & 1}
            assert is_independent(inst, subset) == is_independent(norm, subset)

    def test_keeps_the_optimum_but_changes_the_run(self):
        # node 1 has the root's capacity, so it binds nothing, but its
        # reference list is one more step of every walk from inside it
        inst = tree("nested", [(0, 2, None), (1, 2, 0)], {0: 1, 1: 1, 2: 1, 3: 0, 4: 1},
                    [5.0, 4.0, 3.0, 2.0, 1.0])
        norm = normalize_family(inst)
        assert [nd.id for nd in norm.nodes] == [0]
        assert greedy_opt(norm, None, 0).weight == greedy_opt(inst, None, 0).weight == 9.0
        assert exact_ratio(inst, 0.2) == pytest.approx(0.2021925925925926, abs=1e-12)
        assert exact_ratio(norm, 0.2) == pytest.approx(0.2054162962962963, abs=1e-12)

    @pytest.mark.parametrize("build", [
        four_element,  # nothing to remove
        lambda: tree("messy", [(0, 4, None), (1, 5, 0), (2, 2, 1), (3, 2, 2), (4, 1, 0)],
                     {0: 3, 1: 3, 2: 2, 3: 1, 4: 4, 5: 0}, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
    ], ids=["monotone", "messy"])
    def test_builds_no_element(self, build, monkeypatch):
        # the columns go straight to the validator; each call gets a new
        # instance, whose Element tuple is not built yet
        want = dump_instance(normalize_family(build()))

        def refuse(*args, **kwargs):
            raise AssertionError("an Element was built")

        monkeypatch.setattr(model, "Element", refuse)
        assert dump_instance(normalize_family(build())) == want

    @given(st.integers(0, 10_000))
    def test_idempotent(self, seed):
        import random

        rnd = random.Random(seed)
        n_nodes = rnd.randint(1, 7)
        node_specs = [(0, rnd.randint(1, 9), None)]
        for nid in range(1, n_nodes):
            node_specs.append((nid, rnd.randint(1, 9), rnd.randrange(nid)))
        n = rnd.randint(1, 8)
        membership = {i: rnd.randrange(n_nodes) for i in range(n)}
        weights = [rnd.randint(1, 5) * 1.0 for _ in range(n)]
        inst = tree(f"h{seed}", node_specs, membership, weights)
        once = normalize_family(inst)
        twice = normalize_family(once)
        assert dump_instance(once) == dump_instance(twice)
        # strict monotonicity toward the root afterwards
        caps = {nd.id: nd.capacity for nd in once.nodes}
        parents = {nd.id: nd.parent for nd in once.nodes}
        for nid, par in parents.items():
            while par is not None:
                assert caps[par] > caps[nid]
                par = parents[par]


class TestChain:
    def test_capacities_increase_along_chains(self):
        for seed in range(25):
            inst = generate(GenSpec("random_tree", n=6, seed=seed))
            pre = inst.pre()
            for eid in inst.element_ids():
                caps = [pre.mu[b] for b in pre.chain_by_rank[pre.rank_of(eid)]]
                assert caps == sorted(caps) and len(set(caps)) == len(caps)


class TestTreeTables:
    """Every tree table comes from one walk down from the root."""

    @settings(max_examples=150, deadline=None)
    @given(FAMILY_OR_SHAPED)
    def test_against_parent_pointers(self, inst):
        pre = inst.pre()
        n_nodes = len(inst.nodes)
        parent = [-1 if nd.parent is None else pre.node_index[nd.parent] for nd in inst.nodes]
        assert sorted(pre.bottom_up) == list(range(n_nodes))
        place = {x: i for i, x in enumerate(pre.bottom_up)}
        paths = []
        for x in range(n_nodes):
            up = [x]
            while parent[up[-1]] >= 0:
                up.append(parent[up[-1]])
            paths.append(tuple(up))
            assert pre.depth[x] == len(up) - 1
            assert pre.children_idx[x] == tuple(c for c in range(n_nodes) if parent[c] == x)
            if parent[x] >= 0:
                assert place[x] < place[parent[x]]
        for r, eid in enumerate(pre.ids_by_rank):  # a rank's chain is its minimal node's
            assert pre.chain_by_rank[r] == paths[pre.node_index[inst.membership[eid]]]

    @settings(max_examples=150, deadline=None)
    @given(FAMILY_OR_SHAPED)
    def test_upto_and_members_against_parent_pointers(self, inst):
        pre = inst.pre()
        for b, nid in enumerate(pre.node_ids):
            inside = []
            for r, eid in enumerate(pre.ids_by_rank):
                path = path_up(inst, inst.membership[eid], nid)
                if path is None:
                    assert pre.upto(r, b) is None
                else:
                    assert pre.upto(r, b) == tuple(pre.node_index[x] for x in path)
                    inside.append(r)
            assert pre.members(b) == inside
            assert inst.members(nid) == {pre.ids_by_rank[r] for r in inside}

    def test_deep_chain_keeps_no_member_table(self):
        # one element per node of a 2000-node chain: the node chains take
        # about 16 MiB, and a per-ancestor member table would add as much
        size = 2000
        inst = make_instance(
            "deep", [Element(i, 1.0 + i) for i in range(size)],
            [FamilyNode(i, size - i, None if i == 0 else i - 1) for i in range(size)],
            {i: i for i in range(size)})
        tracemalloc.start()
        try:
            inst.pre()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    @settings(max_examples=60, deadline=None)
    @given(FAMILY_OR_SHAPED)
    def test_chain_slots_at_and_over_the_limit(self, inst):
        pre = inst.pre()
        slots = sum(d + 1 for d in pre.depth)  # one per (node, node on its chain)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "MAX_CHAIN_SLOTS", slots)
            fresh = make_instance(inst.name, inst.elements, inst.nodes, inst.membership)
            assert fresh.pre().chain_by_rank == pre.chain_by_rank
            mp.setattr(model, "MAX_CHAIN_SLOTS", slots - 1)
            fresh = make_instance(inst.name, inst.elements, inst.nodes, inst.membership)
            with pytest.raises(InstanceError, match="too deep"):
                fresh.pre()

    @settings(max_examples=150, deadline=None)
    @given(FAMILY_OR_SHAPED)
    def test_global_brank_is_the_padded_one(self, inst):
        pre = inst.pre()
        opt = _global_optima(pre)
        padded = ref_lists_by_full_pass(pre, [True] * pre.n_real, True)
        for b in range(len(pre.mu)):
            # the slots a list leaves out up to capacity are virtual
            assert len(padded[b]) == min(pre.mu[b], len(pre.members(b)))
            unfilled = pre.mu[b] - len(padded[b])
            for r in pre.members(b):
                assert _global_brank(pre, opt, b, r) == _padded_brank(padded[b], r) + unfilled


def _rank_tables(pre):
    return {key: getattr(pre, key) for key in
            ("n_real", "ids_by_rank", "w_by_rank", "rank_by_id", "max_id", "chain_by_rank")}


class TestRankTables:
    """``_Pre``'s rank tables, built from the id-ordered columns, against
    the ``Element``s sorted by ``order_key``."""

    GRID = [(family, weights, seed)
            for family in ("uniform", "partition", "chain", "random_tree")
            for weights in ("uniform", "exponential", "power_law", "near_ties")
            for seed in (1, 2)]

    @pytest.mark.parametrize("family,weights,seed", GRID)
    def test_loaded_from_shuffled_json(self, family, weights, seed):
        inst = generate(GenSpec(family, 40, seed, weights))
        doc = json.loads(dump_instance(inst))
        rnd = random.Random(seed)
        # sparse ids, listed out of order, and the membership out of order too
        for e in doc["elements"]:
            e["id"] = 3 * e["id"] + 5
        rnd.shuffle(doc["elements"])
        pairs = [(str(3 * int(k) + 5), v) for k, v in doc["membership"].items()]
        rnd.shuffle(pairs)
        doc["membership"] = dict(pairs)
        plain = load_instance(dump_instance(inst))
        assert _rank_tables(plain.pre()) == rank_tables_by_elements(
            inst.elements, inst.nodes, inst.membership)
        shuffled = load_instance(json.dumps(doc))
        assert _rank_tables(shuffled.pre()) == rank_tables_by_elements(
            [Element(e["id"], e["weight"]) for e in doc["elements"]], inst.nodes,
            {int(k): v for k, v in doc["membership"].items()})
        assert shuffled.ids == sorted(shuffled.ids)

    @pytest.mark.parametrize("family,weights,seed", GRID)
    def test_made_from_shuffled_elements(self, family, weights, seed):
        inst = generate(GenSpec(family, 40, seed, weights))
        rnd = random.Random(seed)
        elements = list(inst.elements)
        rnd.shuffle(elements)
        pairs = list(inst.membership.items())
        rnd.shuffle(pairs)
        made = make_instance(inst.name, elements, reversed(inst.nodes), dict(pairs))
        want = rank_tables_by_elements(elements, inst.nodes, inst.membership)
        assert _rank_tables(made.pre()) == want
        assert _rank_tables(inst.pre()) == want
        assert made.elements == inst.elements

    def test_ties_keep_id_order(self):
        inst = make_instance("ties", [Element(9, 2.0), Element(4, 2.0), Element(7, 3.0),
                                      Element(1, 2.0)], [FamilyNode(0, 2, None)],
                             {9: 0, 4: 0, 7: 0, 1: 0})
        assert inst.pre().ids_by_rank == [7, 1, 4, 9]


class TestLaminarity:
    def test_member_sets_nested_or_disjoint(self):
        for seed in range(20):
            inst = generate(GenSpec("random_tree", n=10, seed=seed))
            sets = [inst.members(nd.id) for nd in inst.nodes]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    a, b = sets[i], sets[j]
                    assert a <= b or b <= a or not (a & b)


class TestWeightOrder:
    def test_heavier_first_then_smaller_id(self):
        assert order_key(10.0, 3) < order_key(7.0, 0)
        assert order_key(5.0, 1) < order_key(5.0, 2)

    @given(st.lists(st.tuples(st.floats(0.001, 100), st.integers(0, 50)),
                    min_size=2, max_size=10, unique_by=lambda t: t[1]))
    def test_strict_total_order(self, pairs):
        keys = [order_key(w, i) for w, i in pairs]
        assert len(set(keys)) == len(keys)

    def test_equal_weights_are_legal_input(self):
        inst = tree("ties", [(0, 2, None)], {0: 0, 1: 0, 2: 0}, [5.0, 5.0, 5.0])
        assert inst.n == 3
        assert inst.key(0) < inst.key(1) < inst.key(2)


MEMBERSHIP_MUTATIONS = ("01", "+1", " 1", "1.0", "-0", "unknown id", "missing id", "extra key",
                        "null", "1.5", "true", "2.0", "duplicate id", "shuffle")


def _mutate(doc, mutation, rnd):
    """Apply one membership fault (or a harmless change) to a ``gen`` document."""
    members = doc["membership"]
    if not members:  # the keys were all dropped by earlier mutations
        return
    key = rnd.choice(sorted(members))
    if mutation in ("01", "+1", " 1", "1.0", "-0", "unknown id"):
        new = {"01": "0" + key, "+1": "+" + key, " 1": " " + key, "1.0": key + ".0",
               "-0": "-" + key, "unknown id": str(len(doc["elements"]) + 7)}[mutation]
        members[new] = members.pop(key)
    elif mutation == "missing id":
        del members[key]
    elif mutation == "extra key":
        members[rnd.choice(("x", "", str(len(doc["elements"]) + 3), key + " "))] = 0
    elif mutation == "duplicate id":
        i, j = rnd.randrange(len(doc["elements"])), rnd.randrange(len(doc["elements"]))
        doc["elements"][j]["id"] = doc["elements"][i]["id"]
    elif mutation == "shuffle":
        items = list(members.items())
        rnd.shuffle(items)
        doc["membership"] = dict(items)
    else:  # "2.0" keeps the node where it can: an integral float is legal
        node = members[key]
        members[key] = {"null": None, "1.5": 1.5, "true": True,
                        "2.0": float(node) if type(node) is int else 2.0}[mutation]


def _load_outcome(load, text):
    try:
        inst = load(text)
    except InstanceError as exc:
        return str(exc)
    return (inst.name, inst.ids, inst.weights, inst.nodes, inst.membership)


class TestMembershipRead:
    """``load_instance`` reads the membership by element id, falling back
    to parsing the keys; on any mutated membership it loads the instance
    that parsing every key loads, or fails with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(("uniform", "partition", "chain", "random_tree")),
           st.integers(1, 30), st.integers(0, 2**16),
           st.lists(st.sampled_from(MEMBERSHIP_MUTATIONS), max_size=3), st.randoms())
    def test_equals_the_key_parse(self, family, n, seed, mutations, rnd):
        doc = json.loads(dump_instance(family_instance(family, n, seed)))
        for mutation in mutations:
            _mutate(doc, mutation, rnd)
        text = json.dumps(doc)
        assert _load_outcome(load_instance, text) == _load_outcome(load_instance_by_key_parse, text)

    @pytest.mark.parametrize("mutation", MEMBERSHIP_MUTATIONS)
    def test_each_mutation(self, mutation):
        doc = json.loads(dump_instance(family_instance("random_tree", 12, 3)))
        _mutate(doc, mutation, random.Random(0))
        text = json.dumps(doc)
        assert _load_outcome(load_instance, text) == _load_outcome(load_instance_by_key_parse, text)


class TestRankByIdOnFirstLookup:
    """The id->rank table is built on the first lookup by id only: the
    rank-space runs and the CLI commands that make them, and CLI ``opt``,
    never read it."""

    @staticmethod
    def _loaded(family, n):
        return load_instance(dump_instance(family_instance(family, n, 5)))

    @pytest.mark.parametrize("family", ("uniform", "partition", "chain", "random_tree"))
    def test_runs_leave_it_unbuilt(self, family, tmp_path, monkeypatch):
        runs = [lambda inst: monte_carlo_ratio(inst, 0.08, 30, 1),
                lambda inst: exact_expectation(inst, 0.2),
                lambda inst: verify_report(inst, 0.08, 20, 1)]
        for run in runs:
            inst = self._loaded(family, 6)
            run(inst)
            assert inst.pre()._rank_by_id is None

        loaded = []

        def load(text):  # keeps the instance each CLI call loads
            loaded.append(load_instance(text))
            return loaded[-1]

        monkeypatch.setattr(cli, "load_instance", load)
        path = tmp_path / "inst.json"
        path.write_text(dump_instance(self._loaded(family, 6)))
        file = str(path)
        for argv in (["opt", file], ["exact", file], ["verify", file, "--trials", "20"],
                     ["montecarlo", file, "--trials", "20"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
            assert loaded[-1].pre()._rank_by_id is None

    @pytest.mark.parametrize("family", ("uniform", "partition", "chain", "random_tree"))
    def test_lookups_build_it(self, family):
        other = self._loaded(family, 17)
        oracle = rank_tables_by_elements(other.elements, other.nodes,
                                         other.membership)["rank_by_id"]
        refs = reference_sets(other, make_trial(other, 0.3, 2).sample_set)
        eid = 4
        lookups = [lambda inst: inst.pre().rank_of(eid), lambda inst: inst.key(eid),
                   lambda inst: qualifies(inst, eid, inst.membership[eid], refs)]
        for lookup in lookups:
            inst = self._loaded(family, 17)
            assert inst.pre()._rank_by_id is None
            lookup(inst)
            assert inst.pre()._rank_by_id == oracle
