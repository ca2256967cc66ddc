"""Every single-fault input to ``load_instance`` and ``make_instance``, with
the exact message it is refused with.

Each case breaks one rule of the instance format on an otherwise valid
instance, so the message is fixed whichever order the rules are checked
in.  The fault sits on a middle entry where it can, so a check that only
looks at the first or the last entry of a column does not pass.
"""

import copy
import json
import math

import pytest

from laminar_secretary import (
    Element,
    FamilyNode,
    GenSpec,
    InstanceError,
    dump_instance,
    generate,
    load_instance,
    make_instance,
)

DOC = {
    "name": "four",
    "elements": [{"id": 0, "weight": 10.0}, {"id": 1, "weight": 7.0},
                 {"id": 2, "weight": 5.0}, {"id": 3, "weight": 2.0}],
    "nodes": [{"id": 0, "capacity": 3, "parent": None},
              {"id": 1, "capacity": 1, "parent": 0}],
    "membership": {"0": 1, "1": 1, "2": 0, "3": 0},
}
DROP = object()
BIG = 10 ** 400


def _edited(path, value):
    doc = copy.deepcopy(DOC)
    *head, last = path
    owner = doc
    for key in head:
        owner = owner[key]
    if value is DROP:
        del owner[last]
    else:
        owner[last] = value
    return json.dumps(doc)


TEXT_CASES = [
    ("not-json", "{", "malformed instance text: Expecting property name enclosed in double "
                      "quotes: line 1 column 2 (char 1)"),
    ("top-level-list", "[]", "malformed instance text: top level must be an object"),
    ("top-level-number", "5", "malformed instance text: top level must be an object"),
    ("nested-too-deep", "[" * 100000, "malformed instance text: maximum recursion depth "
                                      "exceeded while decoding a JSON array from a unicode string"),
]

LOAD_CASES = [
    ("no-name", ("name",), DROP, "missing field 'name'"),
    ("no-elements", ("elements",), DROP, "missing field 'elements'"),
    ("no-nodes", ("nodes",), DROP, "missing field 'nodes'"),
    ("no-membership", ("membership",), DROP, "missing field 'membership'"),
    ("name-number", ("name",), 5, "name must be a string, got 5"),
    ("name-null", ("name",), None, "name must be a string, got None"),
    ("elements-number", ("elements",), 5, "malformed instance text: 'int' object is not iterable"),
    ("elements-null", ("elements",), None,
     "malformed instance text: 'NoneType' object is not iterable"),
    ("elements-string", ("elements",), "ab",
     "malformed instance text: string indices must be integers, not 'str'"),
    ("elements-object", ("elements",), {"a": 1},
     "malformed instance text: string indices must be integers, not 'str'"),
    ("elements-empty", ("elements",), [], "membership: unknown element 0"),
    ("element-number", ("elements", 1), 5,
     "malformed instance text: 'int' object is not subscriptable"),
    ("element-null", ("elements", 1), None,
     "malformed instance text: 'NoneType' object is not subscriptable"),
    ("element-string", ("elements", 1), "x",
     "malformed instance text: string indices must be integers, not 'str'"),
    ("element-list", ("elements", 1), [1, 7.0],
     "malformed instance text: list indices must be integers or slices, not str"),
    ("element-no-id", ("elements", 1, "id"), DROP, "malformed instance text: 'id'"),
    ("element-no-weight", ("elements", 1, "weight"), DROP, "malformed instance text: 'weight'"),
    ("id-true", ("elements", 1, "id"), True, "element id must be an integer, got True"),
    ("id-false", ("elements", 1, "id"), False, "element id must be an integer, got False"),
    ("id-string", ("elements", 1, "id"), "1", "element id must be an integer, got '1'"),
    ("id-fraction", ("elements", 1, "id"), 1.5, "element id must be an integer, got 1.5"),
    ("id-null", ("elements", 1, "id"), None, "element id must be an integer, got None"),
    ("id-nan", ("elements", 1, "id"), math.nan, "element id must be an integer, got nan"),
    ("id-inf", ("elements", 1, "id"), math.inf, "element id must be an integer, got inf"),
    ("id-list", ("elements", 1, "id"), [1], "element id must be an integer, got [1]"),
    ("id-negative", ("elements", 1, "id"), -1, "element id must be a non-negative integer: -1"),
    ("id-negative-float", ("elements", 1, "id"), -1.0,
     "element id must be a non-negative integer: -1"),
    ("id-duplicate", ("elements", 1, "id"), 0, "duplicate element id 0"),
    ("id-duplicate-float", ("elements", 1, "id"), 0.0, "duplicate element id 0"),
    ("id-last-duplicate", ("elements", 3, "id"), 2, "duplicate element id 2"),
    ("weight-true", ("elements", 2, "weight"), True,
     "element 2: weight must be a number, got True"),
    ("weight-false", ("elements", 2, "weight"), False,
     "element 2: weight must be a number, got False"),
    ("weight-string", ("elements", 2, "weight"), "5",
     "element 2: weight must be a number, got '5'"),
    ("weight-null", ("elements", 2, "weight"), None,
     "element 2: weight must be a number, got None"),
    ("weight-list", ("elements", 2, "weight"), [5], "element 2: weight must be a number, got [5]"),
    ("weight-zero", ("elements", 2, "weight"), 0, "element 2: non-positive weight 0.0"),
    ("weight-zero-float", ("elements", 2, "weight"), 0.0, "element 2: non-positive weight 0.0"),
    ("weight-minus-zero", ("elements", 2, "weight"), -0.0, "element 2: non-positive weight -0.0"),
    ("weight-negative", ("elements", 2, "weight"), -1, "element 2: non-positive weight -1.0"),
    ("weight-negative-float", ("elements", 2, "weight"), -2.5,
     "element 2: non-positive weight -2.5"),
    ("weight-nan", ("elements", 2, "weight"), math.nan, "element 2: non-finite weight nan"),
    ("weight-inf", ("elements", 2, "weight"), math.inf, "element 2: non-finite weight inf"),
    ("weight-minus-inf", ("elements", 2, "weight"), -math.inf,
     "element 2: non-positive weight -inf"),
    ("weight-huge-int", ("elements", 2, "weight"), BIG,
     f"element 2: non-finite weight {BIG}"),
    ("weight-huge-negative-int", ("elements", 2, "weight"), -BIG,
     f"element 2: non-finite weight {-BIG}"),
    ("weight-int-among-floats-zero", ("elements", 3, "weight"), 0,
     "element 3: non-positive weight 0.0"),
    ("weight-bad-float-id", ("elements", 2), {"id": 2.0, "weight": "x"},
     "element 2.0: weight must be a number, got 'x'"),
    ("weight-nan-float-id", ("elements", 2), {"id": 2.0, "weight": math.nan},
     "element 2: non-finite weight nan"),
    ("nodes-number", ("nodes",), 5, "malformed instance text: 'int' object is not iterable"),
    ("nodes-null", ("nodes",), None, "malformed instance text: 'NoneType' object is not iterable"),
    ("nodes-string", ("nodes",), "ab",
     "malformed instance text: string indices must be integers, not 'str'"),
    ("nodes-empty", ("nodes",), [], "no root node (empty family)"),
    ("node-number", ("nodes", 1), 5, "malformed instance text: 'int' object is not subscriptable"),
    ("node-null", ("nodes", 1), None,
     "malformed instance text: 'NoneType' object is not subscriptable"),
    ("node-list", ("nodes", 1), [1, 1, 0],
     "malformed instance text: list indices must be integers or slices, not str"),
    ("node-no-id", ("nodes", 1, "id"), DROP, "malformed instance text: 'id'"),
    ("node-no-capacity", ("nodes", 1, "capacity"), DROP, "malformed instance text: 'capacity'"),
    ("node-no-parent", ("nodes", 1, "parent"), DROP, "malformed instance text: 'parent'"),
    ("node-id-true", ("nodes", 1, "id"), True, "node id must be an integer, got True"),
    ("node-id-string", ("nodes", 1, "id"), "1", "node id must be an integer, got '1'"),
    ("node-id-fraction", ("nodes", 1, "id"), 1.5, "node id must be an integer, got 1.5"),
    ("node-id-null", ("nodes", 1, "id"), None, "node id must be an integer, got None"),
    ("node-id-negative", ("nodes", 1, "id"), -1, "node id must be a non-negative integer: -1"),
    ("node-id-duplicate", ("nodes", 1, "id"), 0, "duplicate node id 0"),
    ("capacity-fraction", ("nodes", 1, "capacity"), 2.7,
     "node 1: capacity must be an integer, got 2.7"),
    ("capacity-true", ("nodes", 1, "capacity"), True,
     "node 1: capacity must be an integer, got True"),
    ("capacity-string", ("nodes", 1, "capacity"), "1",
     "node 1: capacity must be an integer, got '1'"),
    ("capacity-null", ("nodes", 1, "capacity"), None,
     "node 1: capacity must be an integer, got None"),
    ("capacity-nan", ("nodes", 1, "capacity"), math.nan,
     "node 1: capacity must be an integer, got nan"),
    ("capacity-inf", ("nodes", 1, "capacity"), math.inf,
     "node 1: capacity must be an integer, got inf"),
    ("capacity-zero", ("nodes", 1, "capacity"), 0, "node 1: non-positive capacity"),
    ("capacity-negative", ("nodes", 1, "capacity"), -1, "node 1: non-positive capacity"),
    ("capacity-float-node-id", ("nodes", 1), {"id": 1.0, "capacity": 2.7, "parent": 0},
     "node 1.0: capacity must be an integer, got 2.7"),
    ("parent-string", ("nodes", 1, "parent"), "0", "node 1: parent must be an integer, got '0'"),
    ("parent-true", ("nodes", 1, "parent"), True, "node 1: parent must be an integer, got True"),
    ("parent-fraction", ("nodes", 1, "parent"), 0.5, "node 1: parent must be an integer, got 0.5"),
    ("parent-nan", ("nodes", 1, "parent"), math.nan, "node 1: parent must be an integer, got nan"),
    ("parent-unknown", ("nodes", 1, "parent"), 5, "node 1: unknown parent 5"),
    ("parent-negative", ("nodes", 1, "parent"), -1, "node 1: unknown parent -1"),
    ("parent-self", ("nodes", 1, "parent"), 1, "node 1: cycle in parent links"),
    ("two-roots", ("nodes", 1, "parent"), None, "multiple roots (nodes 0 and 1)"),
    ("no-root", ("nodes", 0, "parent"), 1, "no root node"),
    ("cycle-below-root", ("nodes",), [
        {"id": 0, "capacity": 3, "parent": None}, {"id": 1, "capacity": 1, "parent": 0},
        {"id": 2, "capacity": 1, "parent": 3}, {"id": 3, "capacity": 1, "parent": 2},
    ], "node 2: cycle in parent links"),
    ("membership-number", ("membership",), 5,
     "malformed instance text: 'int' object has no attribute 'items'"),
    ("membership-list", ("membership",), [],
     "malformed instance text: 'list' object has no attribute 'items'"),
    ("membership-null", ("membership",), None,
     "malformed instance text: 'NoneType' object has no attribute 'items'"),
    ("membership-string", ("membership",), "x",
     "malformed instance text: 'str' object has no attribute 'items'"),
    ("key-leading-zero", ("membership",), {"0": 1, "1": 1, "02": 0, "3": 0},
     "membership key must be an element id, got '02'"),
    ("key-space", ("membership",), {"0": 1, "1": 1, " 2": 0, "3": 0},
     "membership key must be an element id, got ' 2'"),
    ("key-float", ("membership",), {"0": 1, "1": 1, "2.0": 0, "3": 0},
     "membership key must be an element id, got '2.0'"),
    ("key-word", ("membership",), {"0": 1, "1": 1, "x": 0, "3": 0},
     "membership key must be an element id, got 'x'"),
    ("key-plus", ("membership",), {"0": 1, "1": 1, "+2": 0, "3": 0},
     "membership key must be an element id, got '+2'"),
    ("key-underscore", ("membership",), {"0": 1, "1": 1, "2": 0, "3": 0, "1_0": 0},
     "membership key must be an element id, got '1_0'"),
    ("key-negative", ("membership",), {"0": 1, "1": 1, "2": 0, "3": 0, "-1": 0},
     "membership: unknown element -1"),
    ("key-unknown", ("membership",), {"0": 1, "1": 1, "2": 0, "3": 0, "4": 0},
     "membership: unknown element 4"),
    ("key-missing", ("membership", "2"), DROP, "element 2 not assigned to any node"),
    ("value-string", ("membership", "2"), "0", "membership value must be an integer, got '0'"),
    ("value-true", ("membership", "2"), True, "membership value must be an integer, got True"),
    ("value-fraction", ("membership", "2"), 0.5, "membership value must be an integer, got 0.5"),
    ("value-null", ("membership", "2"), None, "membership value must be an integer, got None"),
    ("value-nan", ("membership", "2"), math.nan, "membership value must be an integer, got nan"),
    ("value-unknown-node", ("membership", "2"), 9,
     "element 2: membership references unknown node 9"),
    ("value-negative", ("membership", "2"), -1,
     "element 2: membership references unknown node -1"),
]

ELEMENTS = (Element(0, 10.0), Element(1, 7.0), Element(2, 5.0), Element(3, 2.0))
NODES = (FamilyNode(0, 3, None), FamilyNode(1, 1, 0))
MEMBERSHIP = {0: 1, 1: 1, 2: 0, 3: 0}


def _element(i, eid, weight):
    return {"elements": ELEMENTS[:i] + (Element(eid, weight),) + ELEMENTS[i + 1:]}


def _node(i, nid, capacity, parent):
    return {"nodes": NODES[:i] + (FamilyNode(nid, capacity, parent),) + NODES[i + 1:]}


MAKE_CASES = [
    ("name-number", {"name": 5}, "name must be a string, got 5"),
    ("name-null", {"name": None}, "name must be a string, got None"),
    ("name-bytes", {"name": b"four"}, "name must be a string, got b'four'"),
    ("name-surrogate-pair", {"name": "four \ud800\udc00"},
     "name holds a surrogate pair at index 5, which would load back as one character"),
    ("id-true", _element(1, True, 7.0), "element id must be a non-negative integer: True"),
    ("id-string", _element(1, "1", 7.0), "element id must be a non-negative integer: '1'"),
    ("id-float", _element(1, 1.0, 7.0), "element id must be a non-negative integer: 1.0"),
    ("id-null", _element(1, None, 7.0), "element id must be a non-negative integer: None"),
    ("id-negative", _element(1, -1, 7.0), "element id must be a non-negative integer: -1"),
    ("id-duplicate", _element(1, 0, 7.0), "duplicate element id 0"),
    ("id-last-duplicate", _element(3, 2, 2.0), "duplicate element id 2"),
    ("weight-true", _element(2, 2, True), "element 2: weight must be a number, got True"),
    ("weight-string", _element(2, 2, "5"), "element 2: weight must be a number, got '5'"),
    ("weight-null", _element(2, 2, None), "element 2: weight must be a number, got None"),
    ("weight-zero", _element(2, 2, 0), "element 2: non-positive weight 0"),
    ("weight-zero-float", _element(2, 2, 0.0), "element 2: non-positive weight 0.0"),
    ("weight-minus-zero", _element(2, 2, -0.0), "element 2: non-positive weight -0.0"),
    ("weight-negative", _element(2, 2, -1), "element 2: non-positive weight -1"),
    ("weight-nan", _element(2, 2, math.nan), "element 2: non-finite weight nan"),
    ("weight-inf", _element(2, 2, math.inf), "element 2: non-finite weight inf"),
    ("weight-minus-inf", _element(2, 2, -math.inf), "element 2: non-positive weight -inf"),
    ("weight-huge-int", _element(2, 2, BIG), f"element 2: non-finite weight {BIG}"),
    ("weight-huge-negative-int", _element(2, 2, -BIG), f"element 2: non-finite weight {-BIG}"),
    ("nodes-empty", {"nodes": ()}, "no root node (empty family)"),
    ("node-id-true", _node(1, True, 1, 0), "node id must be a non-negative integer: True"),
    ("node-id-string", _node(1, "1", 1, 0), "node id must be a non-negative integer: '1'"),
    ("node-id-float", _node(1, 1.0, 1, 0), "node id must be a non-negative integer: 1.0"),
    ("node-id-negative", _node(1, -1, 1, 0), "node id must be a non-negative integer: -1"),
    ("node-id-duplicate", _node(1, 0, 1, 0), "duplicate node id 0"),
    ("capacity-fraction", _node(1, 1, 2.7, 0), "node 1: capacity must be an integer: 2.7"),
    ("capacity-float", _node(1, 1, 1.0, 0), "node 1: capacity must be an integer: 1.0"),
    ("capacity-true", _node(1, 1, True, 0), "node 1: capacity must be an integer: True"),
    ("capacity-null", _node(1, 1, None, 0), "node 1: capacity must be an integer: None"),
    ("capacity-zero", _node(1, 1, 0, 0), "node 1: non-positive capacity"),
    ("capacity-negative", _node(1, 1, -1, 0), "node 1: non-positive capacity"),
    # True and False hash as 1 and 0, so they would pass as node and element ids
    ("parent-true", _node(1, 1, 1, True), "node 1: parent must be an integer, got True"),
    ("parent-false", _node(1, 1, 1, False), "node 1: parent must be an integer, got False"),
    ("parent-float", _node(1, 1, 1, 0.0), "node 1: parent must be an integer, got 0.0"),
    ("parent-string", _node(1, 1, 1, "0"), "node 1: parent must be an integer, got '0'"),
    ("parent-unknown", _node(1, 1, 1, 5), "node 1: unknown parent 5"),
    ("parent-negative", _node(1, 1, 1, -1), "node 1: unknown parent -1"),
    ("parent-self", _node(1, 1, 1, 1), "node 1: cycle in parent links"),
    ("two-roots", _node(1, 1, 1, None), "multiple roots (nodes 0 and 1)"),
    ("no-root", _node(0, 0, 3, 1), "no root node"),
    ("cycle-below-root", {"nodes": NODES + (FamilyNode(2, 1, 3), FamilyNode(3, 1, 2))},
     "node 2: cycle in parent links"),
    ("key-missing", {"membership": {0: 1, 1: 1, 3: 0}}, "element 2 not assigned to any node"),
    ("key-unknown", {"membership": {0: 1, 1: 1, 2: 0, 3: 0, 4: 0}},
     "membership: unknown element 4"),
    ("key-negative", {"membership": {0: 1, 1: 1, 2: 0, 3: 0, -1: 0}},
     "membership: unknown element -1"),
    ("key-string", {"membership": {0: 1, 1: 1, "2": 0, 3: 0}}, "membership: unknown element 2"),
    ("key-true", {"membership": {0: 1, True: 1, 2: 0, 3: 0}},
     "membership key must be an element id, got True"),
    ("key-false", {"membership": {False: 1, 1: 1, 2: 0, 3: 0}},
     "membership key must be an element id, got False"),
    ("key-float", {"membership": {0: 1, 1: 1, 2.0: 0, 3: 0}},
     "membership key must be an element id, got 2.0"),
    ("value-true", {"membership": {0: 1, 1: 1, 2: 0, 3: True}},
     "membership value must be an integer, got True"),
    ("value-false", {"membership": {0: 1, 1: 1, 2: False, 3: 0}},
     "membership value must be an integer, got False"),
    ("value-float", {"membership": {0: 1, 1: 1, 2: 0.0, 3: 0}},
     "membership value must be an integer, got 0.0"),
    ("value-string", {"membership": {0: 1, 1: 1, 2: "0", 3: 0}},
     "element 2: membership references unknown node 0"),
    ("value-unknown-node", {"membership": {0: 1, 1: 1, 2: 9, 3: 0}},
     "element 2: membership references unknown node 9"),
    ("value-negative", {"membership": {0: 1, 1: 1, 2: -1, 3: 0}},
     "element 2: membership references unknown node -1"),
]

PARTITION = json.loads(dump_instance(generate(GenSpec(family="partition", n=50, seed=7))))


def _reversed_with_negative_weight(doc):
    doc["elements"].reverse()
    doc["elements"][10]["weight"] = -3.0


# faults deep inside a 50-element column
DEEP_CASES = [
    ("weight-nan-37", lambda d: d["elements"][37].update(weight=math.nan),
     "element 37: non-finite weight nan"),
    ("duplicate-id-45", lambda d: d["elements"][45].update(id=12), "duplicate element id 12"),
    ("value-string-41", lambda d: d["membership"].update({"41": "1"}),
     "membership value must be an integer, got '1'"),
    ("key-leading-zero-41", lambda d: d["membership"].update({"041": d["membership"].pop("41")}),
     "membership key must be an element id, got '041'"),
    ("reversed-negative-weight", _reversed_with_negative_weight,
     "element 39: non-positive weight -3.0"),
]


@pytest.mark.parametrize("text,message", [c[1:] for c in TEXT_CASES],
                         ids=[c[0] for c in TEXT_CASES])
def test_load_text_message(text, message):
    with pytest.raises(InstanceError) as info:
        load_instance(text)
    assert str(info.value) == message


@pytest.mark.parametrize("path,value,message", [c[1:] for c in LOAD_CASES],
                         ids=[c[0] for c in LOAD_CASES])
def test_load_message(path, value, message):
    with pytest.raises(InstanceError) as info:
        load_instance(_edited(path, value))
    assert str(info.value) == message


@pytest.mark.parametrize("change,message", [c[1:] for c in DEEP_CASES],
                         ids=[c[0] for c in DEEP_CASES])
def test_load_message_deep_in_a_column(change, message):
    doc = copy.deepcopy(PARTITION)
    change(doc)
    with pytest.raises(InstanceError) as info:
        load_instance(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("change,message", [c[1:] for c in MAKE_CASES],
                         ids=[c[0] for c in MAKE_CASES])
def test_make_message(change, message):
    args = {"name": "four", "elements": ELEMENTS, "nodes": NODES, "membership": MEMBERSHIP}
    args.update(change)
    with pytest.raises(InstanceError) as info:
        make_instance(**args)
    assert str(info.value) == message


def test_the_base_instances_are_valid():
    assert load_instance(json.dumps(DOC)).n == 4
    assert load_instance(json.dumps(PARTITION)).n == 50
    assert make_instance("four", ELEMENTS, NODES, MEMBERSHIP).n == 4


def test_finite_weights_whose_sum_overflows_are_legal():
    # the column test on the weights' sum fails here, and the scan finds
    # no bad weight
    doc = copy.deepcopy(DOC)
    for e in doc["elements"]:
        e["weight"] = 1e308
    assert load_instance(json.dumps(doc)).weights == [1e308] * 4
    elements = [Element(e.id, 1e308) for e in ELEMENTS]
    assert make_instance("four", elements, NODES, MEMBERSHIP).weights == [1e308] * 4


def test_make_refuses_bools_that_would_not_load():
    # True hashes as 1: the instance would link and dump, but its file would
    # hold "parent": true and a "True" key, which load_instance refuses
    with pytest.raises(InstanceError) as info:
        make_instance("x", [Element(0, 1.0), Element(1, 2.0)],
                      [FamilyNode(1, 2, None), FamilyNode(2, 1, True)], {0: True, True: 2})
    assert str(info.value) == "node 2: parent must be an integer, got True"
