import tracemalloc

import pytest

from laminar_secretary import (
    GenSpec,
    brute_force_opt,
    dump_instance,
    generate,
    greedy_opt,
    load_instance,
    normalize_family,
)
import laminar_secretary.generators as generators


def test_uniform_shape():
    inst = generate(GenSpec("uniform", n=5, seed=1, rank=2))
    assert inst.n == 5
    assert len(inst.nodes) == 1
    assert inst.nodes[0].capacity == 2
    assert set(inst.membership.values()) == {0}


def test_chain_shape():
    inst = generate(GenSpec("chain", n=6, seed=4, depth=3))
    assert len(inst.nodes) == 3
    caps = {nd.id: nd.capacity for nd in inst.nodes}
    assert caps[0] > caps[1] > caps[2]
    assert [nd.parent for nd in inst.nodes] == [None, 0, 1]


def test_partition_shape():
    inst = generate(GenSpec("partition", n=8, seed=2, parts=3, part_capacity=2))
    root = inst.node(inst.root_id)
    assert root.capacity == 6
    kids = [nd for nd in inst.nodes if nd.parent == inst.root_id]
    assert len(kids) == 3 and all(nd.capacity == 2 for nd in kids)


def test_determinism():
    a = generate(GenSpec("random_tree", n=12, seed=7))
    b = generate(GenSpec("random_tree", n=12, seed=7))
    assert dump_instance(a) == dump_instance(b)
    c = generate(GenSpec("random_tree", n=12, seed=8))
    assert dump_instance(a) != dump_instance(c)


@pytest.mark.parametrize("family", ["uniform", "partition", "chain", "random_tree"])
@pytest.mark.parametrize("weights", ["uniform", "exponential", "power_law", "near_ties"])
def test_always_valid_and_normalized(family, weights):
    for seed in range(6):
        spec = GenSpec(family, n=9, seed=seed, weights=weights,
                       rank=3, parts=2, depth=3)
        inst = generate(spec)  # construction runs full model validation
        assert dump_instance(normalize_family(inst)) == dump_instance(inst)
        assert dump_instance(load_instance(dump_instance(inst))) == dump_instance(inst)
        # laminarity, brute force over node pairs
        sets = [inst.members(nd.id) for nd in inst.nodes]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                a, b = sets[i], sets[j]
                assert a <= b or b <= a or not (a & b)


def test_partition_optimum_is_per_part_top():
    for seed in range(10):
        inst = generate(GenSpec("partition", n=10, seed=seed, parts=3,
                                part_capacity=2, weights="exponential"))
        expected = set()
        for part in (nd for nd in inst.nodes if nd.parent is not None):
            members = sorted(inst.members(part.id), key=inst.key)
            expected |= set(members[: part.capacity])
        opt = greedy_opt(inst, None, inst.root_id)
        assert opt.ids == expected
        assert brute_force_opt(inst, None, inst.root_id).ids == expected


def test_near_ties_exercise_the_tie_break():
    inst = generate(GenSpec("uniform", n=8, seed=3, rank=3, weights="near_ties"))
    raw = [e.weight for e in inst.elements]
    assert len(set(raw)) < len(raw)  # duplicates by construction
    assert greedy_opt(inst, None, 0).elements == brute_force_opt(inst, None, 0).elements


def test_parameter_validation():
    with pytest.raises(ValueError, match="1 <= k <= n"):
        generate(GenSpec("uniform", n=3, seed=0, rank=5))
    with pytest.raises(ValueError, match="unknown family"):
        generate(GenSpec("grid", n=3, seed=0))
    with pytest.raises(ValueError, match="unknown weight"):
        generate(GenSpec("uniform", n=3, seed=0, weights="constant"))
    with pytest.raises(ValueError, match="at least one element"):
        generate(GenSpec("uniform", n=0, seed=0))
    with pytest.raises(ValueError, match="depth"):
        generate(GenSpec("chain", n=3, seed=0, depth=0))


@pytest.mark.parametrize("exponent", [0.0, -1.0, float("inf"), float("nan")])
def test_power_exponent_must_be_positive_and_finite(exponent):
    # 0 divides by zero in the Pareto draw; -1 draws weights in (0, 1]
    with pytest.raises(ValueError, match="power exponent must be positive and finite"):
        generate(GenSpec("uniform", n=3, seed=0, weights="power_law", power_exponent=exponent))
    weights = [e.weight for e in
               generate(GenSpec("uniform", n=50, seed=0, weights="power_law",
                                power_exponent=0.5)).elements]
    assert min(weights) >= 1.0  # a Pareto law of any positive shape


@pytest.mark.parametrize("spec,message", [
    (GenSpec("uniform", n=10**5, seed=0), "need at most 10 elements, got n=100000"),
    (GenSpec("partition", n=4, seed=0, parts=10**5), "need at most 10 parts, got 100000"),
    (GenSpec("chain", n=4, seed=0, depth=10**5), "chain depth must be in 1..10, got 100000"),
])
def test_sizes_are_bounded_before_allocation(monkeypatch, spec, message):
    # the limit lowered to 10: a size of 10^5 is refused before its lists
    # are built, so the refusal allocates next to nothing
    monkeypatch.setattr(generators, "MAX_GEN_SIZE", 10)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 64 * 1024, peak
    # the limit itself is allowed
    generate(GenSpec(spec.family, n=min(spec.n, 10), seed=0,
                     parts=spec.parts and 10, depth=spec.depth and 10))


@pytest.mark.parametrize("field", generators._INT_FIELDS)
@pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
def test_int_fields_must_be_plain_ints(monkeypatch, field, value):
    # refused before any draw: a float or a bool would otherwise be read
    # into the instance's name or sizes, or crash inside the build
    def no_draw(*args):
        raise AssertionError("generate drew before refusing the spec")

    monkeypatch.setattr(generators.random, "Random", no_draw)
    family = next((f for f, fields in generators.FAMILY_FIELDS.items() if field in fields),
                  "uniform")  # n and seed: every family reads them
    spec = GenSpec(**{"family": family, "n": 4, "seed": 1, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
        generate(spec)


def test_negative_seed_rejected():
    # random.Random(-5) seeds as random.Random(5): the two instances would match
    with pytest.raises(ValueError, match="seed must be non-negative"):
        generate(GenSpec("uniform", n=3, seed=-5))
    generate(GenSpec("uniform", n=3, seed=0))


# a value of each shape field that differs from its ``GenSpec`` default
SHAPE_VALUES = {"rank": 2, "parts": 4, "part_capacity": 2, "depth": 2, "max_branching": 1}


def test_family_fields_are_the_fields_each_family_reads():
    table = generators.FAMILY_FIELDS
    assert tuple(table) == generators.FAMILIES
    owned = [field for fields in table.values() for field in fields]
    assert sorted(owned) == sorted(SHAPE_VALUES)
    assert set(owned) <= set(GenSpec.__dataclass_fields__)
    for family, fields in table.items():
        base = dump_instance(generate(GenSpec(family, 12, 5)))
        for field, value in SHAPE_VALUES.items():
            got = dump_instance(generate(GenSpec(family, 12, 5, **{field: value})))
            # a field of another family changes nothing; at seed 5 each
            # family's own fields change the instance
            assert (got != base) == (field in fields), (family, field)

