import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

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

from helpers import generate_by_stdlib


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


@pytest.mark.parametrize("exponent,message", [
    (0.0, "must be positive and finite"), (-1.0, "must be positive and finite"),
    (float("inf"), "must be positive and finite"), (float("nan"), "must be positive and finite"),
    (0, "must be positive and finite"), (10**400, "must be positive and finite"),
    (True, "must be an int or a float"), ("2", "must be an int or a float"),
    (None, "must be an int or a float"),
], ids=["0.0", "-1.0", "inf", "nan", "0", "10**400", "True", "'2'", "None"])
def test_power_exponent_must_be_positive_and_finite(monkeypatch, exponent, message):
    # 0 divides by zero in the Pareto draw; -1 draws weights in (0, 1]; an
    # int past the float range cannot divide; True would be read as 1.0.
    # Refused before any draw, whatever the weights
    def no_draw(*args):
        raise AssertionError("generate drew before refusing the spec")

    monkeypatch.setattr(generators.random, "Random", no_draw)
    for weights in ("power_law", "uniform"):
        with pytest.raises(ValueError, match=f"^power exponent {message}, got "):
            generate(GenSpec("uniform", n=3, seed=0, weights=weights, power_exponent=exponent))
    monkeypatch.undo()
    drawn = [e.weight for e in
             generate(GenSpec("uniform", n=50, seed=0, weights="power_law",
                              power_exponent=0.5)).elements]
    assert min(drawn) >= 1.0  # a Pareto law of any positive shape
    # an int shape is its float
    assert (dump_instance(generate(GenSpec("chain", 9, 4, "power_law", power_exponent=3)))
            == dump_instance(generate(GenSpec("chain", 9, 4, "power_law", power_exponent=3.0))))


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


# k next to powers of two, where ``_below`` redraws most and least often
BELOW_KS = (1, 2, 3, 7, 8, 9, 255, 256, 257, 10**6)


class CountingRandom(random.Random):
    """Counts the ``getrandbits`` calls; ``randrange`` still draws on them."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("k", BELOW_KS)
def test_below_draws_what_randrange_draws(k):
    redraws = 0
    for seed in range(50):
        rnd, ref = CountingRandom(seed), CountingRandom(seed)
        column = generators._below(rnd, k, 40)
        assert column == [ref.randrange(k) for _ in range(40)]
        assert rnd.getstate() == ref.getstate() and rnd.calls == ref.calls
        redraws += rnd.calls - 40
        # one draw at a time is the same stream
        assert [generators._below(ref, k, 1)[0] for _ in range(5)] == generators._below(rnd, k, 5)
    assert redraws > 0  # the rejections were exercised


@st.composite
def gen_specs(draw):
    """A valid spec of any family and weight kind, n in 1..300."""
    family = draw(st.sampled_from(generators.FAMILIES))
    n = draw(st.integers(1, 300))
    shape = {}
    if family == "uniform":
        shape["rank"] = draw(st.none() | st.integers(1, n))
    elif family == "partition":
        shape["parts"] = draw(st.none() | st.integers(1, 50))
        shape["part_capacity"] = draw(st.integers(1, 5))
    elif family == "chain":
        shape["depth"] = draw(st.none() | st.integers(1, 50))
    else:
        shape["max_branching"] = draw(st.integers(1, 5))
    return GenSpec(family, n, draw(st.integers(0, 2**64 - 1)),
                   draw(st.sampled_from(generators.WEIGHTS)),
                   power_exponent=draw(st.floats(0.1, 10.0)), **shape)


@settings(max_examples=300, deadline=None)
@given(gen_specs())
def test_generate_writes_what_the_stdlib_calls_write(spec):
    assert dump_instance(generate(spec)) == dump_instance(generate_by_stdlib(spec))


@pytest.mark.parametrize("weights", generators.WEIGHTS)
def test_large_partition_writes_what_the_stdlib_calls_write(weights):
    spec = GenSpec("partition", 2000, 2000, weights, parts=40, power_exponent=1.5)
    assert dump_instance(generate(spec)) == dump_instance(generate_by_stdlib(spec))


def test_exponential_weight_is_redrawn_at_zero(monkeypatch):
    # -log(1.0 - 0.0) is -0.0: both forms redraw, so the served 0.0 only
    # delays the stream by one value, and a weight of -0.0 would fail the
    # model's check
    class ZeroFirst(random.Random):
        zeros = 0
        served = False

        def random(self):
            if self.served:
                return super().random()
            self.served = True
            ZeroFirst.zeros += 1
            return 0.0

    spec = GenSpec("uniform", n=6, seed=11, weights="exponential")
    plain = dump_instance(generate(spec))
    monkeypatch.setattr(random, "Random", ZeroFirst)
    assert dump_instance(generate(spec)) == plain
    assert dump_instance(generate_by_stdlib(spec)) == plain
    assert ZeroFirst.zeros == 2
