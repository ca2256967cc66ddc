import random

import pytest
from hypothesis import given, settings, strategies as st

from laminar_secretary import (
    Element,
    FamilyNode,
    GenSpec,
    InstanceError,
    brank,
    brute_force_opt,
    generate,
    greedy_opt,
    is_independent,
    make_instance,
    reference_sets,
)
from laminar_secretary.matroid import (
    _global_optima,
    _greedy_ranks,
    _lowest_bits,
    _opt_tables,
    _ref_fields,
    _ref_rank_lists,
)

from helpers import (
    decode_fields,
    family_instance,
    four_element,
    mixed_instances,
    padded_brank_by_ids,
    per_node_greedy_ranks,
    rank1,
    ref_lists_by_full_pass,
    shaped_trees,
)


class TestIndependence:
    def test_examples(self):
        inst = four_element()
        assert not is_independent(inst, {0, 1})  # both inside the unit node
        assert is_independent(inst, set())
        assert is_independent(inst, {0, 2, 3})

    def test_unknown_element(self):
        with pytest.raises(InstanceError, match="unknown element id 9"):
            is_independent(four_element(), {9})


class TestGreedy:
    def test_full_optimum(self):
        inst = four_element()
        opt = greedy_opt(inst, None, 0)
        assert opt.elements == (3, 2, 0)  # lightest first
        assert opt.weight == 17.0

    def test_restricted(self):
        inst = four_element()
        opt = greedy_opt(inst, {1, 3}, 0)
        assert opt.elements == (3, 1)
        assert opt.weight == 9.0

    def test_empty_subset(self):
        opt = greedy_opt(four_element(), set(), 0)
        assert opt.elements == () and opt.weight == 0.0

    def test_unknown_node(self):
        with pytest.raises(InstanceError, match="unknown node"):
            greedy_opt(four_element(), None, 5)

    def test_size_capped_by_capacity(self):
        for inst in mixed_instances(10, seed0=40):
            for nd in inst.nodes:
                assert len(greedy_opt(inst, None, nd.id)) <= nd.capacity

    @given(st.integers(0, 2_000))
    def test_monotone_in_subset(self, seed):
        rnd = random.Random(seed)
        inst = generate(GenSpec("random_tree", n=9, seed=seed % 37))
        ids = sorted(inst.element_ids())
        small = {x for x in ids if rnd.random() < 0.4}
        big = small | {x for x in ids if rnd.random() < 0.4}
        for nd in inst.nodes:
            assert greedy_opt(inst, small, nd.id).weight <= greedy_opt(inst, big, nd.id).weight + 1e-12


class TestOnePassOptima:
    """The bottom-up pass against the per-node greedy scan it replaced."""

    @settings(max_examples=200)
    @given(st.sampled_from(("uniform", "partition", "chain", "random_tree")),
           st.integers(1, 60), st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_matches_per_node_scan(self, family, n, seed, keep):
        spec = GenSpec(family, n, seed, ("uniform", "exponential", "near_ties", "power_law")[seed % 4],
                       rank=max(1, n // 3) if family == "uniform" else None,
                       parts=1 + seed % 4 if family == "partition" else None,
                       part_capacity=1 + seed % 3,
                       depth=2 + seed % 3 if family == "chain" else None)
        inst = generate(spec)
        pre = inst.pre()
        rnd = random.Random(seed)
        in_v = [rnd.random() < keep for _ in range(pre.n_real)]
        reference = [per_node_greedy_ranks(pre, in_v, x) for x in range(len(pre.mu))]
        got = _greedy_ranks(pre, in_v)
        assert got == reference
        # padding extends and the walk pops these lists in place
        assert len({id(lst) for lst in got}) == len(got)
        # one node's optimum of a subset is that node's entry of the one pass
        subset = [eid for eid, kept in zip(pre.ids_by_rank, in_v) if kept]
        for b, nid in enumerate(pre.node_ids):
            assert (greedy_opt(inst, subset, nid).elements
                    == tuple(pre.ids_by_rank[r] for r in reversed(reference[b])))


def _spec(family, n, seed):
    """A generated instance spec that varies weights and shape with the seed."""
    return GenSpec(family, n, seed, ("uniform", "exponential", "near_ties", "power_law")[seed % 4],
                   rank=max(1, n // 3) if family == "uniform" else None,
                   parts=1 + seed % 4 if family == "partition" else None,
                   part_capacity=1 + seed % 3,
                   depth=2 + seed % 3 if family == "chain" else None)


def _draw_arrivals(pre, kind, data):
    """A sample's arrivals of one kind: none, every rank, some ranks of
    the nodes' OPT, or any ranks."""
    everything = list(range(pre.n_real))
    if kind == "empty":
        return []
    if kind == "all":
        return everything
    pool = sorted({r for O in _global_optima(pre) for r in O}) if kind == "opt" else everything
    return data.draw(st.lists(st.sampled_from(pool), unique=True))


class TestTrialRankLists:
    """A sample's reference lists, its fields (``_ref_fields``, which
    rebuild only the nodes whose OPT holds an arrival) decoded by
    ``_ref_rank_lists``, equal those of the full pass over the sample's
    flags (``ref_lists_by_full_pass``)."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(("uniform", "partition", "chain", "random_tree")),
           st.integers(1, 60), st.integers(0, 10_000),
           st.sampled_from(("empty", "all", "opt", "random")), st.booleans(), st.data())
    def test_matches_the_full_pass(self, family, n, seed, kind, padding, data):
        pre = generate(_spec(family, n, seed)).pre()
        opt = _global_optima(pre)
        everything = list(range(pre.n_real))
        arrivals = _draw_arrivals(pre, kind, data)
        arrived = set(arrivals)
        in_s = [r not in arrived for r in everything]
        want = ref_lists_by_full_pass(pre, in_s, padding)
        got = _ref_rank_lists(pre, _ref_fields(pre, arrivals, padding))
        assert got == want
        # fresh objects, which leave the cached optima and the next trial's
        # lists as they were
        assert len({id(R) for R in got}) == len(got)
        for R in got:
            R.clear()
        assert _ref_rank_lists(pre, _ref_fields(pre, arrivals[::-1], padding)) == want
        assert _global_optima(pre) == opt

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(("uniform", "partition", "chain", "random_tree")),
           st.integers(1, 60), st.integers(0, 10_000), st.floats(0.0, 1.0))
    def test_nodes_holding_a_rank_are_a_prefix_of_its_chain(self, family, n, seed, keep):
        pre = generate(_spec(family, n, seed)).pre()
        rnd = random.Random(seed)
        subset = [rnd.random() < keep for _ in range(pre.n_real)]
        for optima in (_greedy_ranks(pre, subset), _global_optima(pre)):
            for r, ch in enumerate(pre.chain_by_rank):
                holding = tuple(b for b in ch if r in optima[b])
                assert holding == ch[:len(holding)]
        # the per-rank table: bit i for node bottom_up[i] when its OPT holds r
        _opt_tables(pre)
        opt = _global_optima(pre)
        for r, ch in enumerate(pre.chain_by_rank):
            mask = pre.opt_masks[r]
            named = {b for i, b in enumerate(pre.bottom_up) if mask >> i & 1}
            assert named == {b for b in ch if r in opt[b]}
            assert mask < 1 << len(pre.mu)


class TestTrialFields:
    """A sample's reference fields (``_ref_fields``) are its reference lists
    (``ref_lists_by_full_pass``) in bits, one int per node, and
    ``_ref_rank_lists`` decodes them as ``decode_fields`` does."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.builds(family_instance,
                               st.sampled_from(("uniform", "partition", "chain", "random_tree")),
                               st.integers(1, 60), st.integers(0, 10_000)),
                     shaped_trees(max_elements=40)),
           st.sampled_from(("empty", "all", "opt", "random")), st.booleans(), st.data())
    def test_decode_to_the_lists(self, inst, kind, padding, data):
        # n on both sides of ``experiments.SMALL_N`` (16), as the Monte Carlo
        # trials build fields on both its paths
        pre = inst.pre()
        arrivals = _draw_arrivals(pre, kind, data)
        arrived = set(arrivals)
        want = ref_lists_by_full_pass(pre, [r not in arrived for r in range(pre.n_real)], padding)
        got = _ref_fields(pre, arrivals, padding)
        assert decode_fields(pre, got) == want
        assert _ref_rank_lists(pre, got) == want
        # the walk writes the list in place: a fresh one, which leaves the
        # cached tables and the next trial's fields as they were
        got[:] = [0] * len(got)
        assert decode_fields(pre, _ref_fields(pre, arrivals[::-1], padding)) == want
        assert decode_fields(pre, pre.opt_fields[padding]) == ref_lists_by_full_pass(
            pre, [True] * pre.n_real, padding)
        assert pre.own_bits == tuple(sum(1 << r for r in rs) for rs in pre.own_ranks)


class TestLowestBits:
    """``_lowest_bits`` keeps the ``cap`` lowest set bits, by each of its
    three ways."""

    @pytest.mark.parametrize("width,k,cap", [
        (40, 12, 7),      # drop 5 <= cap 7, at most 16: clears the top bits
        (40, 32, 16),     # drop 16 <= cap 16: clears the top bits
        (40, 30, 5),      # drop 25 > cap 5 <= 16: clears the low bits of a copy
        (40, 3, 0),       # cap 0: nothing kept
        (200, 150, 16),   # cap 16 < drop: clears the low bits of a copy
        (3000, 700, 667), # drop 33 <= cap, both above 16: bisects
        (3000, 900, 40),  # cap 40 < drop, both above 16: bisects
        (3000, 34, 17),   # drop 17 = cap 17: bisects
        (64, 64, 30),     # every bit set
    ])
    def test_every_branch_keeps_the_lowest_bits(self, width, k, cap):
        rnd = random.Random(width * 7 + k * 3 + cap)
        for _ in range(20):
            positions = rnd.sample(range(width), k)
            bits = sum(1 << i for i in positions)
            want = sum(1 << i for i in sorted(positions)[:cap])
            assert _lowest_bits(bits, k, cap) == want


class TestReferenceSets:
    def test_example(self):
        inst = four_element()
        assert greedy_opt(inst, {1, 3}, 0).elements == (3, 1)
        assert greedy_opt(inst, {1, 3}, 1).elements == (1,)
        assert reference_sets(inst, {1, 3}, padding=False) == {0: [3, 1], 1: [1]}

    def test_empty_sample(self):
        inst = four_element()
        assert all(len(greedy_opt(inst, set(), nd.id)) == 0 for nd in inst.nodes)
        assert all(ids == [] for ids in reference_sets(inst, set(), padding=False).values())

    def test_full_sample_is_optimum(self):
        inst = four_element()
        refs = reference_sets(inst, inst.element_ids(), padding=False)
        for nd in inst.nodes:
            full = greedy_opt(inst, inst.element_ids(), nd.id).elements
            assert full == tuple(refs[nd.id]) == greedy_opt(inst, None, nd.id).elements

    def test_padded_sizes_match_capacity(self):
        inst = four_element()
        padded = reference_sets(inst, {1, 3}, padding=True)
        for nd in inst.nodes:
            assert len(padded[nd.id]) == nd.capacity


class TestBrank:
    def test_examples(self):
        inst = four_element()
        assert brank(inst, 0, 0) == 2  # elements 2 and 3 are lighter in the optimum
        assert brank(inst, 3, 0) == 0
        assert brank(inst, 0, 1) == 0

    def test_not_contained(self):
        with pytest.raises(InstanceError, match="not contained"):
            brank(four_element(), 2, 1)

    def test_sample_restriction(self):
        inst = four_element()
        assert brank(inst, 0, 0, {1, 3}) == 2  # both sample elements are lighter


class TestBruteForce:
    def test_matches_greedy_on_examples(self):
        inst = four_element()
        assert brute_force_opt(inst, None, 0).elements == (3, 2, 0)
        assert brute_force_opt(inst, {1, 3}, 0).elements == (3, 1)

    def test_singleton(self):
        inst = rank1([4.0])
        assert brute_force_opt(inst, None, 0).elements == (0,)

    def test_size_guard(self):
        inst = rank1([1.0 + i for i in range(21)], capacity=5)
        with pytest.raises(ValueError, match="brute-force oracle limited to 20"):
            brute_force_opt(inst, None, 0)

    def test_equivalence_sample(self):
        # the full 200-instance scan runs in the acceptance suite
        rnd = random.Random(7)
        for inst in mixed_instances(30, seed0=300, n_hi=10):
            ids = sorted(inst.element_ids())
            for _ in range(5):
                subset = {x for x in ids if rnd.random() < 0.5}
                for nd in inst.nodes:
                    g = greedy_opt(inst, subset, nd.id)
                    b = brute_force_opt(inst, subset, nd.id)
                    assert g.elements == b.elements

    def test_equivalence_with_ties(self):
        inst = make_instance(
            "tied",
            [Element(i, w) for i, w in enumerate([3.0, 3.0, 3.0, 2.0, 2.0])],
            [FamilyNode(0, 3, None), FamilyNode(1, 1, 0)],
            {0: 1, 1: 1, 2: 0, 3: 0, 4: 0},
        )
        for nd in inst.nodes:
            assert greedy_opt(inst, None, nd.id).elements == brute_force_opt(inst, None, nd.id).elements


class TestBrankDominance:
    """Sample backward ranks dominate global ones in the padded view."""

    def test_dominance_over_sampled_splits(self):
        rnd = random.Random(5)
        for inst in mixed_instances(8, seed0=77, n_hi=9):
            opts = reference_sets(inst, None, padding=False)
            ids = sorted(inst.element_ids())
            for _ in range(30):
                sample = {x for x in ids if rnd.random() < 0.9}
                refs = reference_sets(inst, sample, padding=True)
                for nd in inst.nodes:
                    # the real reference elements; every other capacity
                    # slot is a virtual one, lighter than every member
                    ref_keys = [inst.key(x) for x in refs[nd.id] if x in inst.membership]
                    for eid in inst.members(nd.id):
                        key = inst.key(eid)
                        bs = sum(1 for k in ref_keys if k > key) + nd.capacity - len(ref_keys)
                        bu = padded_brank_by_ids(inst, opts, eid, nd.id)
                        assert bs >= bu
                        if eid not in sample and eid in opts[nd.id]:
                            assert bs >= bu + 1

    def test_plus_one_needs_membership_in_the_optimum(self):
        # An arriving element below a sampled heavier one gains nothing: the
        # +1 strengthening only holds for elements of the node's optimum.
        inst = rank1([10.0, 9.0])
        opts = reference_sets(inst, None, padding=False)
        refs = reference_sets(inst, {0}, padding=True)
        ref_keys = [inst.key(x) for x in refs[0]]
        bs = sum(1 for k in ref_keys if k > inst.key(1))
        bu = padded_brank_by_ids(inst, opts, 1, 0)
        assert bs == bu == 0  # the +1 form would demand bs >= 1
