import math
import os
import re
import tracemalloc
from fractions import Fraction
from itertools import accumulate, starmap

import pytest
from hypothesis import given, settings, strategies as st

from laminar_secretary import (
    Element,
    FamilyNode,
    GenSpec,
    InstanceError,
    allkicked_bound,
    allkicked_frequency,
    brank,
    derive_seed,
    exact_expectation,
    exact_ratio,
    generate,
    greedy_opt,
    make_instance,
    make_trial,
    monte_carlo_ratio,
    qualifying_joint_probability,
    ratio_lower_bound,
    reference_sets,
    theory_params,
    verify_lemmas,
    verify_report,
)
import laminar_secretary.exact as exact
import laminar_secretary.experiments as experiments
from laminar_secretary.experiments import (
    _chunk_plan,
    _qualifying_counts,
    _qualifying_members,
    _sample_variance,
    _trial_weights_chunk,
    _trials,
)
import laminar_secretary.kicknext as kicknext
import laminar_secretary.matroid as matroid
from laminar_secretary.kicknext import _block_size, _flags, _order, _run_weight, _sample_ids
from laminar_secretary.matroid import _global_optima, _greedy_ranks
from laminar_secretary.theory import _global_brank, _padded_brank

from helpers import (
    FAMILY_OR_SHAPED,
    allkicked_frequency_by_trace,
    decode_fields,
    dominance_by_lists,
    dominance_by_scan,
    encode_fields,
    enum_states_by_lists,
    exact_expectation_by_permutations,
    exact_expectation_by_tuples,
    failures_by_lists,
    family_instance,
    four_element,
    mixed_instances,
    padded_brank_by_ids,
    qualifying_counts_by_ids,
    qualifying_counts_by_lists,
    rank1,
    ref_lists_by_full_pass,
    run_weight_by_lists,
    shaped_trees,
    trial_weights_by_full_walk,
    trials_by_prefix,
    tree,
)

FAMILIES = st.sampled_from(("uniform", "partition", "chain", "random_tree"))
P_VALUES = st.sampled_from((0.05, 0.08, 0.2))

approx = pytest.approx


def rank1_two_element_ratio(p, w1, w2):
    """Closed-form oracle for a capacity-1 node with two elements
    (w1 < w2): both arriving -> the first one wins; only the heavy one
    arriving -> it evicts the sampled light one; only the light one
    arriving -> it never beats the sampled heavy one."""
    p = Fraction(str(p))
    value = p * p * Fraction(w1 + w2, 2) + p * (1 - p) * w2
    return float(value / w2)


class TestSeedDerivation:
    def test_deterministic_and_spread(self):
        assert derive_seed(1, 0) == derive_seed(1, 0)
        seen = {derive_seed(42, i) for i in range(1000)}
        assert len(seen) == 1000
        assert all(0 <= s < 2 ** 64 for s in seen)

    def test_master_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    @pytest.mark.parametrize("master_seed,index", [
        (-1, 0), (2 ** 64, 0), (True, 0), (2.0, 0), ("1", 0), (None, 0),
        (1, -1), (1, True), (1, 2.0), (1, "0"), (1, None),
    ])
    def test_bad_inputs_are_refused(self, master_seed, index):
        # -1 would wrap onto the stream of 2^64 - 1, True onto that of 1
        with pytest.raises(ValueError, match="seed must be|index must be"):
            derive_seed(master_seed, index)
        assert derive_seed(2 ** 64 - 1, 0) != derive_seed(0, 0)


class TestExactRatio:
    def test_single_element_equals_p(self):
        for p in (0.08, 0.3, 0.9):
            assert exact_ratio(rank1([5.0]), p) == approx(p, rel=1e-12)

    def test_two_element_closed_form(self):
        inst = rank1([1.0, 2.0])
        assert exact_ratio(inst, 0.08) == approx(0.0784, rel=1e-12)
        assert exact_ratio(inst, 0.08) == approx(rank1_two_element_ratio(0.08, 1, 2), rel=1e-12)
        # near p -> 1 the run keeps whatever arrives first
        assert exact_ratio(inst, 0.9) == approx(rank1_two_element_ratio(0.9, 1, 2), rel=1e-12)
        assert rank1_two_element_ratio(0.9, 1, 2) == approx(0.6975, rel=1e-12)

    def test_probability_mass_sums_to_one(self):
        inst = generate(GenSpec("random_tree", n=5, seed=9))
        for p in (0.08, 0.35):
            _, mass = exact_expectation(inst, p)
            assert mass == approx(1.0, abs=1e-12)

    def test_size_guard(self):
        inst = rank1([float(i + 1) for i in range(9)], capacity=2)
        with pytest.raises(ValueError, match="limited to 8"):
            exact_ratio(inst, 0.08)

    def test_degenerate_instance(self):
        empty = make_instance("empty", [], [FamilyNode(0, 1, None)], {})
        with pytest.raises(ValueError, match="degenerate"):
            exact_ratio(empty, 0.08)

    def test_padding_helps(self):
        inst = rank1([5.0])
        assert exact_ratio(inst, 0.3, padding=True) == approx(0.3, rel=1e-12)
        assert exact_ratio(inst, 0.3, padding=False) == 0.0


class TestExactRecursion:
    """The memoized recursion against the permutation enumerator it
    replaced, kept in ``helpers``."""

    @settings(max_examples=80, deadline=None)
    @given(FAMILIES, st.integers(1, 7), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.08, 0.2, 0.45)), st.booleans())
    def test_matches_permutation_enumeration(self, family, n, seed, p, padding):
        inst = family_instance(family, n, seed)
        expected, mass = exact_expectation(inst, p, padding=padding)
        ref_expected, ref_mass = exact_expectation_by_permutations(inst, p, padding=padding)
        assert abs(expected - ref_expected) <= 1e-12 * abs(ref_expected)
        assert mass == ref_mass


def _exact_and_memo_size(monkeypatch, inst, p, padding):
    """``exact_expectation`` of the instance, and the size of the one memo
    its recursion filled."""
    memos = []
    real = exact._expected_rest

    def spy(state, steps, w, readable, memo):
        memos.append(memo)
        return real(state, steps, w, readable, memo)

    monkeypatch.setattr(exact, "_expected_rest", spy)
    expected, mass = exact_expectation(inst, p, padding=padding)
    monkeypatch.undo()
    assert all(m is memos[0] for m in memos)
    return expected, mass, len(memos[0])


class TestExactBitStates:
    """The recursion on one int per state against the tuple-state recursion
    it replaced, kept in ``helpers``: the same bits and the same states."""

    @settings(max_examples=100, deadline=None)
    @given(FAMILIES, st.integers(1, 8), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.08, 0.2, 0.45)), st.booleans())
    def test_equals_the_tuple_recursion(self, family, n, seed, p, padding):
        inst = family_instance(family, n, seed)
        expected, mass = exact_expectation(inst, p, padding=padding)
        assert (expected, mass) == exact_expectation_by_tuples(inst, p, padding=padding)[:2]

    @pytest.mark.parametrize("padding", [True, False])
    @pytest.mark.parametrize("family,seed", [("uniform", 8), ("partition", 18), ("chain", 28),
                                             ("random_tree", 38)])
    def test_same_memo_size_at_eight(self, monkeypatch, family, seed, padding):
        inst = family_instance(family, 8, seed)
        got = _exact_and_memo_size(monkeypatch, inst, 0.08, padding)
        assert got == exact_expectation_by_tuples(inst, 0.08, padding=padding)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.builds(family_instance, FAMILIES, st.integers(1, 10),
                               st.integers(0, 10_000)),
                     shaped_trees(max_elements=10, max_capacity=12)),
           st.booleans())
    def test_start_states_equal_the_list_builds(self, inst, padding):
        # shaped trees hold redundant nodes (a child whose capacity is not
        # below its parent's) and capacities above the member count
        pre = inst.pre()
        assert exact._enum_states(pre, padding) == enum_states_by_lists(pre, padding)

    @pytest.mark.parametrize("padding", [True, False])
    def test_start_states_on_a_redundant_chain(self, padding):
        # node 1 repeats the root's capacity, node 2 exceeds it, and nodes
        # 1-3 hold fewer members than their capacity, so slots < mu
        inst = tree("redundant", [(0, 5, None), (1, 5, 0), (2, 7, 1), (3, 9, 0)],
                    {0: 2, 1: 2, 2: 1, 3: 0, 4: 3, 5: 2}, [4.0, 9.0, 1.0, 7.0, 3.0, 5.0])
        pre = inst.pre()
        assert pre.slots != pre.mu
        assert exact._enum_states(pre, padding) == enum_states_by_lists(pre, padding)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.builds(family_instance, FAMILIES, st.integers(1, 10),
                               st.integers(0, 10_000)),
                     shaped_trees(max_elements=10, max_capacity=12)))
    def test_bit_greedy_equals_the_list_greedy(self, inst):
        # unpadded, a start state's field at node x holds exactly the bits of
        # ``_greedy_ranks`` over the split's sampled ranks, in n + slots bits
        # from the field's offset, and nothing in its virtual bits
        pre = inst.pre()
        n = pre.n_real
        _, starts = exact._enum_states(pre, False)
        assert len(starts) == 1 << n
        for mask, state in enumerate(starts[1:], 1):
            assert state & ((1 << n) - 1) == mask
            want = _greedy_ranks(pre, [not mask >> r & 1 for r in range(n)])
            offset = n
            for x, v in enumerate(pre.slots):
                assert state >> offset & ((1 << n + v) - 1) == sum(1 << r for r in want[x])
                offset += n + v

    def test_set_bit_table_covers_every_state(self):
        # every state up to the limit is in the table, so no enumeration
        # within the limit indexes past it
        table = exact._SET_BITS
        assert len(table) >= 1 << exact.EXACT_ENUM_LIMIT
        for state in range(1 << exact.EXACT_ENUM_LIMIT):
            assert table[state] == tuple((r, 1 << r) for r in range(state.bit_length())
                                         if state >> r & 1)

    @pytest.mark.parametrize("padding", [True, False])
    def test_capacity_does_not_drive_the_cost(self, padding):
        weights = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0]
        small = exact_expectation(rank1(weights, capacity=6), 0.2, padding=padding)
        huge = rank1(weights, capacity=10 ** 9)
        tracemalloc.start()
        try:
            assert exact_expectation(huge, 0.2, padding=padding) == small
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _rational_rest(state, steps, w, memo):
    """``exact._expected_rest`` with no canonical form, in exact rationals:
    every arrival still to come averaged, every state memoized as it is."""
    value = memo.get(state)
    if value is not None:
        return value
    remaining = state & ((1 << len(w)) - 1)
    total = Fraction(0)
    for r, low in exact._SET_BITS[remaining]:
        after = state ^ low
        for m, _, _, _ in steps[r]:
            x = after & m
            if not x:
                break
            after ^= x & -x
        else:
            total += w[r]
        if remaining != low:
            total += _rational_rest(after, steps, w, memo)
    value = total / remaining.bit_count()
    memo[state] = value
    return value


class TestCanonicalStates:
    """The two rules that make ``exact._expected_rest``'s memo states
    canonical, checked in exact rationals: field bits that no rank still to
    come can read are cut (``exact._readable``), and ranks that find no
    lighter entry at their minimal node leave the arrivals."""

    @settings(max_examples=60, deadline=None)
    @given(FAMILIES, st.integers(1, 5), st.integers(0, 10_000),
           st.sampled_from((Fraction(1, 20), Fraction(2, 25), Fraction(1, 5), Fraction(9, 20))),
           st.booleans())
    def test_every_reachable_state_keeps_its_value(self, family, n, seed, p, padding):
        inst = family_instance(family, n, seed)
        pre = inst.pre()
        w = list(map(Fraction, pre.w_by_rank))
        steps, starts = exact._enum_states(pre, padding)
        readable = exact._readable(steps)
        memo = {}
        expected = Fraction(0)
        for mask, state in enumerate(starts[1:], 1):
            t = mask.bit_count()
            expected += (1 - p) ** (n - t) * p ** t * _rational_rest(state, steps, w, memo)
        for state, value in list(memo.items()):
            remaining = state & ((1 << n) - 1)
            live = remaining
            for r, low in exact._SET_BITS[remaining]:
                if not state & steps[r][0][0]:
                    live ^= low
            canonical = state & readable[live]
            assert canonical & ((1 << n) - 1) == live
            want = _rational_rest(canonical, steps, w, memo) if live else 0
            assert value == want, (state, canonical)
        got, _ = exact_expectation(inst, float(p), padding=padding)
        assert abs(got - expected) <= 1e-12 * expected

    def test_readable_is_the_union_of_the_ranks_reads(self):
        # per rank set R: R's bits and, at each node, the field positions
        # above the least rank of R whose chain holds the node
        pre = family_instance("random_tree", 6, 38).pre()
        steps, _ = exact._enum_states(pre, True)
        readable = exact._readable(steps)
        assert len(readable) == 1 << 6
        for R in range(1 << 6):
            want = R
            for r in range(6):
                if R >> r & 1:
                    for m, _, _, _ in steps[r]:
                        want |= m
            assert readable[R] == want

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.builds(family_instance, FAMILIES, st.integers(1, 8),
                               st.integers(0, 10_000)),
                     shaped_trees(max_elements=8, max_capacity=10)),
           st.booleans())
    def test_every_memo_key_is_canonical(self, inst, padding):
        # read from the instance's tree, not from ``exact``'s tables: every
        # rank still to arrive finds a lighter entry at its minimal node, and
        # the key holds no field bit at or below a node's least such rank,
        # nor any in a field that no such rank passes
        pre = inst.pre()
        n = pre.n_real
        steps, starts = exact._enum_states(pre, padding)
        _, _, memo = exact._expected_splits(pre, 0.08, steps, starts)
        offset = list(accumulate((n + v for v in pre.slots), initial=n))
        for key in memo:
            readable = remaining = key & ((1 << n) - 1)
            for r in range(n):
                if remaining >> r & 1:
                    home = pre.chain_by_rank[r][0]
                    assert key >> offset[home] + r + 1 & (1 << n + pre.slots[home]) - 1, \
                        f"rank {r} is dead in {key:#x}"
                    for b in pre.chain_by_rank[r]:
                        readable |= ((1 << n + pre.slots[b]) - (2 << r)) << offset[b]
            assert key & readable == key, f"unreadable bits in {key:#x}"

    def test_memo_at_twelve(self):
        # the memo holds canonical states alone: 75 here, against 4397
        # entries with each dead-rank state stored beside its canonical one
        pre = generate(GenSpec("partition", 12, 7)).pre()
        exact._set_bits(12)
        steps, starts = exact._enum_states(pre, True)
        _, _, memo = exact._expected_splits(pre, 0.08, steps, starts)
        assert len(memo) == 75

    @pytest.mark.parametrize("padding", [True, False])
    @pytest.mark.parametrize("family", ["uniform", "partition", "chain", "random_tree"])
    def test_peak_memory_at_the_limit(self, family, padding):
        # measured at 29-396 KiB (Python 3.11; chain with padding the
        # largest): the bound leaves 1.6x headroom over the largest, and a
        # raise of ``EXACT_ENUM_LIMIT`` must still pass it at n = 8
        inst = generate(GenSpec(family, 8, 7))
        exact_expectation(inst, 0.08, padding=padding)  # builds the instance's tables
        tracemalloc.start()
        try:
            exact_expectation(inst, 0.08, padding=padding)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640 * 1024, peak

    @pytest.mark.parametrize("padding", [True, False])
    @pytest.mark.parametrize("family", ["uniform", "partition", "chain", "random_tree"])
    def test_peak_memory_at_ten(self, family, padding):
        # past the limit, through the internals as ``scripts/exact_layers.py``
        # calls them: measured at 116-1580 KiB (Python 3.11; chain with
        # padding the largest); the bound leaves 1.7x headroom over the
        # largest, and a raise of ``EXACT_ENUM_LIMIT`` to 10 must pass it
        pre = generate(GenSpec(family, 10, 7)).pre()
        exact._set_bits(10)
        exact._enum_states(pre, padding)  # builds the instance's tables
        tracemalloc.start()
        try:
            steps, starts = exact._enum_states(pre, padding)
            exact._expected_splits(pre, 0.08, steps, starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2700 * 1024, peak


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
class TestMasterSeedRange:
    """A master seed outside 0..2^64-1 is refused, not wrapped onto the
    stream of another seed."""

    def test_monte_carlo(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            monte_carlo_ratio(four_element(), 0.08, 10, master_seed=seed)

    def test_allkicked(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            allkicked_frequency(four_element(), 0.08, 10, master_seed=seed)

    def test_verify_lemmas(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            verify_lemmas(four_element(), 0.08, trials=10, master_seed=seed)

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_qualifying(self, seed, method):
        with pytest.raises(ValueError, match="seed must be in"):
            qualifying_joint_probability(four_element(), 0.08, 1, [1], element_id=2,
                                         master_seed=seed, trials=10, method=method)

    def test_bounds_are_accepted(self, seed):
        edge = 0 if seed < 0 else 2 ** 64 - 1
        assert monte_carlo_ratio(four_element(), 0.08, 10, master_seed=edge).ratio.trials == 10


class TestTrials:
    """``_trials`` is the one trial stream of the Monte Carlo ratio, the
    eviction-failure frequencies and the lemma checks."""

    @pytest.mark.parametrize("n", [16, 17])  # where ``_trial_weights_chunk`` switches paths
    @pytest.mark.parametrize("padding", [True, False])
    def test_matches_draw_and_reference_lists(self, n, padding):
        # trials 5 to 204 run through three blocks of 64 draws, starting
        # inside the first
        pre = generate(GenSpec("random_tree", n, 4)).pre()
        assert _block_size(n, 0.3) == 64
        got = list(_trials(pre, 0.3, 7, 5, 200, padding))
        assert len(got) == 200
        for trial, (in_s, order) in zip(got, trials_by_prefix(n, 0.3, 7, 5, 200)):
            assert trial == (order, encode_fields(pre, ref_lists_by_full_pass(pre, in_s, padding)))
            assert _flags(n, trial[0]) == in_s
        # the first draw of a block is the one-seed draw of its seed
        for idx in (64, 128, 192):
            in_s, order = _sample_ids(pre, 0.3, derive_seed(7, idx // 64))
            assert got[idx - 5][0] == order

    def test_yields_fresh_lists(self):
        # n = 4: sample sets repeat, and each must still get fields of its own
        pre = generate(GenSpec("chain", 4, 2)).pre()
        seen = set()
        repeats = 0
        for order, fields in _trials(pre, 0.5, 3, 0, 200, True):
            in_s = _flags(4, order)
            assert fields == encode_fields(pre, ref_lists_by_full_pass(pre, in_s, True))
            repeats += tuple(in_s) in seen
            seen.add(tuple(in_s))
            fields[:] = [0] * len(fields)  # consume every field, as a walk would
            order.clear()
        assert repeats > 100


class TestTrialBlocks:
    """Trial i of a master seed is draw ``i % B`` of the stream of
    ``derive_seed(master_seed, i // B)``; a range of trials, a ``--jobs``
    chunk among them, may start and end anywhere inside a block."""

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 40), st.sampled_from((0.05, 0.2, 0.45)), st.integers(0, 2**64 - 1),
           st.integers(0, 200), st.integers(1, 150))
    def test_orders_match_the_reference(self, n, p, master_seed, start, count):
        pre = rank1(range(1, n + 1)).pre()
        want = [order for _, order in trials_by_prefix(n, p, master_seed, start, count)]
        draws = experiments._arrival_draws(pre, p, master_seed, start, count)
        assert list(starmap(_order, draws)) == want

    @pytest.mark.parametrize("n", [6, 16, 17, 40])  # the weight memo runs up to 16
    @pytest.mark.parametrize("padding", [True, False])
    def test_a_split_at_every_offset_changes_no_weight(self, n, padding):
        inst = generate(GenSpec("random_tree", n, 3))
        p, seed = 0.2, 9
        size = _block_size(n, p)
        assert size == 64
        whole = _trial_weights_chunk(inst, p, 0, 3 * size, seed, padding)
        for cut in range(size, 2 * size + 1):  # every offset in block 1, and its end
            head = _trial_weights_chunk(inst, p, 0, cut, seed, padding)
            tail = _trial_weights_chunk(inst, p, cut, 3 * size - cut, seed, padding)
            assert head + tail == whole, cut
        # a chunk that starts and ends inside one block
        assert _trial_weights_chunk(inst, p, size + 5, 10, seed, padding) == whole[size + 5:size + 15]

    @pytest.mark.parametrize("cores", [2, 3, 7])
    def test_chunk_plans_change_no_weight(self, monkeypatch, cores):
        # the chunks of a ``--jobs`` plan, computed here without a worker
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        inst = generate(GenSpec("chain", 9, 4))
        whole = _trial_weights_chunk(inst, 0.1, 0, 600, 3, True)
        plan = _chunk_plan(600, cores)
        assert len(plan) == cores
        assert [w for start, count in plan
                for w in _trial_weights_chunk(inst, 0.1, start, count, 3, True)] == whole


class TestGlobalOptima:
    """The whole ground set's per-node optima are built once per instance and
    shared, read-only, by the ratio denominators, the theory sums and the
    checks."""

    @settings(max_examples=40, deadline=None)
    @given(FAMILIES, st.integers(1, 30), st.integers(0, 10_000))
    def test_memoized_and_equal_to_a_fresh_build(self, family, n, seed):
        inst = family_instance(family, n, seed)
        pre = inst.pre()
        first = _global_optima(pre)
        assert _global_optima(pre) is first
        every = [True] * pre.n_real
        assert first == tuple(map(tuple, ref_lists_by_full_pass(pre, every, False)))
        # the padded view is the cached optima padded to capacity; the lists
        # hold the slots a walk can reach, and the ones they leave out are
        # virtual, lighter than every member
        padded = ref_lists_by_full_pass(pre, every, True)
        for b, R in enumerate(padded):
            assert len(R) == min(pre.mu[b], len(pre.members(b)))
            for r in pre.members(b):
                assert _global_brank(pre, first, b, r) == _padded_brank(R, r) + pre.mu[b] - len(R)
        # the same summation order, so the very same float
        assert experiments._opt_weight(inst) == greedy_opt(inst, None, inst.root_id).weight

    def test_a_verify_sequence_builds_the_optimum_once(self, monkeypatch):
        calls = []
        real = matroid._greedy_ranks

        def counted(pre, in_v, *rest):
            calls.append(all(in_v))
            return real(pre, in_v, *rest)

        # the one binding: reference lists and optima are both built in matroid
        assert not hasattr(kicknext, "_greedy_ranks")
        inst = generate(GenSpec("random_tree", 8, 3))
        p, trials, seed = 0.14, 10, 30
        orders = list(starmap(_order, experiments._arrival_draws(inst.pre(), p, seed, 0, trials)))
        # no draw of these trials is empty, so no trial builds from all-True flags
        assert all(orders)
        # a trial builds only when an arrival is in some node's OPT (built
        # here on a copy, before the count starts)
        opt = _global_optima(generate(GenSpec("random_tree", 8, 3)).pre())
        rebuilds = [any(r in O for O in opt for r in order) for order in orders]
        assert 0 < sum(rebuilds) < trials
        monkeypatch.setattr(matroid, "_greedy_ranks", counted)
        fields = []
        real_fields = experiments._ref_fields

        def counted_fields(pre, arrivals, padding):
            fields.append(tuple(arrivals))
            return real_fields(pre, arrivals, padding)

        monkeypatch.setattr(experiments, "_ref_fields", counted_fields)
        monte_carlo_ratio(inst, p, trials, seed)
        # n <= SMALL_N: a repeated order reads the weight memo and builds
        # nothing; a new order builds its sets once, on bits, so the only
        # list pass is the one OPT build
        built = list(dict.fromkeys(map(tuple, orders)))
        assert fields == built
        assert len(calls) == 1
        checks = verify_lemmas(inst, p, trials=trials, master_seed=seed)
        assert checks[0].passed  # c < 1/2: the chain-decay sums ran
        allkicked_frequency(inst, p, trials, seed)
        before = len(calls)
        exact_ratio(inst, p)
        # exact enumeration builds its start states on ints, with no list
        assert len(calls) == before
        assert sum(calls) == 1
        # each of the two trial loops builds every trial's sets once, on
        # bits too, so the one list pass is still OPT's
        assert len(calls) == 1
        assert fields == built + 2 * list(map(tuple, orders))

    def test_whole_set_optima_read_the_cache(self, monkeypatch):
        inst = generate(GenSpec("random_tree", 12, 5))
        monte_carlo_ratio(inst, 0.08, 5, 1)
        calls = []
        real = matroid._greedy_ranks

        def counted(pre, in_v):
            calls.append(1)
            return real(pre, in_v)

        monkeypatch.setattr(matroid, "_greedy_ranks", counted)
        pre = inst.pre()
        for b, nd in enumerate(inst.nodes):
            opt = greedy_opt(inst, None, nd.id)
            assert opt.elements == tuple(pre.ids_by_rank[r] for r in reversed(_global_optima(pre)[b]))
            for eid in inst.members(nd.id):
                brank(inst, eid, nd.id)
        assert calls == []
        assert greedy_opt(inst, inst.element_ids(), inst.root_id) == greedy_opt(inst, None, inst.root_id)
        assert calls == [1]  # a subset takes one fresh pass


def test_one_enumeration_limit(monkeypatch):
    monkeypatch.setattr(exact, "EXACT_ENUM_LIMIT", 3)
    inst = four_element()
    with pytest.raises(ValueError, match="limited to 3 elements, got 4"):
        exact_expectation(inst, 0.08)
    with pytest.raises(ValueError, match="limited to 3 elements, got 4"):
        qualifying_joint_probability(inst, 0.08, 1, [1], element_id=1, method="exact")
    # above the limit, ``auto`` samples instead
    assert not qualifying_joint_probability(inst, 0.08, 1, [1], element_id=1, trials=200).exact
    # at the limit it enumerates: every gate reads the one binding at call time
    monkeypatch.setattr(exact, "EXACT_ENUM_LIMIT", 4)
    assert qualifying_joint_probability(inst, 0.08, 1, [1], element_id=1, trials=200).exact


class TestWeightMemo:
    """Up to ``SMALL_N`` elements ``_trial_weights_chunk`` memoizes each
    trial's weight on its arrival order; the weights must be those of the
    memo-free walk."""

    @staticmethod
    def _walked(pre, p, start, count, padding):
        return [run_weight_by_lists(pre, decode_fields(pre, fields), order)
                for order, fields in _trials(pre, p, 7, start, count, padding)]

    @pytest.mark.parametrize("n", [1, 6, 16, 17])
    @pytest.mark.parametrize("padding", [True, False])
    @pytest.mark.parametrize("cap", [None, 2])
    def test_matches_the_walk(self, monkeypatch, n, padding, cap):
        if cap is not None:  # the memo fills up and stops inserting
            monkeypatch.setattr(experiments, "_WEIGHT_MEMO_CAP", cap)
        inst = generate(GenSpec("random_tree", n, 5))
        pre = inst.pre()
        for p in (0.08, 0.5):
            got = _trial_weights_chunk(inst, p, 3, 400, 7, padding)
            assert got == self._walked(pre, p, 3, 400, padding)

    @pytest.mark.parametrize("cap", [None, 2])
    def test_walks_each_stored_order_once(self, monkeypatch, cap):
        if cap is not None:
            monkeypatch.setattr(experiments, "_WEIGHT_MEMO_CAP", cap)
        calls = []

        def counted(pre, fields, order):
            calls.append(tuple(order))
            return _run_weight(pre, fields, order)

        monkeypatch.setattr(experiments, "_run_weight", counted)
        inst = generate(GenSpec("chain", 6, 2))
        _trial_weights_chunk(inst, 0.2, 0, 500, 9, True)
        orders = [tuple(o) for o, _ in _trials(inst.pre(), 0.2, 9, 0, 500, True)]
        stored = list(dict.fromkeys(orders))[:cap]  # the first distinct orders
        assert len(calls) == sum(o not in stored for o in orders) + len(stored)
        assert len(calls) < len(orders)  # repeated orders were not walked again


class TestLiveWalk:
    """Above ``SMALL_N`` elements a trial orders and walks only its live
    arrivals, through fields that rebuild only the nodes an arrival can
    change; the weights must be those of the full order walked through the
    lists of the full pass."""

    @settings(max_examples=60, deadline=None)
    @given(FAMILIES, st.integers(17, 80), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.2, 0.45)), st.booleans(), st.integers(0, 100),
           st.integers(1, 150))
    def test_matches_the_full_walk(self, family, n, seed, p, padding, start, count):
        inst = family_instance(family, n, seed)
        assert inst.n > experiments.SMALL_N
        got = _trial_weights_chunk(inst, p, start, count, seed, padding)
        assert got == trial_weights_by_full_walk(inst, p, start, count, seed, padding)

    @settings(max_examples=60, deadline=None)
    @given(FAMILIES, st.integers(17, 60), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.2, 0.45)), st.booleans(), st.integers(0, 100))
    def test_live_order_is_the_order_of_the_live_arrivals(self, family, n, seed, p,
                                                          padding, start):
        # the walk takes the live arrivals, those lighter than some entry of
        # their minimal node's list, in the order ``_order`` gives every arrival
        inst = family_instance(family, n, seed)
        pre = inst.pre()
        home = [ch[0] for ch in pre.chain_by_rank]
        expected = []
        for arrivals, key in experiments._arrival_draws(pre, p, seed, start, 20):
            refs = ref_lists_by_full_pass(pre, _flags(pre.n_real, arrivals), padding)
            order = _order(list(arrivals), key)
            expected.append([r for r in order if refs[home[r]] and r < refs[home[r]][-1]])
        walked = []

        def recorded(pre, fields, order):
            walked.append(list(order))
            return _run_weight(pre, fields, order)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_run_weight", recorded)
            _trial_weights_chunk(inst, p, start, 20, seed, padding)
        assert walked == expected

    def test_dead_arrivals_are_left_out(self):
        # on a 2000-element partition at p = 0.08 only a few arrivals of
        # each trial can evict anything, and only they are walked
        inst = generate(GenSpec("partition", 2000, 5, parts=40, part_capacity=1))
        pre = inst.pre()
        walked = []

        def counted(pre, fields, order):
            walked.append(len(order))
            return _run_weight(pre, fields, order)

        draws = list(experiments._arrival_draws(pre, 0.08, 3, 0, 20))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_run_weight", counted)
            got = _trial_weights_chunk(inst, 0.08, 0, 20, 3, True)
        assert got == trial_weights_by_full_walk(inst, 0.08, 0, 20, 3, True)
        assert len(walked) == 20
        assert sum(walked) * 10 < sum(len(arrivals) for arrivals, _ in draws)


class TestTrialLimit:
    """Every sampling entry point refuses more than ``MAX_TRIALS`` trials
    before it draws one, as a run keeps one weight per trial."""

    @pytest.fixture(autouse=True)
    def no_draw(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(experiments, "_draws", no_draw)

    @pytest.mark.parametrize("call", [
        lambda inst, t: monte_carlo_ratio(inst, 0.08, t, 1),
        lambda inst, t: verify_report(inst, 0.08, t, 1),
        lambda inst, t: allkicked_frequency(inst, 0.08, t, 1),
        lambda inst, t: verify_lemmas(inst, 0.08, trials=t, master_seed=1),
        lambda inst, t: qualifying_joint_probability(inst, 0.08, 1, [1], element_id=2,
                                                     trials=t, method="mc"),
        lambda inst, t: qualifying_joint_probability(inst, 0.08, 1, [1], element_id=2,
                                                     trials=t, method="exact"),
    ])
    def test_refused_before_any_draw(self, call):
        assert experiments.MAX_TRIALS == 10_000_000
        with pytest.raises(ValueError, match="trials limited to 10000000, got 10000001"):
            call(four_element(), experiments.MAX_TRIALS + 1)
        with pytest.raises(ValueError, match="trials limited"):
            call(four_element(), 10 ** 10)

    def test_the_limit_itself_is_accepted(self, monkeypatch):
        monkeypatch.undo()  # draws allowed
        monkeypatch.setattr(experiments, "MAX_TRIALS", 30)
        assert monte_carlo_ratio(four_element(), 0.08, 30, 1).ratio.trials == 30
        with pytest.raises(ValueError, match="trials limited to 30, got 31"):
            monte_carlo_ratio(four_element(), 0.08, 31, 1)


# an int-valued argument that is not a plain int: a bool, a float (even an
# integral one), a string or None
NOT_PLAIN_INTS = [True, False, 2.0, 2.5, "3", None]

SEEDED_CALLS = {
    "make_trial": lambda seed: make_trial(four_element(), 0.08, seed),
    "monte_carlo_ratio": lambda seed: monte_carlo_ratio(four_element(), 0.08, 10, seed),
    "allkicked_frequency": lambda seed: allkicked_frequency(four_element(), 0.08, 10, seed),
    "verify_lemmas": lambda seed: verify_lemmas(four_element(), 0.08, trials=10,
                                                master_seed=seed),
    "verify_report": lambda seed: verify_report(four_element(), 0.08, 10, seed),
    "qualifying_joint_probability": lambda seed: qualifying_joint_probability(
        four_element(), 0.08, 1, [1], element_id=1, master_seed=seed, trials=10, method="mc"),
}

COUNTED_CALLS = {
    "monte_carlo_ratio": lambda t: monte_carlo_ratio(four_element(), 0.08, t, 1),
    "allkicked_frequency": lambda t: allkicked_frequency(four_element(), 0.08, t, 1),
    "verify_lemmas": lambda t: verify_lemmas(four_element(), 0.08, trials=t, master_seed=1),
    "verify_report": lambda t: verify_report(four_element(), 0.08, t, 1),
    "qualifying_joint_probability": lambda t: qualifying_joint_probability(
        four_element(), 0.08, 1, [1], element_id=1, trials=t, method="mc"),
}


@pytest.mark.parametrize("value", NOT_PLAIN_INTS, ids=repr)
class TestPlainIntArguments:
    """A seed, trial count or job count that is not a plain int is refused
    with ``ValueError`` before any draw, never truncated or read as 0 or 1."""

    @pytest.fixture(autouse=True)
    def _no_draws(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(kicknext, "_draws", no_draw)
        monkeypatch.setattr(experiments, "_draws", no_draw)

    @pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS)
    def test_seed(self, value, call):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {value!r}")):
            call(value)

    @pytest.mark.parametrize("call", COUNTED_CALLS.values(), ids=COUNTED_CALLS)
    def test_trials(self, value, call):
        with pytest.raises(ValueError,
                           match=re.escape(f"trials must be an integer, got {value!r}")):
            call(value)

    def test_jobs(self, value):
        with pytest.raises(ValueError, match=re.escape(f"jobs must be an integer, got {value!r}")):
            monte_carlo_ratio(four_element(), 0.08, 10, 1, jobs=value)


class TestTinyP:
    """A p whose longest trial gap overflows is refused by every function
    that takes p from the caller and draws or enumerates trials."""

    P = 1e-310

    def test_monte_carlo(self):
        with pytest.raises(ValueError, match="longest trial gap"):
            monte_carlo_ratio(four_element(), self.P, 10, 0)

    def test_allkicked(self):
        with pytest.raises(ValueError, match="longest trial gap"):
            allkicked_frequency(four_element(), self.P, 10, 0)

    def test_verify_lemmas(self):
        with pytest.raises(ValueError, match="longest trial gap"):
            verify_lemmas(four_element(), self.P, trials=10)

    def test_verify_report(self):
        with pytest.raises(ValueError, match="longest trial gap"):
            verify_report(four_element(), self.P, 10, 0)

    def test_exact(self):
        with pytest.raises(ValueError, match="longest trial gap"):
            exact_expectation(four_element(), self.P)

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_qualifying(self, method):
        with pytest.raises(ValueError, match="longest trial gap"):
            qualifying_joint_probability(four_element(), self.P, 1, [1], element_id=2,
                                         trials=10, method=method)


class TestMonteCarlo:
    def test_matches_exact_on_two_elements(self):
        inst = rank1([1.0, 2.0])
        report = monte_carlo_ratio(inst, 0.08, 100_000, master_seed=5)
        ratio = exact_ratio(inst, 0.08)
        assert abs(report.ratio.value - ratio) <= 3 * report.ratio.std_err

    def test_single_trial_reproducible(self):
        inst = four_element()
        a = monte_carlo_ratio(inst, 0.08, 1, master_seed=11)
        b = monte_carlo_ratio(inst, 0.08, 1, master_seed=11)
        assert a.ratio == b.ratio
        assert a.ratio.std_err == 0.0

    def test_estimate_beats_guarantee(self):
        report = monte_carlo_ratio(four_element(), 0.08, 30_000, master_seed=2)
        assert report.ratio.bound == approx(ratio_lower_bound(0.08), rel=1e-12)
        assert report.ratio.value >= report.ratio.bound - 3 * report.ratio.std_err

    def test_jobs_do_not_change_results(self):
        inst = generate(GenSpec("random_tree", n=9, seed=4))
        serial = monte_carlo_ratio(inst, 0.1, 600, master_seed=3, jobs=1)
        parallel = monte_carlo_ratio(inst, 0.1, 600, master_seed=3, jobs=3)
        assert serial.ratio == parallel.ratio

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            monte_carlo_ratio(four_element(), 0.1, 20, master_seed=3, jobs=jobs)

    def test_variance_does_not_cancel(self):
        values = [0.3 + 1e-9 * (i % 2) for i in range(1000)]
        mean = math.fsum(values) / len(values)
        one_pass = (math.fsum(x * x for x in values) - len(values) * mean * mean) / (len(values) - 1)
        assert one_pass == 0.0  # the cancellation the two-pass sum avoids
        assert _sample_variance(values, mean) == approx(2.5e-19, rel=1e-2)

    @pytest.mark.parametrize("cores", [1, 2, 8, None])
    def test_chunk_plan_is_clamped(self, monkeypatch, cores):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        for trials in (1, 5, 600, 10_007):
            for jobs in (-3, 0, 1, 3, 64, 10 ** 9):
                plan = _chunk_plan(trials, jobs)
                assert 1 <= len(plan) <= min(max(jobs, 1), cores or 1, trials)
                assert all(count > 0 for _, count in plan)
                ends = [start + count for start, count in plan]
                assert [start for start, _ in plan] == [0] + ends[:-1]
                assert ends[-1] == trials

    def test_estimate_in_unit_interval(self):
        for inst in mixed_instances(6, seed0=10):
            report = monte_carlo_ratio(inst, 0.2, 500, master_seed=1)
            assert 0.0 <= report.ratio.value <= 1.0

    def test_trial_validation(self):
        with pytest.raises(ValueError, match="at least one trial"):
            monte_carlo_ratio(four_element(), 0.08, 0, master_seed=0)


class TestAllKicked:
    def test_two_element_instance(self):
        # the top element fails iff the other also arrives, and first
        inst = rank1([1.0, 2.0])
        rows = allkicked_frequency(inst, 0.08, 30_000, master_seed=1)
        (row,) = [r for r in rows if r.element == 1]
        assert row.node == 0 and row.brank == 0
        assert row.frequency == approx(0.04, abs=4 * row.std_err + 1e-9)
        assert row.frequency <= row.bound + 4 * row.std_err
        assert 0 < row.conditioned_trials < 30_000

    def test_bound_column_decays_by_c(self):
        rows = allkicked_frequency(four_element(), 0.08, 50, master_seed=0)
        by_brank = {r.brank: r.bound for r in rows if r.node == 0}
        c = 0.2944
        assert by_brank[1] == approx(by_brank[0] * c, rel=1e-12)
        assert by_brank[2] == approx(by_brank[1] * c, rel=1e-12)

    def test_bounds_hold_across_instances(self):
        for inst in mixed_instances(5, seed0=21, n_hi=9):
            for row in allkicked_frequency(inst, 0.08, 3000, master_seed=6):
                assert row.frequency <= row.bound + 4 * row.std_err

    def test_rows_use_the_unpadded_backward_rank(self):
        # one node of capacity 3 holds both elements, so OPT leaves one
        # capacity slot unfilled: the padded ranks would be 2 and 1
        inst = rank1([3.0, 2.0], capacity=3)
        pre = inst.pre()
        assert [_global_brank(pre, _global_optima(pre), 0, r) for r in (0, 1)] == [2, 1]
        rows = allkicked_frequency(inst, 0.2, 50, master_seed=0)
        assert [(row.element, row.brank) for row in rows] == [(1, 0), (0, 1)]
        params = theory_params(0.2)
        assert [row.bound for row in rows] == [allkicked_bound(params, 0),
                                               allkicked_bound(params, 1)]


class TestRankSpaceHarness:
    """The rank-space harness against the id-space implementations it
    replaced, kept in ``helpers``."""

    @settings(max_examples=80, deadline=None)
    @given(FAMILIES, st.integers(1, 15), st.integers(0, 10_000), P_VALUES, st.booleans())
    def test_allkicked_rows(self, family, n, seed, p, padding):
        inst = family_instance(family, n, seed)
        assert (allkicked_frequency(inst, p, 40, seed, padding=padding)
                == allkicked_frequency_by_trace(inst, p, 40, seed, padding=padding))

    @settings(max_examples=80, deadline=None)
    @given(FAMILIES, st.integers(1, 15), st.integers(0, 10_000), P_VALUES)
    def test_qualifying_counts(self, family, n, seed, p):
        inst = family_instance(family, n, seed)
        pre = inst.pre()
        for t_idx in range(4):
            sample = make_trial(inst, p, derive_seed(seed, t_idx)).sample_set
            in_s = [eid in sample for eid in pre.ids_by_rank]
            arrived = [r for r, s in enumerate(in_s) if not s]
            fields = encode_fields(pre, ref_lists_by_full_pass(pre, in_s, True))
            for b, nid in enumerate(pre.node_ids):
                for eid in inst.members(nid):
                    members = _qualifying_members(pre, b, pre.rank_by_id[eid])
                    want = qualifying_counts_by_ids(inst, nid, eid, sample)
                    # one count per padded-set entry: the capacity-long
                    # counts past the lightest mu - slots, which are zero
                    head = pre.mu[b] - pre.slots[b]
                    assert _qualifying_counts(fields, b, members, arrived) == want[head:]
                    assert want[:head] == [0] * head

    @settings(max_examples=80, deadline=None)
    @given(FAMILIES, st.integers(1, 15), st.integers(0, 10_000), P_VALUES)
    def test_backward_ranks(self, family, n, seed, p):
        inst = family_instance(family, n, seed)
        pre = inst.pre()
        opt = _global_optima(pre)
        opts = reference_sets(inst, None, padding=False)
        sample = make_trial(inst, p, seed).sample_set
        refs = ref_lists_by_full_pass(pre, [eid in sample for eid in pre.ids_by_rank], True)
        ref_ids = reference_sets(inst, sample, padding=True)
        for b, nid in enumerate(pre.node_ids):
            for eid in inst.members(nid):
                r = pre.rank_by_id[eid]
                assert _global_brank(pre, opt, b, r) == padded_brank_by_ids(inst, opts, eid, nid)
                assert _padded_brank(opt[b], r) == brank(inst, eid, nid)
                key = inst.key(eid)
                assert _padded_brank(refs[b], r) == sum(1 for x in ref_ids[nid] if inst.key(x) > key)


class TestChecksOnBits:
    """The checks on fields against their list forms, kept in ``helpers``,
    trial for trial."""

    @settings(max_examples=120, deadline=None)
    @given(FAMILY_OR_SHAPED, st.sampled_from((0.05, 0.08, 0.2, 0.3, 0.45)),
           st.integers(0, 10_000), st.integers(1, 40), st.booleans())
    def test_equal_the_list_checks(self, inst, p, seed, trials, padding):
        pre = inst.pre()
        drawn = list(_trials(pre, p, seed, 0, trials, padding))
        lists = [(order, ref_lists_by_full_pass(pre, _flags(pre.n_real, order), padding))
                 for order, _ in drawn]
        for fields, (order, refs) in zip((f for _, f in drawn), lists):
            assert fields == encode_fields(pre, refs)

        dominance = experiments._Dominance(pre)
        for t_idx, (order, fields) in enumerate(drawn):
            dominance.step(t_idx, order, list(fields))
        assert ((dominance.weak_witness, dominance.member_witness,
                 dominance.strict_violations, dominance.strict_example)
                == dominance_by_lists(pre, lists))

        params = theory_params(p)
        failures = experiments._EvictionFailures(pre)
        weights = [failures.walk(fields, order) for order, fields in drawn]
        assert (weights, failures.rows(params)) == failures_by_lists(pre, lists, params)
        # the walk is the Monte Carlo walk, weight for weight
        assert weights == [_run_weight(pre, matroid._ref_fields(pre, order, padding), order)
                           for order, _ in drawn]

        for order, _ in drawn:
            fields = matroid._ref_fields(pre, order, True)
            skip = order[0] if order else -1  # the conditioning element, if any
            for b in range(len(pre.mu)):
                members = _qualifying_members(pre, b, skip)
                assert (_qualifying_counts(fields, b, members, order)
                        == qualifying_counts_by_lists(pre, b, members, set(order)))


class TestQualifyingJointProbability:
    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_an_element_outside_the_node_is_refused(self, monkeypatch, method):
        inst = generate(GenSpec("random_tree", 7, 3))
        assert inst.membership[1] == 0 and 1 not in inst.members(1)

        def refused(*args):
            raise AssertionError("drawn or enumerated")

        monkeypatch.setattr(experiments, "_arrival_draws", refused)
        monkeypatch.setattr(experiments, "_split_law", refused)
        with pytest.raises(InstanceError, match="^element 1 is not contained in node 1$"):
            qualifying_joint_probability(inst, 0.08, 1, [0, 0, 0], 1, method=method)

    @pytest.mark.parametrize("method,counts,want", [
        ("exact", [0, 0, 0], "0x1.47ae147ae147dp-1"),
        ("exact", [0, 1, 0], "0x1.47ae147ae147dp-3"),
        ("mc", [0, 0, 0], "0x1.3a41a41a41a42p-1"),
        ("mc", [0, 1, 0], "0x1.65be5be5be5bep-3"),
    ])
    def test_a_contained_element_keeps_its_law(self, method, counts, want):
        inst = generate(GenSpec("random_tree", 7, 3))
        q = qualifying_joint_probability(inst, 0.2, 1, counts, 3, master_seed=5, trials=3000,
                                         method=method)
        assert q.probability.hex() == want
        assert q.conditioned_trials == (None if method == "exact" else 624)

    def test_three_element_exact_law(self):
        inst = rank1([1.0, 2.0, 3.0])
        p = 0.08
        results = {
            tuple(counts): qualifying_joint_probability(inst, p, 0, counts, element_id=2)
            for counts in ([0], [1], [2])
        }
        assert all(r.exact for r in results.values())
        assert results[(0,)].probability == approx(1 - p, rel=1e-12)
        assert results[(1,)].probability == approx(p * (1 - p), rel=1e-12)
        assert results[(2,)].probability == approx(p * p, rel=1e-12)
        # the conditional law is complete
        assert sum(r.probability for r in results.values()) == approx(1.0, abs=1e-12)
        # and sits below the product bound everywhere
        for counts, r in results.items():
            assert r.bound == approx(p ** sum(counts), rel=1e-12)
            assert r.probability <= r.bound + 1e-12

    def test_zero_counts_trivial_bound(self):
        r = qualifying_joint_probability(four_element(), 0.08, 1, [0], element_id=1)
        assert r.bound == 1.0
        assert r.probability <= 1.0

    @pytest.mark.parametrize("method", ["exact", "mc"])
    @pytest.mark.parametrize("trials", [0, -5])
    def test_trial_validation(self, method, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            qualifying_joint_probability(four_element(), 0.08, 1, [1], element_id=2,
                                         trials=trials, method=method)

    def test_monte_carlo_agrees_with_exact(self):
        inst = rank1([1.0, 2.0, 3.0])
        enumerated = qualifying_joint_probability(inst, 0.08, 0, [1], element_id=2)
        mc = qualifying_joint_probability(
            inst, 0.08, 0, [1], element_id=2, method="mc", trials=30_000, master_seed=9
        )
        assert not mc.exact and mc.conditioned_trials > 0
        assert abs(mc.probability - enumerated.probability) <= 4 * mc.std_err

    def test_counts_length_validation(self):
        with pytest.raises(ValueError, match="one entry per reference slot"):
            qualifying_joint_probability(four_element(), 0.08, 0, [1], element_id=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            qualifying_joint_probability(four_element(), 0.08, 1, [-1], element_id=0)

    @pytest.mark.parametrize("count", [0.9, 1.5, True, False, float("nan"), float("inf"), "1"])
    def test_non_integral_counts_rejected(self, count):
        # int() would truncate 0.9 to 0 and compare against the wrong event
        with pytest.raises(ValueError, match="counts must be integers"):
            qualifying_joint_probability(four_element(), 0.08, 1, [count], element_id=2)

    def test_integral_float_counts_accepted(self):
        assert (qualifying_joint_probability(four_element(), 0.08, 1, [1.0], element_id=1)
                == qualifying_joint_probability(four_element(), 0.08, 1, [1], element_id=1))

    @pytest.mark.parametrize("n,method,p", [(8, "exact", 0.3), (20, "mc", 0.08)])
    def test_capacity_pads_the_law_with_zero_counts(self, n, method, p):
        # on one node the padded list holds n slots whatever the capacity, and
        # a capacity-long count vector has capacity - n always-zero counts in
        # front: at capacity 10^5 the law of the counts so padded is the law
        # at capacity n
        weights = [float((7 * i) % n + 1) for i in range(n)]
        small, big = rank1(weights, capacity=n), rank1(weights, capacity=10**5)
        head = [0] * (10**5 - n)
        seen = {(0,) * n}
        for t_idx in range(40 if method == "exact" else 6):
            sample = make_trial(small, p, derive_seed(1, t_idx)).sample_set - {3}
            seen.add(tuple(qualifying_counts_by_ids(small, 0, 3, sample)))
        assert len(seen) > 1
        kw = dict(element_id=3, method=method, trials=2000, master_seed=5)
        total = 0.0
        for counts in sorted(seen):
            want = qualifying_joint_probability(small, p, 0, counts, **kw)
            assert qualifying_joint_probability(big, p, 0, head + list(counts), **kw) == want
            total += want.probability
            nonzero_head = [1] + head[1:] + list(counts)
            got = qualifying_joint_probability(big, p, 0, nonzero_head, **kw)
            assert got.probability == 0.0 and got.bound == p ** (1 + sum(counts))
        assert total > 0.0

    def test_exact_nonzero_head_skips_the_splits(self, monkeypatch):
        # capacity 5 over 3 members: the first two counts are always zero, so
        # a nonzero one matches no split and no split's fields are built
        inst = rank1([3.0, 1.0, 2.0], capacity=5)
        assert qualifying_joint_probability(inst, 0.2, 0, [0, 0, 0, 0, 1], element_id=1,
                                            method="exact").probability > 0.0

        def no_fields(*args):
            raise AssertionError("a split's fields were built")

        monkeypatch.setattr(experiments, "_ref_fields", no_fields)
        got = qualifying_joint_probability(inst, 0.2, 0, [0, 1, 0, 0, 1], element_id=1,
                                           method="exact")
        assert got == experiments.QualifyingProbability(0.0, 0.2 ** 2, True)
        with pytest.raises(ValueError, match="exact enumeration limited"):
            qualifying_joint_probability(rank1([1.0] * 9, capacity=12), 0.2, 0, [1] + [0] * 11,
                                         element_id=1, method="exact")

    def test_capacity_long_counts_are_not_copied(self):
        # the counts' validation keeps the slots-long tail, not a copy of
        # the capacity-long vector the caller holds
        n = 8
        weights = [float((7 * i) % n + 1) for i in range(n)]
        small, big = rank1(weights, capacity=n), rank1(weights, capacity=10**5)
        tail = [0, 0, 1, 0, 0, 0, 0, 0]
        counts = [0] * (10**5 - n) + tail
        kw = dict(element_id=3, method="mc", trials=200, master_seed=5)
        want = qualifying_joint_probability(small, 0.3, 0, tail, **kw)
        assert want.probability > 0.0
        qualifying_joint_probability(big, 0.3, 0, counts, **kw)  # builds the instance's tables
        tracemalloc.start()
        try:
            got = qualifying_joint_probability(big, 0.3, 0, counts, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 64 * 1024, peak


class TestVerifyLemmas:
    def test_four_element_all_pass(self):
        checks = verify_lemmas(four_element(), 0.08, trials=100)
        asserted = [c for c in checks if c.passed is not None]
        assert asserted and all(c.passed for c in asserted)
        names = {c.name for c in checks}
        assert {"g-chain-decay", "weighted-penalty", "telescoping-identity",
                "brank-dominance", "brank-dominance-optimum"} <= names

    def test_skips_when_hypothesis_fails(self):
        # p = 0.2 gives c = 0.64 >= 1/2: the decay lemmas do not apply
        checks = {c.name: c for c in verify_lemmas(four_element(), 0.2, trials=50)}
        for name in ("g-chain-decay", "weighted-penalty", "telescoping-identity"):
            assert checks[name].passed is None
            assert "hypothesis not met" in checks[name].detail
        assert checks["brank-dominance"].passed is True

    def test_random_instances_pass(self):
        for inst in mixed_instances(12, seed0=33, n_hi=10):
            checks = verify_lemmas(inst, 0.08, trials=60)
            bad = [c for c in checks if c.passed is False]
            assert not bad, bad

    def test_p_domain(self):
        with pytest.raises(ValueError, match="must be in"):
            verify_lemmas(four_element(), 0.6)

    def test_zero_optimum_is_refused(self):
        # the weighted-penalty bound is 2c/(1-c) times OPT's weight, read
        # from ``_opt_weight``, as the ratio's denominator is
        empty = make_instance("empty", [], [FamilyNode(0, 1, None)], {})
        with pytest.raises(ValueError, match="degenerate"):
            verify_lemmas(empty, 0.08, trials=3)
        # with c >= 1/2 the decay checks are skipped, so OPT is not weighed
        assert all(c.passed is None for c in verify_lemmas(empty, 0.2, trials=3)[:3])

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trial_validation(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            verify_lemmas(four_element(), 0.08, trials=trials)


class TestVerifyReport:
    @settings(max_examples=60, deadline=None)
    @given(FAMILIES, st.integers(1, 40), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.08, 0.2, 0.3)), st.sampled_from((1, 37, 600)))
    def test_one_pass_equals_the_separate_calls(self, family, n, seed, p, trials):
        inst = family_instance(family, n, seed)
        report = verify_report(inst, p, trials, seed)
        # up to 16 elements ``monte_carlo_ratio`` reads its weight memo
        alone = monte_carlo_ratio(inst, p, trials, seed)
        assert (report.instance, report.p, report.trials, report.master_seed) == (
            alone.instance, alone.p, alone.trials, alone.master_seed)
        assert report.ratio == alone.ratio
        assert report.lemma_checks == verify_lemmas(
            inst, p, trials=min(trials, experiments.LEMMA_TRIALS), master_seed=seed)
        assert report.allkicked == allkicked_frequency(inst, p, trials, seed)

    @pytest.mark.parametrize("p,trials,seed,message", [
        (0.6, 0, 0, "at least one trial"),
        (1.5, 10, 0, "p must be in \\(0, 1\\)"),
        (0.6, 10, -1, "seed must be in"),
        (0.6, 10, 0, "p must be in \\(0, 1/2\\)"),
    ])
    def test_checks_come_before_any_draw(self, monkeypatch, p, trials, seed, message):
        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(experiments, "_draws", no_draw)
        with pytest.raises(ValueError, match=message):
            verify_report(four_element(), p, trials, seed)

    def test_zero_optimum_is_refused_before_p(self):
        empty = make_instance("empty", [], [FamilyNode(0, 1, None)], {})
        with pytest.raises(ValueError, match="degenerate"):
            verify_report(empty, 0.6, 10, 0)


def _dominance(inst, trials):
    """``_Dominance`` driven over (order, refs) trials, each trial's lists
    fed as the fields they stand for (``encode_fields``), its four
    outcomes in the order ``dominance_by_scan`` returns them."""
    pre = inst.pre()
    dominance = experiments._Dominance(pre)
    for t_idx, (order, refs) in enumerate(trials):
        dominance.step(t_idx, order, encode_fields(pre, refs))
    return (dominance.weak_witness, dominance.member_witness,
            dominance.strict_violations, dominance.strict_example)


def _list_trials(pre, p, seed, trials):
    """The first ``trials`` trials of ``_trials`` (padded), each with its
    fields decoded into the rank lists they stand for."""
    return [(order, decode_fields(pre, fields))
            for order, fields in _trials(pre, p, seed, 0, trials, True)]


def _counting(fields):
    """``fields`` as ints that count the popcounts taken of them masked,
    with the count, a one-item list."""
    taken = [0]

    class Counted(int):
        def __and__(self, other):
            return Counted(int(self) & other)

        def bit_count(self):
            taken[0] += 1
            return int.bit_count(self)

    return [Counted(f) for f in fields], taken


def _scan(inst, trials):
    n = inst.pre().n_real
    return dominance_by_scan(inst, [(_flags(n, order), refs) for order, refs in trials])


def _swap_in_heavier(refs, b, e, h):
    """Node ``b``'s list with real entry ``e`` swapped for the heavier
    non-entry ``h``: still padded, and able to break the weak check."""
    refs[b] = sorted([x for x in refs[b] if x != e] + [h])


def _drop_lighter(pre, refs, b, r):
    """Node ``b``'s list with every entry lighter than the arriving ``r``
    removed: refilled with the heaviest members of ``b`` above ``r``, then
    padded to the node's slots as ``_ref_fields`` pads, so ``r``'s
    backward rank can fall to OPT's."""
    heavier = [x for x in pre.members(b) if x < r][:pre.mu[b]]
    base = pre.virtual_rank_base[b]
    refs[b] = heavier + list(range(base, base + pre.slots[b] - len(heavier)))


class TestDominance:
    @settings(max_examples=50, deadline=None)
    @given(FAMILIES, st.integers(1, 40), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.08, 0.2, 0.3)), st.integers(1, 600))
    def test_equals_the_member_scan(self, family, n, seed, p, trials):
        inst = family_instance(family, n, seed)
        drawn = _list_trials(inst.pre(), p, seed, trials)
        assert _dominance(inst, drawn) == _scan(inst, drawn)

    @settings(max_examples=80, deadline=None)
    @given(FAMILIES, st.integers(2, 30), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.08, 0.2, 0.3)), st.integers(1, 60),
           st.sampled_from(("swap", "drop")), st.data())
    def test_equals_the_member_scan_on_doctored_lists(self, family, n, seed, p, trials,
                                                       kind, data):
        inst = family_instance(family, n, seed)
        pre = inst.pre()
        drawn = _list_trials(pre, p, seed, trials)
        order, refs = drawn[data.draw(st.integers(0, trials - 1))]
        if kind == "swap":
            choices = [(b, e, h) for b in range(len(pre.mu)) for e in refs[b] if e < pre.n_real
                       for h in pre.members(b) if h < e and h not in refs[b]]
        else:
            choices = [(b, r) for r in order for b in pre.chain_by_rank[r]
                       if r in _global_optima(pre)[b]]
        if choices:
            args = data.draw(st.sampled_from(choices))
            if kind == "swap":
                _swap_in_heavier(refs, *args)
            else:
                _drop_lighter(pre, refs, *args)
        assert _dominance(inst, drawn) == _scan(inst, drawn)

    def test_doctored_lists_give_witnesses(self):
        # ranks: 0 and 1 in the unit-capacity node (index 1), 2 and 3 in the
        # root (index 0, capacity 3); OPT is [0, 2, 3] at the root, [0] below
        inst = four_element()
        pre = inst.pre()
        assert _global_optima(pre) == ((0, 2, 3), (0,))
        # rank 1 arrives, and the root's entry 3 is swapped for it
        swapped = [([1], [[0, 2, 3], [0]])]
        _swap_in_heavier(swapped[0][1], 0, 3, 1)
        # rank 2 (in OPT) arrives, and the root's lighter entries go
        dropped = [([2], [[0, 3, pre.virtual_rank_base[0]], [0]])]
        _drop_lighter(pre, dropped[0][1], 0, 2)
        assert dropped[0][1][0] == [0, 1, pre.virtual_rank_base[0]]
        for trials in (swapped, dropped, swapped + dropped):
            assert _dominance(inst, trials) == _scan(inst, trials)
        assert _dominance(inst, swapped)[:2] == ("trial 0, element 1, node 0: 1 < 2", "")
        assert _dominance(inst, dropped)[1] == "trial 0, element 2, node 0: 1 < 1+1"

    def test_more_real_entries_than_opt_is_a_weak_witness(self):
        # node 1 (capacity 1) holds ranks 0 and 3, the root (capacity 4)
        # ranks 1 and 2, so OPT at the root is [0, 1, 2]; a root list that
        # also holds 3 is no lighter than OPT anywhere, but one entry longer
        inst = tree("long", [(0, 4, None), (1, 1, 0)], {0: 1, 1: 0, 2: 0, 3: 1},
                    [4.0, 3.0, 2.0, 1.0])
        trials = [([3], [[0, 1, 2, 3], [0]])]
        assert _dominance(inst, trials) == _scan(inst, trials)
        assert _dominance(inst, trials)[0] == "trial 0, element 3, node 0: 0 < 1"

    def test_witnesses_do_not_depend_on_the_ids(self):
        # ids times 7 keep the weight order, ties included, but the root's
        # member frozenset iterates in another order
        inst = family_instance("uniform", 6, 3)
        relabelled = make_instance(inst.name, [Element(7 * e.id, e.weight) for e in inst.elements],
                                   inst.nodes, {7 * e: b for e, b in inst.membership.items()})
        root = inst.root_id
        assert list(inst.members(root)) != [x // 7 for x in relabelled.members(root)]

        def details(report, scale):
            return [re.sub(r"element (\d+)", lambda m: f"element {int(m[1]) // scale}", c.detail)
                    for c in report.lemma_checks]

        want = details(verify_report(inst, 0.2, 40, 7), 1)
        assert "(first: trial 0, element" in want[-1]
        assert details(verify_report(relabelled, 0.2, 40, 7), 7) == want


class TestWorkCounts:
    def test_dominance_step_reads_only_the_arrivals(self):
        # one popcount per arrival and node of its chain, and one per bit
        # that a field holds outside OPT's, whatever n is
        inst = generate(GenSpec("partition", 2000, 5, parts=40, part_capacity=3))
        pre = inst.pre()
        order, fields = next(_trials(pre, 0.08, 11, 0, 1, True))
        dominance = experiments._Dominance(pre)
        real = (1 << pre.n_real) - 1
        outside = sum((F & real & ~O).bit_count() for F, O in zip(fields, pre.opt_fields[False]))
        fields, taken = _counting(fields)
        dominance.step(0, order, fields)
        chains = sum(len(pre.chain_by_rank[r]) for r in order)
        assert 0 < outside
        assert 0 < taken[0] <= chains + outside < pre.n_real

    def test_weak_check_scans_no_member_of_an_untouched_trial(self, monkeypatch):
        # a trial whose arrivals are in no OPT leaves every field OPT's, so
        # the weak check takes no popcount and lists no node's members
        inst = generate(GenSpec("partition", 200, 5, parts=4))
        pre = inst.pre()
        dominance = experiments._Dominance(pre)
        untouched = next(fields for order, fields in _trials(pre, 0.08, 11, 0, 50, True)
                         if not any(map(pre.opt_masks.__getitem__, order)))
        assert untouched == list(pre.opt_fields[True])

        def members(self, b):
            raise AssertionError("a member scan")

        monkeypatch.setattr(type(pre), "members", members)
        fields, taken = _counting(untouched)
        assert dominance._weak_witness(0, fields) == ""
        assert taken[0] == 0

    def test_exact_shares_one_memo_across_splits(self, monkeypatch):
        inst = family_instance("random_tree", 8, 38)
        pre = inst.pre()
        calls = 0
        expected_rest = exact._expected_rest

        def counted(*args):
            nonlocal calls
            calls += 1
            return expected_rest(*args)

        monkeypatch.setattr(exact, "_expected_rest", counted)
        exact_expectation(inst, 0.08)
        shared, calls = calls, 0
        steps, starts = exact._enum_states(pre, True)
        readable = exact._readable(steps)
        for mask, state in enumerate(starts[1:], 1):
            live = mask
            for r, low in exact._SET_BITS[mask]:
                if not state & steps[r][0][0]:
                    live ^= low
            if live:
                exact._expected_rest(state & readable[live], steps, pre.w_by_rank, readable, {})
        assert shared < calls


class TestReportCsv:
    def test_shape_and_verdicts(self):
        report = monte_carlo_ratio(four_element(), 0.08, 200, master_seed=4)
        report.allkicked = allkicked_frequency(four_element(), 0.08, 200, master_seed=4)
        report.lemma_checks = verify_lemmas(four_element(), 0.08, trials=20)
        text = report.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "check_name,instance,p,value,bound_or_reference,std_err,pass"
        assert len(lines) == 1 + len(report.rows())
        assert all(line.count(",") == 6 for line in lines)
        verdicts = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert verdicts <= {"0", "1", "skip"}
        assert report.all_passed()

    def test_exact_theorem_check_on_small_instances(self):
        bound = ratio_lower_bound(0.08)
        for inst in mixed_instances(5, seed0=88, n_hi=6):
            assert exact_ratio(inst, 0.08) >= bound - 1e-9
