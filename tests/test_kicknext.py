import itertools
import math
import random
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import starmap

import pytest
from hypothesis import given, settings, strategies as st

from laminar_secretary import (
    GenSpec,
    InstanceError,
    Trial,
    derive_seed,
    generate,
    greedy_opt,
    make_trial,
    qualifies,
    reference_sets,
    run_kicknext,
    trace_csv,
)
import laminar_secretary.kicknext as kicknext
from laminar_secretary.experiments import _arrival_draws
from laminar_secretary.kicknext import (
    GAP_BITS,
    MAX_BLOCK,
    _block_size,
    _check_p,
    _draws,
    _first_read,
    _flags,
    _gap_table,
    _order,
    _run_weight,
    _sample_ids,
)
from laminar_secretary.matroid import _ref_fields, _ref_rank_lists

from helpers import (
    FAMILY_OR_SHAPED,
    arrive,
    check_run_invariants,
    decode_fields,
    family_instance,
    four_element,
    mixed_instances,
    qualifies_by_ids,
    rank1,
    ref_lists_by_full_pass,
    replay_events,
    run_kicknext_by_lists,
    run_weight_by_lists,
    sample_ranks_by_prefix,
    shaped_trees,
    stream_by_prefix,
    trials_by_prefix,
    tree,
)


class TestMakeTrial:
    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_p_out_of_range(self, p):
        with pytest.raises(ValueError, match="must be in"):
            make_trial(four_element(), p, 0)

    def test_seed_determinism(self):
        inst = four_element()
        assert make_trial(inst, 0.08, 42) == make_trial(inst, 0.08, 42)
        assert make_trial(inst, 0.08, 42) != make_trial(inst, 0.08, 43)

    def test_partition_of_ground_set(self):
        inst = four_element()
        for seed in range(50):
            trial = make_trial(inst, 0.3, seed)
            assert trial.sample_set | set(trial.arrival_order) == inst.element_ids()
            assert not trial.sample_set & set(trial.arrival_order)

    def test_vanishing_p_samples_everything(self):
        inst = four_element()
        for seed in range(20):
            trial = make_trial(inst, 1e-12, seed)
            assert trial.arrival_order == ()
            assert run_kicknext(inst, trial).sol_root == ()

    def test_selection_phase_mean(self):
        # mean |T|/n over many trials stays within 3 standard errors of p
        inst = four_element()
        pre = inst.pre()
        p, trials = 0.08, 100_000
        total = 0
        for t in range(trials):
            _, arrivals = _sample_ids(pre, p, derive_seed(0, t))
            total += len(arrivals)
        mean = total / (trials * inst.n)
        se = math.sqrt(p * (1 - p) / (trials * inst.n))
        assert abs(mean - p) <= 3 * se


    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            make_trial(four_element(), 0.08, seed)

    @pytest.mark.parametrize("p", [1e-310, 2.0e-307, 5e-324])
    def test_p_too_small_for_a_gap(self, p):
        # log(2^-53) / log1p(-p) overflows: the longest gap is not finite
        with pytest.raises(ValueError, match="longest trial gap"):
            make_trial(four_element(), p, 0)

    @pytest.mark.parametrize("p", [2.1e-307, 1e-300, 1e-200])
    def test_tiny_p_still_draws(self, p):
        _check_p(p)
        assert make_trial(four_element(), p, 0).arrival_order == ()


def _law(n, p):
    """The probability of every (sample set, arrival order) outcome on n
    ranks, keyed by the order: p^|T| (1-p)^(n-|T|) / |T|!."""
    return {perm: p ** k * (1 - p) ** (n - k) / math.factorial(k)
            for k in range(n + 1)
            for arrivals in itertools.combinations(range(n), k)
            for perm in itertools.permutations(arrivals)}


def _within_4se(seen, law, trials):
    """Each outcome's frequency among ``trials`` lies within 4 standard
    errors of its probability in ``law``, and no other outcome occurs."""
    assert set(seen) <= set(law)
    for outcome, q in law.items():
        se = math.sqrt(q * (1 - q) / trials)
        assert abs(seen[outcome] / trials - q) <= 4 * se, outcome


class TestTrialStream:
    """A trial is a draw of a SHAKE-128 stream: ``_sample_ids`` draws the
    first draw of a seed's stream, and the trials of a master seed are
    consecutive draws of one stream per block (``experiments._arrival_draws``),
    each ordered by ``kicknext._order``."""

    @staticmethod
    def _check_law(n, p, trials, draws):
        # every (sample set, arrival order) occurs with its probability,
        # within 4 standard errors
        seen = Counter()
        for in_s, order in draws:
            assert sorted(order) == [r for r in range(n) if not in_s[r]]
            seen[tuple(order)] += 1
        assert sum(seen.values()) == trials
        _within_4se(seen, _law(n, p), trials)

    @pytest.mark.parametrize("n", [3, 4])
    def test_law_of_every_outcome(self, n):
        # the first draw of each of 200k seeds' streams
        pre = rank1(range(1, n + 1)).pre()
        p, trials = 0.2, 200_000
        self._check_law(n, p, trials,
                        (_sample_ids(pre, p, derive_seed(3, t)) for t in range(trials)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_law_of_every_outcome_over_consecutive_trials(self, n):
        # 200k consecutive trials of one master seed, 64 draws per stream
        pre = rank1(range(1, n + 1)).pre()
        p, trials = 0.2, 200_000
        assert _block_size(n, p) == 64
        orders = starmap(_order, _arrival_draws(pre, p, 3, 0, trials))
        self._check_law(n, p, trials, ((_flags(n, order), order) for order in orders))

    def test_consecutive_draws_are_independent(self):
        # trials 2i and 2i + 1 lie in one block; their joint law is the
        # product law, on a class of each draw: its arrival count, and at
        # two arrivals whether they arrive in rank order
        n, p, trials = 3, 0.2, 200_000
        pre = rank1(range(1, n + 1)).pre()
        assert _block_size(n, p) % 2 == 0

        def cls(order):
            return len(order), len(order) == 2 and order[0] < order[1]

        single = Counter()
        for perm, q in _law(n, p).items():
            single[cls(perm)] += q
        orders = list(starmap(_order, _arrival_draws(pre, p, 3, 0, trials)))
        seen = Counter((cls(a), cls(b)) for a, b in zip(orders[::2], orders[1::2]))
        law = {(x, y): single[x] * single[y] for x in single for y in single}
        assert min(law.values()) * trials / 2 > 5  # every cell is expected a few times
        _within_4se(seen, law, trials // 2)

    def test_longer_read_matches_one_long_prefix(self):
        # p = 0.45, n = 200: the first read holds 231 words, and a draw with
        # 116 or more arrivals runs past it in its keys (a one-draw read
        # holds the gap words of over twice the mean arrivals, so its gaps
        # do not run out); of these 300 seeds, derive_seed(22, 13) does.  The draw must
        # not depend on that read
        pre = rank1(range(1, 201)).pre()
        p = 0.45
        first = _first_read(200, p)
        longer = 0
        for t in range(300):
            seed = derive_seed(22, t)
            expect = sample_ranks_by_prefix(200, p, seed)
            assert _sample_ids(pre, p, seed) == expect
            arrivals = len(expect[1])
            assert arrivals + 1 <= first  # the gap words fit the read
            longer += 2 * arrivals + 1 > first  # gap words + key words
        assert longer > 0

    def test_gap_read_runs_out(self):
        # n = 1000, p = 0.002: trials 640 to 703 of master seed 5 are the 64
        # draws of one stream, whose first read holds 378 words; draw 62
        # (trial 702) starts at word 372 and has 7 arrivals, so its 7th and
        # 8th gap words lie past the read.  A range that starts inside the block
        # reads past it too
        n, p, master_seed = 1000, 0.002, 5
        pre = _rank1_pre(n)
        size = _block_size(n, p)
        first = _first_read(n, p, size)
        expect = [order for _, order in trials_by_prefix(n, p, master_seed, 640, size)]
        used = sum(2 * len(order) + 1 for order in expect[:62])
        assert 640 // size == 10 and used <= first < used + len(expect[62]) + 1
        assert list(starmap(_order, _arrival_draws(pre, p, master_seed, 640, size))) == expect
        tail = starmap(_order, _arrival_draws(pre, p, master_seed, 650, size - 10))
        assert list(tail) == expect[10:]


@lru_cache(maxsize=None)
def _rank1_pre(n):
    return rank1(range(1, n + 1)).pre()


class TestOrder:
    """``_order`` is the one arrival-order rule: it sorts ranks in place on
    their keys, ties to the lower rank, and sorts nothing without a key or
    with fewer than two ranks."""

    def test_ties_go_to_the_lower_rank(self):
        assert _order([1, 3, 5], {1: 7, 3: 7, 5: 2}) == [5, 1, 3]
        assert _order([0, 2, 4, 6], {0: 9, 2: 1, 4: 9, 6: 1}) == [2, 6, 0, 4]

    def test_sorts_in_place(self):
        arrivals = [2, 4, 8]
        assert _order(arrivals, {2: 30, 4: 10, 8: 20}) is arrivals
        assert arrivals == [4, 8, 2]

    @pytest.mark.parametrize("arrivals", [[], [4], [9, 3]])
    def test_no_key_sorts_nothing(self, arrivals):
        # the draws give no key below two arrivals; a reader's subset may
        # keep fewer ranks than its draw, and is then left as it is
        before = arrivals[:]
        got = _order(arrivals, None)
        assert got is arrivals and got == before

    def test_one_rank_with_a_key_is_not_read(self):
        # a lone rank is not sorted, so its key is never looked up
        assert _order([7], {}) == [7]
        assert _order([], {}) == []


class TestOrders:
    """``_draws`` draws consecutive draws of each seed's stream, and the
    one-seed wrapper ``_sample_ids`` its first draw; ordered by ``_order``,
    both equal one read of the longest prefix the draws can use, read in
    order."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300), st.floats(1e-3, 0.6), st.integers(0, 2**64 - 1),
           st.integers(1, 40), st.data())
    def test_matches_one_long_prefix(self, n, p, seed, draws, data):
        # a block of fewer draws reads less at first, and draws the same
        # leading draws
        pre = _rank1_pre(n)
        short = data.draw(st.integers(1, draws))
        seeds = [derive_seed(seed, i) for i in range(3)]
        expect = [stream_by_prefix(n, p, s, draws) for s in seeds]
        blocks = [(seeds[0], 1), (seeds[1], short), (seeds[2], draws)]
        want = ([expect[0][0][1]] + [order for _, order in expect[1][:short]]
                + [order for _, order in expect[2]])
        assert list(starmap(_order, _draws(pre, p, blocks))) == want
        assert [_sample_ids(pre, p, s) for s in seeds] == [e[0] for e in expect]

    def test_sort_keys_run_past_the_first_read(self):
        # n = 2000, p = 0.08: 203 arrivals need 407 words, past the 399 of
        # a one-draw first read
        pre = _rank1_pre(2000)
        seed = 15558682702953987295
        expect = sample_ranks_by_prefix(2000, 0.08, seed)
        assert 2 * len(expect[1]) + 1 > _first_read(2000, 0.08) == 399
        assert next(starmap(_order, _draws(pre, 0.08, [(seed, 1)]))) == expect[1]
        assert _sample_ids(pre, 0.08, seed) == expect

    @pytest.mark.parametrize("n,p,block,past", [(200, 0.45, 926, "keys"),
                                                (1000, 0.002, 6, "keys"),
                                                (1000, 0.002, 308, "gaps")])
    def test_block_reads_past_the_first_read(self, n, p, block, past):
        # blocks of master seed 11 whose draws run past the first read (4179
        # words for 22 draws at p = 0.45, 378 for 64 at p = 0.002), in the
        # keys or the gaps of the draw that crosses it; such a block reads a
        # longer prefix, and a run that starts inside it too
        pre = _rank1_pre(n)
        size = _block_size(n, p)
        first = _first_read(n, p, size)
        seed = derive_seed(11, block)
        expect = [order for _, order in stream_by_prefix(n, p, seed, size)]
        used = 0
        for order in expect:
            if used <= first < used + 2 * len(order) + 1:
                assert past == ("gaps" if first < used + len(order) + 1 else "keys")
            used += 2 * len(order) + 1
        assert used > first
        assert list(starmap(_order, _draws(pre, p, [(seed, size)]))) == expect
        start = block * size + 10
        want = [order for _, order in trials_by_prefix(n, p, 11, start, size - 10)]
        tail = starmap(_order, _arrival_draws(pre, p, 11, start, size - 10))
        assert list(tail) == want == expect[10:]

    @pytest.mark.parametrize("n,p", [(1, 0.5), (7, 0.3), (60, 0.08), (300, 0.2)])
    def test_one_word_first_read(self, monkeypatch, n, p):
        # a first read of one, two or 21 words makes the gaps run out, then
        # the keys, at several offsets, in the middle of a block as at its
        # start
        pre = _rank1_pre(n)
        seeds = [derive_seed(n, i) for i in range(10)]
        expect = [stream_by_prefix(n, p, s, 5) for s in seeds]
        # trials 3 on of master seed n, through the middle of its third block
        count = 2 * _block_size(n, p)
        trials = [order for _, order in trials_by_prefix(n, p, n, 3, count)]
        for first in (1, 2, 21):
            monkeypatch.setattr(kicknext, "_first_read", lambda n, p, draws=1: first)
            assert (list(starmap(_order, _draws(pre, p, [(s, 5) for s in seeds])))
                    == [order for draws in expect for _, order in draws])
            assert list(starmap(_order, _arrival_draws(pre, p, n, 3, count))) == trials

    def test_first_read_is_whole_blocks(self):
        for n, p in [(1, 0.001), (6, 0.08), (200, 0.2), (2000, 0.08), (10**6, 0.5)]:
            for draws in (1, 7, _block_size(n, p)):
                size = _first_read(n, p, draws)
                assert size % 21 == 0 and size >= draws * (2 * (n * p) + 1)

    def test_block_size(self):
        assert [_block_size(n, p) for n, p in [(6, 0.08), (200, 0.08), (200, 0.2),
                                               (2000, 0.08), (10**6, 0.5)]] == [64, 64, 50, 12, 1]
        # a block's first read holds about BLOCK_WORDS words, 34 KiB at
        # most, unless it holds one draw
        for n in (1, 6, 16, 60, 200, 2000, 10**4, 10**6):
            for p in (1e-6, 1e-3, 0.01, 0.05, 0.08, 0.2, 0.45, 0.9):
                size = _block_size(n, p)
                assert 1 <= size <= MAX_BLOCK
                assert size == 1 or _first_read(n, p, size) <= 4400, (n, p)

    def test_block_memory_is_bounded(self):
        # n = 2000, p = 0.08: 50 blocks of 12 draws, each reading 4053
        # words (32 KiB) at first; a block of 64 draws would read 170 KB,
        # and drawing the same trials so peaked at 540-890 KB
        n, p = 2000, 0.08
        pre = _rank1_pre(n)
        size = _block_size(n, p)
        blocks = [(derive_seed(5, b), size) for b in range(50)]
        next(starmap(_order, _draws(pre, p, blocks[:1])))
        tracemalloc.start()
        try:
            for _ in starmap(_order, _draws(pre, p, blocks)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak


def _formula_gap(u, p):
    """The gap of word u as ``_draws`` computes it where a bucket is mixed."""
    return int(math.log(((u >> 11) + 1) * 2**-53) / math.log1p(-p))


def _p_with_edge_below(j, k):
    """A p whose bucket edge ``log(j * 2^-GAP_BITS) / log1p(-p)`` is just
    below the integer k, closer than the table's 1e-9 margin: bucket j - 1
    then holds words of gap k - 1 (its highest word, on the edge) and of gap
    k (the rest)."""
    p = 1 - (j * 2.0**-GAP_BITS) ** (1 / k)
    for _ in range(1000):
        edge = math.log(j * 2.0**-GAP_BITS) / math.log1p(-p)
        if k * (1 - 1e-9) < edge < k:
            return p
        p = math.nextafter(p, 1.0 if edge >= k else 0.0)
    raise AssertionError(f"no p puts edge {j} just below {k}")


class TestGapTable:
    """``_gap_table(p, n)`` holds ``n + 1`` for each bucket of gap words
    whose words all have a gap of n or more under the formula, which ends a
    draw over n ranks as the gap would, else ``1 + gap`` for each bucket
    whose words all have one gap, and 0 for a mixed bucket, so ``_draws``
    ends each draw where the formula does and gives its gaps before."""

    NS = (1, 6, 16, 60, 2000)

    @staticmethod
    def _check(p, n, rng):
        table = _gap_table(p, n)
        shift = 64 - GAP_BITS
        assert len(table) == 2**GAP_BITS and table[0] in (0, n + 1)
        for j, entry in enumerate(table):
            if entry:
                low, high = j << shift, ((j + 1) << shift) - 1
                words = [low, high] + [rng.randrange(low, high + 1) for _ in range(200)]
                gaps = {_formula_gap(u, p) for u in words}
                if entry < n + 1:
                    assert gaps == {entry - 1}, (p, n, j)
                else:
                    assert min(gaps) >= n, (p, n, j)

    @pytest.mark.parametrize("p", [1e-300, 1e-3, 0.05, 0.08, 0.2, 0.5, 0.9, 1 - 2**-53])
    def test_every_uniform_bucket_has_the_formula_gap(self, p):
        for n in self.NS:
            self._check(p, n, random.Random(f"{p!r} {n}"))

    @pytest.mark.parametrize("j,k", [(200, 1), (250, 2), (128, 3), (64, 5)])
    def test_an_edge_just_below_an_integer_makes_a_mixed_bucket(self, j, k):
        # the bucket's highest word sits on the edge and floors to k - 1,
        # its lowest word to k; the margin leaves the bucket to the formula
        # while k - 1 < n, and from there both gaps end the draw
        p = _p_with_edge_below(j, k)
        shift = 64 - GAP_BITS
        assert _formula_gap((j << shift) - 1, p) == k - 1
        assert _formula_gap((j - 1) << shift, p) == k
        for n in self.NS + (k - 1, k):
            if n < 1:
                continue
            assert _gap_table(p, n)[j - 1] == (0 if k - 1 < n else n + 1), n
            self._check(p, n, random.Random(j * n))

    @pytest.mark.parametrize("p,share", [(0.05, 0.27), (0.08, 0.19), (0.2, 0.09)])
    def test_mixed_share(self, p, share):
        # the expected share of gap words whose gap is computed at n = 200,
        # where every gap the table holds is below n
        assert round(_gap_table(p, 200).count(0) / 2**GAP_BITS, 2) == share

    @pytest.mark.parametrize("p,n,share", [
        (0.05, 6, 0.02), (0.08, 6, 0.02), (0.2, 6, 0.02), (1e-3, 6, 0.01),
        (0.05, 1, 0.0), (0.05, 16, 0.06), (0.05, 60, 0.23), (0.05, 2000, 0.27),
        (1e-3, 2000, 0.87), (0.002, 2000, 0.98),
    ])
    def test_mixed_share_per_n(self, p, n, share):
        # at small n one mixed bucket is left per integer gap below n; at
        # p <= 0.002 and n = 2000 nearly every bucket is still mixed
        assert round(_gap_table(p, n).count(0) / 2**GAP_BITS, 2) == share

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 300),
           st.one_of(st.floats(1e-300, 1 - 2**-53), st.floats(1e-300, 1e-6),
                     st.floats(1 - 1e-6, 1 - 2**-53)),
           st.integers(0, 2**64 - 1), st.integers(1, 8))
    def test_draws_match_one_long_prefix(self, n, p, seed, draws):
        # p over (0, 1), near 0 too, where every bucket is mixed and the
        # formula computes every gap, and near 1, where nearly every bucket
        # holds gap 0
        expect = [order for _, order in stream_by_prefix(n, p, seed, draws)]
        assert list(starmap(_order, _draws(_rank1_pre(n), p, [(seed, draws)]))) == expect

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 16), st.floats(1e-4, 0.3), st.integers(0, 2**64 - 1),
           st.integers(1, 8))
    def test_small_n_draws_match_one_long_prefix(self, n, p, seed, draws):
        # where most buckets end the draw: the sample flags and the order
        # of every draw, so the words each draw reads, match the formula's
        expect = stream_by_prefix(n, p, seed, draws)
        got = [(_flags(n, arrivals), _order(arrivals, key))
               for arrivals, key in _draws(_rank1_pre(n), p, [(seed, draws)])]
        assert got == expect

    def test_memo_is_bounded(self):
        pre = _rank1_pre(20)
        for i in range(1000):
            next(starmap(_order, _draws(pre, (i + 1) / 1001, [(i, 1)])))
        for n in range(1, 41):
            next(starmap(_order, _draws(_rank1_pre(n), 0.08, [(n, 1)])))
        info = _gap_table.cache_info()
        assert info.currsize <= info.maxsize == 16

    def test_one_build_per_p(self):
        # one build per (p, n): trials of one instance at one p share it
        _gap_table.cache_clear()
        for n, p in [(20, 0.08), (6, 0.08), (20, 0.2), (20, 0.08), (6, 0.08)]:
            inst = rank1(range(1, n + 1))
            for seed in range(200):
                make_trial(inst, p, seed)
        assert _gap_table.cache_info().misses == 3


FAMILIES = st.sampled_from(("uniform", "partition", "chain", "random_tree"))


class TestArrive:
    """``helpers.arrive`` is the eviction step on lists, the oracle of the
    step on bits that the Monte Carlo walk ``_run_weight`` takes."""

    @settings(max_examples=80, deadline=None)
    @given(FAMILIES, st.integers(1, 30), st.integers(0, 10_000),
           st.sampled_from((0.05, 0.2, 0.5, 0.9)), st.booleans())
    def test_run_weight_is_the_root_weight_of_full_walks(self, family, n, seed, p, padding):
        inst = family_instance(family, n, seed)
        pre = inst.pre()
        in_s, order = _sample_ids(pre, p, derive_seed(seed, 0))
        refs = ref_lists_by_full_pass(pre, in_s, padding)
        kept = []
        for r in order:
            ch = pre.chain_by_rank[r]
            evicted = arrive(refs, ch, r)
            assert len(evicted) <= len(ch)
            assert all(x > r for x in evicted)  # only lighter ranks are evicted
            if len(evicted) == len(ch):
                kept.append(r)
        expected = sum(pre.w_by_rank[r] for r in kept)
        fields = _ref_fields(pre, order, padding)
        assert _run_weight(pre, fields, order) == expected
        assert decode_fields(pre, fields) == refs  # and it evicts the same entries

    def test_evicts_the_heaviest_lighter_reference(self):
        # one node holding ranks 2, 4, 6: rank 3 evicts 4, rank 7 finds none
        refs = [[2, 4, 6]]
        assert arrive(refs, (0,), 3) == [4]
        assert refs == [[2, 6]]
        assert arrive(refs, (0,), 7) == []
        assert refs == [[2, 6]]

    def test_stops_at_the_first_node_without_a_lighter_reference(self):
        refs = [[5], [1], [9]]
        assert arrive(refs, (0, 1, 2), 3) == [5]
        assert refs == [[], [1], [9]]


class TestBitWalk:
    """The Monte Carlo walk ``_run_weight`` on the fields of ``_ref_fields``
    is the list walk (``run_weight_by_lists``) on the lists of
    ``ref_lists_by_full_pass``, draw by draw."""

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(st.builds(family_instance, FAMILIES, st.integers(1, 60),
                               st.integers(0, 10_000)),
                     shaped_trees(max_elements=40)),
           st.integers(0, 10_000), st.sampled_from((0.05, 0.2, 0.5, 0.9)), st.booleans())
    def test_matches_the_list_walk_on_every_draw(self, inst, seed, p, padding):
        # n on both sides of ``experiments.SMALL_N`` (16): both trial paths
        pre = inst.pre()
        for arrivals, key in _arrival_draws(pre, p, seed, 0, 12):
            order = _order(arrivals, key)
            fields = _ref_fields(pre, order, padding)
            refs = ref_lists_by_full_pass(pre, _flags(pre.n_real, order), padding)
            assert _run_weight(pre, fields, order) == run_weight_by_lists(pre, refs, order)
            assert decode_fields(pre, fields) == refs  # the same entries evicted

    def test_evicts_the_heaviest_lighter_entry(self):
        # one node holding ranks 2 and 4 of n = 8 and one virtual slot
        # (bit 8): rank 3 evicts 4, rank 7 the virtual slot, and rank 5
        # finds none and gains nothing; every weight is 1
        inst = rank1([1.0] * 8, capacity=3)
        fields = [1 << 2 | 1 << 4 | 1 << 8]
        assert _run_weight(inst.pre(), fields, [3, 7, 5]) == 2.0
        assert fields == [1 << 2]


class TestRunExample:
    """Hand-simulated run on the four-element instance.

    Sample {1, 3}; element 0 then 2 arrive.  References start as
    root: {1, 3, one virtual}, inner: {1}.  Element 0 evicts 1 at the inner
    node and 1 at the root; element 2 evicts 3 at the root.
    """

    def _run(self):
        inst = four_element()
        trial = Trial(0, 0.5, frozenset({1, 3}), (0, 2))
        return inst, run_kicknext(inst, trial, padding=True)

    def test_solution(self):
        inst, res = self._run()
        assert res.sol_root == (0, 2)
        assert sum(inst.weight(e) for e in res.sol_root) == 15.0

    def test_reference_evolution(self):
        inst, res = self._run()
        assert len(res.initial_refsets[0]) == 3  # padded to capacity
        assert set(res.initial_refsets[0]) > {1, 3}
        assert res.initial_refsets[1] == (1,)
        assert res.final_refsets[1] == ()
        (leftover,) = res.final_refsets[0]
        assert leftover not in inst.element_ids()  # only the virtual one remains

    def test_event_log(self):
        _, res = self._run()
        actions = [(ev.element, ev.node, ev.action, ev.evicted) for ev in res.events]
        assert actions == [(0, 1, "accept", 1), (0, 0, "accept", 1), (2, 0, "accept", 3)]
        assert not res.breaks

    def test_trace_csv(self):
        _, res = self._run()
        lines = trace_csv(res).strip().splitlines()
        assert lines[0] == "step,element_id,node_id,action,evicted_id,evicted_virtual"
        assert lines[1] == "0,0,1,accept,1,0"
        assert len(lines) == 4

    def test_every_run_records_its_events(self):
        inst, res = self._run()
        plain = run_kicknext(inst, Trial(0, 0.5, frozenset({1, 3}), (0, 2)))
        assert plain.events == res.events and len(plain.events) == 3
        assert trace_csv(plain) == trace_csv(res)


class TestRunEdges:
    def test_empty_arrivals(self):
        inst = four_element()
        trial = Trial(0, 0.5, frozenset(inst.element_ids()), ())
        assert run_kicknext(inst, trial).sol_root == ()

    @pytest.mark.parametrize("sample,arrivals,message", [
        ({0, 1, 2}, (2, 2, 3), "element 2 is sampled and arrives"),
        ({0, 1}, (2, 3, 3, 4), "element 3 arrives twice"),
        ({0, 1}, (2, 3), "element 4 is neither sampled nor arriving"),
        ({0, 1}, (2, 3, 9), "unknown element id 9"),
        ({0, 1, 7}, (2, 3, 4), "unknown element id 7"),
    ], ids=["sampled", "repeated", "missing", "unknown_arrival", "unknown_sampled"])
    def test_trial_must_split_the_ground_set(self, sample, arrivals, message):
        inst = generate(GenSpec("uniform", 5, 1))
        with pytest.raises(InstanceError, match=message):
            run_kicknext(inst, Trial(0, 0.5, frozenset(sample), arrivals))
        assert run_kicknext(inst, Trial(0, 0.5, frozenset({0, 1}), (2, 3, 4))).events

    def test_single_node_upgrade(self):
        inst = rank1([9.0, 1.0])
        trial = Trial(0, 0.5, frozenset({1}), (0,))
        res = run_kicknext(inst, trial)
        assert res.sol_root == (0,)
        assert res.final_refsets[0] == ()

    def test_no_rollback_on_outer_break(self):
        # element 2 is accepted at the inner node, then breaks at the root
        # after two heavy arrivals drained the root references; its inner
        # acceptance is kept.
        inst = tree(
            "rollback",
            [(0, 2, None), (1, 1, 0)],
            {0: 0, 1: 0, 2: 1, 3: 1, 4: 0},
            [10.0, 9.0, 5.0, 1.0, 2.0],
        )
        trial = Trial(0, 0.5, frozenset({3, 4}), (0, 1, 2))
        res = run_kicknext(inst, trial, padding=True)
        assert res.sol_root == (0, 1)
        assert res.sol_per_node[1] == (2,)
        assert res.breaks[2].node == 0
        assert res.breaks[2].initial_below == 2
        replay_events(inst, res)

    def test_unpadded_break_with_empty_reference(self):
        inst = rank1([5.0])
        trial = Trial(0, 0.5, frozenset(), (0,))
        res = run_kicknext(inst, trial, padding=False)
        assert res.sol_root == ()
        assert res.breaks[0].node == 0
        assert res.breaks[0].initial_below == 0
        # with padding the virtual slot lets it in
        res = run_kicknext(inst, trial, padding=True)
        assert res.sol_root == (0,)

    def test_determinism(self):
        inst = generate(GenSpec("random_tree", n=10, seed=3))
        trial = make_trial(inst, 0.2, 99)
        a = run_kicknext(inst, trial)
        b = run_kicknext(inst, trial)
        assert a == b


class TestRunInvariants:
    def test_randomized_runs(self):
        for inst in mixed_instances(12, seed0=900):
            opt_ids = greedy_opt(inst, None, inst.root_id).ids
            for t in range(40):
                trial = make_trial(inst, 0.15, 7_000 + t)
                res = run_kicknext(inst, trial, padding=True)
                check_run_invariants(inst, res)
                replay_events(inst, res)
                # failure characterization: an arriving optimum element is
                # missing from the solution iff its chain walk broke somewhere
                for eid in opt_ids & set(trial.arrival_order):
                    assert (eid not in res.sol_root) == (eid in res.breaks)

    def test_unpadded_runs_also_feasible(self):
        for inst in mixed_instances(6, seed0=950):
            for t in range(20):
                trial = make_trial(inst, 0.3, 11_000 + t)
                res = run_kicknext(inst, trial, padding=False)
                check_run_invariants(inst, res)
                replay_events(inst, res)


class TestRunOnBits:
    """``run_kicknext`` walks its fields with ``_run_weight``'s step and
    returns what the list oracle ``run_kicknext_by_lists`` returns: the
    same result and trace, starting from the same reference sets."""

    @settings(max_examples=200, deadline=None)
    @given(FAMILY_OR_SHAPED, st.floats(0.001, 0.999), st.integers(0, 2**64 - 1), st.booleans())
    def test_equals_the_list_oracle(self, inst, p, seed, padding):
        trial = make_trial(inst, p, seed)
        got = run_kicknext(inst, trial, padding=padding)
        want = run_kicknext_by_lists(inst, trial, padding=padding)
        assert got == want
        assert trace_csv(got) == trace_csv(want)
        check_run_invariants(inst, got)
        replay_events(inst, got)
        refs = reference_sets(inst, trial.sample_set, padding)
        assert {nid: tuple(ids) for nid, ids in refs.items()} == want.initial_refsets
        # the decoder reads the lowest bit first; padded fields hold virtual bits
        pre = inst.pre()
        fields = _ref_fields(pre, [pre.rank_of(eid) for eid in trial.arrival_order], True)
        assert _ref_rank_lists(pre, fields) == decode_fields(pre, fields)


class TestReferenceSets:
    """``reference_sets`` is the id-space view of a sample's reference
    lists, and a run starts from it."""

    @settings(max_examples=150, deadline=None)
    @given(FAMILY_OR_SHAPED, st.sampled_from(("none", "empty", "all", "random")),
           st.booleans(), st.data())
    def test_is_the_id_view_of_the_full_pass(self, inst, kind, padding, data):
        pre = inst.pre()
        ids = sorted(inst.element_ids())
        if kind == "none":
            sample = None  # the whole ground set
        elif kind == "empty":
            sample = set()
        elif kind == "all":
            sample = set(ids)
        else:
            sample = data.draw(st.sets(st.sampled_from(ids)))
        flags = [sample is None or eid in sample for eid in pre.ids_by_rank]
        want = ref_lists_by_full_pass(pre, flags, padding)
        got = reference_sets(inst, sample, padding)
        assert list(got) == list(pre.node_ids)
        n, top = pre.n_real, max(ids)
        for nid, R in zip(pre.node_ids, want):
            # lightest first; virtual ranks take fresh ids above every real id
            assert got[nid] == [pre.ids_by_rank[r] if r < n else top + 1 + r - n
                                for r in reversed(R)]

    @settings(max_examples=100, deadline=None)
    @given(FAMILY_OR_SHAPED, st.sampled_from((0.05, 0.2, 0.5, 0.9)),
           st.integers(0, 2**64 - 1), st.booleans())
    def test_a_run_starts_from_the_reference_sets(self, inst, p, seed, padding):
        trial = make_trial(inst, p, seed)
        refs = reference_sets(inst, trial.sample_set, padding)
        initial = run_kicknext(inst, trial, padding=padding).initial_refsets
        assert initial == {nid: tuple(ids) for nid, ids in refs.items()}


class TestQualifies:
    def test_examples(self):
        inst = four_element()
        refs = reference_sets(inst, {1, 3}, padding=True)
        assert qualifies(inst, 0, 0, refs)
        assert qualifies(inst, 2, 0, refs)

    def test_below_reference_disqualifies(self):
        inst = four_element()
        refs = reference_sets(inst, {0}, padding=False)
        assert not qualifies(inst, 2, 0, refs)  # the only reference outweighs it

    def test_empty_reference_disqualifies(self):
        inst = four_element()
        refs = reference_sets(inst, set(), padding=False)
        assert not qualifies(inst, 0, 0, refs)

    def test_not_contained(self):
        inst = four_element()
        refs = reference_sets(inst, set(), padding=True)
        with pytest.raises(InstanceError, match="not contained"):
            qualifies(inst, 2, 1, refs)

    def test_acceptance_needs_qualifying(self):
        # reference minima only rise as evictions happen, so every element
        # accepted at the root must qualify against the pristine references
        for inst in mixed_instances(5, seed0=70):
            for t in range(20):
                trial = make_trial(inst, 0.25, t)
                refs = reference_sets(inst, trial.sample_set, padding=True)
                res = run_kicknext(inst, trial, padding=True)
                for eid in res.sol_root:
                    assert qualifies(inst, eid, inst.root_id, refs)

    @settings(max_examples=60, deadline=None)
    @given(FAMILY_OR_SHAPED, st.data())
    def test_matches_the_id_space_reference(self, inst, data):
        ids = sorted(inst.element_ids())
        sample = data.draw(st.sets(st.sampled_from(ids)))
        refs = reference_sets(inst, sample, padding=data.draw(st.booleans()))
        # arbitrary sets too, mixing real ids with ids past them (virtual)
        pool = st.sampled_from(ids + [ids[-1] + k for k in (1, 2, 50)])
        mixed = {nd.id: data.draw(st.lists(pool, max_size=4)) for nd in inst.nodes}
        for refsets in (refs, mixed):
            for eid in ids:
                for nd in inst.nodes:
                    try:
                        want = qualifies_by_ids(inst, eid, nd.id, refsets)
                    except InstanceError:
                        with pytest.raises(InstanceError, match="not contained"):
                            qualifies(inst, eid, nd.id, refsets)
                    else:
                        assert qualifies(inst, eid, nd.id, refsets) == want
