"""Exact solvers: subset enumeration, reachable-sum DP, meet-in-the-middle."""

import random
import time
import tracemalloc
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from issp import core, exact
from issp.core import (
    Solution,
    evaluate,
    midrange_count,
    place,
    preprocess,
    sort_by_length,
    validate,
)
from issp.errors import InstanceTooLarge, InvalidSetting, MemoryBudgetExceeded
from issp.exact import (
    _BYTES_PER_ENTRY,
    BITSET_DENSITY,
    BLOCK_WEIGHT,
    BitsetSums,
    SparseSums,
    bitset_bytes,
    brute_force_optimum,
    dp_exact,
    largest_sum_le,
    memory_budget_bytes,
    run_dp,
    scan,
    use_bitset,
)
from issp.fptas import BucketArray, FptasParams, fptas_solve
from issp.instgen import gen_a, gen_c

from conftest import chunk_ends, eager_sort, exit_instance, instances, reference_optimum
from reference_dp import FilteredSums, FullWidthBitset, insort_dp


GOLDEN_PAIRS = [(10, 20), (10, 25), (60, 85), (20, 50)]
GOLDEN_T = 100


class TestBruteForce:
    @given(instances())
    def test_matches_reference_walk(self, inst):
        ref = reference_optimum(list(zip(inst.lo, inst.hi)), inst.target)
        out = brute_force_optimum(inst)
        assert out.value == ref
        assert evaluate(inst, out.solution) == out.value

    def test_refuses_large_n(self):
        inst = validate([(1, 2)] * 26, 100)
        with pytest.raises(InstanceTooLarge):
            brute_force_optimum(inst)

    def test_reports_winning_subset(self):
        inst = validate([(2, 3), (50, 60)], 10)
        out = brute_force_optimum(inst)
        assert out.stats["subset"] == (0,)
        assert out.value == 3


class TestDpExact:
    def test_golden_four_interval_run(self):
        inst = validate(GOLDEN_PAIRS, GOLDEN_T)
        out = dp_exact(sort_by_length(inst), trace=True)
        assert out.value == 100
        assert out.solution.values == (10, 25, 65, 0)
        assert out.midrange_index == 3
        assert out.stats["sets"][0] == (10, 20)
        assert out.stats["sets"][1] == (10, 20, 25, 30, 35, 45)
        assert out.stats["early_exit_at"] == 3
        assert out.stats["delta_star"] == 35

    def test_reachable_sets_match_endpoint_subset_sums(self):
        inst = sort_by_length(validate([(3, 7), (2, 9), (5, 6)], 30))
        out = dp_exact(inst, trace=True)
        lo, hi, _ = inst.prefix(inst.n)
        for i, stored in enumerate(out.stats["sets"]):
            expected = {0}
            for j in range(i + 1):
                expected |= {s + e for s in expected for e in (lo[j], hi[j])}
            expected = {s for s in expected if 0 < s <= inst.target}
            assert set(stored) == expected

    @given(instances(max_n=7, max_end=30, max_t=120))
    @settings(max_examples=150)
    def test_matches_brute_force(self, inst):
        pre = preprocess(inst)
        if isinstance(pre, Solution):
            return
        assert dp_exact(pre).value == brute_force_optimum(pre).value

    @given(instances())
    def test_solution_feasible_with_at_most_one_midrange(self, inst):
        pre = preprocess(inst)
        if isinstance(pre, Solution):
            return
        out = dp_exact(pre)
        assert evaluate(inst, out.solution) == out.value
        assert midrange_count(inst, out.solution) <= 1

    def test_early_exit_reaches_target_exactly(self):
        inst = sort_by_length(validate([(5, 5), (5, 5)], 10))
        out = dp_exact(inst, trace=True)
        assert out.value == 10
        assert out.stats["early_exit_at"] is not None

    def test_memory_budget_enforced(self, monkeypatch):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "0")
        assert memory_budget_bytes() == 0
        inst = validate([(10, 20), (10, 25)], 100)
        with pytest.raises(MemoryBudgetExceeded):
            dp_exact(inst)

    def test_budget_env_var_parsed(self, monkeypatch):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "1")
        assert memory_budget_bytes() == 1024 * 1024

    def test_negative_budget_is_invalid(self, monkeypatch):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "-5")
        with pytest.raises(InvalidSetting):
            memory_budget_bytes()

    def test_budget_message_names_need_and_budget(self, monkeypatch):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "0")
        inst = validate([(10, 20), (10, 25)], 10**30)  # sparse: no bitset fits in 0 B
        message = (
            r"^the reachable-sum set needs 256 B, over the memory budget of 0 B; "
            "raise ISSP_MEMORY_BUDGET_MB to override$"
        )
        with pytest.raises(MemoryBudgetExceeded, match=message):
            dp_exact(inst)

    def test_bitset_refused_over_budget_before_allocation(self, monkeypatch):
        # 3^100 > T, so the density rule alone picks the bitset, but its
        # checkpoints would take 35 MB; under a 1 MiB budget the sparse set
        # is used and refuses before its charges pass 1 MiB
        pairs = [(10_000 + 397 * k, 10_000 + 410 * k) for k in range(100)]
        t = 10**7
        assert use_bitset(100, t, 100)
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "1")
        assert bitset_bytes(100, t) > 30 << 20
        assert not use_bitset(100, t, 100)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded):
                dp_exact(validate(pairs, t))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_representation_choice(self):
        assert dp_exact(validate(GOLDEN_PAIRS, GOLDEN_T)).stats["representation"] == "bitset"
        # T = BITSET_DENSITY * 3^n is the sparsest T the bitset takes
        assert use_bitset(5, BITSET_DENSITY * 3**5, 5)
        assert not use_bitset(5, BITSET_DENSITY * 3**5 + 1, 5)
        assert use_bitset(10**6, 10**3, 10**6)  # 3^n is never computed here
        # an item with lo == hi adds one sum, not two
        assert use_bitset(5, BITSET_DENSITY * 3**2 * 2**3, 2)
        assert not use_bitset(5, BITSET_DENSITY * 3**2 * 2**3 + 1, 2)

    @pytest.mark.parametrize("mb", [0, 1, 2, 3])
    def test_bitset_budget_boundary(self, monkeypatch, mb):
        # the largest T whose bitset over 16 items fits the budget in bytes
        # takes the bitset, and the next T does not
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", str(mb))
        last = bisect_right(range(1, 10**7), mb << 20, key=lambda t: bitset_bytes(16, t))
        assert (last == 0) == (mb == 0)
        if last:
            assert use_bitset(16, last, 16)
        assert not use_bitset(16, last + 1, 16)

    def test_sums_bounded_by_what_the_items_make(self, monkeypatch):
        # family A's 20 items have lo == hi, so they make at most 2^20 sums
        # (15,913 here) below T ~ 3.5 * 10^8: the bitset would cost T bits
        # per item, though the budget admits it
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "1024")
        assert dp_exact(gen_a(20)).stats["representation"] == "sparse"
        monkeypatch.delenv("ISSP_MEMORY_BUDGET_MB")
        # no sum exceeds sum hi = 4,000, so T = 10^12 leaves the bitset small
        out = dp_exact(validate([(1, 2)] * 2000, 10**12))
        assert (out.stats["representation"], out.value) == ("bitset", 4000)

    def test_bitset_cost_follows_largest_sum_not_target(self):
        # 2,000 sums below T = 10^7: building a T-bit mask per item made
        # this take about 10 s
        inst = validate([(1, 2)] * 1000, 10**7)
        start = time.perf_counter()
        out = run_dp(inst, BitsetSums)
        assert time.perf_counter() - start < 1.0
        assert out.value == 2000 and out.stats["stored_values"] == 2000

    def test_interval_above_target_is_never_used(self):
        inst = validate([(200, 300), (10, 20)], 100)
        alone = validate([(200, 300)], 100)  # no item is picked, m is None
        for sums in (SparseSums, BitsetSums):
            out = run_dp(inst, sums)
            assert out.value == 20
            assert evaluate(inst, out.solution) == 20
            out = run_dp(alone, sums)
            assert (out.value, out.midrange_index, out.solution.values) == (0, None, (0,))

    def test_huge_endpoints_summed_exactly(self):
        # endpoint sums near 10**19 overflow 63-bit arithmetic; the solver
        # must stay exact regardless
        big = 10**14
        pairs = [(big - i, big + i) for i in range(1, 6)]
        t = 5 * big - 3
        inst = validate(pairs, t)
        out = dp_exact(inst)
        assert out.stats["representation"] == "sparse"
        assert out.value == t
        assert evaluate(inst, out.solution) == t


@st.composite
def dp_instances(draw, scale: int = 1):
    """Preprocessed, length-sorted instances with endpoints scale * a + b.

    Covers n = 1, point (zero-length) intervals, repeated intervals and
    T = max hi + 1 alongside random targets.
    """
    ends = st.integers(min_value=1, max_value=30)
    small = st.integers(min_value=0, max_value=3)
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        if pairs and draw(st.integers(0, 4)) == 0:
            pairs.append(draw(st.sampled_from(pairs)))
            continue
        lo = scale * draw(ends) + draw(small)
        hi = lo if draw(st.booleans()) else lo + scale * draw(small) + draw(small)
        pairs.append((lo, hi))
    top = max(hi for _, hi in pairs) + 1
    target = draw(st.one_of(st.just(top), st.integers(min_value=1, max_value=top + scale * 60)))
    pre = preprocess(validate(pairs, target))
    assume(not isinstance(pre, Solution))
    return sort_by_length(pre)


def _fields(out):
    return {
        "value": out.value,
        "x": out.solution.values,
        "midrange_index": out.midrange_index,
        "stored_values": out.stats["stored_values"],
        "sets": out.stats["sets"],
        "early_exit_at": out.stats["early_exit_at"],
        "delta_star": out.stats["delta_star"],
    }


def _reference_fields(work):
    ref = insort_dp(work)
    ref["x"] = place(work, dict(enumerate(ref["x"]))).values
    return ref


def _answer(out):
    return out.value, out.midrange_index, out.solution


def _three_ways(work):
    """Untraced and traced SparseSums, and BitsetSums below 2^64, give one
    value, midrange index and solution."""
    got = _answer(run_dp(work, SparseSums))
    assert got == _answer(run_dp(work, SparseSums, trace=True))
    if work.target < 2**64:
        assert got == _answer(run_dp(work, BitsetSums))


class TestRepresentations:
    """Both reachable-sum representations against the insort reference."""

    @given(dp_instances())
    @settings(max_examples=300)
    def test_sparse_and_bitset_match_insort_dp(self, work):
        ref = _reference_fields(work)
        assert _fields(run_dp(work, SparseSums, trace=True)) == ref
        assert _fields(run_dp(work, BitsetSums, trace=True)) == ref

    @given(dp_instances(scale=2**64 + 1))
    @settings(max_examples=200)
    def test_sparse_matches_insort_dp_above_2_64(self, work):
        assert _fields(run_dp(work, SparseSums, trace=True)) == _reference_fields(work)

    def test_bitset_backtrack_crosses_checkpoints(self):
        # 30 items: checkpoints every 5, so backtracking replays segments
        pairs = [(3 + k % 7, 4 + k % 7 + k % 3) for k in range(30)]
        work = sort_by_length(validate(pairs, 10 * sum(hi for _, hi in pairs) // 11))
        ref = _reference_fields(work)
        assert _fields(run_dp(work, BitsetSums, trace=True)) == ref

    @given(instances(max_n=7, max_end=60, max_t=120), st.integers(min_value=0, max_value=3))
    @settings(max_examples=200)
    def test_bucket_array_scan_is_exact_when_epsilon_at_most_inverse_target(self, inst, extra):
        # eps <= 1/T gives l >= T buckets, each holding at most one integer,
        # so a min and a max per bucket keep every reachable sum
        t = inst.target
        assume(t + extra >= 2)
        inst = sort_by_length(inst)
        arrays = BucketArray(FptasParams(Fraction(1, t + extra), t), t)
        got = scan(inst, arrays)
        for sums in (SparseSums, BitsetSums):
            reach = sums(inst.n, t)
            assert scan(inst, reach) == got
            assert reach.snapshot() == tuple(arrays.values())

    @given(
        st.one_of(dp_instances(), dp_instances(scale=2**64 + 1)),
        st.sampled_from([Fraction(3, 10), Fraction(1, 10), Fraction(2, 997), Fraction(7, 10007)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_fptas_dp_and_brute_force_agree(self, work, eps):
        opt = brute_force_optimum(work).value
        assert dp_exact(work).value == opt
        out = fptas_solve(work, eps)
        assert evaluate(work, out.solution) == out.value
        assert midrange_count(work, out.solution) <= 1
        assert out.value >= (1 - eps) * opt
        if out.kind == "exact":
            assert out.value == opt


class ReadLog(list):
    """A list that counts reads by index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, k):
        self.reads[k] += 1
        return super().__getitem__(k)


class TestSparseSums:
    """First-reach runs: link precedence, long chains and bytes per sum."""

    @pytest.mark.parametrize(
        "pairs, t, x",
        [
            # 7 = 3 + 4 on item 2's hi run and 5 + 2 on its lo run: hi wins
            ([(3, 3), (5, 5), (2, 4), (13, 30)], 20, (3, 0, 4, 13)),
            # item 1's lone hi 5 = 3 + 2 is on its lo run: the lo link stays
            ([(3, 3), (2, 5), (15, 40)], 20, (3, 2, 15)),
            # lo = hi: repeated and lone points, then the midrange item
            ([(2, 2), (3, 3), (3, 3), (22, 50)], 30, (2, 3, 3, 22)),
        ],
    )
    def test_link_precedence_matches_insort_and_bitset(self, pairs, t, x):
        work = sort_by_length(validate(pairs, t))
        ref = _reference_fields(work)
        assert ref["x"] == x
        assert _fields(run_dp(work, SparseSums, trace=True)) == ref
        assert _fields(run_dp(work, BitsetSums, trace=True)) == ref

    def test_lone_point_takes_the_lo_run(self):
        reach = SparseSums(1, 10)
        reach.add(0, 2, 2)
        assert reach.snapshot() == (2,)
        assert (reach.firsts, reach.ends) == ([2], [0, 0, 1])

    def test_long_chain_reads_each_item_once(self):
        # 2,000 items [1, 2] under a far T: the midrange item is the last,
        # and its d = 3,998 is the sum of every earlier item's hi
        inst = validate([(1, 2)] * 2000, 10**12)
        assert run_dp(inst, SparseSums).solution == run_dp(inst, BitsetSums).solution
        work = sort_by_length(inst)
        reach = SparseSums(work.n, work.target)
        m, delta, _, _ = scan(work, reach)
        assert (m, delta) == (1999, 3998)
        reach.ends = ReadLog(reach.ends)
        lo, hi, _ = work.prefix(work.n)
        assert reach.backtrack(delta, m, lo, hi) == dict.fromkeys(range(m), 2)
        assert max(reach.ends.reads.values()) == 1

    @given(
        st.one_of(dp_instances(), dp_instances(scale=2**64 + 1)),
        st.sampled_from([1, 4, BLOCK_WEIGHT]),
    )
    @settings(max_examples=300)
    def test_untraced_run_matches_traced_run_and_bitset(self, work, weight):
        # untraced, the scan's newest items stay pending; traced, every
        # snapshot builds them.  A small weight keeps many items pending on
        # small instances.  The bitset is run only where T is small.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "BLOCK_WEIGHT", weight)
            _three_ways(work)

    @pytest.mark.parametrize(
        "pairs, t, x",
        [
            # the scan stops at the last item, so the item before it is
            # pending when d is backtracked; item 0 stores {5}
            ([(5, 5), (1, 2), (20, 40)], 25, (5, 0, 20)),  # d = 5 stored before it
            ([(5, 5), (1, 2), (20, 40)], 27, (5, 2, 20)),  # d = 7 = 5 + hi
            ([(5, 5), (1, 2), (20, 40)], 26, (5, 1, 20)),  # d = 6 = 5 + lo
            ([(3, 3), (5, 5), (2, 4), (20, 40)], 27, (3, 0, 4, 20)),  # d = 7 = 3 + hi = 5 + lo
            ([(5, 5), (1, 2), (20, 40)], 21, (0, 1, 20)),  # d = 1, the lone lo
            ([(1, 1), (2, 3), (20, 40)], 23, (1, 2, 20)),  # d = 3, a lone hi and 1 + lo
        ],
    )
    def test_pending_item_backtracks_like_the_bitset(self, pairs, t, x):
        work = sort_by_length(validate(pairs, t))
        reach = SparseSums(work.n, t)
        m, _, exit_at, _ = scan(work, reach)
        assert exit_at == m == work.n - 1
        assert reach.pending == [pairs[m - 1]]
        for sums in (SparseSums, BitsetSums):
            assert run_dp(work, sums).solution.values == x
        assert _reference_fields(work)["x"] == x

    def test_peak_bytes_per_sum_below_nominal_cost(self):
        # 6,560 = 3^8 - 1 sums; _BYTES_PER_ENTRY is what the memory gate
        # charges.  The scan stops at item 11, so items 8-10, which would
        # take the set to 177,146 sums, stay pending and are never built;
        # the peak includes their block of 27 sums.
        inst = gen_c(14, Fraction(11, 10), 1)
        tracemalloc.start()
        try:
            out = run_dp(inst, SparseSums)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stats["stored_values"] == 6_560
        assert peak / out.stats["stored_values"] < _BYTES_PER_ENTRY
        assert peak < 4 << 20


@st.composite
def narrow_instances(draw):
    """Family-C-like instances: 11 or 12 items with lo uniform in
    [1, 2 T / n] and hi uniform in [lo, 1.1 lo], T up to 10^7 so that the
    bitset fits.  With ``grid`` > 1 every endpoint is a multiple of it, so
    sums repeat; with ``grid`` = 1 they mostly do not."""
    n = draw(st.integers(min_value=11, max_value=12))
    t = draw(st.integers(min_value=10**6, max_value=10**7))
    grid = draw(st.sampled_from([1, t // 10**5]))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pairs = []
    for _ in range(n):
        lo = grid * rnd.randint(1, 2 * t // (n * grid))
        pairs.append((lo, lo + grid * rnd.randint(0, lo // (10 * grid))))
    pre = preprocess(validate(pairs, t))
    assume(not isinstance(pre, Solution))
    return sort_by_length(pre)


# Items [2 * 4^j, 3 * 4^j]: their sums never repeat (base-4 digits 0, 2
# and 3), and item j's length 4^j sorts it at position j.
BASE4_T = 10**6
BASE4 = [(2 * 4**j, 3 * 4**j) for j in range(9)]


def _base4_then(q: int) -> list[tuple[int, int]]:
    """BASE4, then [T - a, T - b] of length 4^(q-1) + 1, sorted at position
    q: the midrange item.  It gets d = 4^q - 1 < b, so the scan never
    reaches T, and no later item has lo <= a to join it."""
    b = 4**q + 1
    return BASE4 + [(BASE4_T - b - 4 ** (q - 1) - 1, BASE4_T - b)]


class TestPendingBlock:
    """The newest items stay pending as a block; its sums meet the stored
    sums in ``largest_le`` and its items are walked like the bitset's."""

    @given(narrow_instances())
    @settings(max_examples=40, deadline=None)
    def test_narrow_instances_agree_with_three_items_pending(self, work):
        reach = SparseSums(work.n, work.target)
        scan(work, reach)
        assume(len(reach.pending) >= 3)
        _three_ways(work)

    @pytest.mark.parametrize(
        "pairs, m, h, k",
        [
            (_base4_then(8), 8, 7, 10),  # m inside the block: items 7-9 pending
            (_base4_then(7), 7, 7, 10),  # m at the block's first item
            (_base4_then(5), 5, 8, 10),  # m built, before h: the block is ignored
            # the scan stops at the last item with d = 2 * 4^8, which only
            # pending item 8's lone lo reaches: x = (0, ..., 0, 2 * 4^8, T - d)
            (BASE4 + [(BASE4_T - 2 * 4**8, BASE4_T - 4**8 + 1)], 9, 7, 9),
        ],
    )
    def test_midrange_around_the_block_backtracks_like_the_bitset(self, pairs, m, h, k):
        work = sort_by_length(validate(pairs, BASE4_T))
        reach = SparseSums(work.n, BASE4_T)
        got_m, _, _, _ = scan(work, reach)
        built = len(reach.ends) // 2
        assert (got_m, built, built + len(reach.pending)) == (m, h, k)
        ref = _reference_fields(work)
        assert _fields(run_dp(work, SparseSums, trace=True)) == ref
        assert _fields(run_dp(work, BitsetSums, trace=True)) == ref
        assert run_dp(work, SparseSums).solution.values == ref["x"]

    def test_largest_le_meets_block_and_stored_sums(self, monkeypatch):
        monkeypatch.setattr(exact, "BLOCK_WEIGHT", 0)  # build only in snapshot
        reach = SparseSums(3, 100)
        reach.add(0, 1, 2)
        reach.snapshot()
        reach.add(1, 10, 20)
        reach.add(2, 40, 40)
        assert (reach.values, reach.pending) == ([1, 2], [(10, 20), (40, 40)])
        assert reach.block == [0, 10, 20, 40, 50, 60]
        # each bound's answer is p + v, p a block sum, v stored or 0
        for bound, best in [(0, 0), (1, 1), (9, 2), (13, 12), (39, 22), (59, 52), (100, 62)]:
            assert reach.largest_le(bound) == best

    def test_n24_family_c_solves_under_the_default_budget(self, monkeypatch):
        # the set with one pending item needs 4,782,968 entries here, more
        # than the default budget's 2,097,152; the block leaves items
        # 11-15 unbuilt and builds 59,048 sums
        monkeypatch.delenv("ISSP_MEMORY_BUDGET_MB", raising=False)
        inst = gen_c(24, Fraction(11, 10), 10)
        out = dp_exact(inst)
        assert out.stats["representation"] == "sparse"
        assert out.stats["stored_values"] == 59_048
        assert out.value == brute_force_optimum(inst).value == inst.target
        assert evaluate(inst, out.solution) == out.value
        assert midrange_count(inst, out.solution) <= 1


# 100 items whose sums repeat from the fourth item on (the CLI budget test's
# instance); the sparse set switches to its filter early
ARITHMETIC_PAIRS = [(10_000 + 397 * k, 10_000 + 410 * k) for k in range(100)]
ARITHMETIC_T = 10**7


def _witness_pairs(n):
    """The arithmetic items scaled by 200: at n = 60, T = 1.2 x 10^9 the set
    stores 918,549 sums, and a count taken before repeats were filtered
    out refused them under the default budget."""
    return [(200 * a, 200 * b) for a, b in ARITHMETIC_PAIRS[:n]]


def _powers_then(last: tuple[int, int], k: int = 6) -> list[tuple[int, int]]:
    """Items [3^j, 2 * 3^j] for j < k, whose sums never repeat (each is a
    base-3 number with digits 0..2), then ``last``."""
    return [(3**j, 2 * 3**j) for j in range(k)] + [last]


class TestSparseSumsAgainstFilter:
    """The sparse set builds its filter at the first repeated sum; before
    and after, it holds what the always-filtered reference holds."""

    @staticmethod
    def _same_after_every_item(pairs, t):
        got, ref = SparseSums(len(pairs), t), FilteredSums(len(pairs), t)
        for i, (lo, hi) in enumerate(pairs):
            got.add(i, lo, hi)
            ref.add(i, lo, hi)
            assert got.snapshot() == ref.snapshot()
            assert (got.values, got.firsts, got.ends) == (ref.values, ref.firsts, ref.ends)
            if got.seen is not None:
                assert got.seen == set(got.values)
        return got

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.integers(1, 12), st.integers(0, 6)),  # heavy repeats
                st.tuples(st.integers(1, 40), st.just(0)),  # zero length
                st.tuples(st.integers(1, 10**6), st.integers(0, 10**6)),
            ).map(lambda p: (p[0], p[0] + p[1])),
            min_size=1,
            max_size=9,
        ).flatmap(lambda ps: st.tuples(st.just(ps + ps[:2]), st.integers(1, 4 * 10**6))),
    )
    @settings(max_examples=300)
    def test_random_items_match_the_filtered_reference(self, case):
        pairs, t = case  # the first two items come again at the end
        self._same_after_every_item(pairs, t)

    @pytest.mark.parametrize(
        "last, switches",
        [
            ((1, 1), True),  # a lone point that is stored already
            ((4, 4), True),  # 4 + 1 = 5 = 2 + 3 is stored already
            ((3**6, 3**6), False),  # a new power of 3 keeps every sum new
            ((3**7, 2 * 3**7), False),
        ],
    )
    def test_first_repeat_late_in_the_scan(self, last, switches):
        # 3^6 - 1 = 728 sums stored without a set, then the last item
        got = self._same_after_every_item(_powers_then(last), 10**9)
        assert (got.seen is not None) == switches

    def test_equal_intervals_switch_on_the_second(self):
        got = self._same_after_every_item([(5, 9)] * 4, 100)
        assert got.seen is not None
        one = SparseSums(1, 100)
        one.add(0, 5, 9)
        assert one.seen is None

    def test_run_dp_matches_the_filtered_reference(self):
        for pairs, t in [
            (ARITHMETIC_PAIRS[:20], 2 * 10**5),  # 41,048 sums, exit at item 17
            (_powers_then((1, 1)), 3**6 + 17),
            ([(10**6 * (1000 + 37 * k), 10**6 * (1000 + 41 * k)) for k in range(12)], 9 * 10**9),
        ]:
            work = sort_by_length(validate(pairs, t))
            assert _fields(run_dp(work, SparseSums, trace=True)) == _fields(
                run_dp(work, FilteredSums, trace=True)
            )

    def test_exact_sparse_instances_build_no_set(self, monkeypatch):
        # the instances of the exact-sparse benchmark never repeat a sum,
        # so that benchmark measures the path without a set
        made = []

        class Recorded(SparseSums):
            def __init__(self, n, t):
                super().__init__(n, t)
                made.append(self)

        monkeypatch.setattr("issp.exact.SparseSums", Recorded)
        for seed in range(1, 6):
            out = dp_exact(gen_c(14, Fraction(11, 10), seed))
            assert out.stats["representation"] == "sparse"
            assert made[-1].seen is None
        assert len(made) == 5


@st.composite
def bitset_sets(draw):
    """A ``BitsetSums`` after up to 8 items under T <= 2 * 10^5, each item
    small (lo <= 8) or anywhere up to T, so that some sets reach far past a
    bound with no sum for thousands of bits below it."""
    t = draw(st.integers(min_value=1, max_value=2 * 10**5))
    los = st.one_of(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=t))
    items = draw(st.lists(st.tuples(los, st.integers(0, 3)), min_size=1, max_size=8))
    reach = BitsetSums(len(items), t)
    for i, (lo, extra) in enumerate(items):
        reach.add(i, lo, lo + extra)
    return reach


def _even_pairs(n: int, t: int, spread: bool) -> list[tuple[int, int]]:
    """n items with even endpoints under an odd T: lo uniform in [2, 4T / n],
    so the set reaches past T after about n / 4 items, and hi = lo or, with
    ``spread``, up to T / n above it.  Then [T - 1, T - 1], which with lo ==
    hi comes last but one and shifts the whole set by T - 1, and [2, T - 1],
    the longest.  With lo == hi no sum is odd, so the scan first reaches T
    at the last item and the backtrack crosses every checkpoint."""
    rnd = random.Random(n * t)
    pairs = []
    for _ in range(n - 2):
        lo = 2 * rnd.randint(1, max(1, 2 * t // n))
        pairs.append((lo, lo + 2 * rnd.randint(0, t // (2 * n)) if spread else lo))
    return pairs + [(t - 1, t - 1), (2, t - 1)]


class TestBitsetKernels:
    """The bitset's cached mask, top-window lookup and cut replay against
    ``FullWidthBitset``, its kernels as first written, and its memory
    against ``bitset_bytes``."""

    @given(bitset_sets(), st.integers(min_value=0, max_value=2 * 10**5 + 10))
    @settings(max_examples=300)
    def test_largest_le_matches_the_snapshot(self, reach, bound):
        sums = (0,) + reach.snapshot()
        below = sums[1] - 1 if len(sums) > 1 else 0  # below every sum
        length = reach.reach.bit_length()  # the largest sum plus one
        for b in (0, below, bound, max(length - 2, 0), length - 1, length, length + 7):
            assert reach.largest_le(b) == sums[bisect_right(sums, b) - 1], b

    def test_largest_le_widens_its_window_to_bit_0(self):
        # sums 5 and 10^4: below 9,000 the nearest is 5, which windows of
        # 64, 256, 1,024 and 4,096 bits below the bound all miss
        reach = BitsetSums(2, 2 * 10**4)
        reach.add(0, 5, 5)
        reach.add(1, 10**4, 10**4)
        assert reach.snapshot() == (5, 10**4, 10**4 + 5)
        bounds = (0, 4, 5, 9_000, 9_999, 10**4, 10**4 + 4, 2 * 10**4)
        assert [reach.largest_le(b) for b in bounds] == [0, 0, 5, 5, 5, 10**4, 10**4, 10**4 + 5]

    @given(st.one_of(dp_instances(), dp_instances(scale=1000)))
    @settings(max_examples=300)
    def test_matches_the_full_width_reference(self, work):
        got = _fields(run_dp(work, BitsetSums, trace=True))
        assert got == _fields(run_dp(work, FullWidthBitset, trace=True))

    @pytest.mark.parametrize(
        "pairs, t",
        [
            ([(3 + k % 7, 4 + k % 7 + k % 3) for k in range(30)], 200),
            ([(50 + 7 * k, 50 + 9 * k) for k in range(40)], 3001),
            ([(11 + k % 5, 11 + k % 5) for k in range(40)], 401),
        ],
    )
    def test_cut_replay_matches_full_width_replay_from_every_sum(self, pairs, t):
        work = sort_by_length(validate(pairs, t))
        lo, hi, _ = work.prefix(work.n)
        got, ref = BitsetSums(work.n, t), FullWidthBitset(work.n, t)
        for i, (a, b) in enumerate(zip(lo, hi)):
            got.add(i, a, b)
            ref.add(i, a, b)
        assert got.reach == ref.reach and got.marks == ref.marks
        assert got.mask  # the set reached past T
        for m in (work.n, work.n // 2):
            for d in _sums_of(lo[:m], hi[:m], t):
                assert got.backtrack(d, m, lo, hi) == ref.backtrack(d, m, lo, hi), (m, d)

    @pytest.mark.parametrize("n", [16, 100, 400])
    @pytest.mark.parametrize("spread", [False, True], ids=["lo==hi", "lo<hi"])
    def test_tracemalloc_peak_within_bitset_bytes(self, n, spread):
        for t in (10**4 + 1, 10**5 + 1, 10**6 + 1, 10**7 + 1):
            work = sort_by_length(validate(_even_pairs(n, t, spread), t))
            assert use_bitset(n, t, n)
            tracemalloc.start()
            try:
                out = run_dp(work, BitsetSums)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert evaluate(work, out.solution) == out.value
            assert peak <= bitset_bytes(n, t), (t, peak / bitset_bytes(n, t))

    def test_mask_is_built_only_when_a_step_reaches_past_t(self):
        # 2,000 sums below T = 10^8: a mask of T + 1 bits would take 12.5 MB
        inst = validate([(1, 2)] * 1000, 10**8)
        tracemalloc.start()
        try:
            out = run_dp(inst, BitsetSums)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.value == 2000
        assert peak < 1 << 20


def _sums_of(lo, hi, t):
    """Every sum in (0, t] of one endpoint per chosen item."""
    reach = FullWidthBitset(len(lo), t)
    for i, (a, b) in enumerate(zip(lo, hi)):
        reach.add(i, a, b)
    return reach.snapshot()


# eight sums at 128 B against a budget of seven
NEEDS_8_OF_7 = "needs 1024 B, over the memory budget of 896 B"


def _traced_sparse_dp(work):
    """The sums ``run_dp`` on SparseSums builds, None when the budget refuses
    it, and the ``tracemalloc`` peak of either."""
    tracemalloc.start()
    try:
        try:
            stored = run_dp(work, SparseSums).stats["stored_values"]
        except MemoryBudgetExceeded:
            stored = None
        return stored, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSparseBudget:
    """The sparse set charges the budget before an item's runs are built."""

    @pytest.mark.parametrize("mb", [1, 2, 3, 4, 8])
    def test_tracemalloc_peak_within_budget(self, monkeypatch, mb):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", str(mb))
        budget = mb << 20
        cases = [sort_by_length(gen_c(14, Fraction(11, 10), seed)) for seed in (1, 3, 4)]
        cases.append(sort_by_length(gen_c(24, Fraction(11, 10), 10)))
        cases.append(sort_by_length(validate(ARITHMETIC_PAIRS, ARITHMETIC_T)))
        cases += [sort_by_length(validate(_witness_pairs(n), 6 * 10**7)) for n in (20, 30, 40)]
        outcomes = []
        for work in cases:
            stored, peak = _traced_sparse_dp(work)
            outcomes.append(stored)
            assert peak <= budget, (mb, stored, peak / budget)
        # seed 1 builds 6,560 sums, seed 3 728, seed 4 2,186 and n = 24
        # 59,048 (the newest items of each scan stay pending).  Of the
        # instances with repeats, charged for the set of their sums too,
        # only the 20 witness items solve, at 8 MiB, with 29,740 sums.
        entries = budget // _BYTES_PER_ENTRY
        expected = [n if n <= entries else None for n in (6_560, 728, 2_186, 59_048)]
        assert outcomes == expected + [None, 29_740 if mb == 8 else None, None, None]

    def test_wide_sums_are_charged_at_their_width(self, monkeypatch):
        # 24 point items of about 2^4000: the scan reaches T at item 17 and
        # builds 4,095 distinct sums, which a flat 128 B admits into 1 MiB,
        # but each takes a 560 B int and two list slots
        xs = [2**4000 + 2 ** (j + 1) for j in range(24)]
        work = sort_by_length(validate([(x, x) for x in xs], sum(xs[:17])))
        assert SparseSums(work.n, work.target).per_sum == 576
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "1")
        stored, peak = _traced_sparse_dp(work)
        assert stored is None and peak <= 1 << 20  # refused before the sums are built
        # the solve peaks above 2 MiB, so a flat 128 B per sum overran 1 MiB
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "4")
        stored, peak = _traced_sparse_dp(work)
        assert stored == 4_095 and 4_095 * _BYTES_PER_ENTRY <= 1 << 20 < 2 << 20 < peak <= 4 << 20

    def test_no_repeat_count_is_the_new_size(self):
        # [1, 2] then [20, 30] store 2 + 6 = 8 sums, none twice, so the
        # charge taken before the second item is its new size exactly
        def after_first_item(entries):
            reach = SparseSums(2, 100)
            reach.budget = entries * _BYTES_PER_ENTRY
            reach.add(0, 1, 2)
            reach.snapshot()
            return reach

        reach = after_first_item(8)
        reach.add(1, 20, 30)
        reach.snapshot()
        assert reach.seen is None and len(reach.values) == 8
        reach = after_first_item(7)
        reach.add(1, 20, 30)  # pending: the budget is checked when it is built
        with pytest.raises(MemoryBudgetExceeded, match=NEEDS_8_OF_7):
            reach.snapshot()
        # refused before anything was built
        assert (reach.values, reach.firsts, reach.ends) == ([1, 2], [2, 1], [0, 1, 2])

    def test_repeat_charge_is_the_new_size(self):
        # [1, 2] three times stores 2, 4 and then 6 sums.  Sums repeat from
        # the second item on, so each stored sum is charged with its entry in
        # the set, after the runs are filtered: the third build is charged
        # for 6 sums, where a count of 4 stored sums, runs of 4 and 4 and two
        # lone endpoints came to 14
        def third_build(budget):
            reach = SparseSums(3, 100)
            for i in range(3):
                reach.add(i, 1, 2)
                reach.budget = budget if i == 2 else 1 << 20
                reach.snapshot()
            return reach

        per_stored = _BYTES_PER_ENTRY + exact._SEEN_BYTES
        assert third_build(6 * per_stored).values == [1, 2, 3, 4, 5, 6]
        message = f"needs {6 * per_stored} B, over the memory budget of {6 * per_stored - 1} B"
        with pytest.raises(MemoryBudgetExceeded, match=message):
            third_build(6 * per_stored - 1)

    def test_block_count_is_its_new_size(self):
        # unbuilt, the two items' sums {1, 2, 20, 21, 22, 30, 31, 32} are
        # the block's; they are charged with the stored sums before it grows
        reach = SparseSums(2, 100)
        reach.budget = 7 * _BYTES_PER_ENTRY
        reach.add(0, 1, 2)
        with pytest.raises(MemoryBudgetExceeded, match=NEEDS_8_OF_7):
            reach.add(1, 20, 30)
        # refused before the block grew
        assert (reach.pending, reach.block, reach.values) == ([(1, 2)], [0, 1, 2], [])


class TestMeetInTheMiddle:
    """``largest_sum_le`` pairs a sorted block of sums, 0 included, with
    sorted stored sums, as Horowitz and Sahni pair two halves' subset sums."""

    @staticmethod
    def _best(items, t):
        half = len(items) // 2
        block = [0, *_sums_of(items[:half], items[:half], t)]
        return largest_sum_le(block, list(_sums_of(items[half:], items[half:], t)), t)

    @given(instances(max_n=10, max_end=50, max_t=200))
    @settings(max_examples=100)
    def test_matches_brute_force_on_point_intervals(self, inst):
        points = validate([(hi, hi) for hi in inst.hi], inst.target)
        assert self._best(list(points.hi), points.target) == brute_force_optimum(points).value

    def test_items_above_and_at_target(self):
        # items above T never enter a sum; an item equal to T reaches T
        assert self._best([7, 2, 9], 5) == 2
        assert self._best([7, 2, 5], 5) == 5


class TestLazyLengthOrder:
    """The exact DP reads a lazily sorted view as it would the eager sort."""

    @pytest.mark.parametrize("first, share", [(2, 2), (1, 4), (3, 2)])
    def test_exits_around_every_chunk_boundary(self, monkeypatch, first, share):
        n = 40
        # under the default constants a reference view sorts in full at once
        refs = {k: sort_by_length(eager_sort(exit_instance(n, k))) for k in [*range(n + 1), None]}
        assert all(ref.materialized == n for ref in refs.values())
        monkeypatch.setattr(core, "FIRST_CHUNK", first)
        monkeypatch.setattr(core, "FULL_SORT_SHARE", share)
        ends = chunk_ends(n)
        assert len(ends) >= 3  # at least one extension before the full sort
        exits = sorted({m for e in ends[:-1] for m in (e - 1, e, e + 1)})
        for k in exits + [None]:  # None: no exit, so the full sort
            inst = exit_instance(n, k)
            ref = refs[k]
            got = dp_exact(sort_by_length(inst), trace=True)
            assert got.stats["early_exit_at"] == (None if k is None else k + 1)
            assert got == dp_exact(ref, trace=True)
            for sums in (SparseSums, BitsetSums):
                view = sort_by_length(inst)
                got = run_dp(view, sums, trace=True)
                assert got == run_dp(ref, sums, trace=True)
                # the scan read items 0..k and backtracking sorted no further
                assert view.materialized == min(e for e in ends if e > (n - 1 if k is None else k))

    @given(instances(max_n=12, max_end=40, max_t=200), st.sampled_from([(1, 2), (2, 4)]))
    @settings(max_examples=200)
    def test_random_instances_match_the_eager_sort(self, inst, constants):
        pre = preprocess(inst)
        assume(not isinstance(pre, Solution))
        ref = sort_by_length(eager_sort(pre))  # one full sort, before the constants change
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "FIRST_CHUNK", constants[0])
            mp.setattr(core, "FULL_SORT_SHARE", constants[1])
            for sums in (SparseSums, BitsetSums):
                got = run_dp(sort_by_length(pre), sums, trace=True)
                assert got == run_dp(ref, sums, trace=True)
