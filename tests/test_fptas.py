"""Approximation scheme: buckets, reconstruction, guarantee, space meter."""

import hashlib
import math
import tracemalloc
from bisect import bisect_left, insort
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from issp import analysis, core
from issp.core import (
    Solution,
    evaluate,
    midrange_count,
    preprocess,
    sort_by_length,
    validate,
)
from issp import fptas
from issp.errors import IsspError, MemoryBudgetExceeded
from issp.exact import brute_force_optimum, dp_exact, scan
from issp.fptas import (
    BucketArray,
    FptasParams,
    backtrack,
    divide_and_conquer,
    find_u1_u2,
    fptas_solve,
    relaxed_dp,
)
from issp.instgen import SplitMix64, gen_b, gen_c

from conftest import chunk_ends, eager_sort, exit_instance, instances
from reference_dp import decoded_slots, producer, rebuild_dc

GOLDEN_PAIRS = [(10, 20), (10, 25), (60, 85), (20, 50)]
GOLDEN_T = 100

SLOT_LISTS = ("neg", "pos", "neg_d1", "neg_d2", "pos_d1", "pos_d2")
# the whole state of a BucketArray, compared between two arrays
ARRAY_STATE = ("neg", "pos", "neg_src", "pos_src", "k0", "k1", "count")


class ReferenceSlots:
    """The bucket array as first written: six slot lists (values, producer
    positions and endpoints 1 = lo, 2 = hi, per bucket minimum and
    maximum) and a sorted index of the occupied buckets."""

    def __init__(self, params, local_target):
        self.params = params
        self.tfloor = min(math.floor(local_target), params.target)
        for name in SLOT_LISTS:
            setattr(self, name, [0] * (params.l + 1))
        self.nonempty = []

    def state(self):
        ne = self.nonempty
        occupied = (ne[0], ne[-1] + 1, len(ne)) if ne else None
        return {**{name: getattr(self, name) for name in SLOT_LISTS}, "occupied": occupied}


def array_state(b):
    """A BucketArray's slots decoded to the reference's six lists, with its
    occupied range and count."""
    return {**decoded_slots(b), "occupied": (b.k0, b.k1, b.count) if b.count else None}


def assert_same_state(b, ref):
    got, want = array_state(b), ref.state()
    for name in want:
        assert got[name] == want[name], name


def reference_insert(ref, v, d1, d2):
    """One value into its bucket by ceil division, as the solver once did."""
    k = -(-v * ref.params.l // ref.params.target)
    if ref.neg[k] == 0:
        insort(ref.nonempty, k)
        ref.neg[k] = ref.pos[k] = v
        ref.neg_d1[k] = ref.pos_d1[k] = d1
        ref.neg_d2[k] = ref.pos_d2[k] = d2
        return
    if v < ref.neg[k]:
        ref.neg[k], ref.neg_d1[k], ref.neg_d2[k] = v, d1, d2
    if v > ref.pos[k]:
        ref.pos[k], ref.pos_d1[k], ref.pos_d2[k] = v, d1, d2


CLOSES = ("new bucket", "max only", "max and min", "min only", "no change")


def close_outcome(ref, k, first, last):
    """What a bucket close offering first..last changes in bucket k."""
    if ref.neg[k] == 0:
        return "new bucket"
    grew = (last > ref.pos[k], first < ref.neg[k])
    return {(True, False): "max only", (True, True): "max and min",
            (False, True): "min only", (False, False): "no change"}[grew]


def reference_add(ref, idx, lo, hi, seen):
    """BucketArray.add as a per-value insert loop: lo alone, lo plus each
    value stored before the item, then the same for hi (skipped when equal
    to lo, since it repeats lo's values and no slot changes on a tie).

    Each run is grouped by bucket as the kernel closes it (the lone
    endpoint is a close of its own), and ``seen`` counts each close's
    outcome, read from the slots before the group's values go in."""
    tf, l, t = ref.tfloor, ref.params.l, ref.params.target
    base = [x for k in ref.nonempty for x in sorted({ref.neg[k], ref.pos[k]})]
    for j, a in ((1, lo), (2, hi)) if lo != hi else ((1, lo),):
        for run in ([a], [v + a for v in base]):
            groups: dict[int, list[int]] = {}
            for c in run:
                if c <= tf:
                    groups.setdefault(-(-c * l // t), []).append(c)
            for k, cs in groups.items():
                seen[close_outcome(ref, k, cs[0], cs[-1])] += 1
                for c in cs:
                    reference_insert(ref, c, idx, j)


def steps_match_reference(items, local_target, params):
    """Add the items one at a time to a BucketArray and to the reference,
    compare the decoded slots, the occupied range and its count after each
    item, and return the array and the counts of snapshot forms and close
    outcomes seen on the way."""
    b, ref = BucketArray(params, local_target), ReferenceSlots(params, local_target)
    seen: Counter = Counter()
    for idx, lo, hi in items:
        if b.count:
            seen["dense snapshot" if b.count == b.k1 - b.k0 else "gapped snapshot"] += 1
        b.add(idx, lo, hi)
        reference_add(ref, idx, lo, hi, seen)
        assert_same_state(b, ref)
    return b, seen


FILLED_TARGETS = [10**9 + 7, Fraction(2 * 10**9 + 1, 3)]


def filled_case(local_target):
    """300 items below T/100 for T = 10**9 + 7 at eps = 1/1000, a quarter
    of them zero-length and a fifth repeating the item before (equal sums,
    so slot ties): their runs cross most of the 1,000 buckets, which a few
    drawn items never do."""
    rng = SplitMix64(7)
    t = 10**9 + 7
    items = []
    for i in range(300):
        lo = rng.randint(t // 100)
        hi = lo + rng.randint(lo) if i % 4 else lo
        items.append((i, *items[-1][1:]) if i % 5 == 4 else (i, lo, hi))
    return items, local_target, FptasParams(Fraction(1, 1000), t)


@st.composite
def item_lists(draw):
    """Items with endpoints up to 2**70, zero-length and repeated intervals,
    a local target up to T, and eps with a small or a large denominator."""
    t = draw(st.sampled_from([1, 7, 100, 10**6, 2**64 + 13, 2**70]))
    t = draw(st.integers(min_value=1, max_value=t))
    eps = draw(st.sampled_from([Fraction(1, 5), Fraction(3, 10), Fraction(1, 100), Fraction(2, 997)]))
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        lo = draw(st.integers(min_value=1, max_value=t))
        hi = draw(st.one_of(st.just(lo), st.integers(min_value=lo, max_value=t)))
        items.append((lo, hi))
        if draw(st.booleans()):
            items.append((lo, hi))
    local_target = draw(
        st.one_of(st.just(t), st.fractions(min_value=Fraction(1, 2), max_value=t))
    )
    return [(i, lo, hi) for i, (lo, hi) in enumerate(items)], local_target, FptasParams(eps, t)


@st.composite
def raw_instances(draw):
    """Valid instances as given, not preprocessed: lower endpoints up to 2T,
    so some intervals lie above T and some contain it."""
    t = draw(st.integers(min_value=1, max_value=100))
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        lo = draw(st.integers(min_value=1, max_value=2 * t))
        pairs.append((lo, draw(st.integers(min_value=lo, max_value=lo + t))))
    return validate(pairs, t)


class TestParams:
    def test_bucket_count_is_ceil_inverse_epsilon(self):
        assert FptasParams(Fraction(1, 5), 100).l == 5
        assert FptasParams(Fraction(3, 10), 100).l == 4
        assert FptasParams(Fraction(1, 1000), 100).l == 1000

    def test_rejects_epsilon_outside_unit_interval(self):
        for bad in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(ValueError, match=rf"^epsilon must be in \(0, 1\), got {bad}$"):
                FptasParams(bad, 100)

    def test_bucket_index_partition(self):
        p = FptasParams(Fraction(1, 5), 100)
        # buckets are (0,20], (20,40], ... (80,100]
        assert p.bucket_index(1) == 1
        assert p.bucket_index(20) == 1
        assert p.bucket_index(21) == 2
        assert p.bucket_index(100) == 5

    def test_bucket_index_rejects_out_of_range(self):
        p = FptasParams(Fraction(1, 5), 100)
        for bad in (0, -3, 101):
            with pytest.raises(IsspError, match=rf"^value {bad} outside \(0, 100\]$"):
                p.bucket_index(bad)

    @given(
        st.integers(min_value=1, max_value=300),
        st.sampled_from([Fraction(1, 5), Fraction(3, 10), Fraction(1, 7), Fraction(2, 997)]),
    )
    def test_boundary_table_matches_ceil_division(self, t, eps):
        p = FptasParams(eps, t)
        for v in range(1, t + 1):
            assert bisect_left(p.bounds, v) == p.bucket_index(v) == -(-v * p.l // t)

    @pytest.mark.parametrize("eps", [Fraction(1, 10**8), Fraction(1, 10**400)])
    def test_tiny_epsilon_refused_before_allocation(self, eps):
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded):
                FptasParams(eps, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("mb", [0, 1, 2, 3])
    def test_bucket_charge_boundary(self, monkeypatch, mb):
        # l = ceil(1/eps) is admitted exactly when its 5l + 1 entries at
        # 128 B fit the budget in bytes, which is when 5l + 1 <= budget // 128
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", str(mb))
        budget = mb << 20
        last = (budget // 128 - 1) // 5
        assert 128 * (5 * last + 1) <= budget < 128 * (5 * last + 6)
        if mb:
            assert FptasParams(Fraction(1, last), 100).l == last
        # eps = 1/l must lie in (0, 1), so l = 2 stands for l = 0 at 0 MiB
        with pytest.raises(MemoryBudgetExceeded, match=f"more than the {max(last, 0)} that fit"):
            FptasParams(Fraction(1, max(last + 1, 2)), 100)

    def test_epsilon_bounded_by_memory_budget(self, monkeypatch):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "1")  # at most 1,638 buckets
        assert FptasParams(Fraction(1, 1000), 100).l == 1000
        with pytest.raises(MemoryBudgetExceeded):
            FptasParams(Fraction(1, 2000), 100)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)),
    )
    def test_bucket_index_within_range(self, t, eps):
        p = FptasParams(eps, t)
        assert 1 <= p.bucket_index(1)
        assert p.bucket_index(t) <= p.l


class TestBucketArray:
    def test_keeps_min_and_max_per_bucket(self):
        p = FptasParams(Fraction(1, 5), 100)
        b = BucketArray(p, 100)
        for v in (22, 25, 38, 40):
            b.insert(v, 1, 1)
        assert b.neg[2] == 22 and b.pos[2] == 40
        assert sorted(b.values()) == [22, 40]
        b.release()

    def test_largest_le_descends_buckets(self):
        p = FptasParams(Fraction(1, 5), 100)
        b = BucketArray(p, 100)
        for v, d in ((10, 1), (35, 2), (95, 3)):
            b.insert(v, d, 2)
        assert b.largest_le(100) == 95
        assert b.largest_le(94) == 35
        assert b.largest_le(35) == 35
        assert b.largest_le(34) == 10
        assert b.largest_le(9) == 0
        assert b.largest_le(0) == 0
        b.release()

    @pytest.mark.parametrize("m, divisor", [(40, 1), (82, 3)])
    def test_largest_le_matches_max_over_values(self, m, divisor):
        # the first m items of C n=1000 at eps = 1/10**4, cut at T/divisor:
        # 14 and 10 empty buckets inside the occupied range
        work = sort_by_length(preprocess(gen_c(1000, Fraction(3, 2), seed=1)))
        lo, hi, _ = work.prefix(m)
        t = work.target
        p = FptasParams(Fraction(1, 10**4), t)
        b = relaxed_dp(list(zip(range(m), lo, hi)), t // divisor, p)
        occupied = [k for k in range(b.k0, b.k1) if b.pos[k]]
        gaps = [k for k in range(b.k0, b.k1) if not b.pos[k]]
        assert gaps and b.count == len(occupied)
        bounds = {-1, 0, 1, b.neg[b.k0] - 1, p.bounds[b.k1], t, t + 1, 10 * t}  # below, above
        for k in occupied[::25]:  # inside a bucket
            bounds |= {b.neg[k] - 1, b.neg[k], (b.neg[k] + b.pos[k]) // 2, b.pos[k], b.pos[k] + 1}
        for k in gaps:  # between occupied buckets
            bounds |= {p.bounds[k - 1] + 1, p.bounds[k]}
        vals = b.values()
        for bound in sorted(bounds):
            assert b.largest_le(bound) == max((v for v in vals if v <= bound), default=0), bound
        b.release()
        assert b.largest_le(t) == 0 and b.values() == []

    def test_fresh_array_allocates_at_most_34_bytes_per_bucket(self):
        # four (l+1)-entry lists of 8-byte references and three ints
        p = FptasParams(Fraction(1, 1000), 10**9)
        tracemalloc.start()
        try:
            b = BucketArray(p, p.target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 34 * p.l
        b.release()

    def test_slot_records_latest_producer(self):
        p = FptasParams(Fraction(1, 5), 100)
        b = BucketArray(p, 100)
        b.insert(30, 4, 1)
        k = p.bucket_index(30)
        assert (b.pos[k], producer(b.pos_src[k])) == (30, (4, 1))
        assert (b.neg[k], producer(b.neg_src[k])) == (30, (4, 1))
        b.release()

    def test_meter_counts_two_slots_per_bucket(self):
        p = FptasParams(Fraction(1, 4), 100)
        b = BucketArray(p, 100)
        assert p.live_slots == p.peak_slots == 8
        b.release()
        assert p.live_slots == 0
        b.release()  # second release is a no-op
        assert p.live_slots == 0 and p.peak_slots == 8

    def test_allocation_independent_of_local_target(self):
        p = FptasParams(Fraction(1, 4), 1000)
        b_small = BucketArray(p, 10)
        b_large = BucketArray(p, 1000)
        assert b_small._slots == b_large._slots == 8
        b_small.release()
        b_large.release()


class TestRelaxedDp:
    def test_values_bounded_by_local_target(self):
        p = FptasParams(Fraction(1, 5), 100)
        b = relaxed_dp([(0, 10, 20), (1, 10, 25)], 40, p)
        assert all(0 < v <= 40 for v in b.values())
        b.release()

    def test_item_never_combines_with_itself(self):
        p = FptasParams(Fraction(1, 100), 1000)
        b = relaxed_dp([(0, 10, 20)], 1000, p)
        # a single item can only reach its own endpoints
        assert sorted(b.values()) == [10, 20]
        b.release()

    @given(instances(max_n=6, max_end=30, max_t=120))
    @settings(max_examples=100)
    def test_stored_values_are_reachable_endpoint_sums(self, inst):
        p = FptasParams(Fraction(1, 7), inst.target)
        items = list(zip(range(inst.n), inst.lo, inst.hi))
        b = relaxed_dp(items, inst.target, p)
        exact = {0}
        for _, lo, hi in items:
            exact |= {s + e for s in exact for e in (lo, hi) if s + e <= inst.target}
        for v in b.values():
            assert v in exact
        b.release()

    @given(item_lists())
    # the third item's snapshot spans buckets 1, 3 and 4: one empty bucket
    @example(([(0, 10, 10), (1, 30, 30), (2, 50, 50)], 100, FptasParams(Fraction(1, 10), 100)))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_value_insert_loop(self, case):
        steps_match_reference(*case)

    @pytest.mark.parametrize("local_target", FILLED_TARGETS)
    def test_matches_per_value_insert_loop_with_buckets_filled(self, local_target):
        items, _, p = filled_case(local_target)
        b, seen = steps_match_reference(items, local_target, p)
        assert b.count >= 0.9 * p.l * local_target / p.target
        # both snapshot forms (with and without empty buckets in the
        # occupied range) and every branch of the bucket close are run
        assert set(seen) == {"dense snapshot", "gapped snapshot", *CLOSES}, seen

    @pytest.mark.parametrize(
        "make, pinned",
        [
            (lambda: gen_c(20000, Fraction(3, 2), seed=1), "b40b046430640928f0b953f8b5b2849e"),
            (lambda: gen_b(500), "28f4c92d025c22b843408157a103f623"),
        ],
    )
    def test_scan_slots_pinned_at_one_per_mille(self, make, pinned):
        # a digest of the scan's final slots and provenance, decoded to the
        # six lists the array first kept: a kernel change that moves any
        # slot fails here even if the answer stays the same
        work = sort_by_length(preprocess(make()))
        b = BucketArray(FptasParams(Fraction(1, 1000), work.target), work.target)
        scan(work, b)
        slots = [decoded_slots(b)[name] for name in SLOT_LISTS]
        assert hashlib.sha256(repr(slots).encode()).hexdigest()[:32] == pinned

    @given(item_lists(), st.fractions(min_value=0, max_value=1))
    @example(filled_case(FILLED_TARGETS[0]), Fraction(1, 3))
    @example(filled_case(FILLED_TARGETS[1]), Fraction(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_cut_above_largest_stored_value_changes_nothing(self, case, frac):
        # the lemma behind the D&C's backtrack on the second half's first
        # arrays: a run cut at any t' <= t with floor(t') >= the t-run's
        # largest stored value ends with the same slots
        items, local_target, p = case
        b = relaxed_dp(items, local_target, p)
        top = b.largest_le(p.target)
        cut = relaxed_dp(items, top + frac * (local_target - top), p)
        for name in ARRAY_STATE:
            assert getattr(cut, name) == getattr(b, name), name

    @given(item_lists(), st.lists(st.integers(min_value=1, max_value=2**70), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_insert_matches_reference_insert(self, case, values):
        _, _, p = case
        b = BucketArray(p, p.target)
        ref = ReferenceSlots(p, p.target)
        for d1, v in enumerate(values):
            v = v % p.target + 1
            b.insert(v, d1, 1 + d1 % 2)
            reference_insert(ref, v, d1, 1 + d1 % 2)
        assert_same_state(b, ref)


def dc_outcome(dc, items, local_target, epsilon, target):
    """(sum, assignments) or the error class, with the peak slot count."""
    p = FptasParams(epsilon, target)
    try:
        result = dc(items, local_target, p)
    except IsspError as exc:
        result = type(exc)
    return result, p.peak_slots


def dc_walk_starts(items, local_target, params):
    """Run divide_and_conquer and return the (start value, bound) of every
    backtrack it took, up to any error, and whether it re-ran a second half
    (passed the same item list to relaxed_dp twice)."""
    starts, runs = [], []

    def recorded_backtrack(b, walk_items, bound, p):
        starts.append((b.largest_le(math.floor(bound)), bound))
        return backtrack(b, walk_items, bound, p)

    def recorded_relaxed_dp(run_items, bound, p):
        runs.append(run_items)  # kept alive, so ids stay distinct
        return relaxed_dp(run_items, bound, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fptas, "backtrack", recorded_backtrack)
        mp.setattr(fptas, "relaxed_dp", recorded_relaxed_dp)
        try:
            divide_and_conquer(items, local_target, params)
        except IsspError:
            pass
    return starts, len({id(r) for r in runs}) < len(runs)


# the first half recurses, then the second half's early walk is used
EARLY_WALK_CASE = ([(0, 63, 63), (1, 61, 617), (2, 584, 584)], 925, FptasParams(Fraction(3, 10), 925))
# the first half recurses, then the early walk is dropped for a re-run
# because the second half's largest value exceeds its updated target
RE_RUN_CASE = (
    [(0, 320517, 341073), (1, 57763, 400142), (2, 206520, 255954)],
    960374,
    FptasParams(Fraction(1, 10), 960374),
)
# the items before the midrange one of sort_by_length(preprocess(gen_b(6)))
# at eps = 1/5, toward its dc_target: the second half's largest value, 47,
# lies within eps*T of 51, so the pair is (0, 47) and the first half is
# left empty
SETTLE_CASE = (
    [(0, 43, 43), (1, 44, 44), (2, 45, 45), (3, 46, 46), (4, 47, 47)],
    51,
    FptasParams(Fraction(1, 5), 99),
)


class TestDivideAndConquer:
    @given(item_lists())
    @example(filled_case(FILLED_TARGETS[0]))
    @example(filled_case(FILLED_TARGETS[1]))
    @example(
        (
            [(0, 117725, 117725), (1, 38629, 40993), (2, 13420, 26186), (3, 54588, 104853)],
            Fraction(12386563, 50),
            FptasParams(Fraction(1, 10), 505574),
        )
    )
    @example(EARLY_WALK_CASE)
    @example(RE_RUN_CASE)
    @example(SETTLE_CASE)
    @settings(max_examples=300, deadline=None)
    def test_matches_rebuilding_reference(self, case):
        # the reference runs both halves in full and re-runs the second half
        # at every level; taking its backtrack from the first run, and
        # leaving the first half empty when the second half's top settles
        # the pair, must change neither the answer nor the peak slots.  In
        # the explicit 4-item case the first half does not recurse but the
        # second half stores a value above its updated target, so its first
        # run must not be used.
        items, local_target, p = case
        args = (items, local_target, p.epsilon, p.target)
        assert dc_outcome(divide_and_conquer, *args) == dc_outcome(rebuild_dc, *args)

    @given(item_lists())
    @example(filled_case(FILLED_TARGETS[0]))
    @example(filled_case(FILLED_TARGETS[1]))
    @example(EARLY_WALK_CASE)
    @example(RE_RUN_CASE)
    @example(SETTLE_CASE)
    @settings(max_examples=300, deadline=None)
    def test_every_walk_starts_within_eps_t_of_its_bound(self, case):
        # the claim proved in _dc's docstring, which lets a walk follow a
        # bucket minimum whatever its bound
        items, local_target, p = case
        starts, _ = dc_walk_starts(items, local_target, p)
        for u, bound in starts:
            assert math.ceil(bound - p.eps_t) <= u <= bound

    def test_explicit_cases_take_the_early_walk_or_re_run(self):
        starts, rerun = dc_walk_starts(*EARLY_WALK_CASE)
        assert starts and not rerun
        starts, rerun = dc_walk_starts(*RE_RUN_CASE)
        assert starts and rerun

    def test_second_half_top_settles_the_pair(self, monkeypatch):
        # the lemma in _dc's docstring: when the second half's largest value
        # top2 is at least ceil(t_local - eps*T), the pair is (0, top2)
        # whatever the first half stores, so its array is left empty
        items, local_target, p = SETTLE_CASE
        lam1, lam2 = items[:3], items[3:]
        b1 = relaxed_dp(lam1, local_target, p)
        b2 = relaxed_dp(lam2, local_target, p)
        top2 = b2.largest_le(p.target)
        assert top2 == 47 >= math.ceil(local_target - p.eps_t)
        assert b1.values()
        assert find_u1_u2(b1, b2, local_target, p) == (0, top2)
        b1.release()
        b2.release()

        runs = []

        def recorded_relaxed_dp(run_items, bound, params):
            runs.append(list(run_items))
            return relaxed_dp(run_items, bound, params)

        monkeypatch.setattr(fptas, "relaxed_dp", recorded_relaxed_dp)
        p = FptasParams(p.epsilon, p.target)
        assert divide_and_conquer(items, local_target, p) == (47, {4: 47})
        assert runs == [lam2, []]
        assert p.peak_slots == 20  # the empty first-half array is still counted

    def test_walk_follows_a_bucket_minimum(self):
        # 958 = 15 + 943 tops the bucket (800, 1000], whose minimum is 943:
        # the walk from 958 goes on to 943 at any bound from 958 up
        p = FptasParams(Fraction(1, 5), 1000)
        items = [(0, 943, 943), (1, 15, 204)]
        b = relaxed_dp(items, 1000, p)
        assert (b.neg[5], b.pos[5]) == (943, 958)
        for bound in (958, Fraction(1917, 2), 1000):
            assert backtrack(b, items, bound, p) == (958, 0, {1: 15, 0: 943})

    @given(item_lists(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_reaches_within_eps_t_of_a_target_near_a_subset_sum(self, case, data):
        # each recursion's target lies within eps*T above an exact subset
        # sum of its items, and so does this one; that the result gets
        # within eps*T is why every walk starts within eps*T of its bound
        items, _, p = case
        n = len(items)
        picks = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
        r = sum(item[k] if k else 0 for item, k in zip(items, picks))
        assume(r <= p.target)
        t = min(p.target, r + data.draw(st.fractions(min_value=0, max_value=1)) * p.eps_t)
        y, assignments = divide_and_conquer(items, t, p)
        assert t - p.eps_t <= y <= t
        assert sum(assignments.values()) == y
        assert all(a in items[i][1:] for i, a in assignments.items())


class TestFindPair:
    def test_golden_pair_with_zero_sentinel(self):
        p = FptasParams(Fraction(1, 5), 100)
        b1 = relaxed_dp([(0, 10, 20)], 40, p)
        b2 = relaxed_dp([(1, 10, 25)], 40, p)
        assert find_u1_u2(b1, b2, 40, p) == (0, 25)
        b1.release()
        b2.release()


class TestFptasSolve:
    def test_golden_run(self):
        inst = sort_by_length(validate(GOLDEN_PAIRS, GOLDEN_T))
        out = fptas_solve(inst, Fraction(1, 5), trace=True)
        assert out.value == 100
        assert out.solution.values == (0, 25, 75, 0)
        assert out.midrange_index == 3
        assert out.kind == "exact"
        assert out.stats["dc_target"] == 40
        neg1, pos1 = out.stats["scan_trace"][0]
        assert (neg1[1], pos1[1]) == (10, 20)
        assert neg1[2:] == [0, 0, 0, 0] and pos1[2:] == [0, 0, 0, 0]
        neg2, pos2 = out.stats["scan_trace"][1]
        assert (neg2[1], pos2[1]) == (10, 20)
        assert (neg2[2], pos2[2]) == (25, 35)
        assert (neg2[3], pos2[3]) == (45, 45)
        assert neg2[4:] == [0, 0] and pos2[4:] == [0, 0]

    @given(
        instances(max_n=8, max_end=40, max_t=160),
        st.sampled_from([Fraction(3, 10), Fraction(1, 10), Fraction(1, 100)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_guarantee_feasibility_and_structure(self, inst, eps):
        pre = preprocess(inst)
        if isinstance(pre, Solution):
            return
        work = sort_by_length(pre)
        opt = brute_force_optimum(work).value
        out = fptas_solve(work, eps)
        assert evaluate(inst, out.solution) == out.value
        assert midrange_count(inst, out.solution) <= 1
        assert out.value >= (1 - eps) * opt
        if out.kind == "exact":
            assert out.value == opt

    @given(raw_instances(), st.sampled_from([Fraction(3, 10), Fraction(1, 10), Fraction(2, 997)]))
    @example(validate([(150, 160), (10, 20)], 100), Fraction(1, 10))
    @example(validate([(150, 160)], 100), Fraction(1, 10))
    @settings(max_examples=300, deadline=None)
    def test_unpreprocessed_input(self, inst, eps):
        opt = dp_exact(inst).value
        assert opt == brute_force_optimum(inst).value
        out = fptas_solve(inst, eps)
        assert evaluate(inst, out.solution) == out.value
        assert midrange_count(inst, out.solution) <= 1
        assert out.value >= (1 - eps) * opt
        if out.kind == "exact":
            assert out.value == opt

    @pytest.mark.parametrize(
        "make, pinned",
        [
            (
                lambda: gen_b(500),
                (62468124, "approximate", 500, 4000, "14a8942562c9d95aeade01b7ed22eadd"),
            ),
            (
                lambda: gen_c(20000, Fraction(3, 2), seed=1),
                (300000000000000, "exact", 360, 4000, "50f26099fc2eb9cd67c0859732f0a862"),
            ),
        ],
    )
    def test_pinned_answers_at_one_per_mille(self, make, pinned):
        # value, kind, midrange index, peak slots and a solution digest,
        # recorded before the fused bucket update replaced the three-pass one
        work = sort_by_length(preprocess(make()))
        out = fptas_solve(work, Fraction(1, 1000))
        digest = hashlib.sha256(repr(out.solution.values).encode()).hexdigest()[:32]
        got = (out.value, out.kind, out.midrange_index, out.stats["peak_slots"], digest)
        assert got == pinned

    def test_second_half_reuses_its_relaxed_arrays(self, monkeypatch):
        # rebuilding the second half at every level takes 24 relaxed_dp
        # calls over 1,473 items here; backtracking on its first run
        # whenever a re-run would end with the same arrays takes 16 over
        # 983, with all 14 walks through backtrack; leaving the first half
        # empty in frames whose second half settles the pair cuts the items
        # to 732 with the same calls and walks; the answer is the pinned one
        sizes, walks = [], []

        def counted(items, local_target, params):
            sizes.append(len(items))
            return relaxed_dp(items, local_target, params)

        def counted_backtrack(b, items, local_target, params):
            walks.append(local_target)
            return backtrack(b, items, local_target, params)

        monkeypatch.setattr(fptas, "relaxed_dp", counted)
        monkeypatch.setattr(fptas, "backtrack", counted_backtrack)
        work = sort_by_length(preprocess(gen_b(500)))
        out = fptas_solve(work, Fraction(1, 1000))
        assert (len(sizes), sum(sizes), len(walks)) == (16, 732, 14)
        got = (out.value, out.kind, out.midrange_index, out.stats["peak_slots"])
        assert got == (62468124, "approximate", 500, 4000)

    def test_accepts_string_and_float_epsilon(self):
        inst = validate(GOLDEN_PAIRS, GOLDEN_T)
        assert fptas_solve(inst, "1/5").value == fptas_solve(inst, 0.2).value == 100

    def test_rejects_epsilon_outside_unit_interval(self):
        inst = validate(GOLDEN_PAIRS, GOLDEN_T)
        with pytest.raises(ValueError, match=r"^epsilon must be in \(0, 1\), got 2$"):
            fptas_solve(inst, Fraction(2))

    def test_single_interval_is_exact(self):
        inst = validate([(10, 20)], 100)
        out = fptas_solve(inst, Fraction(1, 2))
        assert out.kind == "exact"
        assert out.value == 20

    def test_peak_slot_meter_reports_golden_run(self):
        inst = validate(GOLDEN_PAIRS, GOLDEN_T)
        out = fptas_solve(inst, Fraction(1, 5))
        # scan array (10 slots, released) then two half arrays live at once
        assert out.stats["peak_slots"] == 20

    def test_peak_slots_scale_with_inverse_epsilon_not_target(self):
        pairs = [(3, 10), (20, 29), (11, 30), (4, 17), (8, 40)]
        small = fptas_solve(validate(pairs, 120), Fraction(1, 10))
        big_pairs = [(lo * 1000, hi * 1000) for lo, hi in pairs]
        big = fptas_solve(validate(big_pairs, 120000), Fraction(1, 10))
        assert small.stats["peak_slots"] == big.stats["peak_slots"]


class TestLazyLengthOrder:
    """fptas_solve reads a lazily sorted view as it would the eager sort."""

    @pytest.mark.parametrize("first, share", [(2, 2), (1, 4), (3, 2)])
    def test_exits_around_every_chunk_boundary(self, monkeypatch, first, share):
        monkeypatch.setattr(core, "FIRST_CHUNK", first)
        monkeypatch.setattr(core, "FULL_SORT_SHARE", share)
        n = 40
        ends = chunk_ends(n)
        assert len(ends) >= 3  # at least one extension before the full sort
        exits = sorted({m for e in ends[:-1] for m in (e - 1, e, e + 1)})
        for k in exits + [None]:  # None: no exit, so the full sort
            inst = exit_instance(n, k)
            view = sort_by_length(inst)
            got = fptas_solve(view, Fraction(1, 1000), trace=True)
            assert got.midrange_index == (n if k is None else k + 1)
            assert got.stats["early_exit"] == (k is not None)
            assert got == fptas_solve(eager_sort(inst), Fraction(1, 1000), trace=True)
            # the scan read items 0..k, so the view holds the chunk with k
            assert view.materialized == min(e for e in ends if e > (n - 1 if k is None else k))

    @given(
        instances(max_n=30, max_end=60, max_t=400),
        st.sampled_from([Fraction(1, 10), Fraction(1, 100)]),
        st.sampled_from([(1, 2), (2, 4)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_instances_match_the_eager_sort(self, inst, eps, constants):
        pre = preprocess(inst)
        if isinstance(pre, Solution):
            return
        ref = fptas_solve(eager_sort(pre), eps, trace=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "FIRST_CHUNK", constants[0])
            mp.setattr(core, "FULL_SORT_SHARE", constants[1])
            assert fptas_solve(sort_by_length(pre), eps, trace=True) == ref

    def test_early_exit_sorts_a_prefix_only(self):
        # the scan stops at item 360 of 20,000, inside the first chunk;
        # neither the detectors nor the solve sort any further
        work = sort_by_length(preprocess(gen_c(20000, Fraction(3, 2), seed=1)))
        assert analysis.solve_polynomial(work) is None
        out = fptas_solve(work, Fraction(1, 1000))
        assert out.midrange_index == 360
        assert work.materialized < work.n / 8
