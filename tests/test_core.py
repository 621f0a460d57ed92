"""Domain types: validation, preprocessing, ordering, evaluation, errors."""

import tracemalloc
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from issp import core
from issp.core import (
    Instance,
    Interval,
    Solution,
    evaluate,
    format_percent,
    midrange_count,
    preprocess,
    place,
    relative_error,
    sort_by_length,
    validate,
)
from issp.errors import (
    InvertedInterval,
    IsspError,
    NegativeGap,
    NonPositiveEndpoint,
    NonPositiveTarget,
    TargetExceeded,
    ValueOutsideInterval,
)
from issp.instgen import gen_c

from conftest import eager_sort, instances
import reference_frontend


class TestValidate:
    def test_accepts_valid_input(self):
        inst = validate([(10, 20), (10, 25)], 100)
        assert inst.n == 2
        assert inst.target == 100
        assert inst.intervals[0].lo == 10 and inst.intervals[0].hi == 20
        assert inst.origin == range(2)

    def test_rejects_zero_endpoint(self):
        with pytest.raises(NonPositiveEndpoint):
            validate([(0, 5)], 10)

    def test_rejects_negative_endpoint(self):
        with pytest.raises(NonPositiveEndpoint):
            validate([(3, -5)], 10)

    def test_rejects_inverted_interval(self):
        with pytest.raises(InvertedInterval):
            validate([(7, 3)], 10)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(NonPositiveTarget):
            validate([(1, 2)], 0)

    def test_point_interval_allowed(self):
        inst = validate([(5, 5)], 10)
        assert inst.intervals[0].length == 0

    def test_interval_is_a_named_tuple(self):
        iv = validate([(1, 2)], 10).intervals[0]
        assert iv == Interval(1, 2) == (1, 2)
        lo, hi = iv
        assert (lo, hi, iv.lo, iv.hi, iv.length) == (1, 2, 1, 2, 1)

    @given(
        st.lists(
            st.tuples(*[st.integers(-2, 30) | st.integers(2**64 - 2, 2**66)] * 2), max_size=6
        ),
        st.integers(-1, 40),
    )
    def test_same_instance_or_error_as_reference_loop(self, pairs, target):
        def result(check):
            try:
                return check(pairs, target)
            except IsspError as e:
                return type(e), str(e)

        assert result(validate) == result(reference_frontend.validate)


class TestPreprocess:
    def test_interval_containing_target_is_immediate(self):
        inst = validate([(1, 2), (5, 50), (3, 40)], 30)
        out = preprocess(inst)
        # first match in scan order wins
        assert out == Solution((0, 30, 0))
        assert evaluate(inst, out) == 30

    def test_drops_intervals_above_target(self):
        inst = validate([(10, 20), (400, 500), (30, 90)], 100)
        out = preprocess(inst)
        assert isinstance(out, Instance)
        assert out.intervals == ((10, 20), (30, 90))
        assert out.origin == (0, 2)

    def test_all_dropped_gives_zero_solution(self):
        assert preprocess(validate([(50, 60), (70, 80)], 10)) == Solution((0, 0))
        assert preprocess(validate([], 10)) == Solution(())

    @given(instances())
    def test_reduced_instance_has_target_above_every_hi(self, inst):
        out = preprocess(inst)
        if isinstance(out, Instance):
            assert out.intervals and all(iv.hi < inst.target for iv in out.intervals)

    @given(instances())
    def test_idempotent_on_reduced_instances(self, inst):
        out = preprocess(inst)
        if isinstance(out, Instance):
            assert preprocess(out) is out


class TestSortByLength:
    def test_orders_by_width_stable(self):
        inst = validate([(1, 10), (2, 5), (3, 6), (1, 1)], 100)
        s = sort_by_length(inst)
        assert [iv.length for iv in s.intervals] == [0, 3, 3, 9]
        # equal lengths keep input order (stable)
        assert s.origin == (3, 1, 2, 0)
        assert s.length_sorted

    @given(instances())
    def test_permutation_of_input(self, inst):
        s = sort_by_length(inst)
        assert sorted(s.intervals, key=lambda iv: (iv.lo, iv.hi)) == sorted(
            inst.intervals, key=lambda iv: (iv.lo, iv.hi)
        )
        assert sorted(s.origin) == list(range(inst.n))
        lengths = [iv.length for iv in s.intervals]
        assert lengths == sorted(lengths)

    @given(instances(max_n=10, max_end=60, max_t=100))
    @example(validate([(10, 20), (400, 500), (30, 90), (5, 6)], 100))
    def test_identity_origin_equals_general_gather(self, inst):
        pre = preprocess(inst)
        views = [inst]
        if isinstance(pre, Instance) and pre is not inst:
            views.append(pre)  # reduced: origin is not the identity
        for view in views:
            order = sorted(range(view.n), key=lambda i: view.intervals[i].length)
            s = sort_by_length(view)
            assert s.intervals == tuple(view.intervals[i] for i in order)
            assert s.origin == tuple(view.origin[i] for i in order)
            assert s.length_sorted
        assert inst.intervals is inst.original


@st.composite
def tied_views(draw):
    """An instance with many equal and zero lengths, in input order or
    reduced by preprocess (origin not the identity), and a list of
    prefix lengths to read."""
    n = draw(st.integers(min_value=0, max_value=40))
    pairs = []
    for _ in range(n):
        lo = draw(st.integers(min_value=1, max_value=30))
        pairs.append((lo, lo + draw(st.integers(min_value=0, max_value=3))))
    inst = validate(pairs, draw(st.integers(min_value=1, max_value=40)))
    if draw(st.booleans()):
        pre = preprocess(inst)
        if isinstance(pre, Instance):
            inst = pre
    reads = draw(st.lists(st.integers(min_value=0, max_value=n + 1), max_size=6))
    return inst, reads


class TestLengthOrder:
    """A lazily sorted view reads the same as the eager stable sort."""

    @pytest.mark.parametrize("first, share", [(1, 2), (2, 2), (3, 8), (1024, 8)])
    @given(tied_views())
    def test_every_read_equals_the_eager_sort(self, first, share, case):
        inst, reads = case
        ref = eager_sort(inst)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "FIRST_CHUNK", first)
            mp.setattr(core, "FULL_SORT_SHARE", share)
            view = sort_by_length(inst)
            assert view.n == ref.n and view.length_sorted
            for k in reads:
                lo, hi, origin = view.prefix(k)
                done = view.materialized
                assert min(k, ref.n) <= done == len(lo) == len(hi) == len(origin) <= ref.n
                assert tuple(lo[:done]) == ref.lo[:done] and tuple(hi[:done]) == ref.hi[:done]
                assert tuple(origin[:done]) == ref.origin[:done]
            assert tuple(sort_by_length(inst).stream()) == ref.intervals
            assert (view.intervals, view.origin) == (ref.intervals, ref.origin)
            assert view.unsorted[0] is inst.lo and view.unsorted[1] is inst.hi

    def test_partial_view_holds_only_its_sorted_prefix_beyond_the_lengths(self):
        # the scan of fptas_solve at 1/1000 reads 768 items of this instance
        inst = gen_c(100_000, Fraction(3, 2), 1)

        def retained(build):
            tracemalloc.start()
            try:
                kept = build()
                return kept, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        def read_prefix():
            view = sort_by_length(inst)
            view.prefix(768)
            return view

        _, lengths = retained(lambda: list(map(sub, inst.hi, inst.lo)))
        view, held = retained(read_prefix)
        assert view.materialized < view.n  # partial
        assert held - lengths < 8 * inst.n
        # and it keeps no lengths between extensions (1.2 B per interval held)
        assert held < 2 * inst.n

    def test_sorts_in_full_at_once_up_to_8192(self):
        assert sort_by_length(validate([(1, 2)] * 8192, 5)).materialized == 8192
        assert sort_by_length(validate([(1, 2)] * 8193, 5)).materialized == 1024


class TestEvaluate:
    def test_accepts_feasible_solution(self):
        inst = validate([(10, 20), (10, 25)], 40)
        assert evaluate(inst, Solution((20, 15))) == 35

    def test_zero_entries_always_allowed(self):
        inst = validate([(10, 20), (10, 25)], 40)
        assert evaluate(inst, Solution((0, 0))) == 0

    def test_rejects_value_below_interval(self):
        inst = validate([(10, 20)], 40)
        with pytest.raises(ValueOutsideInterval):
            evaluate(inst, Solution((5,)))

    def test_rejects_value_above_interval(self):
        inst = validate([(10, 20)], 40)
        with pytest.raises(ValueOutsideInterval):
            evaluate(inst, Solution((21,)))

    def test_rejects_total_above_target(self):
        inst = validate([(10, 20), (10, 25)], 30)
        with pytest.raises(TargetExceeded):
            evaluate(inst, Solution((20, 25)))

    def test_rejects_length_mismatch(self):
        inst = validate([(10, 20)], 40)
        with pytest.raises(ValueOutsideInterval):
            evaluate(inst, Solution((10, 10)))

    def test_checked_in_input_order_after_sorting(self):
        inst = sort_by_length(validate([(1, 50), (5, 6)], 100))
        # solution indices refer to the original input order
        assert evaluate(inst, Solution((50, 6))) == 56


    @given(
        instances(max_n=6, max_end=30, max_t=90),
        st.lists(st.integers(-3, 40) | st.integers(2**64, 2**65), max_size=7),
    )
    def test_same_total_or_error_as_reference_loop(self, inst, values):
        def result(check):
            try:
                return check(inst, Solution(tuple(values)))
            except IsspError as e:
                return type(e), str(e)

        assert result(evaluate) == result(reference_frontend.evaluate)

    @given(instances(max_n=6, max_end=30, max_t=90), st.data())
    def test_same_as_reference_loop_on_full_length_solutions(self, inst, data):
        # entries drawn around each interval, so totals over T and values
        # just outside [lo, hi] both come up
        values = tuple(
            data.draw(st.sampled_from([0, -iv.lo, iv.lo - 1, iv.lo, iv.hi, iv.hi + 1]))
            for iv in inst.original
        )

        def result(check):
            try:
                return check(inst, Solution(values))
            except IsspError as e:
                return type(e), str(e)

        assert result(evaluate) == result(reference_frontend.evaluate)


class TestMidrangeCount:
    def test_counts_strict_interior_entries(self):
        inst = validate([(10, 20), (10, 25), (60, 85)], 1000)
        assert midrange_count(inst, Solution((10, 20, 61))) == 2
        assert midrange_count(inst, Solution((10, 25, 0))) == 0


class TestRelativeError:
    def test_example_value(self):
        assert relative_error(65, 66) == Fraction(1, 66)

    def test_zero_when_equal(self):
        assert relative_error(100, 100) == 0

    def test_rejects_approx_above_reference(self):
        with pytest.raises(NegativeGap):
            relative_error(101, 100)

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(NegativeGap):
            relative_error(0, 0)


class TestFormatPercent:
    def test_three_decimals(self):
        assert format_percent(Fraction(1, 66)) == "1.515%"

    def test_exact_zero(self):
        assert format_percent(Fraction(0)) == "0.000%"

    def test_rounds_half_away_from_zero(self):
        assert format_percent(Fraction(5, 1000000)) == "0.001%"

    def test_whole_percent(self):
        assert format_percent(Fraction(1, 10)) == "10.000%"


class TestPlace:
    def test_lifts_current_order_to_input_order(self):
        inst = sort_by_length(validate([(1, 50), (5, 6)], 100))
        # current order is (5,6) then (1,50)
        sol = place(inst, {0: 6, 1: 50})
        assert sol.values == (50, 6)
        assert place(inst, {1: 50}).values == (50, 0)
