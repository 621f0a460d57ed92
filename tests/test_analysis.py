"""Knapsack value map, greedy fill, subclass detectors, polynomial routes."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issp import analysis
from issp.analysis import (
    aggregates,
    check_wide,
    fill_values,
    polynomial_rate_monte_carlo,
    solution_from_subset,
    solve_polynomial,
)
from issp.core import Solution, evaluate, preprocess, sort_by_length, validate, validate_columns
from issp.errors import IsspError
from issp.exact import brute_force_optimum

from conftest import eager_sort, instances
import reference_frontend


class TestKnapsackValueMap:
    @given(instances(max_n=8, max_end=30, max_t=200))
    @settings(max_examples=100)
    def test_clipped_knapsack_value_equals_optimum(self, inst):
        # weights lo, profits hi, capacity T
        n, t = inst.n, inst.target
        best = 0
        for mask in range(1 << n):
            w = p = 0
            for i in range(n):
                if mask >> i & 1:
                    w += inst.lo[i]
                    p += inst.hi[i]
            if w <= t:
                best = max(best, min(p, t))
        assert best == brute_force_optimum(inst).value


class TestFillValues:
    def test_reaches_clipped_value_with_one_interior_entry(self):
        inst = validate([(10, 20), (10, 25), (5, 9)], 40)
        values = fill_values(inst.lo, inst.hi, [0, 1, 2], 40)
        assert sum(values.values()) == 40
        interior = [i for i, v in values.items() if inst.lo[i] < v < inst.hi[i]]
        assert len(interior) <= 1

    def test_caps_at_upper_endpoints_when_target_far(self):
        inst = validate([(10, 20), (10, 25)], 1000)
        values = fill_values(inst.lo, inst.hi, [0, 1], 1000)
        assert values == {0: 20, 1: 25}

    def test_rejects_infeasible_subset(self):
        inst = validate([(30, 40), (30, 40)], 50)
        with pytest.raises(IsspError, match=r"^subset lower endpoints sum to 60 > target 50$"):
            fill_values(inst.lo, inst.hi, [0, 1], 50)


class TestSolutionFromSubset:
    @given(instances(max_n=7, max_end=30, max_t=150))
    @settings(max_examples=100)
    def test_value_map_holds_for_every_feasible_subset(self, inst):
        n = inst.n
        t = inst.target
        for mask in range(1 << n):
            sub = [i for i in range(n) if mask >> i & 1]
            lo_sum = sum(inst.lo[i] for i in sub)
            if lo_sum > t:
                message = rf"^subset lower endpoints sum to {lo_sum} > target {t}$"
                with pytest.raises(IsspError, match=message):
                    solution_from_subset(inst, sub)
                continue
            sol = solution_from_subset(inst, sub)
            hi_sum = sum(inst.hi[i] for i in sub)
            assert evaluate(inst, sol) == min(hi_sum, t)


def large_target(inst):
    return aggregates(inst).large_target(inst.target)


class TestDetectors:
    def test_large_target_condition_true(self):
        # max lo = 4, min length = 2, bound = 2 * 4 = 8 <= 9
        assert large_target(validate([(3, 5), (4, 6)], 9))

    def test_large_target_condition_false(self):
        assert not large_target(validate([(3, 5), (4, 6)], 7))

    def test_zero_length_interval_fails(self):
        assert not large_target(validate([(5, 5), (1, 10)], 100))

    def test_golden_instance_fails_condition(self):
        inst = validate([(10, 20), (10, 25), (60, 85), (20, 50)], 100)
        # ceil(60/10) * 60 = 360 > 100
        assert not large_target(inst)

    def test_width_ratio_exact_rational(self):
        assert check_wide(validate([(1, 4), (2, 4)], 100)) == Fraction(2)
        assert check_wide(validate([(10, 15)], 100)) == Fraction(3, 2)
        assert check_wide(validate([(10, 20), (10, 25), (60, 85), (20, 50)], 100)) == Fraction(85, 60)


class TestSolvePolynomial:
    def test_route_a_when_all_lower_endpoints_fit(self):
        inst = sort_by_length(validate([(3, 5), (4, 6)], 9))
        out = solve_polynomial(inst)
        assert out is not None
        assert out.stats["route"] == "a"
        assert out.value == 9
        assert out.kind == "exact"

    def test_route_b_large_target(self):
        # lower endpoints exceed T, but the condition holds:
        # max lo = 5, min length = 5, bound = 1 * 5 = 5 <= T = 14 < sum lo = 15
        inst = sort_by_length(validate([(5, 10), (5, 10), (5, 10)], 14))
        out = solve_polynomial(inst)
        assert out is not None
        assert out.stats["route"] == "b"
        assert out.value == 14

    def test_route_c_wide_intervals(self):
        # sum lo = 51 > T = 24, large-target bound ceil(5/1)*5 = 25 > 24,
        # but every interval has hi >= 2*lo
        inst = sort_by_length(validate([(5, 10)] * 10 + [(1, 2)], 24))
        out = solve_polynomial(inst)
        assert out is not None
        assert out.stats["route"] == "c"
        assert out.value == 24

    def test_route_b_reads_only_the_prefix_it_fills(self):
        # min length 100 >= max lo = 100, so the bound is 100 <= T = 301;
        # the 24 shortest intervals (lo 1..24) fill T, and the view stays
        # at its first chunk, where it sorted all 20,000 positions before
        n = 20_000
        lo = [1 + i % 100 for i in range(n)]
        inst = validate_columns(lo, [a + 100 + i % 101 for i, a in enumerate(lo)], 301)
        view = sort_by_length(inst)
        out = solve_polynomial(view)
        assert (out.stats["route"], out.value, view.materialized) == ("b", 301, 1024)
        assert reference_frontend.solve_polynomial(eager_sort(inst)) == out

    def test_no_route_returns_none(self):
        # sum lo = 110 > T, large-target bound 360 > T, c* = 85/60 < 2
        inst = sort_by_length(validate([(10, 20), (10, 25), (60, 85), (30, 50)], 100))
        assert solve_polynomial(inst) is None

    @given(instances(max_n=8, max_end=30, max_t=200))
    @settings(max_examples=150)
    def test_any_returned_outcome_is_optimal(self, inst):
        pre = preprocess(inst)
        if isinstance(pre, Solution):
            return
        work = sort_by_length(pre)
        out = solve_polynomial(work)
        if out is None:
            return
        assert out.kind == "exact"
        assert evaluate(inst, out.solution) == out.value
        assert out.value == brute_force_optimum(work).value


class TestMonteCarloRate:
    def test_rate_is_one_for_ratio_two(self):
        rate = polynomial_rate_monte_carlo(8, Fraction(2), trials=100, seed=11)
        assert rate == 1

    def test_rate_is_deterministic_in_seed(self):
        a = polynomial_rate_monte_carlo(6, Fraction(3, 2), trials=50, seed=3)
        b = polynomial_rate_monte_carlo(6, Fraction(3, 2), trials=50, seed=3)
        assert a == b
        assert 0 <= a <= 1
        assert a == Fraction(21, 50)
        assert polynomial_rate_monte_carlo(12, Fraction(13, 10), trials=200, seed=5) == Fraction(27, 100)
        assert polynomial_rate_monte_carlo(200, Fraction(3, 2), trials=20, seed=1) == Fraction(7, 20)

    @pytest.mark.parametrize(
        "n, c, trials, error, text",
        [
            (6, Fraction(1, 2), 5, ValueError, "family C requires ratio c > 1, got 1/2"),
            (6, Fraction(1), 5, ValueError, "family C requires ratio c > 1, got 1"),
            (0, Fraction(3, 2), 5, ValueError, "family C requires n >= 1, got 0"),
            (6, Fraction(3, 2), 0, ValueError, "trials must be at least 1, got 0"),
        ],
    )
    def test_refuses_what_family_c_refuses(self, n, c, trials, error, text):
        with pytest.raises(error) as refused:
            polynomial_rate_monte_carlo(n, c, trials=trials, seed=1)
        assert (type(refused.value), str(refused.value)) == (error, text)


ROUTE_MODES = ("a", "b", "c", "none")


def detector_case(draw_int, mode: str):
    """Pairs and a target T > max hi aimed at one route, or at none.

    ``draw_int(a, b)`` returns an integer in [a, b].  About one interval in
    eight has zero length, and half the cases scale every endpoint by
    2^64 + 7.
    """
    n = draw_int(1, 7) if mode in ("a", "none") else draw_int(3, 10)
    base = draw_int(1, 20)
    pairs = []
    for _ in range(n):
        if mode == "b":  # near-equal lo and lengths >= lo: the bound is max lo
            lo = draw_int(base, base + 2)
            hi = lo + draw_int(base + 2, 2 * base + 4)
        elif mode == "c":  # hi >= 2*lo everywhere
            lo = draw_int(1, 20)
            hi = draw_int(2 * lo, 2 * lo + 4)
        else:
            lo = draw_int(1, 20)
            hi = draw_int(lo, 2 * lo)
        if draw_int(0, 7) == 0:
            hi = lo
        pairs.append((lo, hi))
    scale = 2**64 + 7 if draw_int(0, 1) else 1
    pairs = [(lo * scale, hi * scale) for lo, hi in pairs]
    lowest = max(hi for _, hi in pairs) + 1
    lo_total = sum(lo for lo, _ in pairs)
    hi_total = sum(hi for _, hi in pairs)
    if mode == "a":
        return pairs, max(lo_total, lowest) + draw_int(0, 5)
    # below lo_total where possible, so that route (a) does not apply
    return pairs, lowest + draw_int(0, max(lo_total - 1 - lowest, 0))


def detector_results(inst, view):
    """Route outcome, c* and the large-target test, from the one-pass
    detectors on ``view`` and from the reference on the eager sort of
    ``inst``, the order every route fills in."""
    ref = eager_sort(inst)
    return [
        (analysis.solve_polynomial(view), analysis.check_wide(view), large_target(view)),
        (
            reference_frontend.solve_polynomial(ref),
            reference_frontend.check_wide(ref),
            reference_frontend.large_target(ref),
        ),
    ]


def check_same_detectors(pairs, t):
    """Compare on the input order and on the length-sorted view; returns
    the view's route."""
    inst = validate(pairs, t)
    for view in (inst, sort_by_length(inst)):
        got, ref = detector_results(inst, view)
        assert got == ref
    return got[0] and got[0].stats["route"]


class TestDetectorsAgainstReference:
    """The one-pass detectors against one pass per aggregate and a
    Fraction per interval (tests/reference_frontend.py)."""

    @given(st.sampled_from(ROUTE_MODES), st.data())
    @settings(max_examples=300)
    def test_same_outcome(self, mode, data):
        check_same_detectors(*detector_case(lambda a, b: data.draw(st.integers(a, b)), mode))

    def test_seeded_sweep_hits_every_route(self):
        rng = random.Random(20171)
        routes = Counter(
            check_same_detectors(*detector_case(rng.randint, ROUTE_MODES[k % 4]))
            for k in range(800)
        )
        assert set(routes) == {"a", "b", "c", None}, routes
