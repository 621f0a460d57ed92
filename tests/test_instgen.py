"""Instance generators: formulas, bounds, determinism, closed-form optimum."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from issp.cli import serialize_instance
from issp.core import Solution, preprocess
from issp.exact import brute_force_optimum, dp_exact
from issp.instgen import (
    HI_RANGE,
    RATIO_DENOM,
    TARGET_CD,
    GenSpec,
    SplitMix64,
    gen_a,
    gen_b,
    gen_c,
    gen_d,
    generate,
    instance_a_optimum,
    instance_b_optimum,
)


class TestSplitMix64:
    def test_published_output_stream(self):
        # reference values from the generator's published C code, seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(5)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ]

    def test_randint_range_and_determinism(self):
        rng = SplitMix64(99)
        draws = [rng.randint(7) for _ in range(200)]
        assert all(1 <= d <= 7 for d in draws)
        assert set(draws) == set(range(1, 8))
        rng2 = SplitMix64(99)
        assert draws == [rng2.randint(7) for _ in range(200)]

    @pytest.mark.parametrize(
        "n, draws",
        [
            (1, [1, 1, 1, 1, 1]),
            (10**14, [86589211414945, 17661327598, 71434679333406, 117070709451, 89611492784364]),
            (2**64 - 1, [2454886589211414945, 3778200017661327598, 2205171434679333406,
                         3248800117070709451, 9350289611492784364]),
            (2**64, [2454886589211414945, 3778200017661327598, 2205171434679333406,
                     3248800117070709451, 9350289611492784364]),
        ],
    )
    def test_randint_pinned_draws(self, n, draws):
        # recorded while every bound drew a single 64-bit word
        rng = SplitMix64(12345)
        assert [rng.randint(n) for _ in range(5)] == draws

    @pytest.mark.parametrize("n", [2**64 + 1, 2**200])
    def test_randint_beyond_one_word(self, n):
        rng = SplitMix64(1)
        draws = [rng.randint(n) for _ in range(50)]
        assert all(1 <= d <= n for d in draws)
        assert max(draws) > n // 2  # all 50 in the lower half has probability 2**-50

    def test_randint_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(1).randint(0)


class TestFamilyA:
    def test_formula_small_n(self):
        inst = gen_a(4)
        # k = 2, items 2**7 + 2**(2+i) + 1 for i = 1..4
        assert inst.hi == (137, 145, 161, 193)
        assert inst.lo == inst.hi
        assert inst.target == sum(inst.hi) // 2

    def test_closed_form_matches_exact_solvers(self):
        for n in range(1, 27):
            inst = gen_a(n)
            pre = preprocess(inst)
            expected = pre.total if isinstance(pre, Solution) else dp_exact(pre).value
            assert instance_a_optimum(n) == expected
            if n <= 16:
                assert brute_force_optimum(inst).value == expected

    def test_n_cap(self):
        gen_a(62)
        with pytest.raises(ValueError, match=r"^family A supports 1 <= n <= 62, got 63$"):
            gen_a(63)
        with pytest.raises(ValueError, match=r"^family A supports 1 <= n <= 62, got 63$"):
            instance_a_optimum(63)
        with pytest.raises(ValueError, match=r"^family A supports 1 <= n <= 62, got 0$"):
            gen_a(0)


class TestFamilyB:
    def test_formula_n10(self):
        inst = gen_b(10)
        assert inst.hi == tuple(110 + i for i in range(1, 11))
        assert inst.target == 485

    def test_closed_form_matches_exact_solvers(self):
        for n in range(2, 13):
            inst = gen_b(n)
            pre = preprocess(inst)
            expected = pre.total if isinstance(pre, Solution) else dp_exact(pre).value
            assert instance_b_optimum(n) == expected

    def test_closed_form_matches_dp_at_medium_size(self):
        inst = gen_b(30)
        pre = preprocess(inst)
        assert instance_b_optimum(30) == dp_exact(pre).value

    def test_n1_degenerate_target(self):
        inst = gen_b(1)
        assert inst.target == 1
        assert instance_b_optimum(1) == 0


class TestFamilyC:
    def test_bounds_and_ratio(self):
        c = Fraction(3, 2)
        inst = gen_c(500, c, seed=4)
        assert inst.target == TARGET_CD
        for lo, hi in zip(inst.lo, inst.hi):
            assert 1 <= hi <= HI_RANGE
            assert lo == max(1, hi * 2 // 3)
            # ratio at least c, up to the floor in lo
            assert Fraction(hi, lo) >= c or lo == 1

    def test_deterministic_in_seed(self):
        assert gen_c(50, Fraction(3, 2), 7) == gen_c(50, Fraction(3, 2), 7)
        assert gen_c(50, Fraction(3, 2), 7) != gen_c(50, Fraction(3, 2), 8)
        text = serialize_instance(gen_c(50, Fraction(3, 2), 7))
        assert hashlib.sha256(text.encode()).hexdigest().startswith("92cb549f582f05bd")

    def test_rejects_ratio_at_most_one(self):
        with pytest.raises(ValueError):
            gen_c(5, Fraction(1), 0)


class TestFamilyD:
    def test_bounds(self):
        cap = Fraction(3, 2)
        inst = gen_d(500, cap, seed=9)
        assert inst.target == TARGET_CD
        cap_scaled = int(cap * RATIO_DENOM)
        for lo, hi in zip(inst.lo, inst.hi):
            assert 1 <= hi <= HI_RANGE
            assert lo <= hi
            # per-item ratio is at most the cap, so lo never drops below
            # the floor the cap itself would give
            assert lo >= max(1, hi * RATIO_DENOM // cap_scaled)

    def test_deterministic_in_seed(self):
        assert gen_d(50, Fraction(13, 10), 7) == gen_d(50, Fraction(13, 10), 7)

    def test_rejects_cap_at_most_one(self):
        with pytest.raises(ValueError):
            gen_d(5, Fraction(1), 0)


class TestGenerateDispatch:
    def test_dispatch_matches_direct_calls(self):
        assert generate(GenSpec("A", 5)) == gen_a(5)
        assert generate(GenSpec("B", 5)) == gen_b(5)
        assert generate(GenSpec("C", 5, Fraction(3, 2), seed=1)) == gen_c(5, Fraction(3, 2), 1)
        assert generate(GenSpec("D", 5, Fraction(3, 2), seed=1)) == gen_d(5, Fraction(3, 2), 1)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate(GenSpec("C", 5))
        with pytest.raises(ValueError):
            generate(GenSpec("D", 5))
        with pytest.raises(ValueError):
            generate(GenSpec("E", 5))


GENERATORS = {
    "A": lambda n, param: gen_a(n),
    "B": lambda n, param: gen_b(n),
    "C": lambda n, param: gen_c(n, param, 0),
    "D": lambda n, param: gen_d(n, param, 0),
}


class TestGenSpec:
    """A GenSpec that exists is valid: each family's rules are checked once,
    at construction, and its generator refuses the same arguments alike."""

    @pytest.mark.parametrize(
        "args, error, text",
        [
            (("E", 5), ValueError, "unknown family 'E'"),
            (("A", 0), ValueError, "family A supports 1 <= n <= 62, got 0"),
            (("A", 63), ValueError, "family A supports 1 <= n <= 62, got 63"),
            (("B", 0), ValueError, "family B requires n >= 1, got 0"),
            (("C", 0, Fraction(3, 2)), ValueError, "family C requires n >= 1, got 0"),
            (("C", 5), ValueError, "family C requires the ratio parameter c"),
            (("C", 5, Fraction(1)), ValueError, "family C requires ratio c > 1, got 1"),
            (("D", 5, Fraction(1, 2)), ValueError, "family D requires Cap > 1, got 1/2"),
            (("D", 5), ValueError, "family D requires the ratio bound parameter"),
        ],
    )
    def test_refuses_at_construction(self, args, error, text):
        with pytest.raises(error) as refused:
            GenSpec(*args)
        assert (type(refused.value), str(refused.value)) == (error, text)
        if args[0] in GENERATORS:
            family, n, param = (*args, None)[:3]
            with pytest.raises(error) as refused:
                GENERATORS[family](n, param)
            assert (type(refused.value), str(refused.value)) == (error, text)

    def test_keeps_the_parameter_as_checked(self):
        assert GenSpec("C", 5, "3/2").param == Fraction(3, 2)
        assert type(GenSpec("D", 5, 2).param) is Fraction
        # families A and B take no parameter and ignore one that is given
        assert GenSpec("A", 5, Fraction(3, 2)) == GenSpec("A", 5)
        assert GenSpec("B", 5, "x").param is None
