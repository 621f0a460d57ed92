"""Knapsack reformulation, greedy subset filling, and polynomial special cases.

The problem of choosing x_i in {0} union [lo_i, hi_i] maximizing sum(x) <= T
is equivalent to a 0-1 knapsack with weights lo_i, profits hi_i, capacity T,
under the clipped objective min(sum of chosen hi, T): any subset S whose
lower endpoints fit (sum lo <= T) can be turned into a feasible solution of
value exactly min(sum of S's hi, T) by a greedy fill.

Two sufficient conditions make the problem solvable in polynomial time:

* a "large target" condition
      T >= ceil(max lo / min(hi - lo)) * max lo
  which guarantees some prefix reaches the target exactly, and
* a "wide intervals" condition  min(hi_i / lo_i) >= 2  (whenever T does not
  exceed the sum of upper endpoints), under which upper endpoints cover the
  whole range above the largest interval.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, le, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import Instance, LengthOrder, Solution, SolveOutcome, place, sort_by_length, validate_columns
from .errors import IsspError
from .instgen import SplitMix64, ratio_columns


def fill_values(
    lo: Sequence[int], hi: Sequence[int], subset: Sequence[int], target: int
) -> dict[int, int]:
    """Greedy fill of a feasible subset, achieving min(sum hi, T).

    ``subset`` lists positions into the columns ``lo`` and ``hi`` in fill
    order.  Members are pushed to their upper endpoints one by one until
    the target would be crossed; the member that crosses it takes an
    intermediate value so the total lands exactly on the target.  At most
    that single member ends up strictly inside its interval.
    """
    lo_sum = sum(map(lo.__getitem__, subset))
    if lo_sum > target:
        raise IsspError(f"subset lower endpoints sum to {lo_sum} > target {target}")
    values = {i: lo[i] for i in subset}
    v = lo_sum
    for i in subset:
        if v >= target:
            break
        take = min(hi[i] - lo[i], target - v)
        values[i] = lo[i] + take
        v += take
    return values


def solution_from_subset(inst: Instance | LengthOrder, subset: Iterable[int]) -> Solution:
    """Build a feasible solution of value min(sum hi over subset, T).

    ``subset`` holds 0-based positions in ``inst``'s order; the fill
    proceeds in ascending position order and reads the order only up to
    the last one.  The returned solution is in original input order.
    """
    subset = sorted(set(subset))
    lo, hi, _ = inst.prefix(subset[-1] + 1 if subset else 0)
    return place(inst, fill_values(lo, hi, subset, inst.target))


class Aggregates(NamedTuple):
    """The order-free sums and extremes the detectors read."""

    lo_total: int
    hi_total: int
    max_lo: int
    min_length: int
    wide: bool  # hi >= 2*lo for every interval, i.e. c* >= 2

    def large_target(self, target: int) -> bool:
        """T >= ceil(max lo / min length) * max lo; False if a length is 0."""
        if self.min_length == 0:
            return False
        return target >= -(-self.max_lo // self.min_length) * self.max_lo


def aggregates(inst: Instance | LengthOrder) -> Aggregates:
    """All of the detectors' aggregates of a nonempty instance.

    The aggregates do not depend on the order, so they are read from the
    columns of ``inst.unsorted``, each by a C-level pass: a ``LengthOrder``
    view would have to sort in full first.
    """
    lo, hi = inst.unsorted
    return Aggregates(
        lo_total=sum(lo),
        hi_total=sum(hi),
        max_lo=max(lo),
        min_length=min(map(sub, hi, lo)),
        wide=all(map(le, map(add, lo, lo), hi)),
    )


def check_wide(inst: Instance | LengthOrder) -> Optional[Fraction]:
    """Return c* = min over intervals of hi/lo as an exact rational."""
    if not inst.n:
        return None
    # compare hi/lo by cross-multiplication; one Fraction at the end
    lo, hi = inst.unsorted
    best_lo, best_hi = lo[0], hi[0]
    for a, b in zip(lo, hi):
        if b * best_lo < best_hi * a:
            best_hi, best_lo = b, a
    return Fraction(best_hi, best_lo)


def polynomial_rate_monte_carlo(
    n: int, c: Fraction, trials: int, seed: int
) -> Fraction:
    """Empirical probability that a random instance is polynomially solvable.

    Draws interval sets with hi uniform in [1, 10**14] and lo = max(1,
    floor(hi/c)), samples the target uniformly from (max hi, sum hi], and
    reports the fraction of trials on which a polynomial route applies.
    For c >= 2 the rate should be essentially 1; for smaller ratios the
    theoretical comparison bound is min(1, 2*(1 - 1/c)), though conditioning
    on targets above max hi can push the empirical rate below it.  Raises
    family C's errors for a bad n or c, and ValueError for trials < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = SplitMix64(seed)
    hits = 0
    for _ in range(trials):
        lo, hi = ratio_columns(rng, n, c)
        max_hi, hi_sum = max(hi), sum(hi)
        if hi_sum <= max_hi + 1:
            t = max_hi + 1
        else:
            t = max_hi + rng.randint(hi_sum - max_hi)
        inst = validate_columns(lo, hi, t)
        if solve_polynomial(inst) is not None:
            hits += 1
    return Fraction(hits, trials)


def solve_polynomial(inst: Instance | LengthOrder) -> Optional[SolveOutcome]:
    """Try the polynomial-time routes; return an exact outcome or None.

    Routes, in order:
      (a) T >= sum of all lower endpoints: switch everything on and fill;
          value = min(sum hi, T).
      (b) large-target condition holds: some prefix's lower endpoints fit
          while its upper endpoints cover T; fill the prefix to value T.
      (c) c* >= 2 and T <= sum hi: put the max-hi interval first, take the
          minimal prefix whose upper endpoints cover T; its lower endpoints
          are guaranteed to fit; fill to value T.

    The instance must already satisfy T > max hi (run preprocess first).
    Every route fills in the order of ``sort_by_length(inst)``.
    """
    t = inst.target
    if not inst.n:
        return None
    inst = sort_by_length(inst)

    def outcome(sol: Solution, route: str) -> SolveOutcome:
        return SolveOutcome(solution=sol, value=sol.total, kind="exact", stats={"route": route})

    agg = aggregates(inst)
    if t >= agg.lo_total:
        return outcome(solution_from_subset(inst, range(inst.n)), "a")

    if agg.large_target(t):
        # lo_total > t here, so a proper prefix crosses t: take the longest
        # prefix whose lower endpoints still fit, reading the order no further.
        lo_sum = hi_sum = prefix_end = 0
        for a, b in inst.stream():
            if lo_sum + a > t:
                break
            lo_sum += a
            hi_sum += b
            prefix_end += 1
        if hi_sum < t:
            raise IsspError(
                "large-target route: prefix upper endpoints do not cover the "
                "target; the route's guarantee is violated, indicating a bug"
            )
        return outcome(solution_from_subset(inst, range(prefix_end)), "b")

    if agg.wide and t <= agg.hi_total:
        lo, hi, _ = inst.prefix(inst.n)
        # stable, so intervals of equal hi keep the length order
        order = sorted(range(inst.n), key=hi.__getitem__, reverse=True)
        # minimal prefix (max-hi interval first) whose upper endpoints cover t
        acc = 0
        chosen: list[int] = []
        for i in order:
            chosen.append(i)
            acc += hi[i]
            if acc >= t:
                break
        lo_sum = sum(map(lo.__getitem__, chosen))
        if lo_sum > t:
            raise IsspError(
                "wide-interval route: minimal covering prefix is infeasible; "
                "the route's guarantee is violated, indicating a bug"
            )
        return outcome(place(inst, fill_values(lo, hi, chosen, t)), "c")

    return None
