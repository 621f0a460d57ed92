"""Domain types and basic operations for the interval subset sum problem.

An instance consists of n integer intervals [lo_i, hi_i] and a target T.
A solution picks x_i = 0 or an integer in [lo_i, hi_i] for every i,
maximizing the total sum subject to sum(x) <= T.

Solutions are always expressed in the original input order of the
intervals, regardless of any internal reordering or preprocessing done by
the solvers.  All arithmetic uses Python's arbitrary-precision integers, so
sums far beyond 64-bit range are exact.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat, starmap
from operator import itemgetter, le, sub
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    InvertedInterval,
    NegativeGap,
    NonPositiveEndpoint,
    NonPositiveTarget,
    TargetExceeded,
    ValueOutsideInterval,
)


class Interval(NamedTuple):
    """One selectable item: any integer in [lo, hi], or 0 (off).

    A named tuple, so ``Interval(1, 2) == (1, 2)`` and ``lo, hi = iv``
    work.  It has no per-object ``__dict__``, which keeps building and
    scanning 10^5 of them cheap.
    """

    lo: int
    hi: int

    @property
    def length(self) -> int:
        return self.hi - self.lo


_lo = itemgetter(0)
_hi = itemgetter(1)


@dataclass(frozen=True)
class Instance:
    """An interval list plus target.

    ``intervals`` is the current working view (possibly reduced and/or
    sorted by length).  ``origin[i]`` gives the position of
    ``intervals[i]`` in the original input, and ``original`` keeps the full
    validated input so solutions can always be reported and checked in
    input order.  When ``intervals is original``, ``origin`` is the
    identity.
    """

    intervals: tuple[Interval, ...]
    target: int
    origin: tuple[int, ...]
    original: tuple[Interval, ...]
    length_sorted: bool = False

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals


@dataclass(frozen=True)
class Solution:
    """Chosen values x_i, in original input order. 0 means interval off."""

    values: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.values)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a solver run."""

    solution: Solution
    value: int
    kind: str  # "exact" or "approximate"
    epsilon: Optional[Fraction] = None
    midrange_index: Optional[int] = None  # 1-based position in length-sorted order
    stats: dict = field(default_factory=dict)


def validate(pairs: Iterable[tuple[int, int]], target: int) -> Instance:
    """Check endpoints and target, returning an Instance in input order."""
    if target < 1:
        raise NonPositiveTarget(f"target must be >= 1, got {target}")
    # tuple.__new__ builds each Interval in C from its (lo, hi) pair.  The
    # cyclic collector is paused meanwhile: 10^5 new tracked tuples would
    # trigger over a hundred passes, which have no cycle to free.
    # With lo <= hi everywhere, the smallest lo (that of the least tuple)
    # bounds both endpoints from below.
    collecting = gc.isenabled()
    gc.disable()
    try:
        ivs = tuple(map(tuple.__new__, repeat(Interval), pairs))
    finally:
        if collecting:
            gc.enable()
    if ivs and not (min(ivs)[0] >= 1 and all(starmap(le, ivs))):
        _raise_first_invalid(ivs)
    return Instance(intervals=ivs, target=target, origin=tuple(range(len(ivs))), original=ivs)


def _raise_first_invalid(intervals: tuple[Interval, ...]) -> None:
    """Raise the error for the first interval that fails validation."""
    for pos, (lo, hi) in enumerate(intervals):
        if lo < 1 or hi < 1:
            raise NonPositiveEndpoint(f"interval {pos}: endpoints must be >= 1, got [{lo}, {hi}]")
        if lo > hi:
            raise InvertedInterval(f"interval {pos}: lo {lo} > hi {hi}")


def place(inst: Instance, values: dict[int, int]) -> Solution:
    """The solution in input order that gives ``inst.intervals[k]`` the
    value ``values[k]`` and every other interval 0."""
    origin = inst.origin
    x = [0] * len(inst.original)
    for k, v in values.items():
        x[origin[k]] = v
    return Solution(tuple(x))


def preprocess(inst: Instance) -> Union[Solution, Instance]:
    """Settle the instance, or normalize it so T exceeds every upper endpoint.

    Scanning in current order, the first interval with lo <= T <= hi
    settles it: x_i = T is optimal.  Otherwise intervals with lo > T are
    dropped, since they can never be switched on; if none is left, the
    all-zero solution is optimal.  Either way the optimal ``Solution`` (in
    input order) is returned.  Otherwise the result is the nonempty
    reduced ``Instance``, which satisfies T > max hi; an input that does
    already is returned as it is.
    """
    t = inst.target
    if max(map(_hi, inst.intervals), default=t) < t:
        return inst
    for i, iv in enumerate(inst.intervals):
        if iv.lo <= t <= iv.hi:
            return place(inst, {i: t})
    keep = [i for i, iv in enumerate(inst.intervals) if iv.lo <= t]
    if not keep:
        return place(inst, {})
    return Instance(
        intervals=tuple(inst.intervals[i] for i in keep),
        target=t,
        origin=tuple(inst.origin[i] for i in keep),
        original=inst.original,
        length_sorted=inst.length_sorted,
    )


def sort_by_length(inst: Instance) -> Instance:
    """Stable-sort intervals by nondecreasing width hi - lo."""
    ivs = inst.intervals
    lengths = list(map(sub, map(_hi, ivs), map(_lo, ivs)))
    order = sorted(range(inst.n), key=lengths.__getitem__)
    if ivs is inst.original:  # origin is the identity: skip the gather
        origin = tuple(order)
    else:
        origin = tuple(map(inst.origin.__getitem__, order))
    return Instance(
        intervals=tuple(map(ivs.__getitem__, order)),
        target=inst.target,
        origin=origin,
        original=inst.original,
        length_sorted=True,
    )


def evaluate(inst: Instance, sol: Solution) -> int:
    """Return the total of a solution, raising if it is infeasible.

    The solution is interpreted in original input order and checked
    against the originally validated intervals.
    """
    ref = inst.original
    if len(sol.values) != len(ref):
        raise ValueOutsideInterval(
            f"solution has {len(sol.values)} entries, instance has {len(ref)} intervals"
        )
    total = 0
    for i, (x, iv) in enumerate(zip(sol.values, ref)):
        if x != 0 and not (iv.lo <= x <= iv.hi):
            raise ValueOutsideInterval(f"x[{i}] = {x} outside [{iv.lo}, {iv.hi}] and nonzero")
        total += x
    if total > inst.target:
        raise TargetExceeded(f"total {total} exceeds target {inst.target}")
    return total


def midrange_count(inst: Instance, sol: Solution) -> int:
    """Number of entries strictly between their interval's endpoints."""
    return sum(
        1
        for x, iv in zip(sol.values, inst.original)
        if x != 0 and iv.lo < x < iv.hi
    )


def relative_error(approx_value: int, reference_value: int) -> Fraction:
    """(reference - approx) / reference as an exact rational."""
    if reference_value <= 0:
        raise NegativeGap(f"reference must be positive, got {reference_value}")
    if approx_value > reference_value:
        raise NegativeGap(f"approx {approx_value} exceeds reference {reference_value}")
    if approx_value < 0:
        raise NegativeGap(f"approx must be nonnegative, got {approx_value}")
    return Fraction(reference_value - approx_value, reference_value)


PERCENT_DECIMALS = 3


def format_percent(x: Fraction) -> str:
    """Render an exact rational as a percentage string, e.g. '1.515%'."""
    scaled = x * 100 * 10**PERCENT_DECIMALS
    # round half away from zero on the exact rational
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    digits = f"{q:0{PERCENT_DECIMALS + 1}d}"
    return f"{digits[:-PERCENT_DECIMALS]}.{digits[-PERCENT_DECIMALS:]}%"
