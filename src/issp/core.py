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

import heapq
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import le, sub
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import InputError, InvalidSetting, IsspError


@dataclass(frozen=True)
class Instance:
    """An interval list plus target, held as two int columns.

    ``lo[i]`` and ``hi[i]`` are the endpoints of interval i of this
    instance, which may be the validated input or a reduction of it, and
    ``origin[i]`` is its position in the validated input (``origin`` is
    ``range(n)`` on that input itself).  ``source`` is the validated input,
    or None when this instance is it, and ``input`` is the validated input
    either way, so solutions can always be reported and checked in input
    order.  Instances are equal when these fields are.

    The columns are the one interval format the library reads.  Nothing
    on an Instance says what order it is in: the solvers read the length
    order of the ``LengthOrder`` view ``sort_by_length`` makes.  Code that
    takes either reads every position through ``prefix`` and the
    order-free aggregates through ``unsorted``, which here are just the
    columns.
    """

    lo: Sequence[int]
    hi: Sequence[int]
    target: int
    origin: Sequence[int]
    source: Optional[Instance] = None

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def input(self) -> Instance:
        """The validated instance, in input order, that this one views."""
        return self if self.source is None else self.source

    @property
    def original(self) -> tuple[tuple[int, int], ...]:
        """The validated input's (lo, hi) pairs, in input order."""
        src = self.input
        return tuple(zip(src.lo, src.hi))

    @property
    def unsorted(self) -> tuple[Sequence[int], Sequence[int]]:
        """The lo and hi columns, for passes that do not depend on order."""
        return self.lo, self.hi

    def prefix(self, k: int) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """``lo``, ``hi`` and ``origin``, as a view's ``prefix`` gives its
        own (here right on every position, whatever k)."""
        return self.lo, self.hi, self.origin


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
    pairs = list(pairs)
    return validate_columns([a for a, _ in pairs], [b for _, b in pairs], target)


def validate_columns(lo: Sequence[int], hi: Sequence[int], target: int) -> Instance:
    """``validate`` for the intervals [lo[i], hi[i]], given as two columns
    of equal length; they become the Instance's (as tuples).

    The checks run at C level: with lo <= hi everywhere, the smallest lo
    bounds both endpoints from below.  Only after a check fails are the
    pairs walked in Python, to report the first bad one.
    """
    if target < 1:
        raise InputError(f"target must be >= 1, got {target}")
    lo, hi = tuple(lo), tuple(hi)
    if lo and not (min(lo) >= 1 and all(map(le, lo, hi))):
        _raise_first_invalid(lo, hi)
    return Instance(lo, hi, target, range(len(lo)))


def _raise_first_invalid(lo: Sequence[int], hi: Sequence[int]) -> None:
    """Raise the error for the first interval that fails validation."""
    for pos, (a, b) in enumerate(zip(lo, hi)):
        if a < 1 or b < 1:
            raise InputError(f"interval {pos}: endpoints must be >= 1, got [{a}, {b}]")
        if a > b:
            raise InputError(f"interval {pos}: lo {a} > hi {b}")


def place(inst: Instance | LengthOrder, values: dict[int, int]) -> Solution:
    """The solution in input order that gives the interval at position k
    of ``inst``'s order the value ``values[k]`` and every other interval 0."""
    origin = inst.prefix(max(values, default=0) + 1)[2]
    x = [0] * inst.input.n
    for k, v in values.items():
        x[origin[k]] = v
    return Solution(tuple(x))


def preprocess(inst: Instance | LengthOrder) -> Union[Solution, Instance, LengthOrder]:
    """Settle the instance, or normalize it so T exceeds every upper endpoint.

    Scanning in current order, the first interval with lo <= T <= hi
    settles it: x_i = T is optimal.  Otherwise intervals with lo > T are
    dropped, since they can never be switched on; if none is left, the
    all-zero solution is optimal.  Either way the optimal ``Solution`` (in
    input order) is returned.  Otherwise the result is the nonempty
    reduced ``Instance``, in the same order, which satisfies T > max hi;
    an input that does already, a view included, is returned as it is.
    """
    t = inst.target
    if max(inst.unsorted[1], default=t) < t:
        return inst
    lo, hi, origin = inst.prefix(inst.n)
    for i, (a, b) in enumerate(zip(lo, hi)):
        if a <= t <= b:
            return place(inst, {i: t})
    keep = [i for i, a in enumerate(lo) if a <= t]
    if not keep:
        return place(inst, {})
    return Instance(
        lo=tuple(map(lo.__getitem__, keep)),
        hi=tuple(map(hi.__getitem__, keep)),
        target=t,
        origin=tuple(map(origin.__getitem__, keep)),
        source=inst.input,
    )


# A view sorts on demand.  heapq.nsmallest(k, ...) is sorted(...)[:k], so
# ties keep input order and each chunk extends the one before it.  On the
# reduced gen_c(100_000, 3/2, 1) (Python 3.11.7, 2-vCPU Intel Xeon VM),
# where the scan stops at item 768, nsmallest over the lengths took 9 ms
# at k = 1024, 16 ms at 4096 and 25 ms at 8192, against 87 ms for the
# full stable sort with its lengths and gathers.  A view starts with
# FIRST_CHUNK positions and each extension takes 4x as many; a chunk that
# would reach n / FULL_SORT_SHARE is one full sort instead, so n <= 8192
# sorts at once, as scans that see every item need.
FIRST_CHUNK = 1024
FULL_SORT_SHARE = 8


class LengthOrder:
    """``inst`` stable-sorted by nondecreasing width hi - lo, sorted only
    as far as it is read.

    ``target`` and ``input`` are ``inst``'s and ``unsorted`` its columns,
    which the order-free detectors read; ``n`` is the full count.  The
    first ``materialized`` positions of the order are in place, in three
    lists that hold just those: their endpoints and input positions.
    Reading ``stream`` past them, or asking ``prefix`` for more, extends
    the order by a larger ``heapq.nsmallest`` chunk, or by the one full
    sort once a chunk would reach n / FULL_SORT_SHARE.  Each extension
    computes the n lengths hi - lo afresh and keeps none.
    """

    def __init__(self, inst: Instance) -> None:
        self.target = inst.target
        self.input = inst.input
        self.unsorted: tuple[Sequence[int], Sequence[int]] = (inst.lo, inst.hi)
        self._unsorted_origin = inst.origin
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._origin: list[int] = []
        self._extend(FIRST_CHUNK)

    @property
    def n(self) -> int:
        return len(self.unsorted[0])

    @property
    def materialized(self) -> int:
        return len(self._lo)

    @property
    def original(self) -> tuple[tuple[int, int], ...]:
        return self.input.original

    def stream(self) -> Iterator[tuple[int, int]]:
        """The (lo, hi) pairs in length order, extending the order as it is read."""
        done = 0
        while done < self.n:
            self._extend(done + 1)
            stop = self.materialized
            yield from zip(self._lo[done:stop], self._hi[done:stop])
            done = stop

    def prefix(self, k: int) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """The view's own lists of lo, hi and input position in length
        order, right on at least their first min(k, n) positions.  They grow
        as the order is extended."""
        self._extend(k)
        return self._lo, self._hi, self._origin

    def _extend(self, k: int) -> None:
        """Put at least the first min(k, n) positions of the order in place."""
        done, n = self.materialized, self.n
        if k <= done or done == n:
            return
        lo, hi = self.unsorted
        lengths = list(map(sub, hi, lo))
        size = max(k, 4 * done, FIRST_CHUNK)
        if size * FULL_SORT_SHARE >= n:
            size = n
            order = sorted(range(n), key=lengths.__getitem__)
        else:
            order = heapq.nsmallest(size, range(n), key=lengths.__getitem__)
        tail = order[done:]
        self._lo[done:size] = map(lo.__getitem__, tail)
        self._hi[done:size] = map(hi.__getitem__, tail)
        self._origin[done:size] = map(self._unsorted_origin.__getitem__, tail)


def sort_by_length(inst: Instance | LengthOrder) -> LengthOrder:
    """Stable-sort intervals by nondecreasing width hi - lo, into the
    ``LengthOrder`` view every solver reads: a view is returned as it is,
    an Instance wrapped in one.  Only the view's first ``FIRST_CHUNK``
    positions (all of them when n <= FIRST_CHUNK * FULL_SORT_SHARE) are
    sorted now, and the rest as ``stream`` and ``prefix`` read them.
    """
    return inst if isinstance(inst, LengthOrder) else LengthOrder(inst)


def evaluate(inst: Instance | LengthOrder, sol: Solution) -> int:
    """Return the total of a solution, raising if it is infeasible.

    The solution is interpreted in original input order and checked
    against the columns of the validated input.  Only its nonzero entries
    are checked, in input order, so the first bad one is reported.
    """
    src = inst.input
    lo, hi = src.lo, src.hi
    values = sol.values
    if len(values) != src.n:
        raise IsspError(
            f"solution has {len(values)} entries, instance has {src.n} intervals"
        )
    for i in compress(range(len(values)), values):
        x = values[i]
        if not lo[i] <= x <= hi[i]:
            raise IsspError(f"x[{i}] = {x} outside [{lo[i]}, {hi[i]}] and nonzero")
    total = sum(values)
    if total > inst.target:
        raise IsspError(f"total {total} exceeds target {inst.target}")
    return total


def midrange_count(inst: Instance | LengthOrder, sol: Solution) -> int:
    """Number of entries strictly between their interval's endpoints."""
    src = inst.input
    lo, hi, values = src.lo, src.hi, sol.values
    return sum(lo[i] < values[i] < hi[i] for i in compress(range(src.n), values))


def relative_error(approx_value: int, reference_value: int) -> Fraction:
    """(reference - approx) / reference as an exact rational."""
    if reference_value <= 0:
        raise IsspError(f"reference must be positive, got {reference_value}")
    if approx_value > reference_value:
        raise IsspError(f"approx {approx_value} exceeds reference {reference_value}")
    if approx_value < 0:
        raise IsspError(f"approx must be nonnegative, got {approx_value}")
    return Fraction(reference_value - approx_value, reference_value)


# Fraction("1e-N") computes 10**N before anything can check the value, so a
# decimal exponent above this magnitude is refused first; it is the default
# limit on the digits of an int read from a string, which a long p/q hits
# (sys.int_info.default_max_str_digits)
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def exact_ratio(value: Union[Fraction, int, float, str]) -> Fraction:
    """``Fraction(value)``; a value it refuses raises ValueError, and a string
    whose decimal exponent is above ``MAX_EXPONENT`` in magnitude raises
    InvalidSetting before it is expanded."""
    if isinstance(value, str):
        found = _EXPONENT.search(value)
        digits = found[1].replace("_", "").lstrip("0") if found else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise InvalidSetting(f"the exponent of {value!r} is above {MAX_EXPONENT} in magnitude")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"ratio {value!r} has a zero denominator") from None
    except OverflowError:  # an infinite float or Decimal
        raise ValueError(f"ratio {value!r} is not finite") from None


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
