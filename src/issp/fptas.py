"""A space-efficient (1 - eps)-approximation scheme with solution recovery.

The driver partitions (0, T] into l = ceil(1/eps) equal buckets of width
T/l (<= eps*T) and runs the exact DP's midrange scan, ``exact.scan``, with
its reachable-sum set relaxed to ``BucketArray``: only the smallest and
largest reachable endpoint-sum seen in each bucket are kept.  Per item,
the stored values are snapshotted once, in sorted order, by C-level slices
over the occupied buckets; each endpoint's shifted run is then fused into
its merge: the merge adds the endpoint to each snapshot value as it walks
a precomputed table of bucket boundaries, so no run is built and no value
is divided.  The scan locates the single interval m that may take a
strictly interior value and the best partial sum ``delta_hat`` reachable
from the intervals before m.  Because bucket slots can be displaced by
later items, a stored value's predecessor chain may no longer be present,
so plain backtracking cannot reconstruct a solution; reconstruction
instead recursively splits the item set in two, computes the relaxed
arrays per half, picks a compatible pair (u1, u2) of half-sums, and
backtracks greedily through the producer codes, removing every touched
suffix so no item is ever used twice.  The second half's arrays are
computed first, and the first half's stay empty when the second half's
largest value already lies within eps*T of the frame's target.  Every
backtrack is one walk from the largest stored value at or below its
target.  The second half's is taken from its first arrays before their
release and used when that value is at or below the half's updated
target, where a re-run would end with the same arrays; otherwise the half
is re-run.

All threshold comparisons involving eps*T are carried out in exact rational
arithmetic (eps is a Fraction); no floating point enters the solver path.
The live bucket slots are counted: arrays are sized by 1/eps only,
checked against the memory budget before any is allocated, and dropped when
released, so peak space is O(1/eps) regardless of T.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .core import Instance, SolveOutcome, exact_ratio, sort_by_length
from .errors import IsspError
from .exact import _BYTES_PER_ENTRY, charge, memory_budget_bytes, midrange_solution, scan

Number = Union[int, Fraction]

# Item = (position in the length-sorted instance, lo, hi)
Item = tuple[int, int, int]


@dataclass
class FptasParams:
    """Shared solve-wide constants: eps as an exact rational, T, l buckets.

    ``bounds[k] = floor(k*T/l)`` is the largest integer in bucket k, so the
    bucket of an integer v in (0, T] is the first k with v <= bounds[k].
    ``live_slots`` counts the bucket slots allocated and not yet released;
    ``peak_slots``, its maximum, certifies the space bound.  Construction
    charges 5l + 1 entries at 128 B before any is allocated: two arrays of
    2l slots live at once (the metered peak) and the boundary table.
    """

    epsilon: Fraction
    target: int
    l: int = field(init=False)
    live_slots: int = field(init=False, default=0)
    peak_slots: int = field(init=False, default=0)
    bounds: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < 1):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        p, q = self.epsilon.numerator, self.epsilon.denominator
        self.l = -(-q // p)  # ceil(1/eps)
        # the message names no eps-sized number: l may have thousands of digits
        budget = memory_budget_bytes()
        fits = max(0, (budget // _BYTES_PER_ENTRY - 1) // 5)
        what = f"epsilon too small: ceil(1/epsilon) buckets are more than the {fits} that fit"
        charge(_BYTES_PER_ENTRY * (5 * self.l + 1), budget, what)
        t, l = self.target, self.l
        self.bounds = [k * t // l for k in range(l + 1)]

    @property
    def eps_t(self) -> Fraction:
        return self.epsilon * self.target

    def bucket_index(self, v: int) -> int:
        """1-based bucket of v in the partition of (0, T]: ceil(v*l/T)."""
        if not (0 < v <= self.target):
            raise IsspError(f"value {v} outside (0, {self.target}]")
        return bisect_left(self.bounds, v)


class BucketArray:
    """Per-bucket min/max reachable sums with provenance.

    ``neg``/``pos`` hold the smallest/largest value seen in each bucket
    (0 = empty); ``neg_src``/``pos_src`` hold the producer of that value as
    one code, ``2 * position + endpoint`` (endpoint 0 = lo, 1 = hi).  The
    occupied buckets lie in ``[k0, k1)``, ``count`` of them.  Arrays are
    always allocated at the full l buckets so the counted slots depend
    only on eps; only values up to the local target (capped at T) are ever
    stored.  ``largest_le``, ``add`` and ``snapshot`` make it a
    reachable-sum set for ``exact.scan``.
    """

    def __init__(self, params: FptasParams, local_target: Number):
        self.params = params
        self.tfloor = min(math.floor(local_target), params.target)
        l = params.l
        self.neg = [0] * (l + 1)  # 1-based
        self.pos = [0] * (l + 1)
        self.neg_src = [0] * (l + 1)
        self.pos_src = [0] * (l + 1)
        self.k0, self.k1, self.count = l + 1, 0, 0  # an empty range
        self._slots = 2 * l
        params.live_slots += self._slots
        params.peak_slots = max(params.peak_slots, params.live_slots)
        self._released = False

    def release(self) -> None:
        """Return the slots to the count and drop the arrays, so a frame
        that still names this object holds no bucket memory."""
        if not self._released:
            self.params.live_slots -= self._slots
            self._released = True
            self.neg = self.pos = self.neg_src = self.pos_src = []
            self.count = 0

    def values(self) -> list[int]:
        """Stored values in strictly increasing order."""
        return list(dict.fromkeys(self._sorted_slots()))  # drops repeats, keeps order

    def _sorted_slots(self) -> list[int]:
        """Every bucket's min then max over the occupied range, built at C
        level: non-decreasing, with a one-value bucket's value repeated.
        Empty buckets interleave zeros, which are filtered out; when every
        bucket in the range is occupied there are none, and the interleaved
        list is returned as it is."""
        if not self.count:
            return []
        k0, k1 = self.k0, self.k1
        out = [0] * (2 * (k1 - k0))
        out[0::2] = self.neg[k0:k1]
        out[1::2] = self.pos[k0:k1]
        return out if self.count == k1 - k0 else list(filter(None, out))

    def snapshot(self) -> tuple[list[int], list[int]]:
        """Copies of the per-bucket minima and maxima, for traces."""
        return self.neg.copy(), self.pos.copy()

    def largest_le(self, bound: int) -> int:
        """Largest stored value <= bound, or 0 if none: in bound's bucket
        (or the top occupied one, if lower), else the nearest maximum below,
        since every value in a lower bucket is below bound."""
        if bound <= 0 or not self.count:
            return 0
        pos = self.pos
        k = min(self.params.bucket_index(min(bound, self.params.target)), self.k1 - 1)
        if pos[k] > bound:
            if self.neg[k] <= bound:
                return self.neg[k]
        elif pos[k]:
            return pos[k]
        while k > self.k0:
            k -= 1
            if pos[k]:
                return pos[k]
        return 0

    def add(self, idx: int, lo: int, hi: int) -> None:
        """Extend the stored values by item idx.

        Each endpoint a is inserted alone, then added to every value stored
        before this call (so an item never combines with itself), cut at
        the local target, and merged into the buckets.  The pre-item values
        are one C-level snapshot shared by both endpoints; the merge adds a
        as it walks, so no shifted run is built.  The result equals
        inserting the values one at a time in the order existing slot, lo,
        lo run, hi, hi run.  When lo == hi the hi values repeat the lo ones
        and cannot change any slot.
        """
        base = self._sorted_slots()
        tf = self.tfloor
        for e, a in ((0, lo), (1, hi)) if lo != hi else ((0, lo),):
            if a > tf:
                break
            self.insert(a, idx, 1 + e)
            cut = bisect_right(base, tf - a)
            if cut:
                self._merge(base, cut, a, 2 * idx + e)

    def insert(self, v: int, d1: int, d2: int) -> None:
        """Record v from endpoint d2 (1 = lo, 2 = hi) of position d1's item."""
        self._put(self.params.bucket_index(v), v, v, 2 * d1 + d2 - 1)

    def _put(self, k: int, first: int, last: int, src: int) -> None:
        """Offer first and last (0 < first <= last), from producer src, to
        bucket k's min and max slots.

        The max is tested first: an empty bucket's max is 0, so it always
        takes that branch, where a zero max marks it as new: it is counted,
        the range grows to it, and both slots are set.  A close that
        changes nothing reads two slots and makes two compares."""
        neg, pos = self.neg, self.pos
        if last > pos[k]:
            if not pos[k]:
                self.count += 1
                self.k0, self.k1 = min(self.k0, k), max(self.k1, k + 1)
                neg[k], self.neg_src[k] = first, src
            elif first < neg[k]:
                neg[k], self.neg_src[k] = first, src
            pos[k], self.pos_src[k] = last, src
        elif first < neg[k]:
            neg[k], self.neg_src[k] = first, src

    def _merge(self, base: list[int], cut: int, a: int, src: int) -> None:
        """Merge v + a for the first ``cut`` values v of the non-decreasing
        list ``base`` (all sums in (0, T]), produced by src, into the slots.

        The shifted values are walked against the boundary table, so no
        value is divided: a bucket's smallest value is the first one to
        enter it and its largest the last one before the walk leaves it.
        Leaving a bucket closes it as ``_put`` does, max first, since an
        empty bucket's max is 0.  Repeats in ``base`` cannot change a slot,
        because a slot changes only on a strict improvement, as single
        inserts would do.  The walk's new buckets are counted, ``k0`` falls to
        its first, and ``_put`` closes its last, growing ``k1`` if it is new.
        """
        bounds = self.params.bounds
        neg, pos, neg_src, pos_src = self.neg, self.pos, self.neg_src, self.pos_src
        run = iter(base[:cut])
        first = last = next(run) + a
        k = kstart = bisect_left(bounds, first)
        ub = bounds[k]
        new = 0
        for v in run:
            c = v + a
            if c <= ub:
                last = c
                continue
            # close bucket k: _put, inlined because it runs once per bucket
            if last > pos[k]:
                if not pos[k]:
                    new += 1
                    neg[k], neg_src[k] = first, src
                elif first < neg[k]:
                    neg[k], neg_src[k] = first, src
                pos[k], pos_src[k] = last, src
            elif first < neg[k]:
                neg[k], neg_src[k] = first, src
            k += 1
            ub = bounds[k]
            if c > ub:
                k = bisect_left(bounds, c, k + 1)
                ub = bounds[k]
            first = last = c
        self.count += new
        self.k0 = min(self.k0, kstart)
        self._put(k, first, last, src)


def relaxed_dp(items: list[Item], local_target: Number, params: FptasParams) -> BucketArray:
    """Stream the items, keeping min/max reachable sums per bucket.

    For each item both endpoints extend a snapshot of the current arrays
    (so an item never combines with itself), plus the endpoints alone;
    every resulting value in (0, local_target] updates its bucket's slots.
    """
    b = BucketArray(params, local_target)
    for idx, lo, hi in items:
        b.add(idx, lo, hi)
    return b


def find_u1_u2(
    b1: BucketArray, b2: BucketArray, local_target: Number, params: FptasParams
) -> tuple[int, int]:
    """Pick u1 from b1's values (or 0) and u2 from b2's (or 0) with
    local_target - eps*T <= u1 + u2 <= local_target, by an ascending-u1 /
    descending-u2 sweep over the sorted value lists."""
    lob = math.ceil(local_target - params.eps_t)
    upb = math.floor(local_target)
    vals1 = [0] + b1.values()  # values() is strictly increasing and positive
    vals2 = [0] + b2.values()
    i, j = 0, len(vals2) - 1
    while True:
        s = vals1[i] + vals2[j]
        if lob <= s <= upb:
            return vals1[i], vals2[j]
        if s < lob:
            i += 1
            if i >= len(vals1):
                raise IsspError("sweep exhausted ascending side")
        else:
            j -= 1
            if j < 0:
                raise IsspError("sweep exhausted descending side")


def backtrack(
    b: BucketArray, items: list[Item], local_target: Number, params: FptasParams
) -> tuple[int, int, dict[int, int]]:
    """Greedy provenance walk from u, the largest stored value <= local_target.

    Each step finds the residual u verbatim in its bucket, max slot first,
    with a producer code below twice the last position fixed, that is, an
    earlier item (the first step's limit lies above every code of
    ``items``), fixes that item at the recorded endpoint and removes every
    item at or after it.  A residual not found is left to the recursive
    re-solve, which recovers it from fresh arrays instead of drifting to a
    nearby smaller value.  Returns the value y
    reached, the index where the removed suffix starts, and the assignments.
    """
    u = b.largest_le(math.floor(local_target))
    if u == 0:
        raise IsspError("no stored value at or below the target")
    assignments: dict[int, int] = {}
    y, j, limit = 0, len(items), 2 * (items[-1][0] + 1)
    while u:
        k = b.params.bucket_index(u)
        if b.pos[k] == u and b.pos_src[k] < limit:
            src = b.pos_src[k]
        elif b.neg[k] == u and b.neg_src[k] < limit:
            src = b.neg_src[k]
        else:
            break
        p, e = divmod(src, 2)
        j = bisect_left(items, (p,))
        a = items[j][1 + e]  # e = 0 selects lo, 1 selects hi
        assignments[p] = a
        y += a
        u -= a
        limit = 2 * p
    return y, j, assignments


def divide_and_conquer(
    items: list[Item], local_target: Number, params: FptasParams
) -> tuple[int, dict[int, int]]:
    """Reconstruct endpoint assignments summing into
    [local_target - eps*T, local_target] from the given items; returns
    their sum and the assignments by item position."""
    assignments: dict[int, int] = {}
    y = _dc(items, local_target, params, assignments)
    return y, assignments


def _dc(
    items: list[Item],
    t_local: Number,
    params: FptasParams,
    assignments: dict[int, int],
) -> int:
    """Fill ``assignments`` from ``items`` toward t_local; return their sum.

    The items are split into halves lam1 and lam2, each run through
    ``relaxed_dp`` at t_local (b2 first, then b1), and a pair (u1, u2) is
    picked.  The first half is done first: a backtrack on b1 toward
    t_local - u2, then a recursion on what it left.  The second half
    follows toward t2 = t_local - (what the first half reached): a
    backtrack on its relaxed arrays at t2, then a recursion on what that
    left.

    That backtrack is taken from b2 before b2 is released, as the walk from
    b2's largest value top2.  Every value the run offered is at most top2, so
    if top2 <= t2 a re-run cut at t2 ends with b2's slots, and its backtrack
    starts at top2 too.  The first half gets within eps*T of t_local - u2,
    so t2 <= u2 + eps*T: the walk is taken only if top2 <= u2 + eps*T, and
    the half is re-run at t2 only if top2 > t2.

    b1 is left empty when b2's largest value top2 settles the pair, that
    is, when top2 >= lob = ceil(t_local - eps*T).  Every stored value is at
    most upb = floor(t_local), and ``find_u1_u2`` first tests u1 = 0 with
    u2 = top2, so it returns (0, top2) whatever b1 holds.  Then
    t_local - u2 <= eps*T: the first half takes no walk and no recursion,
    and b1 is never read, so the pair, the walks and the assignments are
    those of a full b1.  The empty b1 is still allocated while b2 is live,
    so every frame reaches two live arrays as before and ``peak_slots`` is
    unchanged; dropping it would halve the peak on instances where every
    frame settles.

    Every walk starts at a value u with ceil(bound - eps*T) <= u <= bound,
    within eps*T of its target, so it may follow a bucket minimum:
    - First half: find_u1_u2 gives u1 >= ceil(t_local - u2 - eps*T), which is
      positive under the guard t_local - u2 > eps*T, so u1 is stored in b1
      and the start is at least u1.
    - Early walk: its bound is top2 itself.
    - Re-run at t2: the first half ends within eps*T of t_local - u2, so u2
      lies in [t2 - eps*T, t2] and is positive, since t2 > eps*T.  A bucket
      wholly <= floor(t2) gets the same offers in both runs, because only
      lower values feed it, so it holds the same values after every item;
      if u2 lies in such a bucket, the re-run stores u2.  Otherwise u2 lies
      in the bucket K holding floor(t2).  If u2 is K's final minimum in b2,
      its predecessor was lower and not in K (K's minimum would have been
      below u2 from then on), so it sat in a lower bucket that the re-run
      shares, and the re-run is offered u2 as well.  If u2 is K's final
      maximum, every offer into K was at most u2 <= floor(t2), so the
      re-run's K is b2's.  Either way the re-run stores a value in
      [u2, floor(t2)], so its start is at least u2.

    At most two arrays (b1 and b2 of the innermost frame) are live at once;
    the frames hold O(m) walk entries.
    """
    if not items:
        return 0
    eps_t = params.eps_t
    half = -(-len(items) // 2)
    lam1, lam2 = items[:half], items[half:]
    b2 = relaxed_dp(lam2, t_local, params)
    top2 = b2.largest_le(params.target)
    settled = top2 >= math.ceil(t_local - eps_t)
    b1 = relaxed_dp([] if settled else lam1, t_local, params)
    u1, u2 = find_u1_u2(b1, b2, t_local, params)
    y1b = y1dc = y2b = y2dc = 0
    lam1_rest = lam1
    if t_local - u2 > eps_t:
        y1b, cut1, asg1 = backtrack(b1, lam1, t_local - u2, params)
        assignments.update(asg1)
        lam1_rest = lam1[:cut1]
    b1.release()
    early = backtrack(b2, lam2, top2, params) if 0 < top2 <= u2 + eps_t else None
    b2.release()
    if t_local - u2 - y1b > eps_t:
        y1dc = _dc(lam1_rest, t_local - u2 - y1b, params, assignments)
    t2 = t_local - y1b - y1dc
    lam2_rest = lam2
    if t2 > eps_t:
        if early and top2 <= t2:
            y2b, cut2, asg2 = early
        else:
            b2 = relaxed_dp(lam2, t2, params)
            y2b, cut2, asg2 = backtrack(b2, lam2, t2, params)
            b2.release()
        assignments.update(asg2)
        lam2_rest = lam2[:cut2]
    if t2 - y2b > eps_t:
        y2dc = _dc(lam2_rest, t2 - y2b, params, assignments)
    return y1b + y1dc + y2b + y2dc


def fptas_solve(
    inst: Instance, epsilon: Union[Fraction, str, float], trace: bool = False
) -> SolveOutcome:
    """Solve to within a factor (1 - epsilon) of the optimum.

    Any valid instance is accepted; preprocessing is not required, since
    the scan never switches on an interval with lo > T and caps every
    value at T.  The outcome is flagged exact when the result is provably
    optimal: the target itself was reached, the instance has at most one
    interval, no interval has lo <= T (the value is 0), or the scan
    observed delta_hat + eps*T <= T - lo_m (in which case the
    reconstruction target is tight enough to force the true optimum).

    With ``trace=True`` the stats record per-iteration bucket states and
    the reconstruction target, for verification.
    """
    eps = exact_ratio(epsilon)
    if not inst.length_sorted:
        inst = sort_by_length(inst)
    t = inst.target
    params = FptasParams(epsilon=eps, target=t)

    arrays = BucketArray(params, t)
    m, delta_hat, exit_at, states = scan(inst, arrays, trace)
    arrays.release()

    if m is None:  # no interval has lo <= T, so 0 is optimal
        case_a, dc_target = True, Fraction(0)
    else:
        lo, hi, _ = inst.prefix(m + 1)
        lo_m = lo[m]
        case_a = delta_hat + params.eps_t <= t - lo_m
        dc_target = min(delta_hat + params.eps_t, Fraction(t - lo_m))
    y_hat, assignments = 0, {}
    if m and dc_target > 0:
        items: list[Item] = list(zip(range(m), lo[:m], hi[:m]))
        y_hat, assignments = divide_and_conquer(items, dc_target, params)
    solution, value = midrange_solution(inst, m, assignments, y_hat)
    kind = "exact" if (value == t or case_a or inst.n == 1) else "approximate"

    stats: dict = {
        "peak_slots": params.peak_slots,
        "case_a": bool(case_a),
        "early_exit": exit_at is not None,
        "dc_target": dc_target,
    }
    if trace:
        stats["scan_trace"] = states
    return SolveOutcome(
        solution=solution,
        value=value,
        kind=kind,
        epsilon=eps,
        midrange_index=None if m is None else m + 1,
        stats=stats,
    )
