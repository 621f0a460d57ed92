"""Ground-truth solvers: subset enumeration and the exact dynamic program.

``brute_force_optimum`` enumerates subsets using the knapsack value map
(max over subsets S with sum lo <= T of min(sum hi, T)) and is the test
oracle for small n.

``scan`` is the one midrange scan: over the length-sorted intervals it
keeps a set of reachable endpoint sums in (0, T] and finds the one
possible strictly-interior ("midrange") interval.  It runs on three set
representations with one interface (``largest_le``, ``add``,
``snapshot``): the two exact ones below, and the FPTAS's ``BucketArray``,
which keeps only a min and a max per bucket.  ``dp_exact`` runs the scan
on an exact set and reconstructs an optimal solution by backtracking.
The exact set has two representations, chosen from the items' endpoints,
T and the memory budget alone, with bit-identical answers:

- ``SparseSums``: a sorted list of the sums and the runs of sums each
  item reached first.  Time and space grow with the number of stored
  sums, so it serves any T.  A block of the newest items stays pending,
  unbuilt, so a scan that stops at T never builds them.
- ``BitsetSums``: one Python int whose bit s is set when s is reachable.
  Time per item grows with the largest reachable sum and space with the
  width W = min(T, sum of hi), which bounds it.

Where no first-reach run records the item that reached a sum (every item
of the bitset, the pending items of the sparse set), backtracking takes
``backtrack_items``'s step.  The bitset is used when W is at most
``BITSET_DENSITY`` times min(W, 3^a * 2^b), the bound on stored sums of a
items with lo < hi and b with lo == hi, and its exact bytes fit
``ISSP_MEMORY_BUDGET_MB``; the sparse set is gated at a nominal 128 B per
stored sum, counted before the sums are built; ``charge`` makes every refusal.
"""

from __future__ import annotations

import os
import sys
from bisect import bisect_left, bisect_right
from itertools import filterfalse, islice, repeat
from math import isqrt
from operator import add, eq, ne
from typing import Callable, Sequence

from .analysis import fill_values
from .core import Instance, Solution, SolveOutcome, place, sort_by_length
from .errors import InstanceTooLarge, InvalidSetting, MemoryBudgetExceeded

DEFAULT_MEMORY_BUDGET_MB = 256
_BYTES_PER_ENTRY = 128  # nominal cost of one stored sum or bucket slot
# an entry of SparseSums.seen: set builds and updates of 10 to 1.5 M ints peaked
# at 133 B per entry in a resize below 50,000 entries, 80 B above (tracemalloc)
_SEEN_BYTES = 128
BRUTE_FORCE_CAP = 25  # largest n that brute_force_optimum enumerates


def memory_budget_bytes() -> int:
    """The memory budget in bytes, from ISSP_MEMORY_BUDGET_MB (MiB)."""
    raw = os.environ.get("ISSP_MEMORY_BUDGET_MB", str(DEFAULT_MEMORY_BUDGET_MB))
    try:
        mb = int(raw)
    except ValueError:
        raise InvalidSetting(f"ISSP_MEMORY_BUDGET_MB must be an integer, got {raw!r}") from None
    if mb < 0:
        raise InvalidSetting(f"ISSP_MEMORY_BUDGET_MB must be at least 0, got {mb}")
    return mb * 1024 * 1024


def charge(nbytes: int, budget: int, what: str) -> None:
    """Refuse ``what`` before it is allocated when its ``nbytes`` are over
    ``budget`` bytes; every MemoryBudgetExceeded is raised here.  A "{}" in
    ``what`` is where the message names ``nbytes``."""
    if nbytes > budget:
        message = f"{what.format(nbytes)}, over the memory budget of {budget} B"
        raise MemoryBudgetExceeded(message + "; raise ISSP_MEMORY_BUDGET_MB to override")


def brute_force_optimum(inst: Instance) -> SolveOutcome:
    """Exhaustive optimum over subsets; oracle for small instances.

    A subset S is feasible when its lower endpoints fit (sum lo <= T) and
    achieves value min(sum of its upper endpoints, T).  Depth-first
    enumeration prunes branches whose lower-endpoint sum already exceeds T.
    """
    n = inst.n
    if n > BRUTE_FORCE_CAP:
        raise InstanceTooLarge(f"n = {n} exceeds the enumeration cap {BRUTE_FORCE_CAP}")
    t = inst.target
    lo, hi = inst.lo, inst.hi
    best_value = 0
    best_subset: list[int] = []
    chosen: list[int] = []

    def dfs(i: int, lo_sum: int, hi_sum: int) -> None:
        nonlocal best_value, best_subset
        value = min(hi_sum, t)
        if value > best_value:
            best_value = value
            best_subset = chosen.copy()
        if i == n or best_value == t:
            return
        dfs(i + 1, lo_sum, hi_sum)  # skip interval i, then take it
        if best_value == t:
            return
        if lo_sum + lo[i] <= t:
            chosen.append(i)
            dfs(i + 1, lo_sum + lo[i], hi_sum + hi[i])
            chosen.pop()

    dfs(0, 0, 0)
    return SolveOutcome(
        solution=place(inst, fill_values(lo, hi, best_subset, t)),
        value=best_value,
        kind="exact",
        stats={"subset": tuple(best_subset)},
    )


# Representation choice.  Per item, BitsetSums costs time in proportion to
# the largest reachable sum (at most T), SparseSums to the sums stored (at
# most min(T, 3^n)).  On random instances, n = 7..13, lo uniform in
# [1, 2.75 T / n], hi in [lo, 2 lo], T = r * 3^n (nine per n; each set built
# over all n items, then its largest sum backtracked; Python 3.11, 2-vCPU
# x86 VM), the bitset's median speed-up was 1.9x at r = 32 (0.9-3.3x across
# n), 0.9x at r = 64 (0.4-2.1x) and 0.5x at r = 128 (0.3-1.9x).  The sets
# held about 0.33 * 3^n sums, so at r = 32 both sides budget about the same
# bytes (n = 13: 88 MB of bitset_bytes, 67 MB at 128 B per sum).
BITSET_DENSITY = 32

_DIGIT_BYTES = sys.int_info.sizeof_digit
_DIGIT_BITS = sys.int_info.bits_per_digit
_INT_HEADER = sys.getsizeof(1) - _DIGIT_BYTES
# ints of T + 1 bits alive during one step besides the checkpoints, the set
# and a replayed segment: one mask (the scan's, or the backtrack's at its
# residual) and two shifted sets of up to 2T bits, two ints each
_BITSET_WORKING = 5


def _int_bytes(bits: int) -> int:
    return _INT_HEADER + _DIGIT_BYTES * -(-bits // _DIGIT_BITS)


def _checkpoint_step(n: int) -> int:
    return max(1, isqrt(n))


def bitset_bytes(n: int, t: int) -> int:
    """Peak bytes of BitsetSums over n items below T = t in ints of t + 1
    bits: n // step + 1 checkpoints, a replayed segment of at most ``step``
    states while backtracking, and ``_BITSET_WORKING`` temporaries."""
    step = _checkpoint_step(n)
    return (n // step + 1 + step + _BITSET_WORKING) * _int_bytes(t + 1)


def use_bitset(n: int, t: int, wide: int) -> bool:
    """True when BitsetSums should hold the sums <= t of n items, ``wide`` of
    them with lo < hi: at most 3^wide * 2^(n - wide) sums."""
    # the bound passes t once 2^n does, at the bit length of t; it is then t
    dense = n >= t.bit_length() or t <= BITSET_DENSITY * (3**wide << n - wide)
    return dense and bitset_bytes(n, t) <= memory_budget_bytes()


# SparseSums keeps its newest items pending while their block of sums,
# times BLOCK_WEIGHT, is at most the stored sums: a block sum costs a
# C-level bisect per lookup and a few set steps per item added, about what
# a stored sum costs per build, and a pending item the scan never reaches
# is never built.  Weights 8 / 16 / 32 / 64 / 128 took 0.03 / 0.03 / 0.04 /
# 0.04 / 0.05 s over the exact-sparse workload's 100 instances (family C,
# n = 14, c = 11/10; run_dp with SparseSums, best of 5; Python 3.11, 2-vCPU
# x86 VM), against 0.16 s with only the last item pending.  Where sums
# repeat, the block saves less: on 60 or 100 items [10^4 + 397k,
# 10^4 + 410k] (T = 6 x 10^6 or 10^7), over the builds both made before a
# count of unfiltered sums refused them, its lookups and sums came to
# 15 / 8 / 4 / 2 % of the sums those builds touch at weights 16 / 32 / 64 / 128.
BLOCK_WEIGHT = 64
_NEEDS = "the reachable-sum set needs {} B"


def _sumset(block: list[int], lo: int, hi: int, t: int) -> list[int]:
    """Sorted distinct sums <= t of p, p + lo and p + hi over p in block."""
    out = set(block)
    out.update(map(lo.__add__, islice(block, bisect_right(block, t - lo))))
    out.update(map(hi.__add__, islice(block, bisect_right(block, t - hi))))
    return sorted(out)


def largest_sum_le(block: list[int], values: list[int], bound: int) -> int:
    """Largest p + v <= bound over p in ``block`` (sorted, 0 included) and v
    in ``values`` (sorted) or 0: the two halves meet in the middle (Horowitz
    and Sahni, 1974), with one C-level bisect of ``values`` per p."""
    best = block[bisect_right(block, bound) - 1]  # a block sum alone
    if values:
        # the p that some v <= bound - p completes
        ps = block[: bisect_right(block, bound - values[0])]
        cuts = map(bisect_right, repeat(values), map(bound.__sub__, ps))
        tops = map(values.__getitem__, map((-1).__add__, cuts))
        best = max(best, max(map(add, ps, tops), default=0))
    return best


def backtrack_items(
    d: int, first: int, before: list, lo: Sequence, hi: Sequence, reached: Callable, x: dict
) -> int:
    """Walk items first + len(before) - 1 down to first from the sum d, and
    return the sum left; ``before`` is emptied from its end.

    ``reached(before[k - first], s)`` tells whether s > 0 was reachable
    before item k.  Item k is skipped when d was; otherwise it takes hi if
    d - hi > 0 was, else lo if d - lo > 0 was, else d itself (a lone
    endpoint), and d drops by ``x[k]``, the endpoint taken.  These are the
    item and endpoint ``SparseSums._build`` records when it first reaches d.
    """
    for k in range(first + len(before) - 1, first - 1, -1):
        r = before.pop()
        if not reached(r, d):
            e = x[k] = hi[k] if reached(r, d - hi[k]) else lo[k] if reached(r, d - lo[k]) else d
            d -= e
            if not d:
                break
    return d


class SparseSums:
    """Reachable sums in (0, T] as a sorted list and first-reach runs.

    ``values`` is sorted for ``largest_le`` and for slicing the sums an
    endpoint can extend.  ``firsts`` keeps, in item order, the sums each
    item reached first: its ``d + hi`` run, then its ``d + lo`` run, each
    sorted, with a lone endpoint at the head of its run (it is smaller than
    every shifted sum).  Item k's runs are ``firsts[ends[2k]:ends[2k + 1]]``
    (hi) and ``firsts[ends[2k + 1]:ends[2k + 2]]`` (lo).  ``seen`` is None
    until an item's runs and the stored sums first share a sum; from then
    on it is a set of the stored sums that filters each run down to the
    sums not yet stored.  Backtracking is given the endpoint columns after
    the scan; ``n`` is unused, so that both exact sets are built as
    ``sums(n, t)``.  The budget is read once, in bytes.  A sum is charged
    ``per_sum``, its int at T's width and two list slots (the list's and a
    merge's), at least ``_BYTES_PER_ENTRY`` (T of up to about 660 bits);
    once ``seen`` exists, a stored sum is charged ``_SEEN_BYTES`` more.

    Items ``[0, h)`` are built into those lists; the newest items ``[h, k)``
    are ``pending``, unbuilt, and ``block`` holds their sums <= T, 0
    included, sorted.  A reachable sum is p + v with p in the block and v
    stored or 0 (``largest_sum_le``).  Once the block's sums times
    ``BLOCK_WEIGHT`` exceed the stored sums, ``add`` builds the oldest
    pending items, one at a time, each charged first, until they are at
    most half the stored sums; it always keeps the newest item pending.
    ``snapshot`` builds them all, and ``stored`` leaves their sums out.
    """

    name = "sparse"

    def __init__(self, n: int, t: int) -> None:
        self.t = t
        self.budget = memory_budget_bytes()
        self.per_sum = max(_BYTES_PER_ENTRY, _int_bytes(t.bit_length()) + 2 * 8)
        self.values: list[int] = []
        self.seen: set[int] | None = None  # built when a sum first repeats
        self.firsts: list[int] = []
        self.ends = [0]
        self.pending: list[tuple[int, int]] = []  # (lo, hi) of items h .. k - 1
        self.block = [0]

    def largest_le(self, bound: int) -> int:
        """Largest sum <= bound, or 0; see ``largest_sum_le``."""
        return largest_sum_le(self.block, self.values, bound)

    def add(self, i: int, lo: int, hi: int) -> None:
        """Keep item i pending, and build the oldest pending items once the
        block costs more than building them."""
        values, block, t, per_sum = self.values, self.block, self.t, self.per_sum
        # the block's sums are charged with the stored ones before it grows
        cuts = bisect_right(block, t - hi) + (bisect_right(block, t - lo) if lo != hi else 0)
        per_stored = per_sum if self.seen is None else per_sum + _SEEN_BYTES
        charge(per_sum * (len(block) - 1 + cuts) + per_stored * len(values), self.budget, _NEEDS)
        pending = self.pending
        pending.append((lo, hi))
        self.block = _sumset(block, lo, hi, t)
        if len(pending) > 1 and len(self.block) * BLOCK_WEIGHT > len(values):
            # one fold from the newest item gives the block after each build;
            # building until it costs half as much spreads the fold's cost
            after = [[0]]
            for a, b in pending[:0:-1]:
                after.append(_sumset(after[-1], a, b, t))
            while True:
                self._build()
                self.block = after.pop()
                if len(pending) == 1 or 2 * len(self.block) * BLOCK_WEIGHT <= len(self.values):
                    break

    def _build(self) -> None:
        """Build the oldest pending item; the caller resets the block."""
        lo, hi = self.pending[0]
        values, seen, t, per_sum = self.values, self.seen, self.t, self.per_sum
        # The shifted runs take the stored sums up to each bisect cut, and
        # the lone endpoints join them; with lo == hi the lo shift repeats
        # the hi shift, so it is skipped and the lone point takes the lo run.
        cut_hi = bisect_right(values, t - hi)
        cut_lo = bisect_right(values, t - lo) if lo != hi else 0
        if seen is None:
            # Until a sum repeats, every sum on a run is new, so the charge is
            # the new size exactly: the runs are the first-reach runs as they
            # stand, with a lone endpoint (below every shifted sum) at the head.
            new = cut_hi + cut_lo + (lo <= t) + (lo != hi and hi <= t)
            charge(per_sum * (len(values) + new), self.budget, _NEEDS)
            hi_run = [hi] if lo != hi and hi <= t else []
            hi_run += map(hi.__add__, islice(values, cut_hi))
            lo_run = [lo] if lo <= t else []
            lo_run += map(lo.__add__, islice(values, cut_lo))
            merged = values + hi_run
            merged += lo_run
            merged.sort()
            if any(map(eq, merged, islice(merged, 1, None))):
                del merged, hi_run, lo_run  # freed before the set, charged here, is built
                charge((per_sum + _SEEN_BYTES) * len(values), self.budget, _NEEDS)
                self.seen = seen = set(values)
            else:
                self.values = merged
        if seen is not None:
            # From the first repeat on, ``seen`` filters the runs down to the
            # new sums before they are charged.  A sum on both runs takes the
            # hi link, from the smaller predecessor: s = lo + v is on the hi
            # run when s - hi is stored, and a lone hi is on the lo run when
            # hi - lo is.  These are the links backtrack_items picks, so both
            # representations give one solution.
            hi_run = list(filterfalse(seen.__contains__, map(hi.__add__, islice(values, cut_hi))))
            lo_run = filterfalse(seen.__contains__, map(lo.__add__, islice(values, cut_lo)))
            lo_run = [s for s in lo_run if s - hi not in seen]
            if lo <= t and lo not in seen:
                lo_run.insert(0, lo)
            if lo != hi and hi <= t and hi not in seen and hi - lo not in seen:
                hi_run.insert(0, hi)
            new = len(hi_run) + len(lo_run)
            charge((per_sum + _SEEN_BYTES) * (len(values) + new), self.budget, _NEEDS)
            seen.update(hi_run)
            seen.update(lo_run)
            # the one sort merges three runs: the stored sums, hi_run and lo_run
            values += hi_run
            values += lo_run
            values.sort()
        firsts = self.firsts
        firsts += hi_run
        self.ends.append(len(firsts))
        firsts += lo_run
        self.ends.append(len(firsts))
        del self.pending[0]

    def stored(self) -> int:
        """Sums built so far; the pending items' are not counted."""
        return len(self.values)

    def snapshot(self) -> tuple[int, ...]:
        while self.pending:
            self._build()
        self.block = [0]
        return tuple(self.values)

    def backtrack(
        self, d: int, m: int | None, lo: Sequence[int], hi: Sequence[int]
    ) -> dict[int, int]:
        """Endpoint per item position of the sum d over the first m items,
        whose endpoints are ``lo[k]`` and ``hi[k]``.

        The pending items, newest first, take ``backtrack_items``'s steps.
        Then a built item k takes hi when d is on its hi run and lo when d
        is on its lo run, and d drops by that endpoint.  The sum left over
        was stored before item k, so an earlier item reached it first, and
        each item is looked at once.
        """
        x: dict[int, int] = {}
        firsts, ends, values = self.firsts, self.ends, self.values
        h = len(ends) // 2  # items built
        if d and m > h:  # items h .. m - 1 are pending
            before = [[0]]  # before[j - h]: sums <= d of pending items h .. j - 1
            for a, b in self.pending[: m - 1 - h]:
                before.append(_sumset(before[-1], a, b, d))
            d = backtrack_items(
                d, h, before, lo, hi, lambda ps, s: s > 0 and largest_sum_le(ps, values, s) == s, x
            )
            m = h
        if not d:  # also when no item was scanned and m is None
            return x
        stop = ends[2 * m]
        for k in range(m - 1, -1, -1):
            start, mid = ends[2 * k], ends[2 * k + 1]
            pos = bisect_left(firsts, d, start, mid)
            if pos < mid and firsts[pos] == d:
                e = x[k] = hi[k]
                d -= e
            else:
                pos = bisect_left(firsts, d, mid, stop)
                if pos < stop and firsts[pos] == d:
                    e = x[k] = lo[k]
                    d -= e
            if not d:
                break
            stop = start
        return x


def _extend(r: int, lo: int, hi: int, cut: int) -> int:
    """r | r << lo | r << hi as (r << (hi - lo) | r) << lo | r, two shifted ints
    at most, less shifts wholly above ``cut``; the caller cuts the result."""
    if lo > cut:
        return r
    if lo != hi <= cut:
        return (r << hi - lo | r) << lo | r
    return r << lo | r


class BitsetSums:
    """Reachable sums in [0, T] as the set bits of one int; bit 0 is the empty sum.

    A step past T is cut by one mask, built the first time; ``largest_le``
    reads windows just below its bound, 4x wider each time.  The bits after
    every ``step`` ~ sqrt(n) items are kept; backtracking replays one segment
    of items from its checkpoint at a time, cut at the residual d (it tests
    no bit above d), on the endpoint columns it is given after the scan.
    """

    name = "bitset"

    def __init__(self, n: int, t: int) -> None:
        self.t, self.reach = t, 1
        self.mask = 0  # (1 << t + 1) - 1 once a step reaches past t
        self.step = _checkpoint_step(n)
        self.marks = [1]  # marks[q] = reach after the first q * step items

    def largest_le(self, bound: int) -> int:
        """Largest reachable sum <= bound, or 0."""
        r, top = self.reach, bound + 1
        if r.bit_length() > top:
            # each window re-reads the bits above the bound: only if they are few
            width = 64 if 4 * (r.bit_length() - top) < top else top
            while width < top:
                window = r >> top - width & (1 << width) - 1
                if window:
                    return top - width + window.bit_length() - 1
                width *= 4
            r &= (1 << top) - 1
        return r.bit_length() - 1

    def add(self, i: int, lo: int, hi: int) -> None:
        t = self.t
        r = _extend(self.reach, lo, hi, t)
        if r.bit_length() > t + 1:
            self.mask = self.mask or (1 << t + 1) - 1
            r &= self.mask
        self.reach = r
        if (i + 1) % self.step == 0:
            self.marks.append(r)

    def stored(self) -> int:
        return self.reach.bit_count() - 1

    def snapshot(self) -> tuple[int, ...]:
        bits = bin(self.reach)[:1:-1]  # bit 0 first
        return tuple(s for s, c in enumerate(bits) if c == "1")[1:]

    def backtrack(self, d: int, m: int, los: Sequence[int], his: Sequence[int]) -> dict[int, int]:
        """Endpoint per item position of the sum d over the first m items,
        whose endpoints are ``los[k]`` and ``his[k]``; see ``backtrack_items``."""
        step = self.step
        x: dict[int, int] = {}
        j, self.mask = m, 0  # the scan's mask is freed; each segment has its own
        while d:
            base = (j - 1) // step * step
            cut = (1 << d + 1) - 1
            before = [self.marks[base // step] & cut]  # before[k - base]: bits before item k
            for k in range(base, j - 1):
                r = _extend(before[-1], los[k], his[k], d)
                before.append(r & cut if r.bit_length() > d + 1 else r)
            d = backtrack_items(d, base, before, los, his, lambda r, s: s > 0 and r >> s & 1, x)
            j = base
        return x


def scan(inst: Instance, reach, trace: bool = False) -> tuple:
    """The midrange scan of ``dp_exact`` and ``fptas_solve`` on ``reach``,
    an empty set.  For each length-sorted interval i with lo_i <= T, d is
    the largest stored sum <= T - lo_i (0 if none) and the candidate is
    min(d + hi_i, T); the first strict best is kept, and the scan stops once
    it reaches T.  Unless it stops, interval i then joins the set, whatever
    its lo.

    The (lo, hi) pairs are read through ``inst.stream()``, so a
    ``LengthOrder`` view is sorted only as far as the scan goes.

    Returns (m, delta, exit, states): the 0-based index of the interval
    that gave the best candidate (None when no interval has lo <= T), its
    d, the index at which the scan stopped at T (None when it saw every
    interval) and, with ``trace``, ``reach.snapshot()`` after each
    interval joined.
    """
    t = inst.target
    best, m, delta, exit_at = 0, None, 0, None
    states: list = []
    for i, (lo, hi) in enumerate(inst.stream()):
        if lo <= t:  # an interval above T can never be switched on
            d = reach.largest_le(t - lo)
            cand = min(d + hi, t)
            if cand > best:
                best, m, delta = cand, i, d
                if best == t:
                    exit_at = i
                    break
        reach.add(i, lo, hi)
        if trace:
            states.append(reach.snapshot())
    return m, delta, exit_at, states


def midrange_solution(
    inst: Instance, m: int | None, endpoints: dict[int, int], y: int
) -> tuple[Solution, int]:
    """Fill the midrange item m to min(hi_m, T - y) next to the endpoints
    chosen for the items before it, which sum to y.  ``endpoints`` maps
    length-sorted positions to values; m is added to it and ``place`` writes
    it to input order.  Returns the solution and its value; with m None only
    the endpoints are placed."""
    if m is not None:
        endpoints[m] = xm = min(inst.prefix(m + 1)[1][m], inst.target - y)
        y += xm
    return place(inst, endpoints), y


def run_dp(inst: Instance, sums: type, trace: bool = False) -> SolveOutcome:
    """``dp_exact`` with the reachable sums held by ``sums``, a class above.
    ``stats["stored_values"]`` counts the sums built.  Untraced, the sparse
    set never builds the pending block the scan leaves; traced, every
    snapshot builds it, so the count is the size of the last set in ``sets``.
    """
    if not inst.length_sorted:
        inst = sort_by_length(inst)
    reach = sums(inst.n, inst.target)
    m, delta, exit_at, states = scan(inst, reach, trace)
    lo, hi, _ = inst.prefix(m or 0)
    # when m is None, delta is 0 and backtrack places no item
    sol, value = midrange_solution(inst, m, reach.backtrack(delta, m, lo, hi), delta)
    stats: dict = {"stored_values": reach.stored(), "representation": reach.name}
    if trace:
        stats["sets"] = states
        # 1-based, matching midrange_index
        stats["early_exit_at"] = None if exit_at is None else exit_at + 1
        stats["delta_star"] = delta
    return SolveOutcome(
        solution=sol,
        value=value,
        kind="exact",
        midrange_index=None if m is None else m + 1,
        stats=stats,
    )


def dp_exact(inst: Instance, trace: bool = False) -> SolveOutcome:
    """Exact solve via reachable-sum sets over the length-sorted intervals.

    D_i holds every sum in (0, T] of one endpoint per chosen interval among
    the first i.  The value is max over i of min(d + hi_i, T), d the largest
    element of D_{i-1} <= T - lo_i (0 if none); the smallest such i is the
    only interval that may take a strictly interior value, the ones after
    it are 0 and the ones before it sit on endpoints, recovered by
    backtracking.  The sets are BitsetSums when ``use_bitset(n, W, a)``,
    else SparseSums: no sum exceeds W = min(T, sum of hi), and a items have
    lo < hi.  With ``trace=True`` the stats hold the per-iteration sets and
    the early-exit point, for verification.
    """
    lo, hi = inst.unsorted
    dense = use_bitset(inst.n, min(inst.target, sum(hi)), sum(map(ne, lo, hi)))
    return run_dp(inst, BitsetSums if dense else SparseSums, trace)

