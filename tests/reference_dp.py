"""DP references: the per-sum ``insort`` exact DP and the rebuilding D&C.

``insort_dp`` is the reachable-sum DP as first written: one
``bisect.insort`` per new sum and a 3-tuple provenance record per stored
sum.  It is quadratic in the number of stored sums, so it serves only as
the differential oracle for the two representations in ``issp.exact``, on
small inputs.

``rebuild_dc`` is the FPTAS reconstruction as first written: every level
re-runs ``relaxed_dp`` on the second half at its updated target, where
``issp.fptas`` takes the second half's backtrack from its first run when a
re-run would end with the same arrays.  Its backtrack, ``flagged_backtrack``,
is the walk as first written too: it looks its start up by value and
follows a bucket minimum only when the start lies within eps*T of the
target, where ``issp.fptas.backtrack`` always may.  It is the reference for
``divide_and_conquer``.

``decoded_slots`` reads a ``BucketArray``'s producer codes back into the
six lists the array first kept: values, positions and endpoints (1 = lo,
2 = hi) per bucket minimum and maximum.

``FilteredSums`` is ``issp.exact.SparseSums`` as first written: a set of the
stored sums filters every item's shifted runs, where ``SparseSums`` builds
its set only when a sum first repeats.  Both must hold the same ``values``,
``firsts`` and ``ends`` after every item.

``FullWidthBitset`` is ``issp.exact.BitsetSums`` as first written: every
step builds a fresh mask per endpoint, ``largest_le`` masks the whole set
below its bound, and the backtrack replays each segment at the full width
of T, where ``BitsetSums`` caches one mask, reads a window below the bound
and cuts each replay at the residual sum.  Both must give one answer, one
trace and one backtrack from every reachable sum.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from itertools import filterfalse, islice

from issp.core import Instance, sort_by_length
from issp.errors import IsspError
from issp.exact import BitsetSums, SparseSums, backtrack_items
from issp.fptas import BucketArray, FptasParams, Item, Number, find_u1_u2, relaxed_dp


def insort_dp(inst: Instance) -> dict:
    """Value, endpoint solution, midrange index and trace of the insort DP.

    The solution is in length-sorted order; ``stored_values``, ``sets``,
    ``early_exit_at`` and ``delta_star`` mean what they mean in
    ``dp_exact(inst, trace=True).stats``.
    """
    inst = sort_by_length(inst)
    t = inst.target
    n = inst.n
    los, his, _ = inst.prefix(n)
    values: list[int] = []
    provenance: dict[int, tuple[int, int, int]] = {}
    best = 0
    m = None
    delta_star_m = 0
    early_exit_at = None
    sets_trace = []

    for i in range(n):
        lo, hi = los[i], his[i]
        bound = t - lo
        pos = bisect_right(values, bound)
        delta_star = values[pos - 1] if pos else 0
        cand = min(delta_star + hi, t)
        if cand > best:
            best = cand
            m = i
            delta_star_m = delta_star
        if best == t:
            early_exit_at = i
            break
        new_vals = []
        for d in values:
            for e in (d + lo, d + hi):
                if e <= t and e not in provenance:
                    provenance[e] = (d, i, e - d)
                    new_vals.append(e)
        for e in (lo, hi):
            if e <= t and e not in provenance:
                provenance[e] = (0, i, e)
                new_vals.append(e)
        for e in new_vals:
            insort(values, e)
        sets_trace.append(tuple(values))

    x = [0] * n
    if m is not None:
        d = delta_star_m
        while d:
            pred, idx, endpoint = provenance[d]
            x[idx] = endpoint
            d = pred
        x[m] = min(his[m], t - delta_star_m)
    return {
        "value": best,
        "x": tuple(x),
        "midrange_index": None if m is None else m + 1,
        "stored_values": len(values),
        "sets": sets_trace,
        "early_exit_at": None if early_exit_at is None else early_exit_at + 1,
        "delta_star": delta_star_m,
    }


class FilteredSums(SparseSums):
    """``SparseSums`` with a set that filters every item's runs; no budget."""

    def __init__(self, n: int, t: int) -> None:
        super().__init__(n, t)
        self.seen = set()

    def add(self, i: int, lo: int, hi: int) -> None:
        values, seen, t = self.values, self.seen, self.t
        # a sum on both runs takes the hi link; then come the lo run and
        # the lone endpoints, lo first
        fits = islice(values, bisect_right(values, t - hi))
        hi_run = list(filterfalse(seen.__contains__, map(hi.__add__, fits)))
        seen.update(hi_run)
        fits = islice(values, bisect_right(values, t - lo))
        lo_run = list(filterfalse(seen.__contains__, map(lo.__add__, fits)))
        seen.update(lo_run)
        if lo <= t and lo not in seen:
            seen.add(lo)
            lo_run.insert(0, lo)
        if hi <= t and hi not in seen:
            seen.add(hi)
            hi_run.insert(0, hi)
        self.firsts += hi_run
        self.ends.append(len(self.firsts))
        self.firsts += lo_run
        self.ends.append(len(self.firsts))
        values += hi_run
        values += lo_run
        values.sort()


def low_bits(r: int, k: int) -> int:
    """The k lowest bits of r; no mask is built when r has no more than k."""
    return r if r.bit_length() <= k else r & ((1 << k) - 1)


def full_extend(r: int, lo: int, hi: int, t: int) -> int:
    """Reachable-set bits r after one more item [lo, hi], cut at t."""
    out = r
    for e in {lo, hi}:
        if e <= t:
            out |= low_bits(r, t - e + 1) << e
    return out


class FullWidthBitset(BitsetSums):
    """``BitsetSums`` with its steps, lookups and replays at full width."""

    def largest_le(self, bound: int) -> int:
        return low_bits(self.reach, bound + 1).bit_length() - 1

    def add(self, i: int, lo: int, hi: int) -> None:
        self.reach = full_extend(self.reach, lo, hi, self.t)
        if (i + 1) % self.step == 0:
            self.marks.append(self.reach)

    def backtrack(self, d, m, los, his):
        t, step = self.t, self.step
        x: dict[int, int] = {}
        j = m
        while d:
            base = (j - 1) // step * step
            before = [self.marks[base // step]]
            for k in range(base, j - 1):
                before.append(full_extend(before[-1], los[k], his[k], t))
            d = backtrack_items(d, base, before, los, his, lambda r, s: s > 0 and r >> s & 1, x)
            j = base
        return x


def producer(src: int) -> tuple[int, int]:
    """(position, endpoint) of a producer code, endpoint 1 = lo, 2 = hi."""
    return src >> 1, 1 + (src & 1)


def decoded_slots(b: BucketArray) -> dict[str, list[int]]:
    """``neg``, ``pos`` and the producers of their values as the lists
    ``neg_d1``, ``neg_d2``, ``pos_d1`` and ``pos_d2``; an empty slot's
    producer reads (0, 0)."""
    slots = {"neg": b.neg, "pos": b.pos}
    for side, vals, codes in (("neg", b.neg, b.neg_src), ("pos", b.pos, b.pos_src)):
        pairs = [producer(src) if v else (0, 0) for v, src in zip(vals, codes)]
        slots[f"{side}_d1"] = [d1 for d1, _ in pairs]
        slots[f"{side}_d2"] = [d2 for _, d2 in pairs]
    return slots


def flagged_backtrack(
    b: BucketArray, items: list[Item], local_target: Number, params: FptasParams
) -> tuple[int, int, dict[int, int]]:
    """Walk from the largest stored value u <= local_target, following a
    bucket minimum only if u >= ceil(local_target - eps*T)."""
    u = b.largest_le(math.floor(local_target))
    if u == 0:
        raise IsspError("no stored value at or below the target")
    admissible = u >= math.ceil(local_target - params.eps_t)
    k = params.bucket_index(u)
    if b.pos[k] == u:
        d1, d2 = producer(b.pos_src[k])
    elif b.neg[k] == u:
        d1, d2 = producer(b.neg_src[k])
    else:
        raise IsspError(f"value {u} is not stored in its bucket")
    assignments: dict[int, int] = {}
    y = 0
    while True:
        j = bisect_left(items, (d1,))
        _, lo, hi = items[j]
        a = lo if d2 == 1 else hi
        assignments[d1] = a
        y += a
        u -= a
        if u == 0:
            return y, j, assignments
        k = params.bucket_index(u)
        if b.pos[k] == u and producer(b.pos_src[k])[0] < d1:
            d1, d2 = producer(b.pos_src[k])
        elif admissible and b.neg[k] == u and producer(b.neg_src[k])[0] < d1:
            d1, d2 = producer(b.neg_src[k])
        else:
            return y, j, assignments


def rebuild_dc(
    items: list[Item], local_target: Number, params: FptasParams
) -> tuple[int, dict[int, int]]:
    """``divide_and_conquer`` with the second half always re-run."""
    assignments: dict[int, int] = {}
    y = _rebuild_dc(items, local_target, params, assignments)
    return y, assignments


def _rebuild_dc(
    items: list[Item],
    t_local: Number,
    params: FptasParams,
    assignments: dict[int, int],
) -> int:
    if not items:
        return 0
    eps_t = params.eps_t
    half = -(-len(items) // 2)
    lam1, lam2 = items[:half], items[half:]
    b1 = relaxed_dp(lam1, t_local, params)
    b2 = relaxed_dp(lam2, t_local, params)
    u1, u2 = find_u1_u2(b1, b2, t_local, params)
    y1b = y1dc = y2b = y2dc = 0
    lam1_rest = lam1
    if t_local - u2 > eps_t:
        y1b, cut1, asg1 = flagged_backtrack(b1, lam1, t_local - u2, params)
        assignments.update(asg1)
        lam1_rest = lam1[:cut1]
    b1.release()
    b2.release()
    if t_local - u2 - y1b > eps_t:
        y1dc = _rebuild_dc(lam1_rest, t_local - u2 - y1b, params, assignments)
    lam2_rest = lam2
    if t_local - y1b - y1dc > eps_t:
        b2n = relaxed_dp(lam2, t_local - y1b - y1dc, params)
        y2b, cut2, asg2 = flagged_backtrack(b2n, lam2, t_local - y1b - y1dc, params)
        b2n.release()
        assignments.update(asg2)
        lam2_rest = lam2[:cut2]
    if t_local - y1b - y1dc - y2b > eps_t:
        y2dc = _rebuild_dc(lam2_rest, t_local - y1b - y1dc - y2b, params, assignments)
    return y1b + y1dc + y2b + y2dc
