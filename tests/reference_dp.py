"""The per-sum ``insort`` exact DP, kept as the reference for ``dp_exact``.

This is the reachable-sum DP as first written: one ``bisect.insort`` per
new sum and a 3-tuple provenance record per stored sum.  It is quadratic in
the number of stored sums, so it serves only as the differential oracle for
the two representations in ``issp.exact``, on small inputs.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from issp.core import Instance, sort_by_length


def insort_dp(inst: Instance) -> dict:
    """Value, endpoint solution, midrange index and trace of the insort DP.

    The solution is in length-sorted order; ``stored_values``, ``sets``,
    ``early_exit_at`` and ``delta_star`` mean what they mean in
    ``dp_exact(inst, trace=True).stats``.
    """
    if not inst.length_sorted:
        inst = sort_by_length(inst)
    t = inst.target
    n = inst.n
    values: list[int] = []
    provenance: dict[int, tuple[int, int, int]] = {}
    best = 0
    m = None
    delta_star_m = 0
    early_exit_at = None
    sets_trace = []

    for i in range(n):
        iv = inst.intervals[i]
        bound = t - iv.lo
        pos = bisect_right(values, bound)
        delta_star = values[pos - 1] if pos else 0
        cand = min(delta_star + iv.hi, t)
        if cand > best:
            best = cand
            m = i
            delta_star_m = delta_star
        if best == t:
            early_exit_at = i
            break
        new_vals = []
        for d in values:
            for e in (d + iv.lo, d + iv.hi):
                if e <= t and e not in provenance:
                    provenance[e] = (d, i, e - d)
                    new_vals.append(e)
        for e in (iv.lo, iv.hi):
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
        x[m] = min(inst.intervals[m].hi, t - delta_star_m)
    return {
        "value": best,
        "x": tuple(x),
        "midrange_index": None if m is None else m + 1,
        "stored_values": len(values),
        "sets": sets_trace,
        "early_exit_at": None if early_exit_at is None else early_exit_at + 1,
        "delta_star": delta_star_m,
    }
