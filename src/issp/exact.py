"""Ground-truth solvers: subset enumeration and the exact dynamic program.

``brute_force_optimum`` enumerates subsets using the knapsack value map
(max over subsets S with sum lo <= T of min(sum hi, T)) and is the test
oracle for small n.

``dp_exact`` maintains, for each prefix of the length-sorted intervals, the
full set of reachable endpoint sums in (0, T] together with provenance
records, enumerates the one possible strictly-interior ("midrange")
interval, and reconstructs an optimal solution by backtracking.  Time and
space are pseudo-polynomial (proportional to the number of reachable sums),
so the run is gated by an explicit memory budget.
"""

from __future__ import annotations

import os
import time
from bisect import bisect_right, insort

from .analysis import fill_values
from .core import Instance, SolveOutcome, scatter_solution, sort_by_length
from .errors import InstanceTooLarge, InvalidSetting, MemoryBudgetExceeded

DEFAULT_MEMORY_BUDGET_MB = 256
_BYTES_PER_ENTRY = 128  # nominal cost of one reachable value + provenance


def memory_budget_entries() -> int:
    """Max number of stored reachable sums, from ISSP_MEMORY_BUDGET_MB."""
    raw = os.environ.get("ISSP_MEMORY_BUDGET_MB", str(DEFAULT_MEMORY_BUDGET_MB))
    try:
        mb = int(raw)
    except ValueError:
        raise InvalidSetting(f"ISSP_MEMORY_BUDGET_MB must be an integer, got {raw!r}") from None
    return mb * 1024 * 1024 // _BYTES_PER_ENTRY


def brute_force_optimum(inst: Instance, cap: int = 25) -> SolveOutcome:
    """Exhaustive optimum over subsets; oracle for small instances.

    A subset S is feasible when its lower endpoints fit (sum lo <= T) and
    achieves value min(sum of its upper endpoints, T).  Depth-first
    enumeration prunes branches whose lower-endpoint sum already exceeds T.
    """
    start = time.perf_counter()
    n = inst.n
    if n > cap:
        raise InstanceTooLarge(f"n = {n} exceeds the enumeration cap {cap}")
    t = inst.target
    intervals = inst.intervals
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
        # skip interval i
        dfs(i + 1, lo_sum, hi_sum)
        if best_value == t:
            return
        # take interval i
        iv = intervals[i]
        if lo_sum + iv.lo <= t:
            chosen.append(i)
            dfs(i + 1, lo_sum + iv.lo, hi_sum + iv.hi)
            chosen.pop()

    dfs(0, 0, 0)
    values = fill_values(intervals, best_subset, t)
    sol = scatter_solution(inst, [values.get(i, 0) for i in range(n)])
    return SolveOutcome(
        solution=sol,
        value=best_value,
        kind="exact",
        stats={"elapsed": time.perf_counter() - start, "subset": tuple(best_subset)},
    )


def dp_exact(inst: Instance, trace: bool = False) -> SolveOutcome:
    """Exact solve via reachable-sum sets over the length-sorted intervals.

    For each prefix i the set D_i holds every sum of one endpoint per chosen
    interval among the first i that lies in (0, T].  The best value is
    max over i of min(d + hi_i, T) where d is the largest element of
    D_{i-1} not exceeding T - lo_i (0 if none).  The smallest i attaining
    the maximum (strict-improvement update) is the only interval that may
    take a strictly interior value; everything after it is 0, everything
    before it sits on an endpoint, recovered by walking provenance links.

    With ``trace=True`` the outcome's stats include the per-iteration sets
    and the early-exit point, for verification.
    """
    start = time.perf_counter()
    if not inst.length_sorted:
        inst = sort_by_length(inst)
    t = inst.target
    n = inst.n
    budget = memory_budget_entries()

    values: list[int] = []  # sorted reachable sums, all prefixes merged
    # provenance[v] = (predecessor sum or 0, interval position, endpoint value)
    provenance: dict[int, tuple[int, int, int]] = {}

    best = 0
    m: int | None = None
    delta_star_m = 0
    early_exit_at: int | None = None
    sets_trace: list[tuple[int, ...]] = []

    for i in range(n):
        iv = inst.intervals[i]
        bound = t - iv.lo
        # largest reachable sum from the first i intervals that is <= bound
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
        if len(values) + len(new_vals) > budget:
            raise MemoryBudgetExceeded(
                f"reachable-sum set would exceed {len(values) + len(new_vals)} entries "
                f"(budget {budget}); raise ISSP_MEMORY_BUDGET_MB to override"
            )
        for e in new_vals:
            insort(values, e)
        if trace:
            sets_trace.append(tuple(values))

    x = [0] * n
    if m is not None:
        d = delta_star_m
        while d:
            pred, idx, endpoint = provenance[d]
            x[idx] = endpoint
            d = pred
        x[m] = min(inst.intervals[m].hi, t - delta_star_m)

    sol = scatter_solution(inst, x)
    stats: dict = {"elapsed": time.perf_counter() - start, "stored_values": len(values)}
    if trace:
        stats["sets"] = sets_trace
        # 1-based, matching midrange_index
        stats["early_exit_at"] = None if early_exit_at is None else early_exit_at + 1
        stats["delta_star"] = delta_star_m
    return SolveOutcome(
        solution=sol,
        value=best,
        kind="exact",
        midrange_index=None if m is None else m + 1,
        stats=stats,
    )


def ssp_optimum_mitm(inst: Instance) -> int:
    """Exact optimum for pure subset-sum instances (lo == hi everywhere).

    Meet-in-the-middle: enumerate subset sums of each half, sort one half,
    and binary-search the best partner.  Handles n around 40 comfortably.
    """
    if any(iv.lo != iv.hi for iv in inst.intervals):
        raise ValueError("meet-in-the-middle path requires lo == hi everywhere")
    t = inst.target
    items = [iv.hi for iv in inst.intervals]
    half = len(items) // 2

    def sums(part: list[int]) -> list[int]:
        acc = [0]
        for a in part:
            acc += [s + a for s in acc if s + a <= t]
        return acc

    left = sums(items[:half])
    right = sorted(set(sums(items[half:])))
    best = 0
    for s in left:
        pos = bisect_right(right, t - s)
        if pos:
            best = max(best, s + right[pos - 1])
            if best == t:
                break
    return best
