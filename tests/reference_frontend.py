"""The instance parser, polynomial-route detectors and solution check as
first written.

These are the line-by-line parser with its per-pair validation loop, the
detectors that make one pass over the intervals per aggregate and test
c* >= 2 on a ``Fraction`` per interval, the routes' greedy fill with its
input-order placement, and the check that visits every entry of a
solution.  They are kept as the references for the chunked parser, the
C-level validation, the one-pass detectors, ``analysis.fill_values`` with
``core.place`` and the nonzero-only check in ``issp``, on small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from issp.core import Instance, Solution, SolveOutcome
from issp.errors import InputError, IsspError


def validate(pairs, target: int) -> Instance:
    if target < 1:
        raise InputError(f"target must be >= 1, got {target}")
    los, his = [], []
    for pos, (lo, hi) in enumerate(pairs):
        if lo < 1 or hi < 1:
            raise InputError(f"interval {pos}: endpoints must be >= 1, got [{lo}, {hi}]")
        if lo > hi:
            raise InputError(f"interval {pos}: lo {lo} > hi {hi}")
        los.append(lo)
        his.append(hi)
    return Instance(lo=tuple(los), hi=tuple(his), target=target, origin=range(len(los)))


def parse_instance_text(text: str) -> Instance:
    tokens: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens.extend(line.split())
    if len(tokens) < 2:
        raise InputError("instance file needs at least 'n T' on the first line")
    try:
        numbers = [int(tok) for tok in tokens]
    except ValueError as e:
        raise InputError(f"non-integer token in instance file: {e}") from e
    n, target = numbers[0], numbers[1]
    body = numbers[2:]
    if n < 0 or len(body) != 2 * n:
        raise InputError(f"expected {2 * max(n, 0)} endpoint tokens for n = {n}, got {len(body)}")
    pairs = [(body[2 * i], body[2 * i + 1]) for i in range(n)]
    return validate(pairs, target)


def fill(inst: Instance, subset: list[int]) -> Solution:
    """Each member of ``subset`` (positions in ``inst``'s order) at its
    lower endpoint, then raised in the order given toward its upper one
    until the total meets the target; returned in input order."""
    values = {i: inst.lo[i] for i in subset}
    total = sum(values.values())
    for i in subset:
        step = min(inst.hi[i] - inst.lo[i], inst.target - total)
        values[i] += step
        total += step
    x = [0] * inst.input.n
    for i, v in values.items():
        x[inst.origin[i]] = v
    return Solution(tuple(x))


def min_interval_length(inst: Instance) -> Optional[int]:
    if not inst.n:
        return None
    return min(inst.hi[i] - inst.lo[i] for i in range(inst.n))


def large_target(inst: Instance) -> bool:
    """T >= ceil(max lo / min length) * max lo; False if a length is 0."""
    if not inst.n:
        return False
    min_len = min_interval_length(inst)
    if min_len == 0:
        return False
    max_lo = max(inst.lo)
    bound = -(-max_lo // min_len) * max_lo
    return inst.target >= bound


def check_wide(inst: Instance) -> Optional[Fraction]:
    if not inst.n:
        return None
    return min(Fraction(inst.hi[i], inst.lo[i]) for i in range(inst.n))


def solve_polynomial(inst: Instance) -> Optional[SolveOutcome]:
    t = inst.target
    if not inst.n:
        return None

    def outcome(sol: Solution, route: str) -> SolveOutcome:
        return SolveOutcome(
            solution=sol,
            value=sol.total,
            kind="exact",
            stats={"route": route},
        )

    lo_total = sum(inst.lo)
    if t >= lo_total:
        return outcome(fill(inst, list(range(inst.n))), "a")

    if large_target(inst):
        acc = 0
        prefix_end = 0
        for i, lo in enumerate(inst.lo):
            if acc + lo > t:
                break
            acc += lo
            prefix_end = i + 1
        prefix = list(range(prefix_end))
        hi_sum = sum(inst.hi[i] for i in prefix)
        if hi_sum < t:
            raise IsspError("large-target route: prefix upper endpoints do not cover the target")
        return outcome(fill(inst, prefix), "b")

    cstar = check_wide(inst)
    hi_total = sum(inst.hi)
    if cstar is not None and cstar >= 2 and max(inst.hi) < t <= hi_total:
        chosen: list[int] = []
        lo_sum = hi_sum = 0
        for i, (lo, hi) in enumerate(zip(inst.lo, inst.hi)):
            if lo_sum + lo > t:
                break
            lo_sum += lo
            hi_sum += hi
            chosen.append(i)
        if hi_sum < t:
            raise IsspError("wide-interval route: prefix upper endpoints do not cover the target")
        return outcome(fill(inst, chosen), "c")

    return None


def evaluate(inst: Instance, sol: Solution) -> int:
    ref = inst.original
    if len(sol.values) != len(ref):
        raise IsspError(
            f"solution has {len(sol.values)} entries, instance has {len(ref)} intervals"
        )
    total = 0
    for i, (x, (lo, hi)) in enumerate(zip(sol.values, ref)):
        if x != 0 and not (lo <= x <= hi):
            raise IsspError(f"x[{i}] = {x} outside [{lo}, {hi}] and nonzero")
        total += x
    if total > inst.target:
        raise IsspError(f"total {total} exceeds target {inst.target}")
    return total
