"""Shared test helpers: an independent reference solver and strategies.

``reference_optimum`` deliberately shares no code with the package: it
walks every reachable total by trying every integer inside every interval,
so agreement with the package's solvers is meaningful evidence, not an
identity.
"""

from __future__ import annotations

from typing import Optional

from hypothesis import strategies as st

from issp.core import Instance, sort_by_length, validate
from issp.instgen import SplitMix64


def reference_optimum(pairs: list[tuple[int, int]], target: int) -> int:
    """Exhaustive reachable-total walk; exponential-ish, small inputs only."""
    reachable = {0}
    for lo, hi in pairs:
        new = set(reachable)
        for r in reachable:
            top = min(hi, target - r)
            for v in range(lo, top + 1):
                new.add(r + v)
        reachable = new
    return max(reachable)


def random_instance(rng: SplitMix64, max_n: int, max_end: int, max_t: int) -> Instance:
    """Uniform small instance from a seeded stream (for bulk sweeps)."""
    n = rng.randint(max_n)
    pairs = []
    for _ in range(n):
        a = rng.randint(max_end)
        b = rng.randint(max_end)
        pairs.append((min(a, b), max(a, b)))
    return validate(pairs, rng.randint(max_t))


@st.composite
def instances(draw, max_n: int = 8, max_end: int = 40, max_t: int = 160):
    """Hypothesis strategy for small valid instances."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = []
    for _ in range(n):
        lo = draw(st.integers(min_value=1, max_value=max_end))
        hi = draw(st.integers(min_value=lo, max_value=max_end))
        pairs.append((lo, hi))
    target = draw(st.integers(min_value=1, max_value=max_t))
    return validate(pairs, target)


def eager_sort(inst: Instance) -> Instance:
    """``inst`` stable-sorted by length at once into a plain Instance of
    tuples: the reference for a lazily sorted ``LengthOrder`` view."""
    order = sorted(range(inst.n), key=lambda i: inst.hi[i] - inst.lo[i])
    return Instance(
        lo=tuple(inst.lo[i] for i in order),
        hi=tuple(inst.hi[i] for i in order),
        target=inst.target,
        origin=tuple(inst.origin[i] for i in order),
        source=inst.input,
    )


def exit_instance(n: int, k: Optional[int]) -> Instance:
    """n intervals on which the midrange scan first reaches T at item k of
    the length order, or never for k None.

    In length order item j is [B, B + j // 2], so lengths tie in pairs and
    item 0 has length 0; the input lists them in reverse.  T = (k + 1) B
    with B = 2 n^2: every sum of i items lies in [iB, iB + n^2 / 4], so
    item k is the first whose candidate can reach T, and it does, from the
    sum kB of the first k lower endpoints.  A bucket (T / l wide, l >= 1000)
    is narrower than the gap below kB, so kB stays its bucket's minimum and
    the FPTAS exits at item k as well.
    """
    b = 2 * n * n
    pairs = [(b, b + j // 2) for j in reversed(range(n))]
    return validate(pairs, (n + 1 if k is None else k + 1) * b)


def chunk_ends(n: int) -> list[int]:
    """The ``materialized`` counts a ``LengthOrder`` view of n intervals
    passes through as it is read to the end, under the current constants."""
    view = sort_by_length(validate([(1, 1)] * n, 1))
    ends = [view.materialized]
    while ends[-1] < n:
        view.prefix(ends[-1] + 1)
        ends.append(view.materialized)
    return ends
