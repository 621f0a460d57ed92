"""Span tracing and counting around issp's public calls, from outside the package.

``traced`` swaps module attributes for wrappers that record a span per
call; ``counted`` swaps ``BucketArray.insert`` and ``relaxed_dp`` for
counting wrappers.  The counting pass runs on its own op so its per-call
cost never lands inside a timed span.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, Optional

# (module, attribute, layer name); a layer's time metric is "<layer>_s".
# The core calls are wrapped under the names cli imported them as.
TRACED_CALLS = (
    ("cli", "parse_instance_text", "cli.parse"),
    ("cli", "preprocess", "core.preprocess"),
    ("cli", "sort_by_length", "core.sort"),
    ("analysis", "solve_polynomial", "analysis.detect"),
    ("fptas", "fptas_solve", "fptas.solve"),
    ("fptas", "divide_and_conquer", "fptas.dc"),
    ("fptas", "relaxed_dp", "fptas.relaxed_dp"),
    ("fptas", "backtrack", "fptas.backtrack"),
    ("fptas", "find_u1_u2", "fptas.pair"),
    ("exact", "dp_exact", "exact.dp"),
    ("cli", "evaluate", "core.verify"),
)

# Constant-time counts read from a call's arguments and result, after its
# span has closed.
NOTES: dict[str, Callable[[tuple, object], dict[str, int]]] = {
    "analysis.detect": lambda args, r: {"analysis.route_hits": int(r is not None)},
    "fptas.solve": lambda args, r: {
        # the scan stops at the mid-range item on early exit, else sees all n
        "fptas.scan_items": r.midrange_index if r.stats.get("early_exit") else args[0].n,
        "fptas.peak_slots": r.stats["peak_slots"],
    },
    "fptas.dc": lambda args, r: {"fptas.dc_items": len(args[0])},
    "fptas.relaxed_dp": lambda args, r: {"fptas.relaxed_dp_items": len(args[0])},
    "exact.dp": lambda args, r: {"exact.stored_values": r.stats["stored_values"]},
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index in Tracer.spans, -1 for an op's root span
    op: int


class Tracer:
    """In-memory span recorder; one root span named "op" per traced op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.notes: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        self.spans[sid].start = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op_span(self) -> Iterator[None]:
        self.op += 1
        sid = self.open("op")
        try:
            yield
        finally:
            self.close(sid)


def _span_wrapper(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    note = NOTES.get(layer)

    def wrapper(*args, **kwargs):
        sid = tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if note is not None:
            tracer.notes[tracer.op].update(note(args, result))
        return result

    return wrapper


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each ``obj.attr = new`` for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, new in targets:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def traced(mods: SimpleNamespace, tracer: Tracer):
    """Context in which every call in TRACED_CALLS records a span."""
    targets = []
    for module, attr, layer in TRACED_CALLS:
        obj = getattr(mods, module)
        targets.append((obj, attr, _span_wrapper(tracer, layer, getattr(obj, attr))))
    return patched(targets)


@contextmanager
def counted(mods: SimpleNamespace) -> Iterator[Counter]:
    """Count ``BucketArray.insert`` calls and the values ``relaxed_dp`` returns."""
    counts: Counter = Counter()
    insert = mods.fptas.BucketArray.insert
    relaxed_dp = mods.fptas.relaxed_dp

    def counting_insert(self, v, d1, d2):
        counts["fptas.bucket_inserts"] += 1
        return insert(self, v, d1, d2)

    def counting_relaxed_dp(items, local_target, params):
        b = relaxed_dp(items, local_target, params)
        counts["fptas.stored_values"] += len(b.values())
        return b

    with patched([
        (mods.fptas.BucketArray, "insert", counting_insert),
        (mods.fptas, "relaxed_dp", counting_relaxed_dp),
    ]):
        yield counts


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start: Optional[float] = None
        run_end = 0.0
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_start is not None and lo <= run_end:
                run_end = max(run_end, hi)
                continue
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        if run_start is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(tracer: Tracer, scale: Optional[dict[int, float]] = None) -> dict[str, float]:
    """Per-layer medians over the traced ops.

    Times are a layer's total span time within an op, times ``scale[op]``
    when given; ``fptas.scan_s`` is the self time of ``fptas_solve``
    (everything outside ``divide_and_conquer``).  Counts are per op.
    """
    selfs = self_times(tracer.spans)
    per_op: dict[int, Counter] = defaultdict(Counter)
    for s, self_s in zip(tracer.spans, selfs):
        if s.name == "op":
            continue
        k = scale[s.op] if scale else 1.0
        row = per_op[s.op]
        row[f"{s.name}_s"] += k * (s.end - s.start)
        row[f"{s.name}_calls"] += 1
        if s.name == "fptas.solve":
            row["fptas.scan_s"] += k * self_s
    for op, notes in tracer.notes.items():
        per_op[op].update(notes)
    for row in per_op.values():
        row["fptas.dc_rescan_ratio"] = (
            row["fptas.relaxed_dp_items"] / row["fptas.dc_items"] if row["fptas.dc_items"] else 0.0
        )
        row["exact.sums_per_s"] = (
            row["exact.stored_values"] / row["exact.dp_s"] if row["exact.dp_s"] else 0.0
        )
    keys = set().union(*per_op.values()) if per_op else set()
    return {k: statistics.median(row[k] for row in per_op.values()) for k in keys}


def dump(spans: list[Span]) -> list[list]:
    """Spans as JSON-ready rows: name, start, end, parent, op."""
    return [[s.name, s.start, s.end, s.parent, s.op] for s in spans]
