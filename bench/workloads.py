"""Workloads of the solve benchmark: instance set-up, the timed op and its checks.

An op runs every instance of a workload once through the calls ``issp solve``
makes: ``cli.parse_instance_text``, then ``cli._solve_instance`` (preprocess,
sort, then ``analysis.solve_polynomial`` and ``fptas.fptas_solve`` for
``algorithm="auto"``, or ``exact.dp_exact`` for ``algorithm="dp"``), then
``cli.evaluate``.  The benchmark calls the CLI's own dispatch, so a change
there is measured; the tracing pass wraps the module attributes it looks up.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

MODULES = ("cli", "core", "analysis", "fptas", "exact", "instgen", "errors")


@dataclass(frozen=True)
class Spec:
    """One workload: which instances and which solver."""

    family: str  # instance family of issp.instgen, "B" or "C"
    n: int
    algorithm: str  # "auto" (detectors, then FPTAS) or "dp" (exact DP)
    epsilon: Optional[Fraction] = None
    c: Optional[Fraction] = None  # family C width ratio
    count: int = 1  # instances per workload; one op solves all of them
    # Set-ups per run, spread between the ops; setup_s is their median.
    setup_repeats: int = 31


# Why each workload is measured is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Spec] = {
    # n-linear layers take a third of the op; the scan exits early (item
    # 768 for seed 1) and D&C relaxed_dp takes most of the FPTAS time.
    # Its set-up takes up to 0.5 s, so it is repeated fewer times.
    "fptas-c100k": Spec("C", 100_000, "auto", epsilon=Fraction(1, 1000), c=Fraction(3, 2),
                        setup_repeats=21),
    # Tiny n and an unreachable T: the scan never exits early and
    # cli/core/analysis cost about 0, the bypass case of n-linear work.
    "fptas-b2000": Spec("B", 2000, "auto", epsilon=Fraction(1, 1000)),
    # 82,124 sums below T ~ 5e5: the per-sum insort is quadratic here and a
    # bitset would fit.
    "exact-dense": Spec("B", 100, "dp"),
    # About 2.3 M sums over 100 instances, spread over T = 3e14: the sparse
    # side of any density-based choice in exact.
    "exact-sparse": Spec("C", 14, "dp", c=Fraction(11, 10), count=100),
}

# Same pipelines at sizes that finish in well under a second.
SMOKE: dict[str, Spec] = {
    "fptas-c100k": replace(WORKLOADS["fptas-c100k"], n=300, epsilon=Fraction(1, 100)),
    "fptas-b2000": replace(WORKLOADS["fptas-b2000"], n=40, epsilon=Fraction(1, 100)),
    "exact-dense": replace(WORKLOADS["exact-dense"], n=20),
    "exact-sparse": replace(WORKLOADS["exact-sparse"], n=8, count=5),
}


class WrongAnswer(Exception):
    """An op's answer failed one of the benchmark's checks."""


def import_issp(src: Path) -> SimpleNamespace:
    """Import issp afresh from ``src``; every set-up repeat pays the import."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "issp" or m.startswith("issp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("issp")
    if Path(pkg.__file__).resolve().parent != (src / "issp").resolve():
        raise ImportError(f"issp was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"issp.{m}") for m in MODULES})


def instance_seeds(spec: Spec, seed: int) -> list[int]:
    if spec.count == 1:
        return [seed]
    # A multi-instance workload always uses seeds 1..count, and --seed is
    # recorded only.  The work of one instance grows as 3^k with a random
    # exit index k, so two blocks of 100 seeds differ up to 2x in total sums.
    return list(range(1, spec.count + 1))


def generate(mods: SimpleNamespace, spec: Spec, seed: int):
    if spec.family == "B":  # no randomness: the seed is recorded, not used
        return mods.instgen.gen_b(spec.n)
    return mods.instgen.gen_c(spec.n, spec.c, seed)


def reference(mods: SimpleNamespace, spec: Spec, inst) -> int:
    """The value every answer is checked against."""
    if spec.family == "B":
        return mods.instgen.instance_b_optimum(spec.n)
    if spec.algorithm == "dp":
        return mods.exact.brute_force_optimum(inst).value
    # T bounds the optimum from above, so (1 - eps) * T is a stricter floor
    # than the FPTAS guarantee; family C instances at this size reach it.
    return inst.target


@dataclass
class Prepared:
    """Everything an op needs, made by one ``prepare``."""

    spec: Spec
    mods: SimpleNamespace
    texts: list[str]
    refs: list[int]
    times: dict[str, float]  # seconds per part of this set-up, and "total"
    start: float  # time.perf_counter() when the set-up began


def prepare(spec: Spec, seed: int, src: Path) -> Prepared:
    """Import, generate, serialise and compute references once, timing each part."""
    seeds = instance_seeds(spec, seed)
    t0 = time.perf_counter()
    mods = import_issp(src)
    t1 = time.perf_counter()
    insts = [generate(mods, spec, s) for s in seeds]
    t2 = time.perf_counter()
    texts = [mods.cli.serialize_instance(inst) for inst in insts]
    t3 = time.perf_counter()
    refs = [reference(mods, spec, inst) for inst in insts]
    t4 = time.perf_counter()
    times = dict(zip(("import", "generate", "serialize", "reference", "total"),
                     (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t4 - t0)))
    return Prepared(spec, mods, texts, refs, times, t0)


def solve(mods: SimpleNamespace, spec: Spec, text: str):
    """One instance as ``issp solve`` runs it: (instance, solution, claimed value, evaluated value)."""
    inst = mods.cli.parse_instance_text(text)
    outcome = mods.cli._solve_instance(inst, spec.algorithm, spec.epsilon)
    return inst, outcome.solution, outcome.value, mods.cli.evaluate(inst, outcome.solution)


@dataclass
class Checker:
    """Runs ops, checks every answer and counts failures without stopping."""

    prep: Prepared
    attempted: int = 0
    failed: int = 0
    worst_err: Fraction = Fraction(0)
    first_values: dict[int, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    def op(self) -> tuple[float, float, float]:
        """Solve every instance once; returns (start, wall s, cpu s), where
        start is the ``time.perf_counter()`` reading the op began at.

        The op fails, once, on the first instance that raises or gives a
        wrong answer; the answers are checked outside the timed region.
        """
        prep = self.prep
        gc.collect()
        self.attempted += 1
        results = []
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            for text in prep.texts:
                results.append(solve(prep.mods, prep.spec, text))
        except Exception as e:  # any solver failure is a failed op, not a crash
            w1, c1 = time.perf_counter(), time.process_time()
            self._fail(f"instance {len(results)}: {type(e).__name__}: {e}")
            return w0, w1 - w0, c1 - c0
        w1, c1 = time.perf_counter(), time.process_time()
        for k, result in enumerate(results):
            try:
                self.worst_err = max(self.worst_err, self.check(k, *result))
            except WrongAnswer as e:
                self._fail(f"instance {k}: {e}")
                break
        return w0, w1 - w0, c1 - c0

    def check(self, k: int, inst, solution, claimed: int, value: int) -> Fraction:
        """Relative error of one answer; raises WrongAnswer if it is not right."""
        spec, ref = self.prep.spec, self.prep.refs[k]
        if claimed != value:
            raise WrongAnswer(f"claimed value {claimed}, solution sums to {value}")
        if self.prep.mods.core.midrange_count(inst, solution) > 1:
            raise WrongAnswer("more than one value strictly inside its interval")
        if self.first_values.setdefault(k, value) != value:
            raise WrongAnswer(f"value {value} differs from the first op's {self.first_values[k]}")
        if value > ref:
            raise WrongAnswer(f"value {value} exceeds the reference {ref}")
        err = Fraction(ref - value, ref)
        allowed = spec.epsilon if spec.algorithm == "auto" else 0
        if err > allowed:
            raise WrongAnswer(f"relative error {err} above {allowed} (value {value}, reference {ref})")
        return err

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
