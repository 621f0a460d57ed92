"""Solve benchmark for issp: one workload per process, closed loop, one caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fptas-c100k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics with tracing off; ``--trace 1`` alternates untraced
and traced ops, adds one counting op, reports the per-layer metrics and
writes the spans to ``bench/out/``.  Every reported time is scaled to a
reference host speed by ``speed.SpeedProbe``.  The metric names and units
are those of BENCHMARK.json.  ``--smoke`` runs every workload at a tiny size in both
modes and checks that each declared metric is produced.  See
bench/README.md for the schema.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"


def declared(group: str) -> dict[str, str]:
    """Metric names and units of one group of BENCHMARK.json."""
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())[group]
    return {m["name"]: m["unit"] for m in metrics}

def run_record(workload: str, seed: int, budget_mb: int, shell_budget) -> dict:
    """Python, machine and tree the run used; git fields are None outside git."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = dirty = None
    git = shutil.which("git")
    if git:
        # stop git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run([git, "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            status = subprocess.run([git, "status", "--porcelain"], cwd=ROOT, env=env,
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": sha,
        "git_dirty": dirty,
        "issp_memory_budget_mb": budget_mb,
        "shell_issp_memory_budget_mb": shell_budget,
    }


def measure(checker: workloads.Checker, seconds: float, setup, tracer=None):
    """Closed loop of ops for about ``seconds`` of op time.

    With a tracer, every untraced op is followed by a traced op.  The set-ups
    after the first run between ops, spread over the run, so that they
    sample the same stretch of time as the ops rather than one moment at
    the start.  Returns the ops' and the set-ups' (start, seconds) pairs,
    with the set-ups' part times, and the peak RSS in MiB after the first
    op, before any set-up is repeated.
    """
    repeats = checker.prep.spec.setup_repeats
    ops: dict[str, list[tuple[float, float]]] = {"wall": [], "cpu": [], "traced_wall": []}
    setups = [(checker.prep.start, checker.prep.times)]
    op_time = 0.0
    rounds = 0
    while True:
        t0 = time.perf_counter()
        start, wall, cpu = checker.op()
        if rounds == 0:
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ops["wall"].append((start, wall))
        ops["cpu"].append((start, cpu))
        if tracer is not None:
            with spans.traced(checker.prep.mods, tracer), tracer.op_span():
                start, wall, _ = checker.op()
            ops["traced_wall"].append((start, wall))
        op_time += time.perf_counter() - t0
        rounds += 1
        # stop once another round would more likely than not overrun
        done = op_time + 0.5 * op_time / rounds > seconds
        due = repeats if done else min(repeats, 1 + int(repeats * op_time / seconds))
        while len(setups) < due:
            fresh = setup()
            setups.append((fresh.start, fresh.times))
        if done:
            return ops, setups, first_rss_mb


def run_workload(name: str, spec: workloads.Spec, seed: int, seconds: float, trace: bool):
    """Run one workload; returns the result object and the names of every
    metric the run produced, before the declared ones are picked out."""
    shell_budget = os.environ.get("ISSP_MEMORY_BUDGET_MB")
    probe = speed.SpeedProbe()
    tracer = spans.Tracer() if trace else None
    with probe.active():
        prep = workloads.prepare(spec, seed, SRC)
        budget_mb = prep.mods.exact.DEFAULT_MEMORY_BUDGET_MB
        os.environ["ISSP_MEMORY_BUDGET_MB"] = str(budget_mb)
        checker = workloads.Checker(prep)
        ops, setups, rss_mb = measure(checker, seconds, lambda: workloads.prepare(spec, seed, SRC), tracer)
        if trace:
            with spans.counted(prep.mods) as counts:
                checker.op()
    med = statistics.median

    def scaled(kind: str) -> float:
        """Median op time of one kind, at the probe's reference speed."""
        return med(probe.scaled(start, s) for start, s in ops[kind])

    # the set-up at the median of the scaled totals, with its speed factor
    _, factor, parts = sorted((
        (probe.scaled(start, t["total"]), probe.factor(start, start + t["total"]), t)
        for start, t in setups
    ), key=lambda row: row[0])[len(setups) // 2]
    if not trace:
        produced = {
            "solve_s": scaled("wall"),
            "solve_cpu_s": med(probe.factor(start, start + w) * c
                               for (start, w), (_, c) in zip(ops["wall"], ops["cpu"])),
            "setup_s": factor * parts["total"],
            "peak_rss_mb": rss_mb,
        }
        units = declared("end_to_end")
    else:
        op_factors = {s.op: probe.factor(s.start, s.end) for s in tracer.spans if s.name == "op"}
        produced = spans.layer_metrics(tracer, op_factors)
        produced.update(counts)
        untraced, traced = scaled("wall"), scaled("traced_wall")
        produced.update({
            "setup.import_s": factor * parts["import"],
            "instgen.generate_s": factor * parts["generate"],
            "cli.serialize_s": factor * parts["serialize"],
            "exact.reference_s": factor * parts["reference"],
            "trace.untraced_solve_s": untraced,
            "trace.traced_solve_s": traced,
            "trace.overhead_s": traced - untraced,
            "check.rel_err_pct": float(100 * checker.worst_err),
            "check.fail_rate": checker.failed / checker.attempted,
        })
        units = declared("per_layer")
    # a layer the workload never calls has no spans: its metrics are 0
    metrics = {key: produced.get(key, 0) for key in units}
    record = run_record(name, seed, budget_mb, shell_budget)
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.json"
        path.write_text(json.dumps({"record": record, "spans": spans.dump(tracer.spans)}))
    print("record " + json.dumps(record))
    # unscaled figures, for reading the scaled ones against
    print(f"raw wall_s median {med(w for _, w in ops['wall'])} over {len(ops['wall'])} ops; "
          f"setup_s median {med(t['total'] for _, t in setups)} over {len(setups)} set-ups; "
          f"speed probe median {med(probe.times)} s over {len(probe.times)} kernels")
    for message in checker.errors:
        print(f"failure {message}")
    for key, unit in units.items():
        print(f"{key} {metrics[key]} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, set(produced)


def smoke() -> int:
    """Run every workload small, in both modes; check that every declared
    metric is produced by at least one workload and every answer is right."""
    problems = []
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        produced: set[str] = set()
        for name, spec in workloads.SMOKE.items():
            result, names = run_workload(name, spec, seed=1, seconds=0.3, trace=trace)
            produced |= names
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result['failed']} failed ops")
        missing = sorted(set(declared(group)) - produced)
        if missing:
            problems.append(f"trace={int(trace)}: no workload produced {missing}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "issp" / "__init__.py").is_file():
        print(f"error: no issp sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    spec = workloads.WORKLOADS[args.workload]
    result, _ = run_workload(args.workload, spec, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
