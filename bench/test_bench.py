"""Tests of the benchmark itself; run with ``python3 -m pytest bench``."""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke ok"


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _span(name, start, end, parent, op=0):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_the_union_of_children():
    s = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: children cover 1..6
        _span("c", 8.0, 12.0, 0),  # ends after its parent: only 8..10 counts
        _span("a.inner", 2.0, 3.5, 1),  # a grandchild of op does not count twice
    ]
    assert spans.self_times(s) == pytest.approx([10 - 5 - 2, 3 - 1.5, 3, 4, 1.5])


def test_layer_metrics_take_scan_time_outside_divide_and_conquer():
    tracer = spans.Tracer()
    tracer.spans = [
        _span("op", 0.0, 10.0, -1),
        _span("fptas.solve", 1.0, 9.0, 0),
        _span("fptas.dc", 3.0, 8.0, 1),
        _span("fptas.relaxed_dp", 3.5, 5.0, 2),
        _span("fptas.relaxed_dp", 5.0, 7.0, 2),
    ]
    tracer.notes[0].update({"fptas.relaxed_dp_items": 30, "fptas.dc_items": 10})
    m = spans.layer_metrics(tracer)
    assert m["fptas.solve_s"] == pytest.approx(8.0)
    assert m["fptas.dc_s"] == pytest.approx(5.0)
    assert m["fptas.scan_s"] == pytest.approx(3.0)
    assert m["fptas.relaxed_dp_s"] == pytest.approx(3.5)
    assert m["fptas.relaxed_dp_calls"] == 2
    assert m["fptas.dc_rescan_ratio"] == pytest.approx(3.0)
    # an op measured at half the reference speed reports half its times
    half = spans.layer_metrics(tracer, {0: 0.5})
    assert half["fptas.solve_s"] == pytest.approx(4.0)
    assert half["fptas.scan_s"] == pytest.approx(1.5)
    assert half["fptas.relaxed_dp_calls"] == 2


def test_speed_probe_scales_by_the_kernels_near_the_interval():
    probe = speed.SpeedProbe()
    # the host runs at half the reference speed from t = 10 on
    probe.starts = [0.1 * i for i in range(200)]
    probe.times = [speed.REFERENCE_S * (1 if t < 10 else 2) for t in probe.starts]
    assert probe.scaled(2.0, 3.0) == pytest.approx(3.0)
    assert probe.scaled(12.0, 3.0) == pytest.approx(1.5)
    # a short interval takes the kernels within PAD_S of it
    assert probe.factor(15.0, 15.01) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        probe.factor(50.0, 51.0)


def test_speed_probe_samples_while_active():
    probe = speed.SpeedProbe()
    with probe.active():
        end = time.perf_counter() + 10 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    taken = len(probe.times)
    assert taken >= 3
    time.sleep(3 * speed.INTERVAL_S)
    assert len(probe.times) == taken


def _wrong_value(mods):
    def solve(inst, epsilon, trace=False):
        # a feasible answer that is far below the optimum
        return mods.core.SolveOutcome(
            solution=mods.core.Solution((0,) * len(inst.original)), value=0, kind="approximate"
        )
    return solve


def _out_of_budget(mods):
    def solve(inst, epsilon, trace=False):
        raise mods.errors.MemoryBudgetExceeded("stub")
    return solve


@pytest.mark.parametrize("stub", [_wrong_value, _out_of_budget])
def test_failed_ops_count_toward_fail_rate_without_crashing(monkeypatch, stub):
    spec = workloads.SMOKE["fptas-c100k"]
    prep = workloads.prepare(spec, seed=1, src=SRC)
    checker = workloads.Checker(prep)
    checker.op()
    assert (checker.attempted, checker.failed) == (1, 0)
    monkeypatch.setattr(prep.mods.fptas, "fptas_solve", stub(prep.mods))
    for _ in range(3):
        checker.op()
    assert (checker.attempted, checker.failed) == (4, 3)
    assert len(checker.errors) == 3


def test_exact_answers_must_match_the_reference_exactly():
    spec = workloads.SMOKE["exact-sparse"]
    prep = workloads.prepare(spec, seed=3, src=SRC)
    checker = workloads.Checker(prep)
    checker.op()
    assert (checker.attempted, checker.failed, checker.worst_err) == (1, 0, 0)
    inst = prep.mods.cli.parse_instance_text(prep.texts[0])
    ref = prep.refs[0]
    with pytest.raises(workloads.WrongAnswer):
        workloads.Checker(prep).check(0, inst, prep.mods.core.Solution((0,) * inst.n), ref - 1, ref - 1)
    assert Fraction(0) == checker.check(0, *workloads.solve(prep.mods, spec, prep.texts[0]))
