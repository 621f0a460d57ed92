"""End-to-end acceptance checks.

Each test covers one release criterion: golden traces of the two solvers on
the worked four-interval example, bulk oracle equivalence, the approximation
guarantee with its exactness side-condition, reference error rates for the
benchmark families, a 100,000-interval scale run with the space meter,
the polynomial subclasses, and the knapsack-equivalence value map.  The
other checks cover the package as released: README's library example prints
the answer it shows, README names every exported name and no deleted one
is left, and no self-check rests on an ``assert`` that ``python -O`` would
strip.
"""

import ast
import contextlib
import io
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import issp
from issp import analysis, core, errors
from issp.analysis import (
    polynomial_rate_monte_carlo,
    solve_polynomial,
)
from issp.core import (
    Solution,
    evaluate,
    midrange_count,
    preprocess,
    relative_error,
    sort_by_length,
    validate,
)
from issp.exact import brute_force_optimum, dp_exact
from issp.fptas import fptas_solve
from issp.instgen import SplitMix64, gen_a, gen_b, gen_c, instance_a_optimum, instance_b_optimum

from conftest import random_instance

GOLDEN_PAIRS = [(10, 20), (10, 25), (60, 85), (20, 50)]
GOLDEN_T = 100
README = Path(__file__).resolve().parents[1] / "README.md"


def _reduced(inst):
    """Preprocess; return (resolved_value, None) or (None, work_instance)."""
    pre = preprocess(inst)
    if isinstance(pre, Solution):
        return pre.total, None
    return None, sort_by_length(pre)


def test_criterion_01_exact_solver_golden_trace():
    start = time.perf_counter()
    inst = sort_by_length(validate(GOLDEN_PAIRS, GOLDEN_T))
    out = dp_exact(inst, trace=True)
    assert out.stats["sets"][0] == (10, 20)
    assert out.stats["sets"][1] == (10, 20, 25, 30, 35, 45)
    assert out.stats["early_exit_at"] == 3
    assert out.midrange_index == 3
    assert out.value == 100
    assert out.solution.values == (10, 25, 65, 0)
    assert time.perf_counter() - start < 0.010


def test_criterion_02_approximation_golden_trace():
    start = time.perf_counter()
    inst = sort_by_length(validate(GOLDEN_PAIRS, GOLDEN_T))
    out = fptas_solve(inst, Fraction(1, 5), trace=True)
    neg1, pos1 = out.stats["scan_trace"][0]
    assert (neg1[1], pos1[1]) == (10, 20)
    assert all(v == 0 for v in neg1[2:] + pos1[2:])
    neg2, pos2 = out.stats["scan_trace"][1]
    assert (neg2[1], pos2[1]) == (10, 20)
    assert (neg2[2], pos2[2]) == (25, 35)
    assert (neg2[3], pos2[3]) == (45, 45)
    assert all(v == 0 for v in neg2[4:] + pos2[4:])
    assert out.stats["dc_target"] == 40
    assert out.value == 100
    assert out.solution.values == (0, 25, 75, 0)
    assert time.perf_counter() - start < 0.010


def test_criterion_03_exact_solver_oracle_equivalence_10k():
    start = time.perf_counter()
    rng = SplitMix64(2024)
    checked = 0
    while checked < 10_000:
        inst = random_instance(rng, max_n=12, max_end=60, max_t=300)
        resolved, work = _reduced(inst)
        if work is None:
            continue
        assert dp_exact(work).value == brute_force_optimum(work).value
        checked += 1
    assert time.perf_counter() - start < 60


def test_criterion_04_and_05_guarantee_sweep_with_exactness():
    start = time.perf_counter()
    rng = SplitMix64(777)
    epsilons = [Fraction(3, 10), Fraction(1, 10), Fraction(1, 100)]
    checked = 0
    exact_flagged = 0
    while checked < 5_000:
        inst = random_instance(rng, max_n=20, max_end=100, max_t=500)
        resolved, work = _reduced(inst)
        if work is None:
            continue
        opt = dp_exact(work).value
        for eps in epsilons:
            out = fptas_solve(work, eps)
            assert evaluate(inst, out.solution) == out.value
            assert midrange_count(inst, out.solution) <= 1
            assert out.value >= (1 - eps) * opt
            # whenever the scan observed the tight reconstruction window,
            # the answer must be exactly optimal
            if out.stats["case_a"] or out.kind == "exact":
                assert out.value == opt
                exact_flagged += 1
        checked += 1
    assert exact_flagged > 0
    assert time.perf_counter() - start < 120


def test_criterion_06_family_a_error_table():
    start = time.perf_counter()
    for n in (10, 15, 20, 25, 30, 35):
        inst = gen_a(n)
        resolved, work = _reduced(inst)
        reference = instance_a_optimum(n)
        for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
            if work is None:
                err = relative_error(resolved, reference)
            else:
                out = fptas_solve(work, eps)
                err = relative_error(out.value, reference)
            assert err <= eps
            if eps == Fraction(1, 1000):
                assert err == 0
    assert time.perf_counter() - start < 5


def test_criterion_07_family_b_error_table():
    start = time.perf_counter()
    eps = Fraction(1, 1000)
    for n in (10, 50, 100, 500):
        inst = gen_b(n)
        resolved, work = _reduced(inst)
        reference = instance_b_optimum(n)
        if work is None:
            value = resolved
        else:
            value = fptas_solve(work, eps).value
        err = relative_error(value, reference)
        assert err <= eps
        if n <= 100:
            assert err == 0
    assert time.perf_counter() - start < 30


def test_criterion_08_scale_run_and_space_meter():
    n = 100_000
    inst = gen_c(n, Fraction(3, 2), seed=1)
    resolved, work = _reduced(inst)
    assert work is not None
    eps = Fraction(1, 1000)
    start = time.perf_counter()
    out = fptas_solve(work, eps)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10
    assert relative_error(out.value, inst.target) <= eps
    assert evaluate(inst, out.solution) == out.value

    # live slot count depends only on 1/eps: scaling the target by 10
    # must leave the peak unchanged
    big = validate(zip(inst.lo, inst.hi), inst.target * 10)
    resolved_b, work_b = _reduced(big)
    out_b = fptas_solve(work_b, eps)
    assert out_b.stats["peak_slots"] == out.stats["peak_slots"]


def test_criterion_09_polynomial_subclasses():
    start = time.perf_counter()
    rng = SplitMix64(4242)
    checked = 0
    while checked < 2_000:
        inst = random_instance(rng, max_n=18, max_end=50, max_t=400)
        resolved, work = _reduced(inst)
        if work is None:
            continue
        out = solve_polynomial(work)
        if out is None:
            continue
        assert out.kind == "exact"
        assert evaluate(inst, out.solution) == out.value
        assert out.value == brute_force_optimum(work).value
        checked += 1
    # width-ratio 2 families must be solvable essentially always when the
    # target is drawn above the largest upper endpoint
    rate = polynomial_rate_monte_carlo(12, Fraction(2), trials=400, seed=9)
    assert rate >= Fraction(99, 100)
    assert time.perf_counter() - start < 60


def test_criterion_10_knapsack_value_map_equivalence():
    start = time.perf_counter()
    rng = SplitMix64(31337)
    for _ in range(400):
        inst = random_instance(rng, max_n=15, max_end=40, max_t=250)
        # weights lo, profits hi, capacity T
        n, t = inst.n, inst.target
        best = 0
        for mask in range(1 << n):
            w = p = 0
            for i in range(n):
                if mask >> i & 1:
                    w += inst.lo[i]
                    p += inst.hi[i]
            if w <= t:
                best = max(best, min(p, t))
        assert best == brute_force_optimum(inst).value
    assert time.perf_counter() - start < 30


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n+```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue() == "100 (0, 25, 75, 0)\n"


def test_every_exported_name_imports_and_is_in_readme():
    namespace: dict = {}
    exec("from issp import *", namespace)
    assert set(issp.__all__) <= namespace.keys()
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    missing = [
        name for name in issp.__all__ if not any(re.search(rf"\b{name}\b", s) for s in spans)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "owner, name",
    [
        (core, "Interval"),
        (core.Instance, "intervals"),
        (core.Instance, "is_empty"),
        (analysis, "KnapsackInstance"),
        (analysis, "to_knapsack"),
        (analysis, "check_theorem2"),
        (errors, "DegenerateLength"),
        (errors, "NonPositiveEndpoint"),
        (errors, "InvertedInterval"),
        (errors, "NonPositiveTarget"),
        (errors, "ValueOutsideInterval"),
        (errors, "TargetExceeded"),
        (errors, "NegativeGap"),
        (errors, "EpsilonOutOfRange"),
        (errors, "NOutOfRange"),
        (errors, "SubsetInfeasible"),
        (errors, "OutOfRange"),
        (errors, "NoPairFound"),
        (errors, "EmptyArray"),
    ],
)
def test_deleted_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(issp, name)


def test_original_is_the_input_pairs():
    # the bench's wrong-answer stub sizes its solution by len(inst.original)
    inst = validate([(1, 2), (3, 4)], 9)
    assert len(inst.original) == 2
    view = sort_by_length(preprocess(validate([(3, 9), (20, 30), (1, 2)], 10)))
    assert view.original == ((3, 9), (20, 30), (1, 2))


def test_no_assert_or_debug_in_package():
    # python -O drops assert statements and `if __debug__:` blocks, so a
    # self-check written with either would vanish under it
    paths = sorted(Path(issp.__file__).parent.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert found == []


def test_no_unused_imports():
    # an import that no name in its file reads is left over from deleted
    # code; the package's __init__ is skipped, since its imports are its exports
    package = Path(issp.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert len(paths) > 10 and found == []


def test_no_dead_private_names():
    # a module-level _name (function, class or assignment) that nothing in
    # the package reads outside its own definition is left over from deleted
    # code; a read is a loaded name or an attribute, as in cli._solve_instance
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(issp.__file__).parent.glob("*.py"))
    }
    defined = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.endswith("__")]
            defined += [(file, name, node) for name in private]
    reads = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]
    dead = []
    for file, name, definition in defined:
        inside = set(map(id, ast.walk(definition)))
        if not any(read == name and id(node) not in inside for read, node in reads):
            dead.append(f"{file}:{definition.lineno} {name}")
    assert len(defined) > 20 and dead == []
