"""Command-line front end: solve, generate, classify, and bench.

Instance file format (UTF-8, LF):
  line 1:        n T
  lines 2..n+1:  lo hi        (one interval per line)
Lines starting with '#' are ignored.  Serialization is canonical (single
spaces, trailing newline), and parse(serialize(x)) is the identity.

Exit codes: 0 success, 2 input or output error (InputError: an instance that
cannot be read, is not UTF-8 or fails to parse or validate; or an OSError from
a failed write to stdout), 3 usage error (InvalidSetting: any invalid flag or
setting), 4 resource budget exceeded (MemoryBudgetExceeded, InstanceTooLarge),
5 solver bug (IsspError: a solver's answer failed its self-check, or an
internal invariant broke).  Commands raise; ``main`` prints the one ``error:``
line and picks the code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import sys
import time
from fractions import Fraction
from itertools import islice
from typing import Any, Callable, Iterator, NoReturn, Optional, TextIO

from . import analysis, exact, fptas, instgen
from .core import (
    Instance,
    Solution,
    SolveOutcome,
    evaluate,
    exact_ratio,
    format_percent,
    preprocess,
    relative_error,
    sort_by_length,
    validate_columns,
)
from .errors import InputError, InstanceTooLarge, InvalidSetting, IsspError, MemoryBudgetExceeded

EXIT_PARSE = 2
EXIT_FLAGS = 3
EXIT_BUDGET = 4
EXIT_BUG = 5

BENCH_HEADER = [
    "family",
    "n",
    "param",
    "epsilon",
    "avg_rel_err_pct",
    "avg_time_s",
    "trials",
    "worst_rel_err_pct",
    "worst_time_s",
]


# Instance text is handled in pieces of about this many characters: parse
# cuts the text there, and serialize formats _CHUNK // 16 lines at a time.
_CHUNK = 1 << 16
# re's \s for str patterns is exactly str.isspace, the separators of
# str.split(); the class below is exactly str.splitlines' line breaks.
_SPACE = re.compile(r"\s")
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _pieces(text: str, boundary: re.Pattern) -> Iterator[str]:
    """``text`` in pieces of at least _CHUNK characters (the last may be
    shorter), each cut just after a match of ``boundary``."""
    start = 0
    while start < len(text):
        cut = boundary.search(text, start + _CHUNK)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


def _token_pieces(text: str) -> Iterator[list[str]]:
    """The tokens of ``text`` outside comment lines, one piece at a time.

    A cut after whitespace splits no token; with comments present the cuts
    fall after line breaks, so every comment line lies within one piece.
    """
    comments = "#" in text
    for piece in _pieces(text, _LINE_BREAK if comments else _SPACE):
        if comments:
            lines = piece.splitlines()
            piece = "\n".join(line for line in lines if not line.lstrip().startswith("#"))
        yield piece.split()


def parse_instance_text(text: str) -> Instance:
    numbers: list[int] = []
    seen = 0  # tokens read so far
    pieces = _token_pieces(text)
    try:
        for tokens in pieces:
            seen += len(tokens)
            numbers += map(int, tokens)
    except ValueError as e:
        # too few tokens is reported before a bad token, so count them all
        seen += sum(map(len, pieces))
        if seen >= 2:
            raise InputError(f"non-integer token in instance file: {e}") from e
    if seen < 2:
        raise InputError("instance file needs at least 'n T' on the first line")
    n, target = numbers[0], numbers[1]
    if n < 0 or len(numbers) - 2 != 2 * n:
        raise InputError(
            f"expected {2 * max(n, 0)} endpoint tokens for n = {n}, got {len(numbers) - 2}"
        )
    return validate_columns(numbers[2::2], numbers[3::2], target)


def _serialized_pieces(inst: Instance) -> Iterator[str]:
    """The text of ``serialize_instance``, a bounded number of lines at a time."""
    yield f"{inst.n} {inst.target}\n"
    step = max(1, _CHUNK // 16)
    pairs = zip(inst.lo, inst.hi)
    for _ in range(0, inst.n, step):
        yield "".join([f"{lo} {hi}\n" for lo, hi in islice(pairs, step)])


def serialize_instance(inst: Instance) -> str:
    return "".join(_serialized_pieces(inst))


def _read_instance(path: str) -> Instance:
    """The instance at ``path`` ('-' for stdin); any failure to read,
    decode, parse or validate it raises InputError."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        return parse_instance_text(text)
    except UnicodeDecodeError as e:
        source = "standard input" if path == "-" else path
        raise InputError(f"{source} is not UTF-8 text: {e}") from e
    except OSError as e:
        raise InputError(e) from e


def parse_epsilon(text: str) -> Fraction:
    """An --epsilon value: an exact rational in (0, 1), else ValueError."""
    try:
        eps = exact_ratio(text)
    except ValueError:
        eps = None
    if eps is None or not 0 < eps < 1:
        raise ValueError(f"epsilon must be a rational in (0, 1), got {text!r}")
    return eps


def _setting(convert: Callable[..., Any], *args: Any) -> Any:
    """``convert(*args)`` on a flag value; a value it refuses raises InvalidSetting."""
    try:
        return convert(*args)
    except ValueError as e:
        raise InvalidSetting(e) from e


def _solve_instance(
    inst: Instance, algorithm: str, epsilon: Optional[Fraction]
) -> SolveOutcome:
    """Preprocess, sort, route and solve; solution in input order.
    ``stats["elapsed"]`` is the wall time of all four, a settled instance's too."""
    start = time.perf_counter()
    reduced = preprocess(inst)
    if isinstance(reduced, Solution):
        # T lies in an interval (value T >= 1) or every interval was dropped
        outcome = SolveOutcome(solution=reduced, value=reduced.total, kind="exact")
    else:
        reduced = sort_by_length(reduced)
        if algorithm == "dp":
            outcome = exact.dp_exact(reduced)
        elif algorithm == "brute":
            outcome = exact.brute_force_optimum(reduced)
        elif algorithm == "fptas":
            outcome = fptas.fptas_solve(reduced, epsilon)
        elif algorithm == "auto":
            outcome = analysis.solve_polynomial(reduced) or fptas.fptas_solve(reduced, epsilon)
        else:
            raise ValueError(f"unknown algorithm {algorithm!r}")
    outcome.stats["elapsed"] = time.perf_counter() - start
    return outcome


def _check_answer(inst: Instance, outcome: SolveOutcome) -> None:
    """Raise IsspError (EXIT_BUG) unless the solution is feasible and sums to the value."""
    total = evaluate(inst, outcome.solution)
    if total != outcome.value:
        raise IsspError(f"reported value {outcome.value} but the solution sums to {total}")


def cmd_solve(args: argparse.Namespace, out: TextIO) -> None:
    inst = _read_instance(args.path)
    if args.algorithm in ("fptas", "auto") and args.epsilon is None:
        raise InvalidSetting("--epsilon is required for fptas/auto")
    eps = None if args.epsilon is None else _setting(parse_epsilon, args.epsilon)
    outcome = _solve_instance(inst, args.algorithm, eps)
    _check_answer(inst, outcome)  # before anything is printed
    if args.json:
        payload = {
            "value": outcome.value,
            "solution": list(outcome.solution.values),
            "kind": outcome.kind,
            "epsilon": None if outcome.epsilon is None else str(outcome.epsilon),
            "midrange_index": outcome.midrange_index,
            "elapsed_s": outcome.stats["elapsed"],
        }
        print(json.dumps(payload), file=out)
    else:
        print(f"value {outcome.value}", file=out)
        print("solution " + " ".join(str(x) for x in outcome.solution.values), file=out)
        print(f"kind {outcome.kind}", file=out)
        if outcome.midrange_index is not None:
            print(f"midrange_index {outcome.midrange_index}", file=out)
        print(f"elapsed_s {outcome.stats['elapsed']:.6f}", file=out)


def cmd_generate(args: argparse.Namespace, out: TextIO) -> None:
    spec = _setting(instgen.GenSpec, args.family, args.n, args.c, args.seed)
    out.writelines(_serialized_pieces(instgen.generate(spec)))


def cmd_classify(args: argparse.Namespace, out: TextIO) -> None:
    inst = _read_instance(args.path)
    reduced = preprocess(inst)
    if isinstance(reduced, Solution) and reduced.total:
        print("preprocessing: immediate solution (an interval contains T)", file=out)
        print(f"value {reduced.total}", file=out)
        return
    dropped = [i for i, lo in enumerate(inst.lo) if lo > inst.target]
    if dropped:
        print(f"preprocessing: dropped intervals {' '.join(map(str, dropped))}", file=out)
    else:
        print("preprocessing: instance already normalized (T > max hi)", file=out)
    if isinstance(reduced, Solution):
        print("empty after preprocessing; optimum 0", file=out)
        return
    agg = analysis.aggregates(reduced)
    t2 = agg.large_target(reduced.target)
    degenerate = agg.min_length == 0
    note = " (zero-length interval present; condition undefined)" if degenerate else ""
    print(f"large-target condition: {'yes' if t2 else 'no'}{note}", file=out)
    cstar = analysis.check_wide(reduced)
    print(f"c* = {cstar} ({'>= 2' if cstar >= 2 else '< 2'})", file=out)
    poly = analysis.solve_polynomial(reduced)
    if poly is None:
        print("polynomial route: none", file=out)
    else:
        print(f"polynomial route: ({poly.stats['route']})", file=out)
        print(f"value {poly.value}", file=out)


def _exact_reference(family: str, inst: Instance, n: int) -> int:
    """Exact optimum for families A/B, by closed form, the target for C/D."""
    if family == "A":
        return instgen.instance_a_optimum(n)
    if family == "B":
        return instgen.instance_b_optimum(n)
    return inst.target


def _bench_trial(
    cell: instgen.GenSpec, seed: int, epsilons: list[Fraction]
) -> list[tuple[Fraction, float]]:
    """(relative error, pipeline time) at each epsilon on the instance of
    ``cell`` with ``seed``, each answer checked; its spec is made, and
    checked again, here.

    The instance and its reference do not depend on epsilon, so they are
    built once; they are freed on return, so ``cmd_bench`` holds one
    instance at a time.
    """
    spec = dataclasses.replace(cell, seed=seed)
    inst = instgen.generate(spec)
    reference = _exact_reference(spec.family, inst, spec.n)
    results = []
    for eps in epsilons:
        outcome = _solve_instance(inst, "fptas", eps)
        _check_answer(inst, outcome)
        error = relative_error(outcome.value, reference) if reference else Fraction(0)
        results.append((error, outcome.stats["elapsed"]))
    return results


def cmd_bench(args: argparse.Namespace, out: TextIO) -> None:
    epsilons = [_setting(parse_epsilon, e) for e in args.epsilons.split(",")]
    sizes = [_setting(int, s) for s in args.sizes.split(",")] if args.sizes is not None else None
    if args.trials < 1:
        raise InvalidSetting(f"--trials must be at least 1, got {args.trials}")
    family = args.suite
    if family in ("A", "B"):
        default_sizes = [10, 15, 20, 25, 30, 35] if family == "A" else [10, 50, 100, 500]
        params: list[object] = [None]
    else:
        default_sizes = [1000]
        params = [Fraction(3, 2), Fraction(13, 10), Fraction(11, 10)]
        if args.c is not None:
            params = [args.c]  # GenSpec parses it
    sizes = sizes or default_sizes
    # one checked spec per cell, built before any row so a refusal leaves stdout empty
    cells: list[instgen.GenSpec] = []
    for n in sizes:
        cells += [_setting(instgen.GenSpec, family, n, p, args.seed) for p in params]
    # rows are held until every trial has passed, so a failed one leaves stdout empty too
    rows = []
    seeds = range(args.seed, args.seed + args.trials)
    for cell in cells:
        n, param = cell.n, cell.param
        trials = [_bench_trial(cell, seed, epsilons) for seed in seeds]
        # per epsilon, every trial's (relative error, time)
        for eps, results in zip(epsilons, zip(*trials)):
            errors, times = zip(*results)
            k = len(errors)
            rows.append(
                [
                    family,
                    n,
                    "" if param is None else str(param),
                    str(eps),
                    format_percent(sum(errors, Fraction(0)) / k)[:-1],
                    f"{sum(times) / k:.6f}",
                    k,
                    format_percent(max(errors))[:-1],
                    f"{max(times):.6f}",
                ]
            )
    writer = csv.writer(out)
    writer.writerow(BENCH_HEADER)
    writer.writerows(rows)


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise InvalidSetting, like every other
    invalid flag; ``add_subparsers`` makes its subparsers of the same class."""

    def error(self, message: str) -> NoReturn:
        raise InvalidSetting(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="issp",
        description="Interval subset sum solvers and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file ('-' for stdin)")
    p_solve.add_argument("path")
    p_solve.add_argument("--algorithm", choices=["fptas", "dp", "brute", "auto"], default="auto")
    p_solve.add_argument("--epsilon", help="relative error, e.g. 0.1 or 1/10")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="write an instance file to stdout")
    p_gen.add_argument("--family", choices=["A", "B", "C", "D"], required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--c", "--C", metavar="RATIO", help="family C's ratio c or D's bound Cap")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_generate)

    p_cls = sub.add_parser("classify", help="report tractable-subclass diagnostics")
    p_cls.add_argument("path")
    p_cls.set_defaults(func=cmd_classify)

    p_bench = sub.add_parser("bench", help="benchmark a family, CSV to stdout")
    p_bench.add_argument("--suite", choices=["A", "B", "C", "D"], required=True)
    p_bench.add_argument("--epsilons", default="0.1,0.01,0.001")
    p_bench.add_argument("--sizes", help="comma-separated n values")
    p_bench.add_argument("--c", "--C", metavar="RATIO", help="fix family C's c or D's Cap")
    p_bench.add_argument("--trials", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args, sys.stdout)
        sys.stdout.flush()  # a buffered write that fails must fail here
        return 0
    except OSError as e:
        # _read_instance raises no OSError, so a write to stdout failed (a closed
        # pipe, a full disk); what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message, code = str(e), EXIT_PARSE
    except InputError as e:
        message, code = str(e), EXIT_PARSE
    except InvalidSetting as e:
        message, code = str(e), EXIT_FLAGS
    except (MemoryBudgetExceeded, InstanceTooLarge) as e:
        message, code = str(e), EXIT_BUDGET
    except IsspError as e:
        message, code = f"solver bug: {e}", EXIT_BUG
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
