"""Command-line interface: parsing, subcommands, exit codes, CSV schema."""

import contextlib
import csv
import dataclasses
import functools
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import issp
from issp import analysis, cli, core, fptas, instgen
from issp.cli import (
    BENCH_HEADER,
    EXIT_BUDGET,
    EXIT_BUG,
    EXIT_FLAGS,
    EXIT_PARSE,
    main,
    parse_instance_text,
    serialize_instance,
)
from issp.core import Solution, preprocess, sort_by_length, validate
from issp.errors import InputError, InstanceTooLarge, InvalidSetting, IsspError, MemoryBudgetExceeded

from conftest import eager_sort, instances
import reference_frontend


GOLDEN_FILE = "4 100\n10 20\n10 25\n60 85\n20 50\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def entry_point(*argv, python_flags=()):
    """The command line and environment that run ``python -m issp.cli``, with
    stdout block-buffered as it is for a pipe or a file even where the
    environment sets PYTHONUNBUFFERED."""
    src = str(Path(issp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    return [sys.executable, *python_flags, "-m", "issp.cli", *argv], env


def run_entry_point(*argv, stdin=b"", **env_vars):
    """``python -m issp.cli`` in a subprocess, with its own stderr and warnings."""
    command, env = entry_point(*argv)
    env.update(env_vars)
    return subprocess.run(command, input=stdin, capture_output=True, env=env)


class WriteLog(io.StringIO):
    """A text stream that also keeps each string written to it."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return super().write(s)


def strip_times(csv_text):
    """Bench CSV rows without the two wall-clock columns, joined back with commas."""
    drop = {BENCH_HEADER.index("avg_time_s"), BENCH_HEADER.index("worst_time_s")}
    rows = csv.reader(io.StringIO(csv_text))
    return [",".join(c for i, c in enumerate(r) if i not in drop) for r in rows]


class TestInstanceFile:
    def test_parse_basic(self):
        inst = parse_instance_text("2 100\n10 20\n10 25\n")
        assert inst.n == 2
        assert inst.target == 100
        assert inst.hi[1] == 25

    def test_comments_and_blank_lines_ignored(self):
        inst = parse_instance_text("# header\n\n2 100\n# first\n10 20\n10 25\n")
        assert inst.n == 2

    @given(instances())
    @settings(max_examples=100)
    def test_round_trip(self, inst):
        again = parse_instance_text(serialize_instance(inst))
        assert (again.lo, again.hi) == (inst.lo, inst.hi)
        assert again.target == inst.target
        assert serialize_instance(again) == serialize_instance(inst)

    @given(instances(), st.integers(min_value=1, max_value=80))
    @settings(max_examples=100)
    def test_serialize_in_small_pieces(self, inst, chunk):
        canonical = f"{inst.n} {inst.target}\n" + "".join(
            f"{lo} {hi}\n" for lo, hi in zip(inst.lo, inst.hi)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_CHUNK", chunk)
            assert serialize_instance(inst) == canonical

    def test_rejects_token_count_mismatch(self):
        with pytest.raises(IsspError):
            parse_instance_text("3 100\n10 20\n")

    def test_rejects_non_integer(self):
        with pytest.raises(IsspError):
            parse_instance_text("1 100\nten 20\n")

    def test_rejects_empty(self):
        with pytest.raises(IsspError):
            parse_instance_text("# nothing here\n")


# Separators the chunked tokenizer must treat as the line-by-line parser
# did: every line break str.splitlines knows is also whitespace to split().
SPACES = [" ", "\t", "\x0b", "\x0c", "\u2028", "\xa0", "\x1f", "  \t"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
COMMENTS = ["#", "# note", "#1 2 3", "  # indented 7", "\t#\x0c", ""]
BAD_TOKENS = ["ten", "1.5", "#", "0x10", "-", "1e3", "\u0663", "1_000", "+7", "--1"]
ENDPOINTS = st.one_of(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=2**64 - 2, max_value=2**70),
)
FAULTS = [None, None, None, "endpoint", "target", "inverted", "count", "token", "n"]


@st.composite
def instance_texts(draw):
    """Instance files as people write them, valid or with one fault, with
    every kind of whitespace, line break and comment line the parser accepts."""
    fault = draw(st.sampled_from(FAULTS))
    n = draw(st.integers(min_value=0, max_value=5))
    pairs = [sorted((draw(ENDPOINTS), draw(ENDPOINTS))) for _ in range(n)]
    target = draw(ENDPOINTS)
    if fault == "target":
        target = draw(st.integers(min_value=-2, max_value=0))
    if pairs and fault in ("endpoint", "inverted"):
        pair = pairs[draw(st.integers(min_value=0, max_value=n - 1))]
        if fault == "inverted":
            pair.reverse()
        else:
            pair[draw(st.integers(min_value=0, max_value=1))] = draw(st.integers(-2, 0))
    tokens = [str(-1 if fault == "n" else n), str(target)] + [str(x) for p in pairs for x in p]
    if fault == "count":
        tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["7"]
    if fault == "token":
        tokens[draw(st.integers(min_value=0, max_value=len(tokens) - 1))] = draw(
            st.sampled_from(BAD_TOKENS)
        )
    lines = []
    while tokens:
        k = draw(st.integers(min_value=1, max_value=3))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(pad + draw(st.sampled_from(SPACES)).join(tokens[:k]) + pad)
        tokens = tokens[k:]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(st.sampled_from(COMMENTS)))
    breaks = st.sampled_from(LINE_BREAKS)
    return "".join(line + draw(breaks) for line in lines)


def parse_result(parse, text):
    """What a parser makes of a text: the instance, or the error's type and message."""
    try:
        return parse(text)
    except IsspError as e:
        return type(e), str(e)


@st.composite
def reducible_texts(draw):
    """Valid instance files with many tied and zero lengths, whose target
    often lies below some lower endpoints and inside no interval, so that
    preprocess drops intervals and the reduced origin is not the identity."""
    n = draw(st.integers(min_value=1, max_value=12))
    scale = draw(st.sampled_from([1, 2**64 + 7]))
    pairs = []
    for _ in range(n):
        lo = draw(st.integers(min_value=1, max_value=30))
        pairs.append((lo * scale, (lo + draw(st.integers(min_value=0, max_value=2))) * scale))
    target = draw(st.integers(min_value=1, max_value=40)) * scale + draw(st.sampled_from([0, 1]))
    return "".join([f"{n} {target}\n"] + [f"{lo} {hi}\n" for lo, hi in pairs])


class TestParserAgainstReference:
    """The chunked parser and C-level validation against the line-by-line
    parser with its per-pair validation loop (tests/reference_frontend.py)."""

    @given(reducible_texts())
    @settings(max_examples=300)
    def test_same_reduced_and_sorted_instance(self, text):
        got, ref = parse_instance_text(text), reference_frontend.parse_instance_text(text)
        assert got == ref
        t = ref.target
        out = preprocess(got)
        hit = next((i for i in range(ref.n) if ref.lo[i] <= t <= ref.hi[i]), None)
        keep = [i for i in range(ref.n) if ref.lo[i] <= t]
        if hit is not None or not keep:
            expected = [0] * ref.n
            if hit is not None:
                expected[hit] = t
            assert out == Solution(tuple(expected))
            return
        assert out.lo == tuple(ref.lo[i] for i in keep)
        assert out.hi == tuple(ref.hi[i] for i in keep)
        assert tuple(out.origin) == tuple(keep)
        assert (out.target, out.original) == (t, ref.original)
        view, eager = sort_by_length(out), eager_sort(out)
        lo, hi, origin = view.prefix(view.n)
        assert (tuple(lo), tuple(hi), tuple(origin), view.original) == (
            eager.lo, eager.hi, eager.origin, eager.original
        )

    @given(instance_texts())
    @settings(max_examples=400)
    def test_same_instance_or_same_error(self, text):
        got = parse_result(parse_instance_text, text)
        assert got == parse_result(reference_frontend.parse_instance_text, text)
        if not isinstance(got, tuple):
            assert (type(got.lo), type(got.hi)) == (tuple, tuple)

    @given(st.text(alphabet="0123456789 -#\n\r\t\x0b\x0c\u2028a", max_size=40))
    @settings(max_examples=300)
    def test_same_result_on_arbitrary_text(self, text):
        got = parse_result(parse_instance_text, text)
        assert got == parse_result(reference_frontend.parse_instance_text, text)

    @pytest.mark.parametrize(
        "text",
        [
            "2 10\n0 5\n7 3\n",  # first bad interval is 0: non-positive
            "2 10\n7 3\n0 5\n",  # first bad interval is 0: inverted
            "2 10\n3 7\n5 -1\n",  # non-positive hi after a good interval
            "1 0\n7 3\n",  # the target is checked first
            "1 -4\n",
            "-1 5\n",
            "2 10\n1 2\n",
            "1 10\n1 two\n",
            "1\n",
            "# only a comment\n\n",
        ],
    )
    def test_bad_input_classes(self, text):
        ref = parse_result(reference_frontend.parse_instance_text, text)
        assert isinstance(ref, tuple)
        assert parse_result(parse_instance_text, text) == ref


# Every character str.split separates tokens at (none lies above U+3000),
# and those of them at which str.splitlines also breaks lines.
WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]
LINE_BREAK_CHARS = [c for c in WHITESPACE if len(f"a{c}b".splitlines()) == 2]


def check_cut(monkeypatch, marked):
    """Parse ``marked`` less its '|' with the piece size set so that the
    first cut is sought at the '|' (and each later one as far on): the
    pieces keep tokens and lines whole, and the result is the reference
    parser's.  Returns the pieces the text was cut into."""
    text = marked.replace("|", "", 1)
    monkeypatch.setattr(cli, "_CHUNK", marked.index("|"))
    boundary = cli._LINE_BREAK if "#" in text else cli._SPACE
    pieces = list(cli._pieces(text, boundary))
    assert "".join(pieces) == text
    for piece in pieces[:-1]:
        assert len(piece) >= cli._CHUNK and boundary.fullmatch(piece[-1])
    kept = [line for line in text.splitlines() if not line.strip().startswith("#")]
    tokens = [tok for piece in cli._token_pieces(text) for tok in piece]
    assert tokens == [tok for line in kept for tok in line.split()]
    got = parse_result(parse_instance_text, text)
    assert got == parse_result(reference_frontend.parse_instance_text, text)
    return pieces


NON_INTEGER_X = "non-integer token in instance file: invalid literal for int() with base 10: 'x'"
TOO_FEW = "instance file needs at least 'n T' on the first line"


class TestParserInSmallChunks:
    """The parser with its piece size cut to a few characters, so that
    cuts land everywhere, against the reference parser."""

    def test_cut_classes_are_the_str_methods(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert cli._SPACE.findall(every) == WHITESPACE
        assert cli._LINE_BREAK.findall(every) == LINE_BREAK_CHARS

    @staticmethod
    def check_every_small_chunk(text):
        expected = parse_result(reference_frontend.parse_instance_text, text)
        with pytest.MonkeyPatch.context() as mp:
            for chunk in range(1, 9):
                mp.setattr(cli, "_CHUNK", chunk)
                assert parse_result(parse_instance_text, text) == expected

    @given(instance_texts())
    @settings(max_examples=300)
    def test_same_instance_or_same_error(self, text):
        self.check_every_small_chunk(text)

    @given(st.text(alphabet="0123456789-#a" + "".join(WHITESPACE), max_size=40))
    @settings(max_examples=300)
    def test_same_result_on_arbitrary_text(self, text):
        self.check_every_small_chunk(text)

    @pytest.mark.parametrize(
        "marked, first_ends",
        [
            ("2 100\n12|3456 234567\n345678 456789\n", "\n123456 "),
            ("# c\n2 100\n12|3456 234567\n345678 456789\n", "\n123456 234567\n"),
        ],
    )
    def test_cut_inside_a_token(self, monkeypatch, marked, first_ends):
        assert check_cut(monkeypatch, marked)[0].endswith(first_ends)

    @pytest.mark.parametrize("ws", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
    @pytest.mark.parametrize("comment", ["", "# c\n"])
    def test_cut_on_whitespace(self, monkeypatch, comment, ws):
        pieces = check_cut(monkeypatch, f"{comment}2 10\n1|{ws}2\n3 4\n")
        if not comment or ws in LINE_BREAK_CHARS:
            assert pieces[0].endswith(f"1{ws}")
        else:
            assert pieces[0].endswith(f"1{ws}2\n")

    def test_cut_inside_crlf(self, monkeypatch):
        pieces = check_cut(monkeypatch, "# c\r\n2 10|\r\n1 2\r\n3 4\r\n")
        assert pieces[0].endswith("10\r") and pieces[1].startswith("\n")

    @pytest.mark.parametrize(
        "marked, first_ends",
        [
            ("2 10\n# no|te 5\n1 2\n3 4\n", "# note 5\n"),
            ("2 10\n \t# no|te 5\n1 2\n3 4\n", " \t# note 5\n"),
            ("2 10\n\u3000|\xa0# note 5\n1 2\n3 4\n", "\u3000\xa0# note 5\n"),
            ("2 10\n|  # note 5\n1 2\n3 4\n", "  # note 5\n"),
            ("2 10\n#|\r\n1 2\n3 4\n", "\n#\r"),
        ],
    )
    def test_cut_inside_a_comment_line(self, monkeypatch, marked, first_ends):
        assert check_cut(monkeypatch, marked)[0].endswith(first_ends)

    @pytest.mark.parametrize(
        "marked, message",
        [
            ("2 10\n1 2|\n3 x\n", NON_INTEGER_X),
            ("# c\n2 10\n1 2|\n3 x\n", NON_INTEGER_X),
            ("x|  5\n", NON_INTEGER_X),
            ("x|\n\n", TOO_FEW),
            ("# c\n x|\n\n", TOO_FEW),
        ],
    )
    def test_error_from_a_later_piece(self, monkeypatch, capsys, tmp_path, marked, message):
        pieces = check_cut(monkeypatch, marked)
        assert len(pieces) > 1
        path = tmp_path / "bad.txt"
        path.write_bytes("".join(pieces).encode())
        assert run_cli(capsys, "solve", str(path), "--algorithm", "dp") == (
            EXIT_PARSE, "", f"error: {message}\n"
        )


class TestTextMemory:
    """Parse and serialize hold a bounded piece of the text at a time, on
    the instance of the fptas-c100k workload (C n = 100,000, seed 1)."""

    @pytest.fixture(scope="class")
    def c100k(self):
        inst = instgen.gen_c(100_000, Fraction(3, 2), 1)
        return inst, serialize_instance(inst)

    @staticmethod
    def traced(fn, arg):
        """fn(arg), the bytes it allocated and kept, and their peak."""
        gc.collect()
        tracemalloc.start()
        try:
            result = fn(arg)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept, peak

    def test_parse_peak_near_the_columns_it_returns(self, c100k):
        inst, text = c100k
        got, columns, peak = self.traced(parse_instance_text, text)
        assert got == inst
        # the token list of one split of the whole text took 2.8x
        assert peak <= 1.6 * columns

    def test_serialize_peak_beyond_its_text(self, c100k):
        inst, text = c100k
        got, _, peak = self.traced(serialize_instance, inst)
        assert got == text
        # the list of every line and their join took 11 MiB beyond the text
        assert peak - sys.getsizeof(got) < 4 * 2**20


def refuse_pairs(inst):
    raise AssertionError("the input's (lo, hi) pairs were built")


class TestColumnarFrontEnd:
    def test_solve_builds_intervals_for_the_scanned_prefix_only(self, monkeypatch):
        # issp solve's op on C n = 20,000: the scan exits at item 360, inside
        # the length order's first chunk, and every pass reads the columns,
        # so no (lo, hi) pair is built, for the scanned prefix or any other
        n = 20_000
        text = serialize_instance(issp.gen_c(n, Fraction(3, 2), 1))
        views = []
        sort = cli.sort_by_length
        monkeypatch.setattr(core.Instance, "original", property(refuse_pairs))
        monkeypatch.setattr(cli, "sort_by_length", lambda inst: views.append(sort(inst)) or views[-1])
        inst = parse_instance_text(text)
        out = cli._solve_instance(inst, "auto", Fraction(1, 1000))
        assert cli.evaluate(inst, out.solution) == out.value
        assert core.midrange_count(inst, out.solution) <= 1
        assert out.midrange_index == 360 and len(views) == 1

    @pytest.mark.parametrize(
        "pairs, t, route",
        [
            ([(3, 5), (4, 6)], 9, "a"),
            ([(3, 5), (200, 300), (4, 6)], 9, "a"),  # reduced: origin (0, 2)
            ([(5, 10), (5, 10), (5, 10)], 14, "b"),
            ([(5, 10)] * 10 + [(1, 2)], 24, "c"),
            ([(10, 20), (10, 25), (60, 85), (30, 50)], 100, None),
        ],
    )
    def test_no_pass_builds_an_interval(self, monkeypatch, capsys, tmp_path, pairs, t, route):
        monkeypatch.setattr(core.Instance, "original", property(refuse_pairs))
        inst = validate(pairs, t)
        poly = analysis.solve_polynomial(sort_by_length(preprocess(inst)))
        assert (poly and poly.stats["route"]) == route
        for algorithm in ("fptas", "dp", "brute", "auto"):
            out = cli._solve_instance(inst, algorithm, Fraction(1, 10))
            assert core.evaluate(inst, out.solution) == out.value
            assert core.midrange_count(inst, out.solution) <= 1
        path = tmp_path / "inst.txt"
        path.write_text(serialize_instance(inst))
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, err) == (0, "")
        assert f"polynomial route: {'none' if route is None else f'({route})'}\n" in out


class TestSolveCommand:
    def test_solves_file_exactly(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("2 100\n10 20\n5 90\n")
        code, out, _ = run_cli(capsys, "solve", str(path), "--algorithm", "dp")
        assert code == 0
        assert "value 100" in out
        assert "kind exact" in out

    def test_json_output_is_self_consistent(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("4 100\n10 20\n10 25\n60 85\n20 50\n")
        code, out, _ = run_cli(
            capsys, "solve", str(path), "--algorithm", "fptas", "--epsilon", "1/5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 100
        assert sum(payload["solution"]) == 100
        assert payload["kind"] == "exact"
        assert payload["epsilon"] == "1/5"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("not an instance\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == EXIT_PARSE
        assert "error" in err

    @pytest.mark.parametrize("command", ["solve", "classify"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_utf8_input_exit_code(self, tmp_path, capsys, monkeypatch, command, source):
        data = b"2 100\n10 20\n10 \xff25\n"
        if source == "file":
            path = tmp_path / "bad.txt"
            path.write_bytes(data)
            arg = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            arg = "-"
        argv = [command, arg] + (["--epsilon", "1/10"] if command == "solve" else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err and "0xff" in err

    def test_non_utf8_stdin_through_entry_point(self):
        # strict decoding, as under a UTF-8 locale other than C.UTF-8
        proc = run_entry_point(
            "solve", "-", "--epsilon", "1/10", stdin=b"1 100\n\xff 20\n",
            PYTHONIOENCODING="utf-8:strict",
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: standard input is not UTF-8 text")
        assert proc.stderr.count(b"\n") == 1

    def test_missing_epsilon_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("1 10\n2 3\n")
        code, _, err = run_cli(capsys, "solve", str(path), "--algorithm", "fptas")
        assert code == EXIT_FLAGS
        assert "epsilon" in err

    def test_brute_force_over_cap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("26 1000\n" + "1 2\n" * 26)  # T > max hi: all 26 reach the solver
        code, out, err = run_cli(capsys, "solve", str(path), "--algorithm", "brute")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "26" in err

    def test_auto_never_worse_than_fptas(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("4 100\n10 20\n10 25\n60 85\n30 50\n")
        code, out_auto, _ = run_cli(
            capsys, "solve", str(path), "--algorithm", "auto", "--epsilon", "1/10", "--json"
        )
        code2, out_fptas, _ = run_cli(
            capsys, "solve", str(path), "--algorithm", "fptas", "--epsilon", "1/10", "--json"
        )
        assert code == code2 == 0
        assert json.loads(out_auto)["value"] >= json.loads(out_fptas)["value"]

    @pytest.mark.parametrize("eps", ["abc", "nan", "0", "1", "-0.5"])
    def test_invalid_epsilon_exit_code(self, tmp_path, capsys, eps):
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)
        code, out, err = run_cli(
            capsys, "solve", str(path), "--algorithm", "fptas", "--epsilon", eps
        )
        assert code == EXIT_FLAGS
        assert out == ""
        assert err.count("\n") == 1 and "epsilon" in err

    @pytest.mark.parametrize("eps", ["1e-8", "1e-400"])
    def test_tiny_epsilon_exceeds_budget(self, tmp_path, capsys, eps):
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)
        code, out, err = run_cli(
            capsys, "solve", str(path), "--algorithm", "fptas", "--epsilon", eps
        )
        assert code == EXIT_BUDGET
        assert out == ""
        assert "budget" in err

    @pytest.mark.parametrize("algorithm", ["dp", "fptas"])
    def test_malformed_budget_setting_exit_code(self, tmp_path, capsys, monkeypatch, algorithm):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "abc")
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)
        code, out, err = run_cli(
            capsys, "solve", str(path), "--algorithm", algorithm, "--epsilon", "1/5"
        )
        assert code == EXIT_FLAGS
        assert err.count("\n") == 1 and "ISSP_MEMORY_BUDGET_MB" in err

    @pytest.mark.parametrize("algorithm", ["dp", "fptas"])
    def test_negative_budget_setting_exit_code(self, tmp_path, capsys, monkeypatch, algorithm):
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "-5")
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)
        code, out, err = run_cli(
            capsys, "solve", str(path), "--algorithm", algorithm, "--epsilon", "1/5"
        )
        assert code == EXIT_FLAGS
        assert out == ""
        assert err.count("\n") == 1 and "ISSP_MEMORY_BUDGET_MB" in err and "-5" in err

    def test_dense_instance_over_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        # the bitset would need 35 MB and the sparse set outgrows 1 MiB at 128 B a sum
        monkeypatch.setenv("ISSP_MEMORY_BUDGET_MB", "1")
        pairs = [(10_000 + 397 * k, 10_000 + 410 * k) for k in range(100)]
        path = tmp_path / "inst.txt"
        path.write_text(serialize_instance(validate(pairs, 10**7)))
        code, out, err = run_cli(capsys, "solve", str(path), "--algorithm", "dp")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err.endswith(
            ", over the memory budget of 1048576 B; raise ISSP_MEMORY_BUDGET_MB to override\n"
        )

    def test_value_self_check_exit_code(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)
        real = cli._solve_instance

        def off_by_one(*args):
            out = real(*args)
            return dataclasses.replace(out, value=out.value + 1)

        monkeypatch.setattr(cli, "_solve_instance", off_by_one)
        code, out, err = run_cli(capsys, "solve", str(path), "--algorithm", "dp")
        assert code == EXIT_BUG
        assert out == ""
        assert "solver bug" in err

    def test_value_self_check_survives_optimize_flag(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)
        script = (
            "import dataclasses, sys\n"
            "from issp import cli\n"
            "real = cli._solve_instance\n"
            "def off_by_one(*args):\n"
            "    out = real(*args)\n"
            "    return dataclasses.replace(out, value=out.value + 1)\n"
            "cli._solve_instance = off_by_one\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = str(Path(issp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, "solve", str(path), "--algorithm", "dp"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == EXIT_BUG
        assert "solver bug" in proc.stderr

    def test_elapsed_covers_the_detectors(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)

        def slow_detectors(inst):
            time.sleep(0.05)
            return None

        monkeypatch.setattr(analysis, "solve_polynomial", slow_detectors)
        code, out, err = run_cli(capsys, "solve", str(path), "--epsilon", "1/5", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["elapsed_s"] >= 0.05

    def test_elapsed_of_a_settled_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("1 5\n3 7\n")  # T lies in the interval
        code, out, err = run_cli(capsys, "solve", str(path), "--algorithm", "dp", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["elapsed_s"] > 0

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.txt"
        path.write_text(GOLDEN_FILE)

        def no_pair(*args):
            raise IsspError("sweep exhausted ascending side")

        monkeypatch.setattr(fptas, "find_u1_u2", no_pair)
        code, out, err = run_cli(
            capsys, "solve", str(path), "--algorithm", "fptas", "--epsilon", "1/5"
        )
        assert code == EXIT_BUG
        assert (out, err) == ("", "error: solver bug: sweep exhausted ascending side\n")

    @pytest.mark.parametrize(
        "field, value, route",
        [("min_length", 10**30, "large-target"), ("wide", True, "wide-interval")],
        ids=["large-target", "wide-interval"],
    )
    def test_broken_route_guarantee_exit_code(self, tmp_path, capsys, monkeypatch, field, value, route):
        # with min length 10**30 the large-target route fires, and with wide
        # set the wide-interval route does, but the longest fitting prefix
        # (two items, his 90) cannot cover T = 100
        path = tmp_path / "inst.txt"
        path.write_text("3 100\n40 45\n40 45\n40 45\n")
        real = analysis.aggregates
        monkeypatch.setattr(
            analysis, "aggregates", lambda inst: real(inst)._replace(**{field: value})
        )
        code, out, err = run_cli(capsys, "solve", str(path), "--epsilon", "1/10")
        assert code == EXIT_BUG
        assert out == ""
        assert f"solver bug: {route} route" in err


class TestGenerateCommand:
    def test_family_b_formula(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--family", "B", "--n", "10")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "10 485"
        assert lines[1] == "111 111"
        assert lines[10] == "120 120"

    def test_family_a_cap_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--family", "A", "--n", "63")
        assert code == EXIT_FLAGS

    def test_family_c_deterministic(self, capsys):
        args = ["generate", "--family", "C", "--n", "5", "--c", "3/2", "--seed", "1"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_family_c_requires_ratio(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--family", "C", "--n", "5")
        assert code == EXIT_FLAGS

    @pytest.mark.parametrize(
        "flags",
        [
            ("--family", "D", "--n", "5"),
            ("--family", "C", "--n", "5", "--c", "1/0"),
            ("--family", "D", "--n", "5", "--C", "1/0"),
        ],
    )
    def test_bad_family_parameter_exit_code(self, capsys, flags):
        code, out, err = run_cli(capsys, "generate", *flags)
        assert code == EXIT_FLAGS
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        if "1/0" in flags:
            assert "'1/0'" in err

    @pytest.mark.parametrize(
        "family, n, param",
        [("A", 12, None), ("B", 300, None), ("C", 300, "3/2"), ("D", 300, "13/10")],
    )
    @pytest.mark.parametrize("lines", [None, 64])
    def test_writes_serialize_instance_piece_by_piece(self, monkeypatch, family, n, param, lines):
        if lines:
            monkeypatch.setattr(cli, "_CHUNK", 16 * lines)
        lines = cli._CHUNK // 16
        monkeypatch.setattr(sys, "stdout", WriteLog())
        flags = ["--family", family, "--n", str(n), "--seed", "3"]
        if param:
            flags += ["--C" if family == "D" else "--c", param]
        assert main(["generate", *flags]) == 0
        inst = instgen.generate(
            instgen.GenSpec(family, n, param and Fraction(param), seed=3)
        )
        assert sys.stdout.getvalue() == serialize_instance(inst)
        assert len(sys.stdout.writes) == 1 + -(-n // lines)

    def test_one_option_for_the_family_parameter(self, capsys):
        flags = ["generate", "--family", "D", "--n", "40", "--seed", "2"]
        code, out, err = run_cli(capsys, *flags, "--c", "13/10")
        assert (code, err) == (0, "") and out.startswith("40 ")
        assert run_cli(capsys, *flags, "--C", "13/10") == (code, out, err)
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        usage = capsys.readouterr().out
        assert "[--c RATIO] [--seed SEED]" in usage and usage.count("--C") == 1

    def test_generated_file_solves_round_trip(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--family", "C", "--n", "8", "--c", "3/2", "--seed", "2"
        )
        assert code == 0
        path = tmp_path / "c.txt"
        path.write_text(out)
        code, solved, _ = run_cli(
            capsys, "solve", str(path), "--algorithm", "auto", "--epsilon", "1/10"
        )
        assert code == 0
        assert solved.startswith("value ")


class TestClassifyCommand:
    def test_reports_route_and_value(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("2 9\n3 5\n4 6\n")
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert "large-target condition: yes" in out
        assert "polynomial route: (a)" in out
        assert "value 9" in out

    def test_reports_no_route(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("4 100\n10 20\n10 25\n60 85\n30 50\n")
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert "large-target condition: no" in out
        assert "c* = 17/12" in out  # 85/60 in lowest terms
        assert "polynomial route: none" in out

    def test_zero_length_interval_leaves_stderr_empty(self):
        proc = run_entry_point("classify", "-", stdin=b"2 100\n5 5\n10 30\n")
        assert proc.returncode == 0
        assert b"large-target condition: no (zero-length interval present; condition undefined)\n" in proc.stdout
        assert proc.stderr == b""

    def test_reports_immediate_solution(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        path.write_text("1 5\n3 8\n")
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        assert "immediate" in out
        assert "value 5" in out

    @pytest.mark.parametrize(
        "text, report, value",
        [
            (
                "3 100\n10 20\n400 500\n30 90\n",
                "preprocessing: dropped intervals 1\n"
                "large-target condition: yes\n"
                "c* = 2 (>= 2)\n"
                "polynomial route: (a)\n"
                "value 100\n",
                100,
            ),
            (
                "2 10\n50 60\n70 80\n",
                "preprocessing: dropped intervals 0 1\nempty after preprocessing; optimum 0\n",
                0,
            ),
            (
                "0 5\n",
                "preprocessing: instance already normalized (T > max hi)\n"
                "empty after preprocessing; optimum 0\n",
                0,
            ),
        ],
    )
    def test_reports_preprocessing(self, tmp_path, capsys, text, report, value):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        assert run_cli(capsys, "classify", str(path)) == (0, report, "")
        code, out, _ = run_cli(capsys, "solve", str(path), "--epsilon", "1/10", "--json")
        assert code == 0
        assert json.loads(out)["value"] == value


class TestBenchCommand:
    def test_csv_schema_and_error_bound(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--suite",
            "C",
            "--sizes",
            "50",
            "--c",
            "3/2",
            "--epsilons",
            "0.01",
            "--trials",
            "3",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == BENCH_HEADER
        assert len(rows) == 2
        record = dict(zip(BENCH_HEADER, rows[1]))
        assert record["family"] == "C"
        assert record["n"] == "50"
        assert record["trials"] == "3"
        assert float(record["avg_rel_err_pct"]) <= 1.0
        assert float(record["worst_rel_err_pct"]) <= 1.0

    def test_deterministic_with_fixed_seed(self, capsys):
        args = [
            "bench", "--suite", "D", "--sizes", "20", "--c", "13/10",
            "--epsilons", "0.1", "--trials", "2", "--seed", "5",
        ]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        # everything except wall-clock timings is a pure function of the seed
        assert strip_times(out1) == strip_times(out2)

    def test_holds_one_instance_at_a_time(self, capsys, monkeypatch):
        # each trial's instance is generated once, solved at every epsilon
        # and freed before the next trial's is generated
        alive = weakref.WeakSet()
        held = []
        real = instgen.generate

        def generate(spec):
            held.append(len(alive))
            inst = real(spec)
            alive.add(inst)
            return inst

        monkeypatch.setattr(instgen, "generate", generate)
        code, out, err = run_cli(
            capsys, "bench", "--suite", "C", "--sizes", "50,60", "--c", "3/2",
            "--epsilons", "1/10,1/100", "--trials", "3",
        )
        assert (code, err) == (0, "")
        assert len(strip_times(out)) == 1 + 2 * 2
        assert held == [0] * 6
        assert len(alive) == 0

    def test_one_spec_per_cell_before_the_first_trial(self, capsys, monkeypatch):
        # three cells of 1,000 trials: each cell's spec is checked before the
        # first trial, and each trial makes its own spec when it runs
        made = []
        real = instgen.GenSpec.__post_init__

        def post_init(spec):
            made.append(spec)
            real(spec)

        class FirstTrial(Exception):
            pass

        def first_trial(*args):
            raise FirstTrial(len(made))

        monkeypatch.setattr(instgen.GenSpec, "__post_init__", post_init)
        monkeypatch.setattr(cli, "_bench_trial", first_trial)
        with pytest.raises(FirstTrial) as info:
            main(["bench", "--suite", "C", "--sizes", "10", "--trials", "1000"])
        assert info.value.args == (3,)
        assert capsys.readouterr().out == ""

    def test_checks_every_answer(self, capsys, monkeypatch):
        real = fptas.fptas_solve

        def off_by_one(*args):
            out = real(*args)
            return dataclasses.replace(out, value=out.value + 1)

        monkeypatch.setattr(fptas, "fptas_solve", off_by_one)
        code, out, err = run_cli(capsys, "bench", "--suite", "C", "--sizes", "30", "--c", "3/2")
        assert code == EXIT_BUG
        assert out == ""  # no row for an unchecked answer
        assert err.startswith("error: solver bug: reported value ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "error, code", [(MemoryBudgetExceeded, EXIT_BUDGET), (IsspError, EXIT_BUG)]
    )
    def test_later_cell_failing_writes_no_row(self, capsys, monkeypatch, error, code):
        # the cell n = 20 passes, then n = 30 fails: no header and no row of
        # the first cell reach stdout
        real = fptas.fptas_solve

        def fail_at_30(inst, eps):
            if inst.input.n == 30:
                raise error("second cell")
            return real(inst, eps)

        monkeypatch.setattr(fptas, "fptas_solve", fail_at_30)
        args = ["bench", "--suite", "C", "--sizes", "20,30", "--c", "3/2", "--epsilons", "0.1"]
        got = run_cli(capsys, *args)
        assert got[:2] == (code, "")
        assert got[2].startswith("error: ") and "second cell" in got[2]
        monkeypatch.setattr(fptas, "fptas_solve", real)
        assert len(strip_times(run_cli(capsys, *args)[1])) == 1 + 2

    def test_exact_reference_for_family_a(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--suite", "A", "--sizes", "10", "--epsilons", "0.1"
        )
        assert code == 0
        record = dict(zip(BENCH_HEADER, list(csv.reader(io.StringIO(out)))[1]))
        assert float(record["avg_rel_err_pct"]) <= 10.0

    @pytest.mark.parametrize(
        "flags, code",
        [
            (("--suite", "B", "--sizes", "10,0"), EXIT_FLAGS),
            (("--suite", "D", "--sizes", "10,-3", "--c", "13/10"), EXIT_FLAGS),
            (("--suite", "C", "--c", "1/2", "--sizes", "10"), EXIT_FLAGS),
        ],
    )
    def test_refuses_every_bad_cell_before_writing(self, capsys, flags, code):
        # every cell is checked before the header: n and the parameter
        got, out, err = run_cli(capsys, "bench", *flags, "--epsilons", "0.1")
        assert (got, out) == (code, "")
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_zero_trials_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--suite", "B", "--sizes", "10", "--epsilons", "0.1", "--trials", "0"
        )
        assert code == EXIT_FLAGS
        assert out == ""
        assert err.count("\n") == 1 and "trials" in err

    @pytest.mark.parametrize("epsilons", ["x", "0.1,2"])
    def test_invalid_epsilons_exit_code(self, capsys, epsilons):
        code, out, err = run_cli(
            capsys, "bench", "--suite", "B", "--sizes", "10", "--epsilons", epsilons
        )
        assert code == EXIT_FLAGS
        assert out == ""
        assert err.count("\n") == 1 and "epsilon" in err

    @pytest.mark.parametrize(
        "flags",
        [("--sizes", "x"), ("--sizes", "0"), ("--c", "x"), ("--c", "1/2"), ("--c", "1/0")],
    )
    def test_invalid_instance_flags_exit_code(self, capsys, flags):
        args = ["bench", "--suite", "C", "--sizes", "10", "--c", "3/2", "--epsilons", "0.1"]
        args[args.index(flags[0]) + 1] = flags[1]
        code, _, err = run_cli(capsys, *args)
        assert code == EXIT_FLAGS
        assert err.count("\n") == 1 and err.startswith("error:")
        if flags[1] == "1/0":
            assert "'1/0'" in err


# good and bad flag values and stdin texts for the contract fuzz below; with
# no budget set, epsilons 1e-6 and 1e-7 are refused for their bucket count
FUZZ_RATIOS = ["3/2", "1/2", "1", "13/10", "1e5000", "1e-5000", "nan", "1/0", "x", ""]
FUZZ_EPSILONS = ["1/10", "1/100", "0.001", "1e-6", "1e-7", "0", "2", "abc"]
FUZZ_STDIN = [
    "2 100\n10 20\n10 25\n",
    GOLDEN_FILE,
    "",
    "2 100\n10 x\n10 25\n",
    "1 0\n1 2\n",
    "1 10\n7 3\n",
    "1 10\n0 5\n",
    "# comment\n1 5\n3 7\n",
    "2 100\n10 20\n",
    "2 10\n20 30\n40 50\n",
]


class TestErrorsReachMain:
    """Usage errors and failed writes end like every other error: one
    ``error:`` line on stderr and a defined exit code."""

    # row id: (exit code, environment, argv, how stderr starts), each run
    # with a two-interval instance on stdin.  Each bench row refuses a cell
    # before it writes the CSV header, so a partial CSV on stdout fails it;
    # an empty --sizes is refused like an empty --epsilons, not read as the
    # default sizes.
    BAD_INVOCATIONS = {
        "solve-unknown-algorithm": (
            EXIT_FLAGS, {}, ["solve", "x", "--algorithm", "foo"], "error: issp"
        ),
        "bench-trials-not-int": (
            EXIT_FLAGS, {}, ["bench", "--suite", "C", "--trials", "abc"], "error: issp"
        ),
        "generate-without-n": (EXIT_FLAGS, {}, ["generate", "--family", "C"], "error: issp"),
        "no-command": (EXIT_FLAGS, {}, [], "error: issp"),
        "solve-missing-file": (EXIT_PARSE, {}, ["solve", "/nonexistent/instance.txt"], "error: "),
        "solve-epsilon-2": (EXIT_FLAGS, {}, ["solve", "-", "--epsilon", "2"], "error: "),
        "dp-budget-0": (
            EXIT_BUDGET, {"ISSP_MEMORY_BUDGET_MB": "0"}, ["solve", "-", "--algorithm", "dp"], "error: "
        ),
        "bench-size-0-after-10": (
            EXIT_FLAGS, {}, ["bench", "--suite", "B", "--sizes", "10,0", "--epsilons", "0.1"], "error: "
        ),
        "bench-empty-sizes": (
            EXIT_FLAGS, {}, ["bench", "--suite", "B", "--sizes", "", "--epsilons", "0.1"], "error: "
        ),
        "bench-c-below-1": (
            EXIT_FLAGS, {}, ["bench", "--suite", "C", "--c", "1/2", "--sizes", "10", "--epsilons", "0.1"],
            "error: ",
        ),
        "bench-family-a-above-62": (
            EXIT_FLAGS, {}, ["bench", "--suite", "A", "--sizes", "63", "--epsilons", "0.1"],
            "error: family A supports 1 <= n <= 62, got 63",
        ),
    }

    @pytest.mark.parametrize("row", list(BAD_INVOCATIONS))
    def test_bad_invocation(self, capsys, monkeypatch, row):
        code, env, argv, err_start = self.BAD_INVOCATIONS[row]
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(sys, "stdin", io.StringIO("2 100\n10 20\n10 25\n"))
        got, out, err = run_cli(capsys, *argv)
        assert (got, out) == (code, "")
        assert err.startswith(err_start) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "error, code, line",
        [
            (InputError, EXIT_PARSE, "error: stub\n"),
            (InvalidSetting, EXIT_FLAGS, "error: stub\n"),
            (MemoryBudgetExceeded, EXIT_BUDGET, "error: stub\n"),
            (InstanceTooLarge, EXIT_BUDGET, "error: stub\n"),
            (IsspError, EXIT_BUG, "error: solver bug: stub\n"),
        ],
    )
    def test_each_error_class_has_its_exit_code(self, capsys, monkeypatch, error, code, line):
        def stub(args, out):
            raise error("stub")

        monkeypatch.setattr(cli, "cmd_generate", stub)
        assert run_cli(capsys, "generate", "--family", "B", "--n", "5") == (code, "", line)

    @given(
        st.sampled_from(["generate", "solve", "classify", "bench"]),
        st.data(),
        st.sampled_from(FUZZ_STDIN),
        st.sampled_from(["0", "x", "-1", None]),
    )
    @settings(max_examples=800, deadline=None)
    def test_every_invocation_ends_in_a_defined_code(self, command, data, stdin, budget):
        n = data.draw(st.integers(0, 63).map(str) | st.sampled_from(["-3", "x"]))
        family = data.draw(st.sampled_from("ABCD"))
        eps = data.draw(st.sampled_from(FUZZ_EPSILONS))
        ratio = ["--c", data.draw(st.sampled_from(FUZZ_RATIOS))]
        algorithm = ["--algorithm", data.draw(st.sampled_from(["fptas", "dp", "brute", "auto"]))]
        # each command's fixed arguments, then the flags it may take
        argv, optional = {
            "generate": (["generate", "--family", family, "--n", n], [ratio]),
            "solve": (["solve", "-"], [["--epsilon", eps], algorithm, ["--json"]]),
            "classify": (["classify", "-"], []),
            "bench": (["bench", "--suite", family, "--sizes", n, "--epsilons", eps], [ratio]),
        }[command]
        for flag in optional:
            if data.draw(st.booleans()):
                argv += flag
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            if budget is None:
                mp.delenv("ISSP_MEMORY_BUDGET_MB", raising=False)
            else:
                mp.setenv("ISSP_MEMORY_BUDGET_MB", budget)
            mp.setattr(sys, "stdin", io.StringIO(stdin))
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, EXIT_PARSE, EXIT_FLAGS, EXIT_BUDGET)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "-", "--epsilon", "1e-1000000000"],
            ["generate", "--family", "C", "--n", "1", "--c", "1e1000000000"],
            ["bench", "--suite", "B", "--sizes", "10", "--epsilons", "1e-1000000000"],
        ],
    )
    def test_huge_exponent_refused_before_it_expands(self, argv):
        # Fraction would compute 10**(10**9) first; the child's address space
        # and time are capped so that doing so fails fast
        resource = pytest.importorskip("resource")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        command, env = entry_point(*argv)
        proc = subprocess.run(
            command, input=b"2 100\n10 20\n10 25\n", capture_output=True, env=env,
            preexec_fn=cap_memory, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (EXIT_FLAGS, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
        assert b"exponent" in proc.stderr

    @pytest.mark.parametrize("argv", [["-h"], ["solve", "-h"]])
    def test_help_exits_zero_with_usage_on_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: issp") and err == ""

    @pytest.mark.parametrize("python_flags", [(), ("-O",)])
    def test_closed_stdout_pipe(self, python_flags):
        command, env = entry_point(
            "generate", "--family", "C", "--n", "200000", "--c", "3/2", python_flags=python_flags
        )
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(1) == b"2"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_PARSE
        assert err.startswith(b"error: ") and err.count(b"\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("python_flags", [(), ("-O",)])
    @pytest.mark.parametrize(
        "flags",
        [
            ("--family", "C", "--n", "200000", "--c", "3/2"),  # fails while writing
            ("--family", "B", "--n", "10"),  # fits the buffer, so fails at main's flush
        ],
    )
    def test_full_disk(self, python_flags, flags):
        command, env = entry_point("generate", *flags, python_flags=python_flags)
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, env=env, timeout=120)
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1


def instance_text(target, pairs):
    """An instance file: the count and target line, then one line per interval."""
    return f"{len(pairs)} {target}\n" + "".join(f"{lo} {hi}\n" for lo, hi in pairs)


@functools.cache
def generated_text(flags):
    """What `issp generate` writes for the space-separated ``flags``, made
    once per test session."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["generate", *flags.split()]) == 0
    return out.getvalue()


class Gen(NamedTuple):
    """A stdin recipe: `issp generate` with ``flags``, T times ``scale``. A
    ``header`` line goes first and switches every line end to CRLF."""

    flags: str
    scale: int = 1
    header: str = ""

    def text(self):
        head, body = generated_text(self.flags).split("\n", 1)
        n, t = head.split()
        text = f"{n} {int(t) * self.scale}\n{body}"
        return f"{self.header}\n{text}".replace("\n", "\r\n") if self.header else text


def solve_line(capsys, monkeypatch, text, *args):
    """`issp solve - ARGS --json` on ``text``, in process, as "value kind
    midrange_index" and the first 16 hex digits of the SHA-256 of the
    space-separated solution.  A StringIO, like real stdin and unlike a
    default TextIOWrapper, hands the text over with its line ends as they are."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "solve", "-", *args, "--json")
    assert (code, err) == (0, "")
    r = json.loads(out)
    digest = hashlib.sha256(" ".join(map(str, r["solution"])).encode()).hexdigest()[:16]
    return f"{r['value']} {r['kind']} {r['midrange_index']} {digest}"


class TestPinnedOutput:
    """Exact `bench` rows (less their timings), `generate` files and `solve`
    answers: each is a pure function of its input and flags, so any
    difference is a behaviour change."""

    PINNED_BENCH = {
        ("--suite", "A", "--sizes", "10,15"): [
            "A,10,,1/10,0.000,1,0.000",
            "A,10,,1/100,0.000,1,0.000",
            "A,10,,1/1000,0.000,1,0.000",
            "A,15,,1/10,0.000,1,0.000",
            "A,15,,1/100,0.000,1,0.000",
            "A,15,,1/1000,0.000,1,0.000",
        ],
        ("--suite", "B", "--sizes", "1,10"): [
            "B,1,,1/10,0.000,1,0.000",
            "B,1,,1/100,0.000,1,0.000",
            "B,1,,1/1000,0.000,1,0.000",
            "B,10,,1/10,0.000,1,0.000",
            "B,10,,1/100,0.000,1,0.000",
            "B,10,,1/1000,0.000,1,0.000",
        ],
        ("--suite", "C", "--sizes", "30", "--c", "3/2", "--trials", "2", "--seed", "4"): [
            "C,30,3/2,1/10,2.920,2,4.320",
            "C,30,3/2,1/100,0.000,2,0.000",
            "C,30,3/2,1/1000,0.000,2,0.000",
        ],
        ("--suite", "D", "--sizes", "30", "--c", "13/10", "--trials", "2"): [
            "D,30,13/10,1/10,7.944,2,8.821",
            "D,30,13/10,1/100,0.000,2,0.000",
            "D,30,13/10,1/1000,0.000,2,0.000",
        ],
        ("--suite", "A", "--sizes", "41,62"): [
            "A,41,,1/10,9.525,1,9.525",
            "A,41,,1/100,0.000,1,0.000",
            "A,41,,1/1000,0.000,1,0.000",
            "A,62,,1/10,7.937,1,7.937",
            "A,62,,1/100,0.000,1,0.000",
            "A,62,,1/1000,0.000,1,0.000",
        ],
    }

    PINNED_GENERATE = {
        ("--family", "A", "--n", "5"): "5 766\n265 265\n273 273\n289 289\n321 321\n385 385\n",
        ("--family", "B", "--n", "6"): "6 99\n43 43\n44 44\n45 45\n46 46\n47 47\n48 48\n",
        ("--family", "C", "--n", "4", "--c", "3/2", "--seed", "7"): (
            "4 300000000000000\n"
            "59733928249658 89600892374488\n"
            "59581729970536 89372594955805\n"
            "1164543739564 1746815609347\n"
            "43952200981469 65928301472204\n"
        ),
        ("--family", "D", "--n", "4", "--C", "13/10", "--seed", "7"): (
            "4 300000000000000\n"
            "82343468440055 89600892374488\n"
            "1554445238817 1746815609347\n"
            "69168930462184 79845500723675\n"
            "8306171982511 9307422871799\n"
        ),
    }

    # row id: (stdin, `solve` arguments, expected line, why the row is here).
    # The solution hash pins every value that the divide-and-conquer
    # reconstruction or the exact DP's backtrack chose.  C n = 100,000 at
    # 1/1000 and 1/100, with T x 10 and under CRLF walk every second half
    # of the divide-and-conquer on its first relaxed arrays; D n = 100,000
    # and C n = 1000 at 1/10,000 each re-run one, so the hashes pin both
    # second-half paths.
    PINNED_SOLVE = {
        "fptas-C100k": (
            Gen("--family C --n 100000 --c 3/2 --seed 1"), ("--epsilon", "1/1000"),
            "299956906375110 approximate 768 44265dd1424138a4",
            "the fptas-c100k workload's instance: the scan exits at item 768",
        ),
        "fptas-C100k-eps100": (
            Gen("--family C --n 100000 --c 3/2 --seed 1"), ("--epsilon", "1/100"),
            "299212499396923 approximate 2953 810d653d64ea5e18",
            "the walk on the second half's first relaxed arrays covers the most items",
        ),
        "fptas-C100k-Tx10": (
            Gen("--family C --n 100000 --c 3/2 --seed 1", scale=10), ("--epsilon", "1/1000"),
            "2997851522902498 approximate 2470 ab2dafe747a0dbf7",
            "the scan needs an extension of the lazily sorted length order (item 2,470)",
        ),
        "fptas-D100k": (
            Gen("--family D --n 100000 --C 13/10 --seed 1"), ("--epsilon", "1/1000"),
            "299722822258643 approximate 95 b3d96671cb9cf202",
            "the scan exits inside the length order's first chunk (item 95)",
        ),
        "fptas-D100k-lower-c": (
            Gen("--family D --n 100000 --c 13/10 --seed 1"), ("--epsilon", "1/1000"),
            "299722822258643 approximate 95 b3d96671cb9cf202",
            "--c and --C spell one option, so both give one line",
        ),
        "fptas-C1000-eps10000": (
            Gen("--family C --n 1000 --c 3/2 --seed 1"), ("--epsilon", "1/10000"),
            "300000000000000 exact 82 2e9d41a06c92650c",
            "428 of 438 snapshots have an empty bucket inside the occupied range",
        ),
        "fptas-B2000": (
            Gen("--family B --n 2000"), ("--epsilon", "1/1000"),
            "3999497499 approximate 2000 1556c18e5b3b90b5",
            "the scan never exits early; the top frame settles without its first half",
        ),
        "fptas-C100k-crlf": (
            Gen("--family C --n 100000 --c 3/2 --seed 1", header="# comment"),
            ("--epsilon", "1/1000"),
            "299956906375110 approximate 768 44265dd1424138a4",
            "a comment line makes the parser cut the CRLF text only at line breaks",
        ),
        "dp-C14-seed1": (
            Gen("--family C --n 14 --c 11/10 --seed 1"), ("--algorithm", "dp"),
            "300000000000000 exact 12 b9af4067af07f608",
            "an exact-sparse instance: the sparse set never repeats a sum",
        ),
        "dp-C14-seed2": (
            Gen("--family C --n 14 --c 11/10 --seed 2"), ("--algorithm", "dp"),
            "300000000000000 exact 8 8b010b1dc3095622",
            "an exact-sparse instance: the sparse set never repeats a sum",
        ),
        "dp-C14-seed3": (
            Gen("--family C --n 14 --c 11/10 --seed 3"), ("--algorithm", "dp"),
            "300000000000000 exact 9 01bef966866ef0b8",
            "an exact-sparse instance: the sparse set never repeats a sum",
        ),
        "dp-C24-seed10": (
            Gen("--family C --n 24 --c 11/10 --seed 10"), ("--algorithm", "dp"),
            "300000000000000 exact 16 da5e2dc03aa43a33",
            "the unbuilt pending block keeps it under the default budget",
        ),
        "dp-B100": (
            Gen("--family B --n 100"), ("--algorithm", "dp"),
            "498624 exact 100 6efbb8cab21c7c45",
            "the exact-dense instance: the bitset's backtrack replays from checkpoints",
        ),
        "dp-bitset-intervals": (
            instance_text(
                10**6, [(5 * 10**4 + 397 * k, 5 * 10**4 + 410 * k) for k in range(60)]
            ),
            ("--algorithm", "dp"),
            "1000000 exact 24 6917a88e87312e65",
            "bitset with lo < hi: five steps cut at T, the backtrack crosses three checkpoints",
        ),
        "dp-repeated-sums": (
            instance_text(
                9 * 10**9, [(10**6 * (1000 + 37 * k), 10**6 * (1000 + 41 * k)) for k in range(12)]
            ),
            ("--algorithm", "dp"),
            "9000000000 exact 11 3626abb941e8a99d",
            "sums repeat from the fourth item on, so the set's filter picks the first-reach runs",
        ),
        "dp-repeats-charged-as-stored": (
            instance_text(
                12 * 10**8, [(200 * (10**4 + 397 * k), 200 * (10**4 + 410 * k)) for k in range(60)]
            ),
            ("--algorithm", "dp"),
            "265140000 exact 60 13a45581965a939a",
            "918,549 sums; counted before repeats were filtered out, 256 MiB refused them",
        ),
        "dp-no-exit": (
            instance_text(
                10**12,
                [(3**j, 2 * 3**j) if j != 8 else (10**12 - 10**4, 10**12 - 7000) for j in range(12)],
            ),
            ("--algorithm", "dp"),
            "999999999560 exact 9 38c8ab731e857cf9",
            "the scan never reaches T; the backtrack ignores the pending items past item 9",
        ),
        "route-c": (
            Gen("--family C --n 100000 --c 3 --seed 1"),
            ("--algorithm", "auto", "--epsilon", "1/1000"),
            "300000000000000 exact None 2b373a041fe70399",
            "c = 3 makes every interval wide: route (c) fills the longest fitting prefix",
        ),
        "route-b": (
            instance_text(301, [(1 + i % 100, 101 + i % 100 + i % 101) for i in range(20000)]),
            ("--algorithm", "auto", "--epsilon", "1/1000"),
            "301 exact None 716c584da91a7954",
            "route (b) fills the 24 shortest intervals",
        ),
    }

    @pytest.mark.parametrize("flags", list(PINNED_BENCH))
    def test_bench_rows(self, capsys, flags):
        code, out, err = run_cli(capsys, "bench", *flags)
        assert (code, err) == (0, "")
        header, *rows = strip_times(out)
        assert header == ",".join(h for h in BENCH_HEADER if not h.endswith("_time_s"))
        assert rows == self.PINNED_BENCH[flags]

    @pytest.mark.parametrize("flags", list(PINNED_GENERATE))
    def test_generate_file(self, capsys, flags):
        assert run_cli(capsys, "generate", *flags) == (0, self.PINNED_GENERATE[flags], "")

    @pytest.mark.parametrize("row", list(PINNED_SOLVE))
    def test_solve_line(self, capsys, monkeypatch, row):
        stdin, args, line, _ = self.PINNED_SOLVE[row]
        if isinstance(stdin, Gen):
            text = stdin.text()
            assert ("\r\n" in text) == bool(stdin.header)
        else:
            text = stdin
        assert solve_line(capsys, monkeypatch, text, *args) == line
