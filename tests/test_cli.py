"""Command-line behavior: output formats, exit codes, round trips."""

from __future__ import annotations

import decimal
import io
import json
import subprocess
import sys
import time
import tracemalloc

import pytest

import updfa.cli
from updfa import (
    automaton,
    UpSet,
    build_minimal_automaton,
    build_pascal,
    minimize,
    parse_dfa,
    write_dfa,
)
from updfa.cli import bench_automaton, main

from conftest import subprocess_env
from test_automaton import EVEN_ONES, powers_of_two_dfa
from test_decision import base_power_dfa, instance, mutate, up4_instance
from test_pascal import copies_below_a_chain

CONDITIONS = {"UP0", "UP2", "UP3", "UP4"}


def write_tmp(tmp_path, dfa, name="a.dfa"):
    path = tmp_path / name
    path.write_text(write_dfa(dfa))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- decide


def test_decide_positive_text(tmp_path, capsys):
    dfa = build_minimal_automaton(UpSet.from_parts(5, [0, 1, 2, 4]), 2)
    code, out, _ = run(capsys, "decide", write_tmp(tmp_path, dfa))
    assert code == 0
    assert out.splitlines() == [
        "ultimately periodic",
        "period=5 remainders=0,1,2,4 mismatches=-",
    ]


def test_decide_negative_text(tmp_path, capsys):
    code, out, _ = run(capsys, "decide", write_tmp(tmp_path, powers_of_two_dfa()))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "not ultimately periodic"
    assert lines[1] == (
        "failed_condition=UP3 witness=2"
        " diagnostic=successor scc is not a positive-digit scc"
    )


def test_decide_reads_stdin(tmp_path, capsys, monkeypatch):
    dfa = build_minimal_automaton(UpSet.from_parts(3, [1]), 2)
    monkeypatch.setattr(sys, "stdin", io.StringIO(write_dfa(dfa)))
    code, out, _ = run(capsys, "decide", "-")
    assert code == 0
    assert "period=3 remainders=1 mismatches=-" in out


def test_decide_json_schema_on_corpus(tmp_path, capsys, corpus_sample):
    cases = [(s, 2 + i % 2) for i, s in enumerate(corpus_sample[:100])]
    for s, base in cases:
        path = write_tmp(tmp_path, build_minimal_automaton(s, base))
        code, out, _ = run(capsys, "--json", "decide", path)
        doc = json.loads(out)
        assert code == 0
        assert doc["ultimately_periodic"] is True
        assert sorted(doc) == ["mismatches", "period", "remainders", "ultimately_periodic"]
        assert doc["period"] == s.period
        assert doc["remainders"] == sorted(s.remainders)
        assert doc["mismatches"] == list(s.mismatches)


def test_decide_json_negative_schema(tmp_path, capsys):
    for dfa in (powers_of_two_dfa(), EVEN_ONES, up4_instance()):
        code, out, _ = run(capsys, "--json", "decide", write_tmp(tmp_path, dfa))
        doc = json.loads(out)
        assert code == 1
        assert doc["ultimately_periodic"] is False
        assert doc["failed_condition"] in CONDITIONS
        assert isinstance(doc["witness"], int) and doc["witness"] >= 0
        assert set(doc) <= {
            "ultimately_periodic",
            "failed_condition",
            "witness",
            "diagnostic",
        }


def test_decide_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/path.dfa")
    assert code == 2
    assert err.startswith("error:")


def test_decide_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.dfa"
    path.write_text("base 2\nstates 1\ninitial 0\ntrans 0 0 7\n")
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2
    assert "line 4" in err


def test_decide_base_power_period(tmp_path, capsys, monkeypatch):
    # 2^12 * N: extraction reads the exponent off the 0-chain of transient
    # states, so the period 4096 costs no more than a small one
    dfa = build_minimal_automaton(UpSet.from_parts(2**12, [0]), 2)
    code, out, _ = run(capsys, "--json", "decide", write_tmp(tmp_path, dfa))
    assert code == 0
    doc = json.loads(out)
    assert (doc["period"], doc["remainders"], doc["mismatches"]) == (4096, [0], [])
    # gen upset p=2^40 R=0 | decide -: both ends cost what the 42 states
    # do, not what the period declares
    code, text, _ = run(capsys, "gen", "upset", f"p={2**40}", "R=0")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run(capsys, "--json", "decide", "-")
    assert code == 0
    assert json.loads(out) == {
        "ultimately_periodic": True,
        "period": 2**40,
        "remainders": [0],
        "mismatches": [],
    }


def test_decide_rejects_removed_cap_flags(tmp_path):
    path = write_tmp(tmp_path, build_minimal_automaton(UpSet.from_parts(2, [0]), 2))
    with pytest.raises(SystemExit) as exc:
        main(["--max-exponent", "0", "decide", path])
    assert exc.value.code == 2


def test_decide_period_beyond_the_int_str_limit(tmp_path, capsys):
    # 2^14300 has 4,305 decimal digits, more than CPython >= 3.11 converts
    # by default; the command lifts that limit while it prints, then puts
    # it back
    path = write_tmp(tmp_path, base_power_dfa(14300, 2))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(capsys, "decide", path)
    code_json, out_json, _ = run(capsys, "--json", "decide", path)
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    # the decimal module prints the period without the int limit
    period = str(decimal.Decimal(2**14300))
    assert code == 0
    assert out.splitlines() == [
        "ultimately periodic",
        f"period={period} remainders=0 mismatches=-",
    ]
    assert code_json == 0
    assert json.loads(out_json, parse_int=str) == {
        "ultimately_periodic": True,
        "period": period,
        "remainders": ["0"],
        "mismatches": [],
    }


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before Python 3.11"
)
def test_decide_keeps_the_int_str_limit_while_parsing(tmp_path, capsys):
    # reading a numeral of n digits takes O(n^2) time, so input keeps the
    # limit that output lifts
    path = tmp_path / "long.dfa"
    path.write_text("base 2\nstates 1\ninitial 0\ntrans 0 0 " + "9" * 5000 + "\n")
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2
    assert err.startswith("error: line 4: expected an integer, got '999")


def test_decide_huge_state_id_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.dfa"
    path.write_text("base 2\nstates 2\ninitial 0\ntrans " + "9" * 4300 + " 1 0\ntrans 0 0 0\n")
    code, _, err = run(capsys, "decide", str(path))
    assert code == 2
    assert err.startswith("error: line 4: state id out of range in trans 999")


def test_decide_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(dfa):
        raise MemoryError

    monkeypatch.setattr(updfa.cli, "decide", exhausted)
    path = write_tmp(tmp_path, powers_of_two_dfa())
    assert run(capsys, "decide", path) == (2, "", "error: out of memory\n")


def test_unexpected_exception_exits_3_with_traceback(tmp_path, capsys, monkeypatch):
    # exit 1 means "not ultimately periodic", so a fault must not use it
    def broken(dfa):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(updfa.cli, "decide", broken)
    code, out, err = run(capsys, "decide", write_tmp(tmp_path, powers_of_two_dfa()))
    assert code == 3
    assert out == ""
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("RuntimeError: broken on purpose\n")


# ---------------------------------------------------------------- gen


def test_gen_upset_decide_round_trip(tmp_path, capsys, corpus_sample):
    for i, s in enumerate(corpus_sample[40:52]):
        base = 2 + i % 2
        path = str(tmp_path / f"g{i}.dfa")
        rem = ",".join(map(str, sorted(s.remainders))) or "-"
        mis = ",".join(map(str, s.mismatches)) or "-"
        code = main(
            ["gen", "upset", f"p={s.period}", f"R={rem}", f"I={mis}",
             f"base={base}", "-o", path]
        )
        capsys.readouterr()
        assert code == 0
        code, out, _ = run(capsys, "--json", "decide", path)
        assert code == 0
        doc = json.loads(out)
        assert (doc["period"], doc["remainders"], doc["mismatches"]) == (
            s.period,
            sorted(s.remainders),
            list(s.mismatches),
        )


def test_gen_rejects_non_canonical(capsys):
    code, _, err = run(capsys, "gen", "upset", "p=4", "R=0,2", "I=-")
    assert code == 2
    assert "not canonical" in err
    assert "p=2 R=0 I=-" in err


def test_gen_requires_parameters(capsys):
    code, _, err = run(capsys, "gen", "upset", "R=0")
    assert code == 2
    assert "missing required parameter p=" in err
    code, _, err = run(capsys, "gen", "upset", "p=3", "p=5", "R=0")
    assert code == 2
    assert "duplicate parameter" in err
    code, _, err = run(capsys, "gen", "upset", "p=3", "R=zebra")
    assert code == 2
    assert "integer list" in err
    code, _, err = run(capsys, "gen", "upset", "p7")
    assert code == 2
    assert "expected key=value, got 'p7'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("upset", "p=abc", "R=0"),
        ("upset", "p=3", "R=0", "base=ten"),
        ("pascal", "p=", "R=0"),
        ("pascal", "p=3", "R=2", "base=2.5"),
    ],
)
def test_gen_rejects_non_integer_parameters(capsys, argv):
    # exit 1 means "not ultimately periodic", so bad input must exit 2
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: expected an integer")


@pytest.mark.parametrize(
    "argv, key",
    [
        (("pascal", "p=3", "R=1", "I=2", "foo=7"), "I"),
        (("pascal", "p=3", "R=1", "foo=7"), "foo"),
        (("upset", "p=3", "R=1", "I=2", "foo=7"), "foo"),
        (("upset", "p=3", "R=1", "r=1"), "r"),
    ],
)
def test_gen_rejects_unknown_parameters(capsys, argv, key):
    # a key gen does not read must not be dropped silently
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: unknown parameter {key!r}")


def test_gen_pascal_stdout(capsys):
    code, out, _ = run(capsys, "gen", "pascal", "p=3", "R=2")
    assert code == 0
    assert "states 6" in out
    from updfa import parse_dfa, isomorphic

    assert isomorphic(parse_dfa(out), build_pascal(3, [2], 2))


@pytest.mark.parametrize("p", [100003, 10**18 + 9])
def test_gen_pascal_refuses_more_states_than_the_limit(capsys, p):
    # p*psi is about 10^10 at p = 100003, and at p = 10^18 + 9 computing
    # psi alone takes longer than this test allows
    t0 = time.perf_counter()
    code, out, err = run(capsys, "gen", "pascal", f"p={p}", "R=0")
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.rstrip().endswith("exceeds 1000000 states")


# ---------------------------------------------------------------- info


def test_info_pascal_quotient_line(tmp_path, capsys):
    path = str(tmp_path / "p.dfa")
    assert main(["gen", "pascal", "p=5", "R=0,3", "base=3", "-o", path]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "info", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "states 20"
    assert lines[1] == "complete true"
    assert lines[2] == "group true"
    assert "scc 0 size=20 type=TypeOne descendants=-" in lines
    assert "scc 0 pascal p=5 R=0,3 psi=4 h=0 k=4" in lines


def test_info_rejected_quotient(tmp_path, capsys):
    code, out, _ = run(capsys, "info", write_tmp(tmp_path, EVEN_ONES))
    assert code == 0
    assert "scc 0 pascal rejected (PeriodNotCoprime)" in out.splitlines()


def test_info_positive_digit_scc_that_is_not_closed(tmp_path, capsys):
    # the 1-loop at state 2 makes it a positive-digit scc of its own,
    # whose 0-edge leaves it
    path = write_tmp(tmp_path, mutate(instance(), 2, 1, 2))
    code, out, _ = run(capsys, "info", path)
    assert code == 0
    lines = out.splitlines()
    assert "scc 4 size=1 type=TypeOne descendants=3" in lines
    assert "scc 4 pascal rejected (transitions leave the scc)" in lines
    code, out, _ = run(capsys, "--json", "info", path)
    assert code == 0
    scc = json.loads(out)["sccs"][4]
    assert scc["pascal"] is None
    assert scc["pascal_failure"] == "transitions leave the scc"


def test_info_powers_of_two(tmp_path, capsys):
    code, out, _ = run(capsys, "info", write_tmp(tmp_path, powers_of_two_dfa()))
    assert code == 0
    lines = out.splitlines()
    assert "states 3" in lines
    assert "group false" in lines
    # sccs are emitted sink first (reverse topological ids)
    assert "scc 0 size=1 type=TypeOne descendants=-" in lines
    assert "scc 1 size=1 type=TypeTwo descendants=0" in lines
    assert "scc 2 size=1 type=TypeTwo descendants=1" in lines


def test_info_json(tmp_path, capsys):
    code, out, _ = run(capsys, "--json", "info", write_tmp(tmp_path, powers_of_two_dfa()))
    doc = json.loads(out)
    assert code == 0
    assert doc["states"] == 3
    assert doc["complete"] is True
    assert doc["group"] is False
    assert [e["id"] for e in doc["sccs"]] == [0, 1, 2]
    sink = doc["sccs"][0]
    assert sink["type"] == "TypeOne"
    assert sink["pascal"] == {"p": 1, "remainders": [], "psi": 1, "h": 0, "k": 1}


def test_info_partial_automaton(tmp_path, capsys):
    path = tmp_path / "partial.dfa"
    path.write_text("base 2\nstates 2\ninitial 0\nfinal 1\ntrans 0 1 1\ntrans 1 0 1\ntrans 1 1 1\n")
    code, out, _ = run(capsys, "info", str(path))
    assert code == 0
    lines = out.splitlines()
    assert "complete false" in lines
    assert "group false" in lines
    # incompleteness suppresses the quotient analysis, not the scc listing
    assert not any("pascal" in line for line in lines)


INFO_SCALING_BENCH = """
import contextlib, io, statistics, sys, time
from updfa.cli import main
paths = sys.argv[1:]
times = [[] for _ in paths]
for _ in range(5):
    for path, samples in zip(paths, times):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            assert main(["info", path]) == 0
            samples.append(time.perf_counter_ns() - t0)
print(*(int(statistics.median(s)) for s in times))
"""


def test_info_scaling_in_the_number_of_sccs(tmp_path, capsys):
    # `updfa info` tests every closed positive-digit scc on its own; here
    # 10^3 and 10^4 copies of a 6-state Pascal automaton below a chain of
    # as many transient states.  Linear is about 10x per decade, a test
    # that touches every state of the automaton once per scc about 100x.
    # Timed in a fresh interpreter, repeats round-robin over the sizes
    unit = build_pascal(3, [1], 2)
    paths = []
    for copies in (10**3, 10**4):
        dfa = copies_below_a_chain(unit, copies, copies)
        paths.append(write_tmp(tmp_path, dfa, f"{copies}.dfa"))
    code, out, _ = run(capsys, "info", paths[0])
    assert code == 0 and out.count(" pascal p=3 R=1 psi=2 h=0 k=2") == 10**3
    proc = subprocess.run(
        [sys.executable, "-c", INFO_SCALING_BENCH, *paths],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    ratio = large / small
    assert ratio <= 20, f"decade ratio {ratio:.2f} exceeds 20 ({small}, {large} ns)"


# ---------------------------------------------------------------- minimize


def test_minimize_command(tmp_path, capsys):
    from updfa import parse_dfa, isomorphic

    big = build_pascal(5, [0, 3], 3)
    code, out, _ = run(capsys, "minimize", write_tmp(tmp_path, big))
    assert code == 0
    small = parse_dfa(out)
    assert small.state_count == 10
    assert isomorphic(small, minimize(big))


# ---------------------------------------------------------------- bench


def test_bench_csv(capsys):
    code, out, _ = run(capsys, "bench", "5", "11", "--repeats", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,states,transitions,nanos"
    assert len(lines) == 3
    for expect_p, line in zip((5, 11), lines[1:]):
        p, states, transitions, nanos = map(int, line.split(","))
        assert (p, states, transitions) == (expect_p, expect_p, 2 * expect_p)
        assert nanos > 0


def test_bench_rejects_non_coprime_size(capsys):
    code, _, err = run(capsys, "bench", "4")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("5", "--repeats", "0"), "--repeats must be at least 1"),
        (("5", "--repeats", "-2"), "--repeats must be at least 1"),
        (("-5",), "sizes must be at least 1"),
        (("5", "0"), "sizes must be at least 1"),
    ],
)
def test_bench_rejects_bad_arguments(capsys, argv, message):
    code, out, err = run(capsys, "bench", *argv)
    assert code == 2
    assert out == ""
    assert message in err


CLI_SCALING_BENCH = """
import statistics, subprocess, sys, time
paths = sys.argv[1:]
times = [[] for _ in paths]
for _ in range(5):
    for path, samples in zip(paths, times):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, "-m", "updfa.cli", "--json", "decide", path],
            capture_output=True,
        )
        samples.append(time.perf_counter_ns() - t0)
        assert proc.returncode == 0, proc.stderr
print(*(int(statistics.median(s)) for s in times))
"""


def test_decide_command_scaling(tmp_path):
    # the whole command, read and parse included, on the group automaton
    # of {0} + pN at p = 10,007 and 100,003: O(bn log n) is about 12x per
    # decade; each run is a fresh interpreter, repeats round-robin over the
    # sizes
    paths = [write_tmp(tmp_path, bench_automaton(p, 2), f"{p}.dfa") for p in (10007, 100003)]
    proc = subprocess.run(
        [sys.executable, "-c", CLI_SCALING_BENCH, *paths],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    ratio = large / small
    assert ratio <= 20, f"decade ratio {ratio:.2f} exceeds 20 ({small}, {large} ns)"


def _mid_block(text, line):
    # `line` inserted after the first line end past the middle of the text
    i = text.index("\n", len(text) // 2) + 1
    return text[:i] + line + text[i:]


@pytest.mark.parametrize(
    "variant",
    [
        lambda t: t,
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t + "# end\n",
        lambda t: _mid_block(t, "# note\n"),
    ],
    ids=["plain", "crlf", "trailing comment", "comment in the block"],
)
def test_parse_peak_memory_follows_the_text(variant):
    # the trans block is split a chunk at a time, and a chunk that is not
    # plain is read line by line on its own, so the parser's peak is a
    # fraction of the text, not the millions of strings of one split
    text = variant(write_dfa(bench_automaton(100003, 2)))
    tracemalloc.start()
    try:
        dfa = parse_dfa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dfa.state_count == 100003
    assert peak < 3 * len(text), f"peak {peak} bytes on a text of {len(text)} characters"


def test_parse_reads_only_the_comment_chunk_line_by_line(monkeypatch):
    # with 40-character chunks, a comment line in the block sends the
    # header and the one chunk that holds it to the line reader, no more
    dfa = bench_automaton(101, 2)
    text = _mid_block(write_dfa(dfa), "# note\n")
    seen = []
    read_lines = automaton._read_lines

    def spy(chunk, *args):
        seen.append(chunk)
        return read_lines(chunk, *args)

    monkeypatch.setattr(automaton, "_CHUNK", 40)
    monkeypatch.setattr(automaton, "_read_lines", spy)
    assert parse_dfa(text) == dfa
    assert len(seen) == 2, [len(chunk) for chunk in seen]
    assert seen[0] == text[: text.index("\ntrans ") + 1]
    assert "# note" in seen[1] and len(seen[1]) < 2 * 40, seen[1]


# ---------------------------------------------------------------- entry point


def test_package_exports_resolve():
    import updfa

    for name in updfa.__all__:
        assert getattr(updfa, name) is not None, name


def test_module_entry_point(tmp_path):
    dfa = build_minimal_automaton(UpSet.from_parts(5, [0, 1, 2, 4]), 2)
    path = write_tmp(tmp_path, dfa)
    proc = subprocess.run(
        [sys.executable, "-m", "updfa.cli", "decide", path],
        capture_output=True,
        env=subprocess_env(),
        text=True,
    )
    assert proc.returncode == 0
    assert "ultimately periodic" in proc.stdout
