"""Transition-table core: parse/write, completion, minimize, structure checks."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updfa import (
    Dfa,
    SccType,
    UpSet,
    accepts,
    build_minimal_automaton,
    complete,
    condensation,
    decide,
    is_group_automaton,
    isomorphic,
    minimize,
    parse_dfa,
    successor_sccs,
    validate,
    write_dfa,
)
from updfa import automaton
from updfa.cli import bench_automaton
from updfa.errors import (
    BadDigit,
    BadStateId,
    BaseTooSmall,
    FormatError,
    PreconditionViolated,
)

from conftest import subprocess_env

MISSING = -1


# ---------------------------------------------------------------- helpers


@st.composite
def dfas(draw, max_states=8, max_base=3, complete_only=False):
    base = draw(st.integers(2, max_base))
    n = draw(st.integers(1, max_states))
    lo = 0 if complete_only else MISSING
    trans = draw(
        st.lists(st.integers(lo, n - 1), min_size=n * base, max_size=n * base)
    )
    finals = draw(st.frozensets(st.integers(0, n - 1)))
    initial = draw(st.integers(0, n - 1))
    return Dfa(
        base=base,
        state_count=n,
        initial=initial,
        transitions=tuple(trans),
        finals=finals,
    )


def random_dfa(rng, max_states=10, max_base=3, complete_only=False):
    base = rng.randint(2, max_base)
    n = rng.randint(1, max_states)
    lo = 0 if complete_only else MISSING
    return Dfa(
        base=base,
        state_count=n,
        initial=rng.randrange(n),
        transitions=tuple(rng.randint(lo, n - 1) for _ in range(n * base)),
        finals=frozenset(s for s in range(n) if rng.random() < 0.4),
    )


def random_multi_orbit_group_dfa(rng, base: int, orbits: int) -> Dfa:
    """A permutation automaton whose letter group has the given number of
    orbits, with the states of different orbits interleaved."""
    sizes = [rng.randint(1, 8) for _ in range(orbits)]
    n = sum(sizes)
    ids = list(range(n))
    rng.shuffle(ids)
    trans = [0] * (n * base)
    lo = 0
    for size in sizes:
        block = ids[lo : lo + size]
        lo += size
        for a in range(base):
            image = block[:]
            rng.shuffle(image)
            for s, t in zip(block, image):
                trans[s * base + a] = t
    finals = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Dfa(base, n, rng.randrange(n), trans, finals)


def relabel(dfa, perm):
    n, b = dfa.state_count, dfa.base
    trans = [MISSING] * (n * b)
    for s in range(n):
        for a in range(b):
            t = dfa.transitions[s * b + a]
            trans[perm[s] * b + a] = t if t == MISSING else perm[t]
    return Dfa(
        base=b,
        state_count=n,
        initial=perm[dfa.initial],
        transitions=tuple(trans),
        finals=frozenset(perm[f] for f in dfa.finals),
    )


def language(dfa, max_len):
    """Accepted words up to max_len, by direct enumeration."""
    out = set()
    for length in range(max_len + 1):
        for word in itertools.product(range(dfa.base), repeat=length):
            if accepts(dfa, word):
                out.add(word)
    return out


def reachable_states(dfa):
    b = dfa.base
    seen = {dfa.initial}
    stack = [dfa.initial]
    while stack:
        s = stack.pop()
        for a in range(b):
            t = dfa.transitions[s * b + a]
            if t != MISSING and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def moore_minimize(dfa):
    """Reference minimizer: Moore rounds to the fixpoint on the completed
    automaton, then the blocks reachable from the initial one, numbered in
    BFS order (digit order)."""
    d = complete(dfa)
    b = d.base
    block = moore_rounds(d)[-1]
    rep = {}
    for s in range(d.state_count):
        rep.setdefault(block[s], s)
    number = {block[d.initial]: 0}
    queue = [block[d.initial]]
    trans = []
    for blk in queue:
        for a in range(b):
            t = block[d.transitions[rep[blk] * b + a]]
            if t not in number:
                number[t] = len(queue)
                queue.append(t)
            trans.append(number[t])
    finals = frozenset(number[blk] for blk in queue if rep[blk] in d.finals)
    return Dfa(base=b, state_count=len(queue), initial=0, transitions=trans, finals=finals)


def assert_same_table(got, want):
    assert got.state_count == want.state_count
    assert got.initial == want.initial == 0
    assert got.transitions == want.transitions
    assert got.finals == want.finals


def moore_rounds(dfa):
    """Partitions of a complete automaton after Moore rounds 0, 1, ... up to
    the fixpoint, each as dense block ids by first occurrence."""
    n, b = dfa.state_count, dfa.base
    cls = dense([int(s in dfa.finals) for s in range(n)])
    rounds = [cls]
    while True:
        sigs = [
            (cls[s],) + tuple(cls[dfa.transitions[s * b + a]] for a in range(b))
            for s in range(n)
        ]
        nxt = dense(sigs)
        if max(nxt) == max(cls):
            return rounds
        cls = nxt
        rounds.append(cls)


def dense(keys):
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def cyclic_dfa(rng, n, base):
    """Mostly one big cycle with at most n/50 finals: Moore rounds split few
    blocks each, which is what hands minimize over to its Hopcroft tail."""
    trans = [
        (s + 1) % n if rng.random() < 0.9 else rng.randrange(n)
        for s in range(n)
        for _ in range(base)
    ]
    finals = rng.sample(range(n), rng.randint(1, max(1, n // 50)))
    return Dfa(base, n, rng.randrange(n), trans, frozenset(finals))


def kosaraju_partition(dfa):
    n, b = dfa.state_count, dfa.base
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for s in range(n):
        for a in range(b):
            t = dfa.transitions[s * b + a]
            if t != MISSING:
                succ[s].append(t)
                pred[t].append(s)
    order = []
    seen = [False] * n
    for s0 in range(n):
        if seen[s0]:
            continue
        seen[s0] = True
        stack = [(s0, 0)]
        while stack:
            v, i = stack.pop()
            if i < len(succ[v]):
                stack.append((v, i + 1))
                w = succ[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                order.append(v)
    comp = [-1] * n
    c = 0
    for v in reversed(order):
        if comp[v] != -1:
            continue
        comp[v] = c
        stack = [v]
        while stack:
            x = stack.pop()
            for y in pred[x]:
                if comp[y] == -1:
                    comp[y] = c
                    stack.append(y)
        c += 1
    groups = {}
    for s, c in enumerate(comp):
        groups.setdefault(c, []).append(s)
    return {frozenset(g) for g in groups.values()}


EVEN_ONES = Dfa(
    base=2,
    state_count=2,
    initial=0,
    transitions=(0, 1, 1, 0),
    finals=frozenset({0}),
)


def powers_of_two_dfa():
    # 0* 1 0* plus a junk sink; accepts exactly the words of value 2**k
    return Dfa.from_map(
        2,
        3,
        0,
        {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2, (2, 0): 2, (2, 1): 2},
        {1},
    )


# ---------------------------------------------------------------- construction


def test_from_map_builds_flat_table():
    d = powers_of_two_dfa()
    assert d.state_count == 3
    assert d.step(0, 1) == 1
    assert d.step(1, 0) == 1
    assert d.is_complete
    validate(d)


def test_from_map_rejects_bad_ids():
    with pytest.raises(BadStateId):
        Dfa.from_map(2, 2, 5, {}, ())
    with pytest.raises(BadStateId):
        Dfa.from_map(2, 2, 0, {(0, 0): 7}, ())
    with pytest.raises(BadDigit):
        Dfa.from_map(2, 2, 0, {(0, 5): 1}, ())
    with pytest.raises(BaseTooSmall):
        Dfa.from_map(1, 2, 0, {}, ())


class _LongMap(dict):
    """An empty map that reports 2**21 entries, so that the size rule can
    be tested past 2**20 without building a map that large."""

    def __len__(self):
        return 1 << 21


def test_from_map_table_size_rule():
    # parse_dfa's rule: 2**20 entries for any input, more only as far as
    # the entries of the map and the finals reach
    assert Dfa.from_map(2, 1 << 19, 0, {}, ()).state_count == 1 << 19
    with pytest.raises(PreconditionViolated, match="exceed the limit of 1048576"):
        Dfa.from_map(2, (1 << 19) + 1, 0, {}, ())
    assert Dfa.from_map(2, 1 << 20, 0, _LongMap(), ()).state_count == 1 << 20
    with pytest.raises(PreconditionViolated, match="exceed the limit of 2097152"):
        Dfa.from_map(2, (1 << 20) + 1, 0, _LongMap(), ())
    assert Dfa.from_map(2, (1 << 20) + 1, 0, _LongMap(), (0, 1)).finals == {0, 1}


FROM_MAP_UNDER_A_CAP = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from updfa import Dfa, PreconditionViolated
try:
    Dfa.from_map(2, 10**9, 0, {}, [])
except PreconditionViolated as e:
    print(e)
"""


def test_from_map_refuses_before_it_allocates():
    # the declared table takes 8 GB; under a 1 GB address-space cap it is
    # refused, not attempted
    proc = subprocess.run(
        [sys.executable, "-c", FROM_MAP_UNDER_A_CAP],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "states 1000000000 x base 2 = 2000000000 table entries"
        " exceed the limit of 1048576\n"
    )


def test_validate_rejects_out_of_range_transition():
    with pytest.raises(BadStateId):
        Dfa(base=2, state_count=2, initial=0, transitions=(0, 1, 1, 9), finals=frozenset())
    with pytest.raises(BadStateId):
        Dfa(base=2, state_count=2, initial=0, transitions=(0, 1, 1, -3), finals=frozenset())
    # a target that does not fit the 4-byte table
    with pytest.raises(BadStateId):
        Dfa(base=2, state_count=2, initial=0, transitions=(0, 1, 1, 2**31), finals=frozenset())


def test_validate_rejects_a_table_of_the_wrong_length():
    for table in ([0, 0], [0] * 7):
        with pytest.raises(PreconditionViolated, match="expected 6"):
            Dfa(2, 3, 0, table, frozenset())


def test_validate_rejects_bad_finals():
    with pytest.raises(BadStateId):
        Dfa(base=2, state_count=2, initial=0, transitions=(0, 1, 1, 0), finals=frozenset({4}))


def test_tuple_and_array_tables_build_equal_dfas():
    from_tuple = Dfa(2, 2, 0, (0, 1, 1, MISSING), frozenset({1}))
    from_array = Dfa(2, 2, 0, array("i", [0, 1, 1, MISSING]), frozenset({1}))
    assert from_tuple == from_array and hash(from_tuple) == hash(from_array)
    for d in (from_tuple, from_array):
        assert isinstance(d.transitions, array) and d.transitions.typecode == "i"


def test_step_and_transition_items():
    d = Dfa(base=2, state_count=2, initial=0, transitions=(1, MISSING, 0, 0), finals=frozenset({1}))
    assert d.step(0, 1) == MISSING
    assert list(d.transitions) == [1, MISSING, 0, 0]
    assert not d.is_complete


def test_step_rejects_out_of_range_arguments():
    # the row-major table would answer each of these from another row
    d = Dfa(2, 3, 0, [0, 1, 2, 0, 1, 2], frozenset({1}))
    assert [d.step(s, a) for s in range(3) for a in range(2)] == [0, 1, 2, 0, 1, 2]
    for digit in (2, -1):
        with pytest.raises(BadDigit):
            d.step(0, digit)
    for state in (3, -1):
        with pytest.raises(BadStateId):
            d.step(state, 0)


def test_accepts_validates_digits():
    d = EVEN_ONES
    assert accepts(d, ())
    assert accepts(d, (1, 1))
    assert not accepts(d, (1, 0, 0))
    with pytest.raises(BadDigit):
        accepts(d, (2,))


def test_accepts_rejects_on_missing_transition():
    d = Dfa(base=2, state_count=1, initial=0, transitions=(0, MISSING), finals=frozenset({0}))
    assert accepts(d, (0, 0))
    assert not accepts(d, (0, 1, 0))


# ---------------------------------------------------------------- text format


GOLDEN_TEXT = """\
# sample
base 2
states 3
initial 0
final 1
trans 0 0 0
trans 0 1 1
trans 1 0 1
trans 1 1 2
trans 2 0 2
trans 2 1 2
"""


def test_parse_golden():
    d = parse_dfa(GOLDEN_TEXT)
    assert d == powers_of_two_dfa()


def test_write_parse_round_trip_golden():
    d = powers_of_two_dfa()
    assert parse_dfa(write_dfa(d)) == d


def test_parse_reports_line_numbers():
    bad = GOLDEN_TEXT + "trans 0 0 1\n"
    with pytest.raises(FormatError, match="line 12"):
        parse_dfa(bad)
    with pytest.raises(FormatError, match="line 1"):
        parse_dfa("bogus directive\n")


def test_parse_requires_header_first():
    with pytest.raises(FormatError):
        parse_dfa("initial 0\nbase 2\nstates 1\n")


def test_parse_rejects_duplicate_transition():
    text = "base 2\nstates 1\ninitial 0\ntrans 0 0 0\ntrans 0 0 0\n"
    with pytest.raises(FormatError):
        parse_dfa(text)


def test_parse_allows_partial_and_empty_finals():
    text = "base 2\nstates 2\ninitial 1\nfinal\ntrans 1 0 0\n"
    d = parse_dfa(text)
    assert d.finals == frozenset()
    assert d.step(0, 0) == MISSING
    assert parse_dfa(write_dfa(d)) == d


@settings(max_examples=150, deadline=None)
@given(dfas())
def test_write_parse_round_trip(d):
    assert parse_dfa(write_dfa(d)) == d


def test_write_pads_sparse_automata_to_what_the_parser_needs():
    # both of the parser's size rules would refuse these texts unpadded:
    # 100 states in 28 characters, and 1.2 million table entries, above
    # 2**20, in a few lines; one comment line in the header makes up the
    # length, and a complete automaton never needs it
    n = 600_000
    trans = [MISSING] * (2 * n)
    trans[0], trans[3], trans[2 * n - 1] = 1, n - 1, 0
    for d in (Dfa(2, 100, 0, [MISSING] * 200, frozenset()), Dfa(2, n, 0, trans, {1})):
        text = write_dfa(d)
        assert parse_dfa(text) == d
        assert sum(line.startswith("#") for line in text.splitlines()) == 1
    assert not write_dfa(powers_of_two_dfa()).startswith("#")


# the line-by-line reader is the reference: on any text, parse_dfa returns
# what it returns, or raises the FormatError it raises, at the same line
def _line_parse(text):
    got = automaton._Parsed()
    automaton._read_lines(text, len(text), got, 0)
    return got.dfa()


def _outcome(parse, text):
    try:
        return parse(text)
    except FormatError as e:
        return str(e), e.line


def _trans_rows(lines):
    return [i for i, line in enumerate(lines) if line.startswith("trans ")]


def _retoken(line, k, edit):
    toks = line.split(" ")
    if k < len(toks):
        toks[k] = edit(toks[k])
    return " ".join(toks)


def _mutate(text, kind, rng, d):
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    rows = _trans_rows(lines)
    others = sorted(set(range(len(lines))) - set(rows))
    if rows and kind == "shuffle":
        block = [lines[i] for i in rows]
        rng.shuffle(block)
        for i, line in zip(rows, block):
            lines[i] = line
    elif rows and kind == "partial":
        drop = set(rng.sample(rows, rng.randrange(1, len(rows) + 1)))
        lines = [line for i, line in enumerate(lines) if i not in drop]
    elif lines and kind == "comment":
        i = rng.randrange(len(lines))
        lines[i] += rng.choice([" # note", "#"])
    elif kind == "comment line":
        lines.insert(rng.randrange(len(lines) + 1), "# note")
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif lines and kind == "crlf line":
        lines[rng.randrange(len(lines))] += "\r"
    elif rows and kind == "other keyword":
        # the line keeps the three integers of a trans line
        i = rng.choice(rows)
        lines[i] = rng.choice(["#", "final", "initial", "base", "Trans"]) + lines[i][5:]
    elif lines and kind == "tab":
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace(" ", "\t", 1)
    elif kind == "no final newline":
        return "\n".join(lines)
    elif rows and kind == "leading zeros":
        i = rng.choice(rows)
        lines[i] = _retoken(lines[i], rng.randrange(1, 4), lambda t: "00" + t)
    elif rows and kind == "plus sign":
        i = rng.choice(rows)
        lines[i] = _retoken(lines[i], rng.randrange(1, 4), lambda t: "+" + t)
    elif rows and kind == "duplicate":
        i = rng.choice(rows)
        lines.insert(rng.randrange(rows[0], len(lines) + 1), lines[i])
    elif rows and kind == "digit >= base":
        i = rng.choice(rows)
        lines[i] = _retoken(lines[i], 2, lambda t: str(d.base + rng.randrange(2)))
    elif rows and kind == "id out of range":
        i = rng.choice(rows)
        bad = rng.choice([d.state_count, d.state_count + 7, 2**40])
        lines[i] = _retoken(lines[i], rng.choice([1, 3]), lambda t: str(bad))
    elif rows and kind == "minus sign":
        i = rng.choice(rows)
        lines[i] = _retoken(lines[i], rng.randrange(1, 4), lambda t: "-" + t)
    elif len(rows) > 1 and kind == "5 and 3 tokens":
        # one token moves from a line to the line before it
        k = rng.randrange(1, len(rows))
        head, _, last = lines[rows[k]].rpartition(" ")
        lines[rows[k - 1]] += " " + last
        lines[rows[k]] = head
    elif others and kind == "header line dropped":
        lines.pop(rng.choice(others))
    elif others and kind == "directive after block":
        lines.append(lines.pop(rng.choice(others)))
    elif kind == "blank line":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  "]))
    elif lines and kind == "break inside a line":
        i = rng.randrange(len(lines))
        k = rng.choice([k for k, c in enumerate(lines[i]) if c == " "] or [0])
        brk = rng.choice("\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
        lines[i] = lines[i][:k] + brk + lines[i][k + 1 :]
    elif len(rows) > 1 and kind == "two lines on one":
        k = rng.randrange(1, len(rows))
        lines[rows[k - 1]] += " " + lines.pop(rows[k])
    return "\n".join(lines) + "\n"


MUTATIONS = (
    "none",
    "shuffle",
    "partial",
    "comment",
    "comment line",
    "crlf",
    "crlf line",
    "other keyword",
    "tab",
    "no final newline",
    "leading zeros",
    "plus sign",
    "duplicate",
    "digit >= base",
    "id out of range",
    "minus sign",
    "5 and 3 tokens",
    "directive after block",
    "header line dropped",
    "blank line",
    "break inside a line",
    "two lines on one",
)


@pytest.mark.parametrize("kind", MUTATIONS)
@settings(max_examples=60, deadline=None)
@given(
    d=dfas(max_states=12),
    more=st.lists(st.sampled_from(MUTATIONS), max_size=2),
    chunk=st.sampled_from([1, 9, 40, automaton._CHUNK]),
    rng=st.randoms(),
)
def test_bulk_parse_matches_line_reader(kind, d, more, chunk, rng):
    # small chunks cut the trans block at many places, so chunks start at
    # every (state, digit) offset
    text = write_dfa(d)
    for k in (kind, *more):
        text = _mutate(text, k, rng, d)
    with mock.patch.object(automaton, "_CHUNK", chunk):
        got = _outcome(parse_dfa, text)
    assert got == _outcome(_line_parse, text)
    if text == write_dfa(d):
        assert got == d


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("base 2 3\n", "directive 'base' takes exactly 1 argument(s)", 1),
        ("base 2\nbase 2\n", "duplicate base directive", 2),
        ("base 1\n", "base 1 < 2", 1),
        ("base two\n", "expected an integer, got 'two'", 1),
        ("base 2\nstates\n", "directive 'states' takes exactly 1 argument(s)", 2),
        ("base 2\nstates 1\nstates 1\n", "duplicate states directive", 3),
        ("base 2\nstates 0\n", "states must be >= 1", 2),
        ("base 2\nstates 1\ninitial\n", "directive 'initial' takes exactly 1 argument(s)", 3),
        ("base 2\nstates 1\ninitial 0\ninitial 0\n", "duplicate initial directive", 4),
        ("base 2\nstates 2\ninitial 2\n", "initial state 2 out of range", 3),
        ("base 2\nstates 2\ninitial -1\n", "initial state -1 out of range", 3),
        ("base 2\nstates 2\ninitial 0\nfinal 1 5 -1\n", "final state 5 out of range", 4),
        ("base 2\nstates 2\ninitial 0\nfinal 1 x\n", "expected an integer, got 'x'", 4),
        ("base 2\nstates 2\ninitial 0\nfinal\nfinal 1\n", "duplicate final directive", 5),
        ("base 2\nstates 2\ninitial 0\ntrans 0 1\n", "directive 'trans' takes exactly 3 argument(s)", 4),
        ("base 2\nstates 2\ninitial 0\ntrans 0 2 1\n", "digit 2 out of range (base 2)", 4),
        ("base 2\nstates 2\ninitial 0\ntrans 0 1 2\n", "state id out of range in trans 0 1 2", 4),
        ("base 2\nstates 2\ninitial 0\ntrans 2 1 0\n", "state id out of range in trans 2 1 0", 4),
        ("states 2\ninitial 0\n", "base and states must come first", 2),
        ("base 2\n", "missing base or states directive", None),
        ("base 2\nstates 2\nfinal 1\n", "missing initial directive", None),
    ],
)
def test_parse_error_branches(text, message, line):
    with pytest.raises(FormatError) as exc:
        parse_dfa(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_parse_rejects_states_beyond_the_input():
    # a state that never appears in the text is unreachable padding, so a
    # count above the text's length only declares memory: it is refused
    # before the table (8 MB here) exists
    text = "base 2\nstates 1000000\ninitial 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError) as exc:
            parse_dfa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "line 2: states 1000000 exceeds the input length (32 characters)"
    assert peak < 100_000
    limit = "base 2\nstates 27\ninitial 0\n"
    assert len(limit) == 27
    assert parse_dfa(limit).state_count == 27


@pytest.mark.parametrize("base", [10_000_000, 2_000_000_000])
def test_parse_rejects_a_table_beyond_the_input(base):
    # a one-state header over a huge alphabet declares states x base table
    # entries that no trans line fills: refused before the table (40 MB
    # and 8 GB here) exists, on the line that completes the pair
    for text in (f"base {base}\nstates 1\ninitial 0\n", f"states 1\nbase {base}\ninitial 0\n"):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as exc:
                parse_dfa(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"line 2: states 1 x base {base} = {base} table entries"
            " exceed the limit of 1048576"
        )
        assert peak < 100_000


def test_parse_large_base_costs_the_table_only():
    # a row of 10^6 digits is longer than the block: the bulk path names
    # each line's indices instead of building one numeral per digit
    base = 1_000_000
    text = f"base {base}\nstates 1\ninitial 0\ntrans 0 0 0\ntrans 0 1 0\n"
    tracemalloc.start()
    try:
        d = parse_dfa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == _line_parse(text)
    assert peak < 4 * base * 1.1


def test_parse_huge_state_id_is_a_format_error():
    # a 4,300-digit id converts to an int, but the next id up has no
    # numeral under CPython's int-to-str limit: the bulk path must refuse
    # the run by its range before it names it
    q = "9" * 4300
    text = f"base 2\nstates 2\ninitial 0\ntrans {q} 1 0\ntrans 0 0 0\n"
    with pytest.raises(FormatError) as exc:
        parse_dfa(text)
    assert str(exc.value) == f"line 4: state id out of range in trans {q} 1 0"


# ---------------------------------------------------------------- completion


def test_complete_adds_single_sink():
    d = Dfa(base=2, state_count=1, initial=0, transitions=(0, MISSING), finals=frozenset({0}))
    c = complete(d)
    assert c.is_complete
    assert c.state_count == 2
    assert c.finals == frozenset({0})
    # the sink traps both digits
    assert c.step(1, 0) == 1 and c.step(1, 1) == 1


def test_complete_noop_when_already_complete():
    d = EVEN_ONES
    assert complete(d) is d


@settings(max_examples=100, deadline=None)
@given(dfas())
def test_complete_preserves_language(d):
    c = complete(d)
    assert c.is_complete
    assert c.state_count <= d.state_count + 1
    assert language(c, 5) == language(d, 5)


# ---------------------------------------------------------------- minimize


def test_minimize_collapses_equivalent_states():
    # two interchangeable final states
    d = Dfa.from_map(
        2, 3, 0, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2, (2, 0): 1, (2, 1): 2}, {1, 2}
    )
    m = minimize(d)
    assert m.state_count == 2
    assert_same_table(m, moore_minimize(d))


def test_minimize_drops_unreachable_states():
    d = Dfa.from_map(2, 3, 0, {(0, 0): 0, (0, 1): 0, (1, 0): 2, (2, 1): 1}, {0})
    m = minimize(d)
    assert m.state_count == 1
    assert m.finals == frozenset({0})


def test_minimize_keeps_needed_sink():
    # partial automaton whose completion sink is not equivalent to anything
    d = Dfa(base=2, state_count=1, initial=0, transitions=(0, MISSING), finals=frozenset({0}))
    m = minimize(d)
    assert m.is_complete
    assert m.state_count == 2


def test_minimize_initial_is_zero_and_reachable():
    rng = random.Random(7)
    for _ in range(50):
        m = minimize(random_dfa(rng))
        assert m.initial == 0
        assert reachable_states(m) == set(range(m.state_count))


@settings(max_examples=100, deadline=None)
@given(dfas())
def test_minimize_language_and_size(d):
    m = minimize(d)
    assert m.is_complete
    assert_same_table(m, moore_minimize(d))
    assert language(m, 6) == language(d, 6)


def test_minimize_matches_reference_table(monkeypatch):
    tails = []
    tail = automaton._hopcroft

    def counted_tail(*args):
        tails.append(args)
        return tail(*args)

    monkeypatch.setattr(automaton, "_hopcroft", counted_tail)
    rng = random.Random(20261018)
    cases = [random_dfa(rng, max_states=30, max_base=4) for _ in range(300)]
    # unreachable states: a second random automaton no transition enters
    for _ in range(100):
        d = random_dfa(rng, max_states=15)
        n, b = d.state_count, d.base
        junk = [rng.randint(MISSING, 2 * n - 1) for _ in range(n * b)]
        finals = d.finals | {s + n for s in range(n) if rng.random() < 0.4}
        cases.append(Dfa(b, 2 * n, d.initial, tuple(d.transitions) + tuple(junk), finals))
    cases += [cyclic_dfa(rng, rng.randint(2, 1500), rng.randint(2, 3)) for _ in range(40)]
    for d in cases:
        assert_same_table(minimize(d), moore_minimize(d))
    assert len(tails) >= 20, "too few cases reached the Hopcroft tail"


def test_hopcroft_tail_from_every_moore_round():
    rng = random.Random(5)
    cases = [complete(random_dfa(rng, max_states=40, max_base=3)) for _ in range(100)]
    cases += [cyclic_dfa(rng, rng.randint(2, 300), 2) for _ in range(20)]
    for d in cases:
        cols = [d.transitions[a :: d.base] for a in range(d.base)]
        rounds = moore_rounds(d)
        fixpoint = rounds[-1]
        for cls in rounds:
            # blocks may be named by any ints, here in reverse order
            assert dense(automaton._hopcroft(cols, [-c for c in cls])) == fixpoint


def redundant_product(g, copies):
    """`g` read together with a digit counter mod `copies` that finality
    ignores: copies * n states, whose minimal automaton is minimize(g)."""
    b = g.base
    trans = [
        t * copies + (c + 1) % copies
        for s in range(g.state_count)
        for c in range(copies)
        for t in g.transitions[b * s : b * s + b]
    ]
    finals = frozenset(f * copies + c for f in g.finals for c in range(copies))
    return Dfa(b, g.state_count * copies, g.initial * copies, trans, finals)


# the minimal automaton of ({0, 3, 5, 6} + 11N) xor {9} in base 2, 124
# states; Moore rounds settle its redundant products without the tail
SETTLES = build_minimal_automaton(UpSet.from_parts(11, [0, 3, 5, 6], [9]), 2)


def test_moore_names_blocks_by_least_state(monkeypatch):
    tails = []
    tail = automaton._hopcroft

    def counted_tail(*args):
        tails.append(args)
        return tail(*args)

    monkeypatch.setattr(automaton, "_hopcroft", counted_tail)
    rng = random.Random(20261019)
    cases = [complete(random_dfa(rng, max_states=40, max_base=4)) for _ in range(200)]
    cases += [cyclic_dfa(rng, rng.randint(2, 400), rng.randint(2, 3)) for _ in range(30)]
    cases.append(redundant_product(SETTLES, 3))
    for d in cases:
        cols = [d.transitions[a :: d.base] for a in range(d.base)]
        cls = automaton._moore(cols, d._final_bytes)
        assert all(cls[c] == c <= s for s, c in enumerate(cls))
        assert dense(cls) == moore_rounds(d)[-1]
    assert len(tails) >= 10, "too few cases reached the Hopcroft tail"


def test_minimize_peak_memory_without_the_tail(monkeypatch):
    # a round hashes each signature as it is made and keeps one tuple per
    # block, so the peak is a few lists of n ints beside the columns
    d = redundant_product(SETTLES, 807)
    monkeypatch.setattr(automaton, "_hopcroft", None)  # must not be reached
    table = 4 * len(d.transitions)
    tracemalloc.start()
    try:
        m = minimize(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.state_count, d.state_count) == (124, 100068)
    assert peak < 6 * table, f"peak {peak / table:.1f}x the table's {table} bytes"


@settings(max_examples=60, deadline=None)
@given(dfas())
def test_minimize_idempotent(d):
    m = minimize(d)
    again = minimize(m)
    assert again.state_count == m.state_count
    assert isomorphic(again, m)


# ---------------------------------------------------------------- isomorphic


def reachable_part(dfa):
    """The reachable states of a complete `dfa`, renumbered in id order."""
    keep = sorted(reachable_states(dfa))
    new = {s: i for i, s in enumerate(keep)}
    b = dfa.base
    trans = [new[dfa.transitions[s * b + a]] for s in keep for a in range(b)]
    finals = frozenset(new[q] for q in dfa.finals if q in new)
    return Dfa(b, len(keep), new[dfa.initial], trans, finals)


def test_isomorphic_accepts_relabelling():
    # minimal automata, and complete reachable ones that are not minimal;
    # an automaton is never isomorphic to a smaller one of the same language
    rng = random.Random(11)
    redundant = 0
    for i in range(120):
        d = random_dfa(rng, complete_only=True)
        d = minimize(d) if i % 2 else reachable_part(d)
        perm = list(range(d.state_count))
        rng.shuffle(perm)
        assert isomorphic(d, relabel(d, perm))
        m = minimize(d)
        if m.state_count < d.state_count:
            redundant += 1
            assert not isomorphic(d, m)
            assert not isomorphic(relabel(d, perm), m)
    assert redundant > 10


def test_isomorphic_distinguishes_finals():
    a = EVEN_ONES
    b = Dfa(base=2, state_count=2, initial=0, transitions=(0, 1, 1, 0), finals=frozenset({1}))
    assert not isomorphic(a, b)


def test_isomorphic_distinguishes_structure():
    a = EVEN_ONES
    b = Dfa(base=2, state_count=2, initial=0, transitions=(1, 0, 0, 1), finals=frozenset({0}))
    assert not isomorphic(a, b)


def test_isomorphic_requires_same_shape():
    a = EVEN_ONES
    assert not isomorphic(a, minimize(powers_of_two_dfa()))
    with pytest.raises(PreconditionViolated):
        isomorphic(a, Dfa(base=3, state_count=2, initial=0,
                          transitions=(0, 1, 0, 1, 0, 1), finals=frozenset()))


def test_isomorphic_rejects_partial_input():
    partial = Dfa(base=2, state_count=2, initial=0,
                  transitions=(0, MISSING, 1, 0), finals=frozenset())
    with pytest.raises(PreconditionViolated):
        isomorphic(partial, partial)


def test_isomorphic_rejects_unreachable_states():
    d = Dfa.from_map(
        2, 3, 0, {(0, 0): 0, (0, 1): 0, (1, 0): 2, (1, 1): 1, (2, 0): 1, (2, 1): 2}, {0}
    )
    with pytest.raises(PreconditionViolated):
        isomorphic(d, d)


# ---------------------------------------------------------------- predicates


def test_zero_stability():
    assert EVEN_ONES.is_zero_stable
    flipped = Dfa(base=2, state_count=2, initial=0, transitions=(1, 1, 0, 0), finals=frozenset({0}))
    assert not flipped.is_zero_stable
    assert powers_of_two_dfa().is_zero_stable
    # a missing 0-transition agrees, so completing the automaton, as
    # decide does, can turn a zero-stable one into one that fails UP0
    partial = Dfa(2, 1, 0, [MISSING, 0], frozenset({0}))
    assert partial.is_zero_stable
    assert not complete(partial).is_zero_stable
    assert decide(partial).failure.condition == "UP0"


def test_is_group_automaton():
    assert is_group_automaton(EVEN_ONES)
    assert not is_group_automaton(powers_of_two_dfa())  # digit 1 collides on 2
    with pytest.raises(PreconditionViolated):
        is_group_automaton(
            Dfa(base=2, state_count=1, initial=0, transitions=(0, MISSING), finals=frozenset())
        )


def test_is_group_counts_every_target():
    # digit 1 sends states 0 and 4,999 to the same target and is one-to-one
    # elsewhere: the only collision lies beyond the first 4,096 states
    n = 5001
    trans = []
    for s in range(n):
        trans += [(s + 1) % n, 0 if s == 4999 else s]
    assert not Dfa(2, n, 0, trans, frozenset()).is_group
    assert bench_automaton(10007, 2).is_group


def test_group_automaton_from_permutations():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 9)
        cols = []
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            cols.append(perm)
        trans = tuple(cols[a][s] for s in range(n) for a in range(2))
        d = Dfa(base=2, state_count=n, initial=0, transitions=trans, finals=frozenset({0}))
        assert is_group_automaton(d)


# ---------------------------------------------------------------- condensation


def assert_condensation_sound(d):
    cond = condensation(d)
    n, b = d.state_count, d.base
    # partition matches an independent scc computation
    assert {frozenset(m) for m in cond.scc_members} == kosaraju_partition(d)
    # scc_of is the inverse of scc_members
    for c, members in enumerate(cond.scc_members):
        for s in members:
            assert cond.scc_of[s] == c
    assert sorted(s for m in cond.scc_members for s in m) == list(range(n))
    # ids are reverse topological: cross edges decrease
    desc = [set() for _ in range(cond.count)]
    internal = [[] for _ in range(cond.count)]
    for i, t in enumerate(d.transitions):
        if t == MISSING:
            continue
        s, a = divmod(i, b)
        cs, ct = cond.scc_of[s], cond.scc_of[t]
        if cs == ct:
            internal[cs].append(a)
        else:
            assert ct < cs
            desc[cs].add(ct)
    # the successors read per scc are exactly those of the edges above
    assert [successor_sccs(d, cond, c) for c in range(cond.count)] == desc
    for c in range(cond.count):
        if not internal[c]:
            expected = SccType.TRIVIAL
        elif any(a > 0 for a in internal[c]):
            expected = SccType.TYPE_ONE
        else:
            expected = SccType.TYPE_TWO
        assert cond.scc_type[c] == expected


def test_condensation_golden():
    cond = condensation(powers_of_two_dfa())
    # three singleton sccs: 0 loops on 0 only, 1 loops on 0 only, sink on both
    assert cond.count == 3
    types = {tuple(m): t for m, t in zip(cond.scc_members, cond.scc_type)}
    assert types[(0,)] == SccType.TYPE_TWO
    assert types[(1,)] == SccType.TYPE_TWO
    assert types[(2,)] == SccType.TYPE_ONE


def test_condensation_single_scc():
    cond = condensation(EVEN_ONES)
    assert cond.count == 1
    assert cond.scc_type == (SccType.TYPE_ONE,)
    assert successor_sccs(EVEN_ONES, cond, 0) == set()


def test_successor_sccs_allocates_nothing_of_the_automaton_size():
    # a chain of 10^5 transient states, each reading every digit into the
    # next, above a 64-state 0-circuit with 1-loops: one call reads the
    # rows of its scc alone, where a copy of scc_of takes 400 KB, so one
    # call per scc stays linear in the number of sccs
    n, m = 10**5, 64
    trans = []
    for s in range(n - m):
        trans += [s + 1, s + 1]
    for s in range(n - m, n):
        trans += [n - m + (s + 1 - n + m) % m, s]
    d = Dfa(2, n, 0, trans, frozenset())
    cond = condensation(d)
    top, bottom = cond.scc_of[0], cond.scc_of[n - 1]
    assert len(cond.scc_members[bottom]) == m
    tracemalloc.start()
    try:
        got = successor_sccs(d, cond, top), successor_sccs(d, cond, bottom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == ({cond.scc_of[1]}, set())
    assert peak < 64 * 1024, f"peak {peak} bytes"


def test_condensation_trivial_states():
    d = Dfa.from_map(2, 2, 0, {(0, 1): 1, (1, 0): 1, (1, 1): 1}, {1})
    cond = condensation(d)
    assert cond.count == 2
    assert set(cond.scc_type) == {SccType.TRIVIAL, SccType.TYPE_ONE}
    assert_condensation_sound(d)


def test_condensation_random_small():
    rng = random.Random(20260814)
    for _ in range(400):
        assert_condensation_sound(random_dfa(rng, max_states=12, max_base=4))
    # orbits of the letter group are the sccs, with no edge between them
    for i in range(300):
        d = random_multi_orbit_group_dfa(rng, 2 + i % 3, rng.randint(2, 5))
        assert is_group_automaton(d) and condensation(d).count >= 2
        assert_condensation_sound(d)


def test_condensation_random_larger():
    rng = random.Random(99)
    for _ in range(25):
        assert_condensation_sound(random_dfa(rng, max_states=60, complete_only=True))


@settings(max_examples=100, deadline=None)
@given(dfas(max_states=10, max_base=4))
def test_condensation_sound_property(d):
    assert_condensation_sound(d)
