"""Transition-table core: parse/write, completion, minimize, structure checks."""

from __future__ import annotations

import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updfa import (
    Dfa,
    SccType,
    accepts,
    check_zero_stability,
    complete,
    condensation,
    is_group_automaton,
    isomorphic,
    minimize,
    parse_dfa,
    validate,
    write_dfa,
)
from updfa.errors import (
    BadDigit,
    BadStateId,
    BaseTooSmall,
    FormatError,
    PreconditionViolated,
)

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


def moore_minimal_size(dfa):
    """Block count of Moore refinement on the reachable completed automaton."""
    d = complete(dfa)
    b = d.base
    reach = sorted(reachable_states(d))
    block = {s: int(s in d.finals) for s in reach}
    while True:
        sigs = {
            s: (block[s], tuple(block[d.transitions[s * b + a]] for a in range(b)))
            for s in reach
        }
        ids: dict = {}
        new = {}
        for s in reach:
            new[s] = ids.setdefault(sigs[s], len(ids))
        if new == block:
            return len(ids)
        block = new


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


def test_validate_rejects_out_of_range_transition():
    with pytest.raises(BadStateId):
        Dfa(base=2, state_count=2, initial=0, transitions=(0, 1, 1, 9), finals=frozenset())
    with pytest.raises(BadStateId):
        Dfa(base=2, state_count=2, initial=0, transitions=(0, 1, 1, -3), finals=frozenset())


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
    assert sorted(d.transition_items()) == [(0, 0, 1), (1, 0, 0), (1, 1, 0)]
    assert not d.is_complete


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
    assert m.state_count == moore_minimal_size(d) == 2


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
    assert m.state_count == moore_minimal_size(d)
    assert language(m, 6) == language(d, 6)


@settings(max_examples=60, deadline=None)
@given(dfas())
def test_minimize_idempotent(d):
    m = minimize(d)
    again = minimize(m)
    assert again.state_count == m.state_count
    assert isomorphic(again, m)


# ---------------------------------------------------------------- isomorphic


def test_isomorphic_accepts_relabelling():
    rng = random.Random(11)
    for _ in range(60):
        d = minimize(random_dfa(rng))
        perm = list(range(d.state_count))
        rng.shuffle(perm)
        assert isomorphic(d, relabel(d, perm))


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
    assert check_zero_stability(EVEN_ONES)
    flipped = Dfa(base=2, state_count=2, initial=0, transitions=(1, 1, 0, 0), finals=frozenset({0}))
    assert not check_zero_stability(flipped)
    assert check_zero_stability(powers_of_two_dfa())


def test_is_group_automaton():
    assert is_group_automaton(EVEN_ONES)
    assert not is_group_automaton(powers_of_two_dfa())  # digit 1 collides on 2
    with pytest.raises(PreconditionViolated):
        is_group_automaton(
            Dfa(base=2, state_count=1, initial=0, transitions=(0, MISSING), finals=frozenset())
        )


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
    # ids are reverse topological: cross edges decrease, and the listed
    # order makes every edge go forward
    pos = {c: i for i, c in enumerate(cond.topological_order)}
    desc = [set() for _ in range(cond.count)]
    internal = [[] for _ in range(cond.count)]
    for s, a, t in d.transition_items():
        cs, ct = cond.scc_of[s], cond.scc_of[t]
        if cs == ct:
            internal[cs].append(a)
        else:
            assert ct < cs
            assert pos[cs] < pos[ct]
            desc[cs].add(ct)
    assert tuple(frozenset(x) for x in desc) == cond.descendants
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
    assert cond.descendants == (frozenset(),)


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


def test_condensation_random_larger():
    rng = random.Random(99)
    for _ in range(25):
        assert_condensation_sound(random_dfa(rng, max_states=60, complete_only=True))


@settings(max_examples=100, deadline=None)
@given(dfas(max_states=10, max_base=4))
def test_condensation_sound_property(d):
    assert_condensation_sound(d)
