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
from updfa import automaton
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
        for prev, cls in zip([[0] * d.state_count] + rounds, rounds):
            assert dense(automaton._hopcroft(cols, list(cls), prev)) == fixpoint


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
    # ids are reverse topological: cross edges decrease
    desc = [set() for _ in range(cond.count)]
    internal = [[] for _ in range(cond.count)]
    for s, a, t in d.transition_items():
        cs, ct = cond.scc_of[s], cond.scc_of[t]
        if cs == ct:
            internal[cs].append(a)
        else:
            assert ct < cs
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
