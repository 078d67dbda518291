"""Digit expansions, canonical ultimately periodic sets, and derivatives."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updfa import (
    ALL_NATURALS,
    EMPTY_SET,
    UpSet,
    accepts,
    build_minimal_automaton,
    delta,
    format_upset,
    h_p,
    isomorphic,
    membership,
    minimize,
    representation,
    value,
)
from updfa.errors import (
    BadDigit,
    BaseTooSmall,
    NotCoprime,
    PreconditionViolated,
    StateLimitExceeded,
)

from conftest import language_table, membership_table, subprocess_env


# ---------------------------------------------------------------- value


def test_value_least_significant_digit_first():
    assert value((), 2) == 0
    assert value((1,), 2) == 1
    assert value((0, 1), 2) == 2
    assert value((1, 1, 0, 1), 2) == 11
    assert value((2, 1), 3) == 5


def test_value_rejects_bad_digits():
    with pytest.raises(BadDigit):
        value((2,), 2)
    with pytest.raises(BadDigit):
        value((-1,), 2)
    with pytest.raises(BaseTooSmall):
        value((0,), 1)


VALUE_SCALING_BENCH = """
import gc, random, statistics, time
from updfa import value
rng = random.Random(1)
words = [[rng.randrange(2) for _ in range(n)] for n in (10**4, 10**5)]
times = [[] for _ in words]
gc.disable()
for _ in range(5):
    for word, samples in zip(words, times):
        t0 = time.perf_counter_ns()
        value(word, 2)
        samples.append(time.perf_counter_ns() - t0)
print(*(int(statistics.median(s)) for s in times))
"""


def test_value_scaling():
    # pairwise merging costs 8-17x per decade of digits here, a growing
    # weight multiplied in digit by digit 75-90x; measured in a fresh
    # interpreter, repeats round-robin over the sizes
    proc = subprocess.run(
        [sys.executable, "-c", VALUE_SCALING_BENCH],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    ratio = large / small
    assert ratio <= 40, f"decade ratio {ratio:.2f} exceeds 40 ({small}, {large} ns)"


def test_representation_has_no_trailing_zero():
    assert representation(0, 2) == ()
    assert representation(1, 2) == (1,)
    assert representation(11, 2) == (1, 1, 0, 1)
    assert representation(9, 3) == (0, 0, 1)
    for n in range(200):
        rep = representation(n, 3)
        assert not rep or rep[-1] != 0
        assert value(rep, 3) == n


def test_representation_rejects_negatives():
    with pytest.raises(PreconditionViolated):
        representation(-1, 2)


def test_representation_and_closure_reject_small_bases():
    with pytest.raises(BaseTooSmall):
        representation(3, 1)
    with pytest.raises(BaseTooSmall):
        build_minimal_automaton(ALL_NATURALS, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 10))
def test_value_representation_round_trip(n, base):
    assert value(representation(n, base), base) == n


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=8),
    st.lists(st.integers(0, 2), max_size=8),
)
def test_value_concatenation_law(u, v):
    # reading v after u shifts v by base**len(u)
    assert value(u + v, 3) == value(u, 3) + value(v, 3) * 3 ** len(u)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=10), st.integers(0, 4))
def test_value_ignores_trailing_zeros(word, k):
    assert value(word + [0] * k, 2) == value(word, 2)


# ---------------------------------------------------------------- canonical form

# (p, R, I) drawn freely: p small, R any subset of [0, p), I any small naturals
upset_parts = st.integers(1, 12).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.sets(st.integers(0, p - 1)),
        st.sets(st.integers(0, 40), max_size=6),
    )
)


def test_canonicalize_alternating():
    s = UpSet.from_parts(4, [0, 2])
    assert s == UpSet(period=2, remainders={0}, mismatches=())


def test_canonicalize_reduces_period_and_collects_mismatches():
    s = UpSet.from_parts(8, [0, 1, 4, 5], [1, 6])
    assert s.period == 4
    assert s.remainders == frozenset({0, 1})
    assert s.mismatches == (1, 6)


def test_canonicalize_constant_tail():
    s = UpSet.from_parts(4, range(4), [0])
    assert s == UpSet(period=1, remainders={0}, mismatches=(0,))


@settings(max_examples=200, deadline=None)
@given(upset_parts)
def test_canonicalize_preserves_membership(parts):
    p, rem, mis = parts
    s = UpSet.from_parts(p, rem, mis)
    for n in range(max(mis, default=0) + 1 + 3 * p):
        assert membership(s, n) == ((n % p in rem) != (n in mis))


@settings(max_examples=200, deadline=None)
@given(upset_parts)
def test_canonicalize_output_is_minimal(parts):
    s = UpSet.from_parts(*parts)
    # no divisor of the period also works, and every mismatch is real
    rem = s.remainders
    p = s.period
    for d in range(1, p):
        if p % d == 0:
            assert any((r in rem) != (r % d in rem) for r in range(p))
    for i in s.mismatches:
        assert membership(s, i) != (i % p in rem)
    assert s.preperiod == (max(s.mismatches) + 1 if s.mismatches else 0)


# ---------------------------------------------------------------- UpSet


def test_sentinels():
    assert EMPTY_SET == UpSet(period=1, remainders=frozenset(), mismatches=())
    assert ALL_NATURALS == UpSet(period=1, remainders={0}, mismatches=())
    for n in range(20):
        assert not membership(EMPTY_SET, n)
        assert membership(ALL_NATURALS, n)
    with pytest.raises(PreconditionViolated):
        membership(ALL_NATURALS, -1)


def test_from_parts_canonicalizes():
    assert UpSet.from_parts(4, [0, 2]) == UpSet.from_parts(2, [0])
    assert UpSet.from_parts(3, []) == EMPTY_SET
    assert UpSet.from_parts(6, range(6)) == ALL_NATURALS


def test_from_parts_mismatches_are_symmetric_difference():
    s = UpSet.from_parts(2, [0], [4])
    assert s.mismatches == (4,)
    assert not membership(s, 4)  # 4 is even but flipped out
    assert membership(s, 6)
    t = UpSet.from_parts(2, [0], [3])
    assert membership(t, 3)  # 3 is odd but flipped in


def test_from_parts_keeps_a_huge_mismatch_cheap():
    # canonicalizing never expands the preperiod, so a mismatch at 2^40
    # costs what a small one does
    t0 = time.perf_counter()
    s = UpSet.from_parts(3, [1], [2**40])
    assert time.perf_counter() - t0 < 0.1
    assert s == UpSet(3, {1}, (2**40,))
    assert UpSet.from_parts(6, [1, 4], [2**40]) == s
    # the derivative strips the digit off the mismatch the same way
    assert delta(s, 0, 2) == UpSet(3, {2}, (2**39,))
    assert delta(s, 1, 2) == UpSet(3, {0}, ())
    # a huge period costs what its residues do, and so does its derivative
    t0 = time.perf_counter()
    big = UpSet.from_parts(2**40, [0])
    assert big == UpSet(2**40, {0}, ())
    assert delta(big, 0, 2) == UpSet(2**39, {0}, ())
    assert delta(big, 1, 2) == EMPTY_SET
    assert time.perf_counter() - t0 < 0.1


HUGE_PRIME_PERIOD = """
from updfa import UpSet, delta
p = 2**61 - 1
s = UpSet.from_parts(p, [0])
assert s == UpSet(p, {0}, ())
assert delta(s, 0, 2) == s
assert delta(s, 1, 2) == UpSet(p, {2**60 - 1}, ())
"""


def test_from_parts_factors_no_more_than_the_residues_need():
    # the least period is found by the primes of gcd(p, |R|), never by
    # factoring p, so a 61-bit prime period costs what {0} does; trial
    # division of p would not finish, hence a fresh interpreter and a
    # timeout
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_PRIME_PERIOD],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr


def test_from_parts_validation():
    with pytest.raises(PreconditionViolated):
        UpSet.from_parts(0, [])
    with pytest.raises(PreconditionViolated):
        UpSet.from_parts(3, [3])
    with pytest.raises(PreconditionViolated):
        UpSet.from_parts(3, [0], [-1])


def test_upset_shape_validation():
    # the raw constructor checks shape; canonicality is from_parts' job
    with pytest.raises(PreconditionViolated):
        UpSet(period=2, remainders={2}, mismatches=())
    with pytest.raises(PreconditionViolated):
        UpSet(period=1, remainders={-1}, mismatches=())
    with pytest.raises(PreconditionViolated):
        UpSet(period=2, remainders={0}, mismatches=(3, 3))
    with pytest.raises(PreconditionViolated):
        UpSet(period=2, remainders={0}, mismatches=(-1, 2))


def test_membership_matches_profile():
    # the characteristic sequence: prefix 11010101, then 10100 repeated
    s = UpSet.from_parts(5, [0, 3], [1, 7])
    profile = [1, 1, 0, 1, 0, 1, 0, 1] + [1, 0, 1, 0, 0] * 7
    assert [membership(s, n) for n in range(len(profile))] == profile


def test_format_upset():
    assert format_upset(UpSet.from_parts(5, [0, 1, 2, 4])) == "p=5 R=0,1,2,4 I=-"
    assert format_upset(UpSet.from_parts(1, [0], [2])) == "p=1 R=0 I=2"
    assert format_upset(EMPTY_SET) == "p=1 R=- I=-"


# ---------------------------------------------------------------- delta


def test_delta_golden_rows_base_2():
    # finite set: {0,3,4} / 0 -> {0,2}
    s = UpSet.from_parts(1, [], [0, 3, 4])
    assert delta(s, 0, 2) == UpSet.from_parts(1, [], [0, 2])
    # {0}+2N / 0 -> N
    assert delta(UpSet.from_parts(2, [0]), 0, 2) == ALL_NATURALS
    # {0} xor ({0,1,2,4}+5N) under both digits
    u = UpSet.from_parts(5, [0, 1, 2, 4], [0])
    assert delta(u, 0, 2) == UpSet.from_parts(5, [0, 1, 2, 3], [0])
    assert delta(u, 1, 2) == UpSet.from_parts(5, [0, 2, 3, 4])


def test_delta_validates_digit():
    with pytest.raises(BadDigit):
        delta(ALL_NATURALS, 2, 2)
    with pytest.raises(BaseTooSmall):
        delta(ALL_NATURALS, 0, 1)


def test_delta_law_on_corpus(corpus_sample):
    # composite bases make gcd(p, base) range beyond {1, 2, 3}
    for s in corpus_sample:
        for base in (2, 3, 4, 6, 10):
            for a in range(base):
                d = delta(s, a, base)
                for n in range(60):
                    assert membership(d, n) == membership(s, n * base + a)


def test_delta_period_divides_reduced_period(corpus_sample):
    import math

    for s in corpus_sample:
        for base in (2, 3):
            reduced = s.period // math.gcd(s.period, base)
            for a in range(base):
                assert reduced % delta(s, a, base).period == 0


def delta_word(s: UpSet, word, base: int) -> UpSet:
    for a in word:
        s = delta(s, a, base)
    return s


def test_delta_word_composes():
    s = UpSet.from_parts(5, [0, 1, 2, 4], [0, 7])
    word = (1, 0, 1, 1)
    step = s
    for a in word:
        step = delta(step, a, 2)
    assert delta_word(s, word, 2) == step
    assert delta_word(s, (), 2) == s
    # empty word on any set is the identity
    assert membership(delta_word(s, word, 2), 3) == membership(s, value(word, 2) + 3 * 16)


# ---------------------------------------------------------------- automaton of S


def test_build_minimal_automaton_golden_sizes():
    assert build_minimal_automaton(UpSet.from_parts(5, [0, 1, 2, 4]), 2).state_count == 5
    assert build_minimal_automaton(UpSet.from_parts(5, [0, 1]), 2).state_count == 10
    assert build_minimal_automaton(EMPTY_SET, 2).state_count == 1
    assert build_minimal_automaton(ALL_NATURALS, 3).state_count == 1


def test_build_minimal_automaton_is_minimal_and_stable(corpus_sample):
    for s in corpus_sample[:120]:
        dfa = build_minimal_automaton(s, 2)
        assert dfa.is_complete
        assert dfa.is_zero_stable
        m = minimize(dfa)
        assert m.state_count == dfa.state_count
        assert isomorphic(m, dfa)


def test_build_minimal_automaton_accepts_by_value():
    s = UpSet.from_parts(7, [1, 2, 4], [0, 9])
    for base in (2, 3):
        dfa = build_minimal_automaton(s, base)
        got = language_table(dfa, 7)
        want = membership_table(s, base, 7)
        assert all((g == w).all() for g, w in zip(got, want))


def test_build_minimal_automaton_initial_finality():
    s = UpSet.from_parts(3, [1], [0])
    dfa = build_minimal_automaton(s, 2)
    assert (dfa.initial in dfa.finals) == membership(s, 0) == True


def test_build_minimal_automaton_state_limit():
    s = UpSet.from_parts(23, [0, 5, 11])
    with pytest.raises(StateLimitExceeded):
        build_minimal_automaton(s, 2, state_limit=3)


# ---------------------------------------------------------------- h_p


def test_h5_golden_table():
    table = {
        0: (0, 2),
        1: (3, 0),
        2: (1, 3),
        3: (4, 1),
        4: (2, 4),
    }
    for e, (h0, h1) in table.items():
        assert h_p(e, 0, 5, 2) == h0
        assert h_p(e, 1, 5, 2) == h1


def test_h_p_is_the_predecessor_map():
    # h_p(e, a) is the unique e' with e'*b + a = e (mod p)
    for p in (3, 5, 7, 9, 11):
        for base in (2, 4, 5):
            import math

            if math.gcd(p, base) != 1:
                continue
            for e in range(p):
                for a in range(base):
                    assert (h_p(e, a, p, base) * base + a) % p == e


def test_h_p_requires_coprimality():
    with pytest.raises(NotCoprime):
        h_p(0, 0, 4, 2)
