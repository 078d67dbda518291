"""Digit expansions, canonical ultimately periodic sets, and derivatives."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updfa import (
    ALL_NATURALS,
    EMPTY_SET,
    CharacteristicProfile,
    UpSet,
    accepts,
    build_atomic_explicit,
    build_minimal_automaton,
    canonicalize,
    check_zero_stability,
    delta,
    delta_word,
    format_upset,
    h_p,
    is_group_automaton,
    isomorphic,
    membership,
    minimize,
    representation,
    value,
)
from updfa.errors import (
    BadDigit,
    BaseTooSmall,
    NotCanonical,
    NotCoprime,
    PreconditionViolated,
    StateLimitExceeded,
)

from conftest import language_table, membership_table


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


# ---------------------------------------------------------------- profiles


def test_profile_bit_reads_prefix_then_cycle():
    prof = CharacteristicProfile.from_bits("01", "110")
    assert [prof.bit(n) for n in range(9)] == [0, 1, 1, 1, 0, 1, 1, 0, 1]


def test_profile_rejects_empty_cycle():
    with pytest.raises(PreconditionViolated):
        CharacteristicProfile(b"", b"")


def test_profile_rejects_non_bits():
    with pytest.raises(PreconditionViolated):
        CharacteristicProfile(b"", b"\x02")


# ---------------------------------------------------------------- canonicalize


def test_canonicalize_alternating():
    s = canonicalize(CharacteristicProfile.from_bits("", "10"))
    assert s == UpSet(period=2, remainders=b"\x01\x00", mismatches=())


def test_canonicalize_reduces_period_and_collects_mismatches():
    s = canonicalize(CharacteristicProfile.from_bits("10001110", "1100"))
    assert s.period == 4
    assert s.remainder_set == frozenset({0, 1})
    assert s.mismatches == (1, 6)


def test_canonicalize_absorbs_prefix_into_cycle():
    # prefix agrees with the cycle, so no mismatches survive
    s = canonicalize(CharacteristicProfile.from_bits("10", "10"))
    assert s == UpSet(period=2, remainders=b"\x01\x00", mismatches=())


def test_canonicalize_constant_tail():
    s = canonicalize(CharacteristicProfile.from_bits("0", "1111"))
    assert s == UpSet(period=1, remainders=b"\x01", mismatches=(0,))


def test_canonicalize_is_phase_invariant():
    # re-sampling the same set with a longer prefix must not change the result
    base = CharacteristicProfile.from_bits("101", "0110")
    s = canonicalize(base)
    for extra in range(1, 9):
        bits = [base.bit(n) for n in range(3 + extra)]
        cyc = [base.bit(n) for n in range(3 + extra, 3 + extra + 4)]
        shifted = CharacteristicProfile(bytes(bits), bytes(cyc))
        assert canonicalize(shifted) == s


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=10),
    st.lists(st.integers(0, 1), min_size=1, max_size=8),
)
def test_canonicalize_preserves_membership(prefix, cycle):
    prof = CharacteristicProfile(bytes(prefix), bytes(cycle))
    s = canonicalize(prof)
    for n in range(len(prefix) + 3 * len(cycle)):
        assert membership(s, n) == bool(prof.bit(n))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=10),
    st.lists(st.integers(0, 1), min_size=1, max_size=8),
)
def test_canonicalize_output_is_minimal(prefix, cycle):
    s = canonicalize(CharacteristicProfile(bytes(prefix), bytes(cycle)))
    # no divisor of the period also works, and every mismatch is real
    rem = s.remainders
    p = s.period
    for d in range(1, p):
        if p % d == 0:
            assert any(rem[r] != rem[r % d] for r in range(p))
    for i in s.mismatches:
        assert membership(s, i) != bool(rem[i % p])
    assert s.preperiod == (max(s.mismatches) + 1 if s.mismatches else 0)


# ---------------------------------------------------------------- UpSet


def test_sentinels():
    assert EMPTY_SET == UpSet(period=1, remainders=b"\x00", mismatches=())
    assert ALL_NATURALS == UpSet(period=1, remainders=b"\x01", mismatches=())
    for n in range(20):
        assert not membership(EMPTY_SET, n)
        assert membership(ALL_NATURALS, n)


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
    assert s == UpSet(3, b"\x00\x01\x00", (2**40,))
    assert UpSet.from_parts(6, [1, 4], [2**40]) == s
    # the derivative strips the digit off the mismatch the same way
    assert delta(s, 0, 2) == UpSet(3, b"\x00\x00\x01", (2**39,))
    assert delta(s, 1, 2) == UpSet(3, b"\x01\x00\x00", ())


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
        UpSet(period=2, remainders=b"\x01", mismatches=())
    with pytest.raises(PreconditionViolated):
        UpSet(period=1, remainders=b"\x02", mismatches=())
    with pytest.raises(PreconditionViolated):
        UpSet(period=2, remainders=b"\x01\x00", mismatches=(3, 3))
    with pytest.raises(PreconditionViolated):
        UpSet(period=2, remainders=b"\x01\x00", mismatches=(-1, 2))


def test_membership_matches_profile():
    s = UpSet.from_parts(5, [0, 3], [1, 7])
    prof = s.profile()
    for n in range(40):
        assert membership(s, n) == bool(prof.bit(n))


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
    for s in corpus_sample:
        for base in (2, 3):
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
        assert check_zero_stability(dfa)
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


# ---------------------------------------------------------------- atomic build


def test_atomic_explicit_matches_delta_construction():
    cases = [(5, [0, 3], 2), (5, [0, 1, 2, 4], 2), (7, [6], 2), (5, [0, 3], 3), (1, [0], 2)]
    for p, rem, base in cases:
        a = build_atomic_explicit(p, rem, base)
        b = build_minimal_automaton(UpSet.from_parts(p, rem), base)
        assert a.state_count == b.state_count
        assert isomorphic(a, b)
        assert is_group_automaton(a)


def test_atomic_explicit_rejects_shift_invariant_remainders():
    # {0,2}+4N has true period 2, so (4, {0,2}) is not canonical
    with pytest.raises(NotCanonical):
        build_atomic_explicit(4, [0, 2], 3)
    with pytest.raises(NotCanonical):
        build_atomic_explicit(3, [], 2)  # empty set has period 1


def test_atomic_explicit_requires_coprimality():
    with pytest.raises(NotCoprime):
        build_atomic_explicit(6, [1], 2)
