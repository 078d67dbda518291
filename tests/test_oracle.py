"""Brute-force sampling reference: prefix bits, period search, slow decide."""

from __future__ import annotations

import pytest

from updfa import (
    CharacteristicProfile,
    Dfa,
    UpSet,
    build_minimal_automaton,
    decide,
    membership,
)
from updfa.errors import InsufficientData

from oracle import brute_decide, characteristic_prefix, find_eventual_period
from test_automaton import EVEN_ONES, powers_of_two_dfa


# ---------------------------------------------------------------- sampling


def test_characteristic_prefix_matches_membership(corpus_sample):
    for s in corpus_sample[:80]:
        dfa = build_minimal_automaton(s, 2)
        bits = characteristic_prefix(dfa, 64)
        assert bits == bytes(membership(s, n) for n in range(64))


def test_characteristic_prefix_on_partial_automaton():
    # a walk that hits a missing transition rejects: 5 reads as 1,0,1 and
    # needs the undefined (1, 0) edge, everything else avoids it
    d = Dfa(2, 2, 0, (0, 1, -1, 1), frozenset({1}))
    assert list(characteristic_prefix(d, 8)) == [0, 1, 1, 1, 1, 0, 1, 1]


def test_characteristic_prefix_powers_of_two():
    assert list(characteristic_prefix(powers_of_two_dfa(), 12)) == [
        0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0,
    ]


# ---------------------------------------------------------------- period search


def test_find_period_alternation():
    assert find_eventual_period(bytes([1, 0] * 50), 16, 8) == (0, 2)


def test_find_period_constant():
    assert find_eventual_period(bytes(100), 16, 8) == (0, 1)
    assert find_eventual_period(bytes([1] * 100), 16, 8) == (0, 1)


def test_find_period_stream_golden():
    prof = CharacteristicProfile.from_bits("10001110", "1100")
    bits = bytes(prof.bit(n) for n in range(200))
    assert find_eventual_period(bits, 32, 32) == (7, 4)


def test_find_period_thue_morse_has_none():
    bits = bytes(bin(n).count("1") & 1 for n in range(4096))
    assert find_eventual_period(bits, 2048, 1024) is None


def test_find_period_requires_enough_bits():
    with pytest.raises(InsufficientData):
        find_eventual_period(bytes(50), 32, 16)


def test_find_period_recovers_canonical_parameters(corpus_sample):
    # with the mandated sample length the lexicographic minimum is exactly
    # (preperiod, period): smaller periods fail and multiples tie on m
    for s in corpus_sample[:120]:
        bits = bytes(membership(s, n) for n in range(48 + 2 * 64))
        assert find_eventual_period(bits, 48, 64) == (s.preperiod, s.period)


def test_find_period_stable_under_larger_bounds(corpus_sample):
    for s in corpus_sample[100:160]:
        bits = bytes(membership(s, n) for n in range(128 + 2 * 128))
        a = find_eventual_period(bits, 32, 32)
        b = find_eventual_period(bits, 128, 128)
        assert a == b == (s.preperiod, s.period)


# ---------------------------------------------------------------- brute decide


def test_brute_decide_round_trip(corpus_sample):
    for s in corpus_sample[:60]:
        for base in (2, 3):
            dfa = build_minimal_automaton(s, base)
            assert brute_decide(dfa, 16, 32) == s


def test_brute_decide_rejects_aperiodic():
    assert brute_decide(powers_of_two_dfa(), 256, 64) is None
    assert brute_decide(EVEN_ONES, 256, 64) is None


def test_brute_decide_rejects_false_candidate():
    # at tiny bounds the pow2 prefix looks (3, 4)-periodic; the rebuild-and-
    # compare verification leg must throw that candidate away
    pow2 = powers_of_two_dfa()
    bits = characteristic_prefix(pow2, 12)
    assert find_eventual_period(bits, 4, 4) == (3, 4)
    assert brute_decide(pow2, 4, 4) is None


def test_brute_decide_agrees_with_decide(corpus_sample):
    for s in corpus_sample[200:260]:
        dfa = build_minimal_automaton(s, 3)
        res = decide(dfa)
        assert res.ultimately_periodic
        assert brute_decide(dfa, 16, 32) == res.params
