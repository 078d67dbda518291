"""Shared corpus of ultimately periodic sets and bulk language helpers."""

from __future__ import annotations

import random

import numpy as np
import pytest

from updfa import Dfa, UpSet

CORPUS_SEED = 20260814
CORPUS_BASES = (2, 3)

# mismatch sets stay small so preperiods stay in single digits
MIS_POOL = range(13)
MIS_MAX_SIZE = 3


def _mismatch_variants(rng: random.Random) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(2):
        size = rng.randint(1, MIS_MAX_SIZE)
        out.append(tuple(rng.sample(MIS_POOL, size)))
    return out


def _structured_remainders(p: int) -> list[tuple[int, ...]]:
    return [
        (),
        (0,),
        (p - 1,),
        tuple(range(0, p, 2)),
        tuple(range(p // 2)),
        tuple(range(p)),
    ]


def build_corpus() -> list[UpSet]:
    """Deterministic mix of exhaustive small periods and sampled larger ones.

    Inputs are raw (period, remainders, mismatches) triples; from_parts
    canonicalizes, so the returned sets are deduplicated canonical forms.
    """
    rng = random.Random(CORPUS_SEED)
    seen: set[UpSet] = set()
    out: list[UpSet] = []

    def add(p: int, rem: tuple[int, ...], mis: tuple[int, ...]) -> None:
        s = UpSet.from_parts(p, rem, mis)
        if s not in seen:
            seen.add(s)
            out.append(s)

    for p in range(1, 8):
        for mask in range(1 << p):
            rem = tuple(r for r in range(p) if mask >> r & 1)
            for mis in _mismatch_variants(rng):
                add(p, rem, mis)

    for p in range(8, 25):
        rems = _structured_remainders(p)
        while len(rems) < 20:
            mask = rng.getrandbits(p)
            rems.append(tuple(r for r in range(p) if mask >> r & 1))
        for rem in rems:
            for mis in _mismatch_variants(rng):
                add(p, rem, mis)

    return out


_CORPUS = build_corpus()


@pytest.fixture(scope="session")
def corpus_sets() -> list[UpSet]:
    return _CORPUS


@pytest.fixture(scope="session")
def corpus_instances() -> list[tuple[UpSet, int]]:
    return [(s, b) for b in CORPUS_BASES for s in _CORPUS]


@pytest.fixture(scope="session")
def corpus_sample() -> list[UpSet]:
    """Thinned slice for per-module tests; acceptance sweeps the full corpus."""
    return _CORPUS[::17]


def language_table(dfa: Dfa, max_len: int) -> list[np.ndarray]:
    """Acceptance bits of every word of length L, for L = 0..max_len.

    Length-L words biject onto [0, base**L) by value, so table[L][v] is the
    verdict on the unique length-L word of value v.  Requires a complete
    automaton (missing transitions would index as -1).
    """
    b = dfa.base
    cols = [np.array(dfa.transitions[a::b], dtype=np.int64) for a in range(b)]
    final = np.zeros(dfa.state_count, dtype=bool)
    final[list(dfa.finals)] = True
    states = np.array([dfa.initial], dtype=np.int64)
    table = [final[states]]
    for _ in range(max_len):
        # appending digit a adds a * b**L to the value, the new block
        states = np.concatenate([col[states] for col in cols])
        table.append(final[states])
    return table


def membership_table(s: UpSet, base: int, max_len: int) -> list[np.ndarray]:
    """membership(s, v) for every value v of a word of length L, same layout
    as language_table."""
    rem = np.zeros(s.period, dtype=bool)
    rem[list(s.remainders)] = True
    mis = np.array(s.mismatches, dtype=np.int64)
    table = []
    for length in range(max_len + 1):
        v = np.arange(base**length, dtype=np.int64)
        bits = rem[v % s.period]
        if mis.size:
            bits = bits ^ np.isin(v, mis)
        table.append(bits)
    return table
