"""Brute-force reference implementations for the tests.

Sampling here deliberately avoids the library's numeration helpers: bits
come from an inline divmod expansion walked directly over the transition
table, so a bug in value/representation/delta cannot hide by matching
itself.  Only the verification leg of brute_decide reuses the library
(rebuild the candidate, compare minimal automata), which is what makes a
positive answer unconditionally correct.
"""

from __future__ import annotations

from updfa.automaton import Dfa, isomorphic, minimize
from updfa.errors import InsufficientData, StateLimitExceeded
from updfa.numeration import (
    CharacteristicProfile,
    UpSet,
    build_minimal_automaton,
    canonicalize,
)

MISSING = -1


def characteristic_prefix(dfa: Dfa, n_max: int) -> bytes:
    """Membership bits of 0..n_max-1: expand i least significant digit
    first (stopping before trailing zeros) and walk the table."""
    b = dfa.base
    trans = dfa.transitions
    finals = dfa.finals
    out = bytearray(n_max)
    for i in range(n_max):
        s = dfa.initial
        k = i
        while k:
            s = trans[s * b + k % b]
            if s == MISSING:
                break
            k //= b
        if s != MISSING and s in finals:
            out[i] = 1
    return bytes(out)


def find_eventual_period(bits: bytes, max_m: int, max_p: int) -> tuple[int, int] | None:
    """Lexicographically smallest (m, p), p in [1, max_p], m <= max_m, such
    that bits is p-periodic from position m on; None if there is none.

    For each p the minimal m is one past the last violation, so candidates
    are scanned in full; a hit with m = 0 cannot be beaten and short-cuts.
    A positive answer certifies only the sampled prefix.
    """
    if len(bits) < max_m + 2 * max_p:
        raise InsufficientData(
            f"need at least {max_m + 2 * max_p} bits, got {len(bits)}"
        )
    length = len(bits)
    best: tuple[int, int] | None = None
    for p in range(1, max_p + 1):
        m = 0
        for i in range(length - p):
            if bits[i] != bits[i + p]:
                m = i + 1
        if m > max_m:
            continue
        if m == 0:
            return (0, p)
        if best is None or (m, p) < best:
            best = (m, p)
    return best


def brute_decide(dfa: Dfa, max_m: int, max_p: int) -> UpSet | None:
    """Sample, search for an eventual period, then verify the candidate by
    rebuilding its minimal automaton and testing isomorphism.

    Returns the canonical UpSet (always correct) or None (conclusive only
    relative to the bounds)."""
    bits = characteristic_prefix(dfa, max_m + 2 * max_p)
    found = find_eventual_period(bits, max_m, max_p)
    if found is None:
        return None
    m, p = found
    candidate = canonicalize(CharacteristicProfile(bits[:m], bits[m : m + p]))
    minimal = minimize(dfa)
    try:
        built = build_minimal_automaton(
            candidate, dfa.base, state_limit=minimal.state_count
        )
    except StateLimitExceeded:
        return None
    return candidate if isomorphic(built, minimal) else None
