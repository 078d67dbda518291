"""Base-b numeration (least significant digit first) and ultimately
periodic sets of naturals in canonical form.

A set S is stored as (p, R, I): the periodic part R + p*N plus an exact
finite mismatch set I, so n is in S iff (n mod p in R) XOR (n in I).
Canonical means p is the minimal eventual period of the characteristic
sequence and I is exactly where S differs from the periodic extension, so
two UpSets denote the same set iff they are equal component-wise.

The derivative Delta(S, a) = {n : n*b + a in S} is what reading one digit
does to the accepted set; closing a canonical set under it yields the
minimal automaton directly, one state per derived set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .automaton import Dfa
from .errors import (
    BadDigit,
    BaseTooSmall,
    NotCanonical,
    NotCoprime,
    PreconditionViolated,
    StateLimitExceeded,
)

DEFAULT_STATE_LIMIT = 10**6


def value(word: Sequence[int], base: int) -> int:
    """Value of a digit word read least significant digit first."""
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    total = 0
    weight = 1
    for a in word:
        if not 0 <= a < base:
            raise BadDigit(f"digit {a} out of range (base {base})")
        total += a * weight
        weight *= base
    return total


def representation(n: int, base: int) -> tuple[int, ...]:
    """The unique expansion of n without a trailing 0 (empty for 0)."""
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    if n < 0:
        raise PreconditionViolated(f"n must be a natural, got {n}")
    digits = []
    while n:
        n, a = divmod(n, base)
        digits.append(a)
    return tuple(digits)


def _as_bits(seq) -> bytes:
    """Normalize '0'/'1' strings or int/bool iterables to 0/1 bytes."""
    if isinstance(seq, str):
        if set(seq) - {"0", "1"}:
            raise PreconditionViolated(f"bit string may only contain 0/1: {seq!r}")
        return bytes(1 if c == "1" else 0 for c in seq)
    return bytes(1 if b else 0 for b in seq)


@dataclass(frozen=True)
class CharacteristicProfile:
    """A sampled characteristic sequence: explicit prefix, then a repeating
    cycle.  Neither part needs to be minimal; canonicalize reduces both."""

    prefix: bytes
    cycle: bytes

    def __post_init__(self):
        if len(self.cycle) < 1:
            raise PreconditionViolated("cycle must be non-empty")
        for part in (self.prefix, self.cycle):
            if any(b not in (0, 1) for b in part):
                raise PreconditionViolated("profile bits must be 0 or 1")

    @classmethod
    def from_bits(cls, prefix, cycle) -> "CharacteristicProfile":
        return cls(_as_bits(prefix), _as_bits(cycle))

    def bit(self, n: int) -> int:
        """Membership bit of n under the eventually periodic reading."""
        m = len(self.prefix)
        if n < m:
            return self.prefix[n]
        return self.cycle[(n - m) % len(self.cycle)]


@dataclass(frozen=True)
class UpSet:
    """Canonical ultimately periodic subset of the naturals.

    Only construct through canonicalize / from_parts; direct construction
    is for code that has already established canonicality.
    """

    period: int
    remainders: bytes
    mismatches: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise PreconditionViolated(f"period {self.period} < 1")
        if len(self.remainders) != self.period:
            raise PreconditionViolated("remainder bit vector must have length p")
        if any(b not in (0, 1) for b in self.remainders):
            raise PreconditionViolated("remainder bits must be 0 or 1")
        if list(self.mismatches) != sorted(set(self.mismatches)):
            raise PreconditionViolated("mismatches must be sorted and distinct")
        if self.mismatches and self.mismatches[0] < 0:
            raise PreconditionViolated("mismatches must be naturals")

    @classmethod
    def from_parts(
        cls,
        period: int,
        remainders: Iterable[int],
        mismatches: Iterable[int] = (),
    ) -> "UpSet":
        """Canonical UpSet of the set (remainders + period*N) XOR mismatches."""
        if period < 1:
            raise PreconditionViolated(f"period {period} < 1")
        bits = bytearray(period)
        for r in remainders:
            if not 0 <= r < period:
                raise PreconditionViolated(f"remainder {r} out of range [0, {period})")
            bits[r] = 1
        mis = sorted(set(mismatches))
        if mis and mis[0] < 0:
            raise PreconditionViolated("mismatches must be naturals")
        return _with_least_period(bytes(bits), mis)

    @property
    def preperiod(self) -> int:
        return self.mismatches[-1] + 1 if self.mismatches else 0

    @cached_property
    def remainder_set(self) -> frozenset[int]:
        return frozenset(r for r in range(self.period) if self.remainders[r])

    @cached_property
    def _mismatch_set(self) -> frozenset[int]:
        return frozenset(self.mismatches)

    def membership(self, n: int) -> bool:
        if n < 0:
            raise PreconditionViolated(f"n must be a natural, got {n}")
        return bool(self.remainders[n % self.period]) != (n in self._mismatch_set)

    def profile(self) -> CharacteristicProfile:
        return _profile_of(self.period, self.remainders, list(self.mismatches))


EMPTY_SET = UpSet(1, b"\x00", ())
ALL_NATURALS = UpSet(1, b"\x01", ())


def membership(s: UpSet, n: int) -> bool:
    return s.membership(n)


def _profile_of(period: int, rem_bits: bytes, mis: list[int]) -> CharacteristicProfile:
    m = mis[-1] + 1 if mis else 0
    mis_set = set(mis)
    prefix = bytes(
        rem_bits[n % period] ^ (1 if n in mis_set else 0) for n in range(m)
    )
    cycle = bytes(rem_bits[(m + j) % period] for j in range(period))
    return CharacteristicProfile(prefix, cycle)


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def least_period(bits: bytes) -> int:
    """The smallest d dividing len(bits) under which bits, read
    cyclically, is invariant under a shift by d.

    The cyclic periods dividing the length are the multiples of the least
    one, so dividing each prime out of the length for as long as the
    quotient is still a period ends there.  Each test compares a prefix
    of length d, at C speed: O(len(bits)) per distinct prime factor.
    """
    d = len(bits)
    for q in _prime_factors(d):
        while d % q == 0:
            s = d // q
            if bits[s:d] != bits[: d - s]:
                break
            d = s
    return d


def _with_least_period(rem_bits: bytes, mismatches) -> UpSet:
    """The canonical form of (R + p*N) xor I given as a residue bit vector
    and the sorted mismatches: the periodic part only needs its least
    period, and I is already exactly where the set departs from it."""
    d = least_period(rem_bits)
    return UpSet(d, rem_bits[:d], tuple(mismatches))


def canonicalize(profile: CharacteristicProfile) -> UpSet:
    """Reduce a profile to the unique canonical (p, R, I).

    The minimal eventual period divides the cycle length (eventual periods
    are closed under gcd), so it is the smallest divisor under which the
    cycle is shift-invariant.  Prefix positions whose bit already matches
    the periodic prediction are not mismatches, which rolls the preperiod
    back as far as it can go.
    """
    cycle = profile.cycle
    m_hat = len(profile.prefix)
    d = least_period(cycle)
    # the cycle starts at index m_hat of the full sequence, so residue r
    # of the tail reads cycle position (r - m_hat) mod d
    rem = bytes(cycle[(r - m_hat) % d] for r in range(d))
    mis = tuple(n for n in range(m_hat) if profile.prefix[n] != rem[n % d])
    return UpSet(d, rem, mis)


def delta(s: UpSet, a: int, base: int) -> UpSet:
    """The derivative {n : n*base + a in S}, in canonical form.

    It distributes over the mismatch/periodic split: the periodic part has
    period p / gcd(p, base) with remainders read off by a stride scan, and
    each mismatch i survives as (i - a) / base exactly when i = a (mod base).
    Both parts are read off directly, in O(p + |I|), without expanding the
    preperiod.
    """
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    if not 0 <= a < base:
        raise BadDigit(f"digit {a} out of range (base {base})")
    p = s.period
    p2 = p // math.gcd(p, base)
    rem2 = bytes(s.remainders[(n * base + a) % p] for n in range(p2))
    mis2 = [(i - a) // base for i in s.mismatches if i % base == a]
    return _with_least_period(rem2, mis2)


def delta_word(s: UpSet, word: Sequence[int], base: int) -> UpSet:
    for a in word:
        s = delta(s, a, base)
    return s


def build_minimal_automaton(
    s: UpSet, base: int, state_limit: int = DEFAULT_STATE_LIMIT
) -> Dfa:
    """Close {s} under delta; one state per distinct canonical derivative.

    States are numbered in BFS discovery order, the initial state is s, and
    a state is final iff its set contains 0.  Distinct canonical UpSets have
    distinct languages, so the result is minimal as built.
    """
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    index: dict[UpSet, int] = {s: 0}
    states = [s]
    flat: list[int] = []
    qi = 0
    while qi < len(states):
        cur = states[qi]
        qi += 1
        for a in range(base):
            t = delta(cur, a, base)
            j = index.get(t)
            if j is None:
                if len(states) >= state_limit:
                    raise StateLimitExceeded(
                        f"delta closure exceeds {state_limit} states"
                    )
                j = len(states)
                index[t] = j
                states.append(t)
            flat.append(j)
    finals = frozenset(i for i, t in enumerate(states) if t.membership(0))
    return Dfa(base, len(states), 0, flat, finals)


def h_p(e: int, a: int, p: int, base: int) -> int:
    """(e - a) * base^-1 mod p: the residue whose a-successor is e."""
    if p < 1 or math.gcd(p, base) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    return ((e - a) * pow(base, -1, p)) % p


def build_atomic_explicit(p: int, remainders: Iterable[int], base: int) -> Dfa:
    """Minimal automaton of R + p*N by closing the subset R of Z/pZ under
    the elementwise lift of h_p, without going through UpSets.

    Requires gcd(p, base) = 1 and (p, R) canonical; the closure then stays
    within same-size subsets (each digit acts as a bijection on residues).
    """
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    if p < 1 or math.gcd(p, base) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    rem = sorted(set(remainders))
    bits = bytearray(p)
    for r in rem:
        if not 0 <= r < p:
            raise PreconditionViolated(f"remainder {r} out of range [0, {p})")
        bits[r] = 1
    d = least_period(bytes(bits))
    if d != p:
        raise NotCanonical(f"(p={p}, R={set(rem)}) is shift-invariant under {d}")

    inv = pow(base, -1, p)
    start = frozenset(rem)
    index: dict[frozenset[int], int] = {start: 0}
    states = [start]
    flat: list[int] = []
    qi = 0
    while qi < len(states):
        cur = states[qi]
        qi += 1
        for a in range(base):
            t = frozenset(((e - a) * inv) % p for e in cur)
            j = index.get(t)
            if j is None:
                j = len(states)
                index[t] = j
                states.append(t)
            flat.append(j)
    finals = frozenset(i for i, t in enumerate(states) if 0 in t)
    return Dfa(base, len(states), 0, flat, finals)


def format_upset(s: UpSet) -> str:
    """Text form used by the CLI: p=<int> R=<list> I=<list>, '-' if empty."""

    def lst(xs) -> str:
        xs = sorted(xs)
        return ",".join(str(x) for x in xs) if xs else "-"

    return f"p={s.period} R={lst(s.remainder_set)} I={lst(s.mismatches)}"
