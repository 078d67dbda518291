"""Base-b numeration (least significant digit first) and ultimately
periodic sets of naturals in canonical form.

A set S is stored as (p, R, I): the periodic part R + p*N plus an exact
finite mismatch set I, so n is in S iff (n mod p in R) XOR (n in I).  R is
a frozenset of residues and I a sorted tuple, so what a set costs follows
|R| + |I| and never p itself: 2^40 * N is as cheap as 2N.
Canonical means p is the minimal eventual period of the characteristic
sequence and I is exactly where S differs from the periodic extension, so
two UpSets denote the same set iff they are equal component-wise.

The derivative Delta(S, a) = {n : n*b + a in S} is what reading one digit
does to the accepted set; closing a canonical set under it yields the
minimal automaton directly, one state per derived set.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .automaton import Dfa
from .errors import (
    BadDigit,
    BaseTooSmall,
    NotCoprime,
    PreconditionViolated,
    StateLimitExceeded,
)

DEFAULT_STATE_LIMIT = 10**6


def value(word: Sequence[int], base: int) -> int:
    """Value of a digit word read least significant digit first, by
    pairwise merging: O(M(L) log L) for L digits, where a weight multiplied
    up digit by digit costs O(L^2)."""
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    vals = list(word)
    if vals and (min(vals) < 0 or max(vals) >= base):
        a = next(a for a in vals if not 0 <= a < base)
        raise BadDigit(f"digit {a} out of range (base {base})")
    scale = base
    while len(vals) > 1:
        vals = [lo + hi * scale for lo, hi in zip(vals[::2], vals[1::2] + [0])]
        scale *= scale
    return vals[0] if vals else 0


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


@dataclass(frozen=True)
class UpSet:
    """Canonical ultimately periodic subset of the naturals.

    Only construct through from_parts; direct construction is for code
    that has already established canonicality.  Any iterable of residues
    is stored as a frozenset.
    """

    period: int
    remainders: frozenset[int]
    mismatches: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise PreconditionViolated(f"period {self.period} < 1")
        rem = frozenset(self.remainders)  # the same object if it is one
        object.__setattr__(self, "remainders", rem)
        lo, hi = min(rem, default=0), max(rem, default=0)
        if lo < 0 or hi >= self.period:
            bad = lo if lo < 0 else hi
            raise PreconditionViolated(
                f"remainder {bad} out of range [0, {self.period})"
            )
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
        s = cls(period, remainders, tuple(sorted(set(mismatches))))
        return _with_least_period(s.period, s.remainders, s.mismatches)

    @property
    def preperiod(self) -> int:
        return self.mismatches[-1] + 1 if self.mismatches else 0

    @cached_property
    def _mismatch_set(self) -> frozenset[int]:
        return frozenset(self.mismatches)

    def membership(self, n: int) -> bool:
        if n < 0:
            raise PreconditionViolated(f"n must be a natural, got {n}")
        return (n % self.period in self.remainders) != (n in self._mismatch_set)


EMPTY_SET = UpSet(1, frozenset(), ())
ALL_NATURALS = UpSet(1, frozenset({0}), ())


def membership(s: UpSet, n: int) -> bool:
    return s.membership(n)


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


def least_period(p: int, remainders: frozenset[int]) -> int:
    """The least period d of R + p*N, for R a set of residues mod p: the
    smallest d dividing p with R + d = R (mod p).

    The periods dividing p are the multiples of the least one, so dividing
    each prime out of p for as long as the quotient is still a period ends
    there.  R is a union of cosets of d, each of p/d residues, so p/d
    divides |R| too: only the primes of gcd(p, |R|) need trying, and
    factoring that costs O(sqrt|R|), however large p is.  Since the shift
    is a bijection, R + s is R as soon as it lies within R: O(|R|) lookups
    per prime factor, counted with multiplicity.
    """
    if not remainders:
        return 1
    d = p
    for q in _prime_factors(math.gcd(p, len(remainders))):
        while d % q == 0:
            s = d // q
            if not all((r + s) % p in remainders for r in remainders):
                break
            d = s
    return d


def _with_least_period(p: int, remainders: frozenset[int], mismatches) -> UpSet:
    """The canonical form of (R + p*N) xor I given R as residues mod p and
    the sorted mismatches: the periodic part only needs its least period,
    and I is already exactly where the set departs from it."""
    d = least_period(p, remainders)
    if d != p:
        remainders = frozenset(r for r in remainders if r < d)
    return UpSet(d, remainders, tuple(mismatches))


def delta(s: UpSet, a: int, base: int) -> UpSet:
    """The derivative {n : n*base + a in S}, in canonical form.

    It distributes over the mismatch/periodic split.  With g = gcd(p, base)
    the periodic part has period p / g, and each residue r = a (mod g)
    yields the one n < p / g with n*base + a = r (mod p), namely
    (r - a)/g times the inverse of base/g modulo p/g (the two are coprime);
    other residues yield nothing.  Each mismatch i survives as
    (i - a) / base exactly when i = a (mod base).  So the cost is
    O(|R| + |I|), and neither p nor the preperiod is ever expanded.
    """
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    if not 0 <= a < base:
        raise BadDigit(f"digit {a} out of range (base {base})")
    p = s.period
    g = math.gcd(p, base)
    p2 = p // g
    inv = pow(base // g, -1, p2)
    rem2 = frozenset(
        (r - a) // g * inv % p2 for r in s.remainders if (r - a) % g == 0
    )
    mis2 = [(i - a) // base for i in s.mismatches if i % base == a]
    return _with_least_period(p2, rem2, mis2)


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


def format_list(xs: Iterable[int]) -> str:
    """Sorted and comma-joined, or '-' if empty: the list form of the CLI."""
    return ",".join(map(str, sorted(xs))) or "-"


def format_upset(s: UpSet) -> str:
    """Text form used by the CLI: p=<int> R=<list> I=<list>."""
    with _long_int_output():
        return f"p={s.period} R={format_list(s.remainders)} I={format_list(s.mismatches)}"


@contextlib.contextmanager
def _long_int_output():
    """Lift CPython's 4,300-digit limit on int <-> str conversion (Python
    >= 3.11) inside the block, since a period can be longer.  Input keeps
    the limit: reading a numeral of n digits takes O(n^2) time."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
