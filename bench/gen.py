"""The benchmark's own LSDF automata and the answers they must produce.

Nothing here imports updfa: every input is built from digit arithmetic on
the value read so far, and every expected answer is computed from the
intended set, so a verdict is checked against mathematics and not against
another part of the program under test.

Words are read least significant digit first.  After reading a word of
length L and value v, a tracker state holds what decides membership of
every number v + b^L * m: v modulo a multiple M of the period, b^L modulo
M, and whatever the extra components need.  Trackers are deliberately
larger than minimal (M is a multiple of the period, the first digits are
kept exactly), so `decide` has real minimisation work to do.

A `Spec` is (base, state_count, transitions, finals) in the flat layout of
`updfa.Dfa`: state 0 is initial, `transitions[q * base + a]` is the
a-successor of q.  It is held compactly, the transitions as a 4-byte array
and the finals as one flag byte per state, so that the inputs a benchmark
run keeps alive weigh little beside the memory of the program under test.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Callable, Iterator, NamedTuple


class Spec(NamedTuple):
    base: int
    states: int
    transitions: array  # 'I', length states * base
    finals: bytes  # finals[q] is 1 when q is final, else 0

    def final_states(self) -> Iterator[int]:
        """The final states in increasing order."""
        return compress(range(self.states), self.finals)


def explore(base: int, start, step: Callable, final: Callable) -> Spec:
    """Close {start} under step(state, digit) breadth first; states get
    ids in discovery order, so state 0 is the initial one."""
    index = {start: 0}
    order = [start]
    flat = array("I")
    append = flat.append
    qi = 0
    while qi < len(order):
        s = order[qi]
        qi += 1
        for a in range(base):
            t = step(s, a)
            j = index.get(t)
            if j is None:
                j = index[t] = len(order)
                order.append(t)
            append(j)
    return Spec(base, len(order), flat, bytes(map(final, order)))


def digits(n: int, base: int) -> list[int]:
    """The expansion of n without trailing zeros, least significant first."""
    out = []
    while n:
        n, a = divmod(n, base)
        out.append(a)
    return out


def run(spec: Spec, word) -> bool:
    """Whether the automaton accepts the digit word."""
    s, b, trans = 0, spec.base, spec.transitions
    for a in word:
        s = trans[s * b + a]
    return spec.finals[s] == 1


def digit_sum(n: int, base: int) -> int:
    total = 0
    while n:
        n, a = divmod(n, base)
        total += a
    return total


def is_power(n: int, base: int) -> bool:
    if n < 1:
        return False
    while n % base == 0:
        n //= base
    return n == 1


def strip_zeros(n: int, base: int) -> int:
    """n with its trailing base-b zeros removed (n >= 1)."""
    while n % base == 0:
        n //= base
    return n


def exact_digits(mismatches, base: int) -> int:
    """How many low digits a tracker keeps exactly: enough that every
    mismatch is smaller than base^K, so a later nonzero digit leaves I."""
    top = max(mismatches, default=-1)
    k = 0
    while base**k <= top:
        k += 1
    return k


class Tracker(NamedTuple):
    """The set (R + pN) xor I xor D xor P, where D = {n : s_b(n) mod m in T}
    when m > 0 and P = {b^k : k >= 0} when `powers`.

    Arithmetic is done modulo M = p * redundancy; `exact` low digits are
    kept as the exact value so that mismatches can be told apart.
    """

    base: int
    period: int
    remainders: frozenset
    mismatches: frozenset = frozenset()
    redundancy: int = 1
    exact: int = 0
    m: int = 0
    sums: frozenset = frozenset()
    powers: bool = False

    def member(self, n: int) -> bool:
        b = self.base
        inside = (n % self.period in self.remainders) != (n in self.mismatches)
        if self.m:
            inside ^= digit_sum(n, b) % self.m in self.sums
        if self.powers:
            inside ^= is_power(n, b)
        return inside

    def spec(self) -> Spec:
        b, p, rem = self.base, self.period, self.remainders
        mis, K, m, sums, powers = (
            self.mismatches, self.exact, self.m, self.sums, self.powers,
        )
        M = p * self.redundancy
        mod_m = m or 1
        # a state is (v, w, f, s, sigma) where w = b^L mod M in phase two
        # and -1 - L while the first K digits are still being read (v is
        # then exact); f: the exact value lies in I and only zeros followed;
        # sigma: 0 zeros only, 1 one digit 1 and zeros, 2 anything else
        bK = b**K

        def step(st, a):
            v, w, f, s, sig = st
            if powers:
                sig = (1 if a == 1 else 2 if a else 0) if sig == 0 else (
                    sig if a == 0 else 2)
            s = (s + a) % mod_m
            if w < 0:
                length = -1 - w
                v += a * b**length
                if length + 1 < K:
                    return (v, w - 1, False, s, sig)
                return (v % M, bK % M, v in mis, s, sig)
            return ((v + a * w) % M, w * b % M, f and a == 0, s, sig)

        def final(st):
            v, w, f, s, sig = st
            inside = v % p in rem
            if w < 0:
                inside ^= v in mis
            else:
                inside ^= f
            if m:
                inside ^= s in sums
            return inside ^ (sig == 1)

        start = (0, -1, False, 0, 0) if K else (0, 1 % M, False, 0, 0)
        return explore(b, start, step, final)


class Unrolled(NamedTuple):
    """The set (R + pN) xor I, with the word length counted exactly up to
    `depth`: each of the `depth` layers repeats the same residues, so
    minimisation merges almost every state."""

    base: int
    period: int
    remainders: frozenset
    mismatches: frozenset
    depth: int

    def member(self, n: int) -> bool:
        return (n % self.period in self.remainders) != (n in self.mismatches)

    def spec(self) -> Spec:
        b, p, rem, mis, depth = (
            self.base, self.period, self.remainders, self.mismatches, self.depth,
        )
        K = exact_digits(mis, b)

        # (v, w, L, f): v exact while L < K, then v mod p, with w = b^L mod p
        # and f as in Tracker; the layer L stops counting at depth
        def step(st, a):
            v, w, length, f = st
            nxt = min(length + 1, depth)
            if length < K:
                v += a * b**length
                if length + 1 == K:
                    return (v % p, w * b % p, nxt, v in mis)
                return (v, w * b % p, nxt, False)
            return ((v + a * w) % p, w * b % p, nxt, f and a == 0)

        def final(st):
            v, _, length, f = st
            if length < K:
                return (v % p in rem) != (v in mis)
            return (v % p in rem) != f

        return explore(b, (0, 1 % p, 0, False), step, final)


class Stripped(NamedTuple):
    """The set {n >= 1 : (n with its trailing zeros removed) mod p in R}.

    Not ultimately periodic when gcd(p, b) = 1, psi = ord_p(b) >= 2,
    1 in R and |R| < psi: if q were an eventual period with q = b^e * c,
    b not dividing c, then for large L the numbers b^L (always in the set)
    and b^L + q = b^e * (b^(L-e) + c) share a residue mod q, yet the
    second is in the set iff b^(L-e) + c mod p lies in R, and as L runs
    over psi consecutive values b^(L-e) + c runs over a translate of the
    subgroup <b>, which has psi elements and so cannot fit inside R.
    """

    base: int
    period: int
    remainders: frozenset
    redundancy: int = 1

    def member(self, n: int) -> bool:
        return n >= 1 and strip_zeros(n, self.base) % self.period in self.remainders

    def spec(self) -> Spec:
        b, p, rem = self.base, self.period, self.remainders
        M = p * self.redundancy

        # None: only zeros read; (v, w): the value since the first nonzero
        # digit, modulo M, and b^(digits since then) modulo M
        def step(st, a):
            if st is None:
                return None if a == 0 else (a % M, b % M)
            v, w = st
            return ((v + a * w) % M, w * b % M)

        def final(st):
            return st is not None and st[0] % p in rem

        return explore(b, None, step, final)


class Canonical(NamedTuple):
    """The language of expansions without a trailing zero whose value lies
    in R + pN, read modulo M = p * redundancy.  Not closed under appending
    0: w and w.0 disagree for every accepted nonempty w, so `decide` must
    fail it at UP0 whatever the set."""

    base: int
    period: int
    remainders: frozenset
    redundancy: int = 1

    def accepts_word(self, word) -> bool:
        if word and word[-1] == 0:
            return False
        v = 0
        for a in reversed(word):
            v = v * self.base + a
        return v % self.period in self.remainders

    def spec(self) -> Spec:
        b, p, rem = self.base, self.period, self.remainders
        M = p * self.redundancy

        # (v, w, z): value and b^L modulo M, z: the last digit read was 0
        def step(st, a):
            v, w, _ = st
            return ((v + a * w) % M, w * b % M, a == 0)

        def final(st):
            return not st[2] and st[0] % p in rem

        return explore(b, (0, 1 % M, False), step, final)


def canonical_form(period: int, remainders, mismatches) -> tuple:
    """The canonical (p, R, I) of (R + period*N) xor I: p the least
    eventual period of the characteristic sequence, R its residues, I the
    numbers where the set differs from the periodic extension."""
    bits = [r in remainders for r in range(period)]
    p = next(
        d for d in range(1, period + 1)
        if period % d == 0 and all(bits[r] == bits[r % d] for r in range(period))
    )
    rem = frozenset(r for r in range(p) if bits[r])
    mis = tuple(sorted(n for n in mismatches))
    return p, rem, mis

