"""Pascal automata, their two-letter quotients, and the quotient test.

The Pascal automaton P_{p,R} tracks (value mod p, length mod psi) where psi
is the multiplicative order of the base modulo p; it accepts R + p*N.  Its
transition group is the semidirect product Z/pZ x| Z/psiZ, which is why a
second letter g (acting like reading 1 then unreading 0) together with 0
generates everything a minimal automaton of a coprime periodic set can do.

is_pascal_quotient decides in O(base * m) whether a complete DFA, or a
set of its states, is (up to isomorphism) a quotient of some Pascal
automaton, m being the number of states tested.  It works on the
automaton's own state ids and its cached successor column per digit
(Dfa.columns); nothing is relabelled and no sub-automaton is built.  The
root is the initial state, or the scc's least member.  _scc_quotient
runs all four steps; the decision calls it on a group automaton or on
each positive-digit scc, sharing its 0-predecessor and label arrays.

  Step 0  every digit maps the states tested onto themselves, so that
          they are closed and permuted, and 0 keeps finality;
  Step 1  compute the g-successor of every state from the 0-predecessors
          and the 1-column, and verify that no digit carries more
          information (s.a must equal s.g^a.0 for every state and digit);
  Step 2  read off p, R from the g-circuit of the root and (h, k)
          from the smallest mixed circuit g^h 0^k;
  Step 3  build the only possible map onto A_{(h,k)}, check that it is an
          isomorphism, and label every state with its image.

build_quotient returns A_{(h,k)} as an ordinary Dfa with base 2, digit 0
meaning 0 and digit 1 meaning g.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Sequence

from .automaton import Dfa
from .errors import NotCoprime, PreconditionViolated, StateLimitExceeded
from .numeration import DEFAULT_STATE_LIMIT, _prime_factors, format_list


class QuotientFailure(enum.Enum):
    NOT_CLOSED = "transitions leave the scc"
    NOT_GROUP = "NotGroup"
    NOT_ZERO_STABLE = "NotZeroStable"
    SIMPLIFICATION_LOSS = "SimplificationLoss"
    NO_MIXED_CIRCUIT = "NoMixedCircuit"
    PERIOD_NOT_COPRIME = "PeriodNotCoprime"
    NOT_ISOMORPHIC = "NotIsomorphic"


@dataclass(frozen=True)
class PascalParams:
    """Parameters (p, R, psi, h, k) of a Pascal automaton quotient.

    The full Pascal automaton itself is the trivial quotient (h, k) = (0, psi).
    """

    p: int
    remainders: frozenset[int]
    psi: int
    h: int
    k: int

    def __post_init__(self):
        if self.p < 1:
            raise PreconditionViolated(f"p {self.p} < 1")
        if any(not 0 <= r < self.p for r in self.remainders):
            raise PreconditionViolated("remainders must lie in [0, p)")
        if self.psi < 1:
            raise PreconditionViolated(f"psi {self.psi} < 1")
        if not 0 <= self.h < self.p:
            raise PreconditionViolated(f"h {self.h} out of range [0, {self.p})")
        if not 1 <= self.k <= self.psi:
            raise PreconditionViolated(f"k {self.k} out of range [1, {self.psi}]")


@dataclass(frozen=True)
class QuotientCheck:
    """Outcome of is_pascal_quotient: params on success, else the step that
    rejected the automaton.

    On success `labels[x]` is the id s*k + t of the image (s, t) in
    A_{(h,k)} of each tested state x, so x accepts {m : (s + m*base^t) mod
    p in R}: a dict keyed by state id over the states tested.
    """

    params: PascalParams | None
    failure: QuotientFailure | None
    labels: dict[int, int] | None = None

    @property
    def accepted(self) -> bool:
        return self.params is not None


def accepted_residues(params: PascalParams, label: int, base: int) -> frozenset:
    """The residues mod p of the set of the quotient state with the given
    label s*k + t: m is in it iff (s + m*base^t) mod p is in R, that is,
    iff m = (r - s) * base^-t (mod p) for some r in R."""
    p = params.p
    s, t = divmod(label, params.k)
    step = pow(base, -t, p)
    return frozenset((r - s) * step % p for r in params.remainders)


def _multiplicative_order(base: int, p: int) -> int:
    """Smallest t >= 1 with base^t = 1 (mod p); 1 for p = 1.

    The order divides phi(p), so it is phi(p) with each prime factor q
    divided out for as long as base^(t/q) stays 1: two trial divisions and
    O(log^2 p) modular powers instead of a walk of up to p - 1 steps.
    Trial division is exponential in p's digits, so this stays private: its
    callers bound p by a circuit length (`_scc_quotient`) or 10^6 (`build_pascal`).
    """
    if p < 1 or math.gcd(base, p) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    phi = p
    for q in _prime_factors(p):
        phi = phi // q * (q - 1)
    t = phi
    for q in _prime_factors(phi):
        while t % q == 0 and pow(base, t // q, p) == 1:
            t //= q
    return t


def build_pascal(p: int, remainders: Iterable[int], base: int) -> Dfa:
    """The Pascal automaton P_{p,R}: states Z/pZ x Z/psiZ, where reading a
    digit a at (s, t) adds a*base^t to the tracked value mod p and bumps the
    tracked length mod psi.  State (s, t) gets id s*psi + t.  Raises
    StateLimitExceeded past numeration.DEFAULT_STATE_LIMIT states."""
    if p < 1 or math.gcd(p, base) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    rem = set(remainders)
    if any(not 0 <= r < p for r in rem):
        raise PreconditionViolated(f"remainders {rem} not within [0, {p})")
    # p alone bounds the state count before psi costs a factoring of p
    if p > DEFAULT_STATE_LIMIT:
        raise StateLimitExceeded(f"p = {p} exceeds {DEFAULT_STATE_LIMIT} states")
    psi = _multiplicative_order(base, p)
    if p * psi > DEFAULT_STATE_LIMIT:
        raise StateLimitExceeded(f"p*psi = {p * psi} exceeds {DEFAULT_STATE_LIMIT} states")
    powers = [1] * psi
    for t in range(1, psi):
        powers[t] = powers[t - 1] * base % p
    flat = []
    for s in range(p):
        for t in range(psi):
            t2 = (t + 1) % psi
            for a in range(base):
                flat.append(((s + a * powers[t]) % p) * psi + t2)
    finals = frozenset(s * psi + t for s in rem for t in range(psi))
    return Dfa(base, p * psi, 0, flat, finals)


def build_quotient(params: PascalParams, base: int) -> Dfa:
    """The quotient automaton A_{(h,k)} on Z/pZ x Z/kZ (two letters 0, g).

    Reading 0 bumps t until the row wraps: (s, k-1).0 = ((s-h)/base^k, 0);
    reading g adds base^t to s.  State (s, t) gets id s*k + t.  Raises
    StateLimitExceeded past numeration.DEFAULT_STATE_LIMIT states.
    """
    p, h, k = params.p, params.h, params.k
    if math.gcd(p, base) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    if p * k > DEFAULT_STATE_LIMIT:
        raise StateLimitExceeded(f"p*k = {p * k} exceeds {DEFAULT_STATE_LIMIT} states")
    inv_k = pow(pow(base, -1, p), k, p)
    powers = [1] * k
    for t in range(1, k):
        powers[t] = powers[t - 1] * base % p
    flat = []
    for s in range(p):
        for t in range(k):
            if t < k - 1:
                flat.append(s * k + t + 1)
            else:
                flat.append((s - h) * inv_k % p * k)
            flat.append((s + powers[t]) % p * k + t)
    finals = frozenset(s * k + t for s in params.remainders for t in range(k))
    return Dfa(2, p * k, 0, flat, finals)


def _scc_quotient(
    dfa: Dfa,
    states: Sequence[int],
    init: int,
    pred0: array | dict[int, int],
    labels: array | dict[int, int],
) -> PascalParams | QuotientFailure:
    """Steps 0-3 on `states`, distinct states of the automaton, rooted at
    `init`: the parameters, or the failure of the first step that rejects
    (NOT_CLOSED before NOT_GROUP if some transition leaves `states`).

    The 0-predecessor of each state tested goes into `pred0`, and on
    success its label into `labels`, both indexed by state id.  The caller
    supplies them, so that the test costs O(base * m) for m states tested
    however many states the automaton has.

    Step 3 searches nothing, since any isomorphism onto A_{(h,k)} is
    forced: circuit position r must map to (r, 0), and level t of the
    0-successors below the circuit to the states (r, t) in the order of r.
    Building the levels along those edges makes most of the isomorphism
    equations true by construction: the g-edges of the circuit, the
    non-wrapping 0-edges, and (level by level, by zero-stability, with R
    defined as the circuit's own finality pattern) the finality vector.
    What remains to verify is that the levels are disjoint, so that with
    p * k states tested the forced map is a bijection, and, state id
    against state id, the wrap edges (s, k-1).0 = ((s-h)/base^k, 0) and
    the g-edges below the circuit, g rotating level t by base^t.
    """
    b, cols, m = dfa.base, dfa.columns, len(states)
    zcol, col1 = cols[0], cols[1]
    # a digit passes iff it maps the set onto itself (a missing target is
    # no state), which for all n states of a complete automaton is is_group
    if m == dfa.state_count and dfa.is_complete:
        passes = dfa.is_group
    else:
        inside = set(states)
        passes = all(inside == set(map(col.__getitem__, states)) for col in cols)
        if not passes and not all(inside.issuperset(map(col.__getitem__, states)) for col in cols):
            return QuotientFailure.NOT_CLOSED
    if not passes:
        return QuotientFailure.NOT_GROUP
    # every closed set of a zero-stable automaton is zero-stable
    if not dfa.is_zero_stable:
        final = dfa._final_bytes.__getitem__
        if bytes(map(final, map(zcol.__getitem__, states))) != bytes(map(final, states)):
            return QuotientFailure.NOT_ZERO_STABLE
    for s in states:
        pred0[zcol[s]] = s
    # digits 0 and 1 define g (read 1, unread 0), so s.a = s.g^a.0 holds
    # for them by construction; given it for digit a - 1 at every state,
    # it holds for digit a iff s.a = (s.g).(a - 1): one bulk map per digit
    if b > 2:
        g = list(map(pred0.__getitem__, map(col1.__getitem__, states)))
        for a in range(2, b):
            if list(map(cols[a].__getitem__, states)) != list(map(cols[a - 1].__getitem__, g)):
                return QuotientFailure.SIMPLIFICATION_LOSS
    # step 2: p and R come from the g-circuit through the root, g being
    # pred0 after digit 1; step 0 made g a permutation, so the walk closes
    circuit = [init]
    append = circuit.append
    cur = pred0[col1[init]]
    while cur != init:
        append(cur)
        cur = pred0[col1[cur]]
    p = len(circuit)
    if math.gcd(p, b) != 1:
        return QuotientFailure.PERIOD_NOT_COPRIME
    flags = dfa._final_bytes
    remainders = frozenset(r for r, s in enumerate(circuit) if flags[s])
    psi = _multiplicative_order(b, p)
    # (h, k) is the smallest mixed circuit g^h 0^k through the root; 0^psi
    # is the identity on a quotient, so psi backward steps along 0 suffice
    on_circuit = set(circuit)
    cur = init
    for k in range(1, psi + 1):
        cur = pred0[cur]
        if cur in on_circuit:
            break
    else:
        return QuotientFailure.NO_MIXED_CIRCUIT
    h = circuit.index(cur)
    # a quotient has exactly p*k states; bailing out now also keeps an
    # adversarial p*k >> m from blowing the linear budget below
    if p * k != m:
        return QuotientFailure.NOT_ISOMORPHIC
    levels = [circuit]
    for _ in range(k - 1):
        levels.append(list(map(zcol.__getitem__, levels[-1])))
        # digit 0 is one-to-one, so the levels are disjoint iff none of
        # them meets the circuit
        if not on_circuit.isdisjoint(levels[-1]):
            return QuotientFailure.NOT_ISOMORPHIC
    inv_k = pow(b, -k, p)
    wraps = [circuit[(s - h) * inv_k % p] for s in range(p)]
    if list(map(zcol.__getitem__, levels[-1])) != wraps:
        return QuotientFailure.NOT_ISOMORPHIC
    pw = 1
    for level in levels[1:]:
        pw = pw * b % p
        if list(map(pred0.__getitem__, map(col1.__getitem__, level))) != level[pw:] + level[:pw]:
            return QuotientFailure.NOT_ISOMORPHIC
    for t, level in enumerate(levels):
        for x, lab in zip(level, count(t, k)):
            labels[x] = lab
    return PascalParams(p, remainders, psi, h, k)


def is_pascal_quotient(dfa: Dfa, members: Sequence[int] | None = None) -> QuotientCheck:
    """Steps 0-3 on the whole automaton, rooted at its initial state, or
    on the states `members`, rooted at the least one.

    O(base * m) for m states tested, once dfa.columns is cached: the test
    allocates O(m), and its labels come as a dict by state id.  Never
    raises on a negative answer, NOT_CLOSED included; raises
    PreconditionViolated on a partial automaton without `members`, or
    unless `members` lists distinct states of the automaton, at least one.
    """
    n = dfa.state_count
    if members is None:
        if not dfa.is_complete:
            raise PreconditionViolated("is_pascal_quotient requires a complete automaton")
        members, init = range(n), dfa.initial
    else:
        inside = set(members)
        if not 0 < len(inside) == len(members) or min(inside) < 0 or max(inside) >= n:
            raise PreconditionViolated("members must be distinct states of the automaton")
        init = min(inside)
    labels: dict[int, int] = {}
    found = _scc_quotient(dfa, members, init, {}, labels)
    if isinstance(found, QuotientFailure):
        return QuotientCheck(None, found)
    return QuotientCheck(found, None, labels)


def format_params(params: PascalParams) -> str:
    """Text form used by the CLI: p=.. R=.. psi=.. h=.. k=.."""
    return (
        f"p={params.p} R={format_list(params.remainders)} psi={params.psi}"
        f" h={params.h} k={params.k}"
    )
