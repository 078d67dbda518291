"""Pascal automata, their two-letter quotients, and the quotient test.

The Pascal automaton P_{p,R} tracks (value mod p, length mod psi) where psi
is the multiplicative order of the base modulo p; it accepts R + p*N.  Its
transition group is the semidirect product Z/pZ x| Z/psiZ, which is why a
second letter g (acting like reading 1 then unreading 0) together with 0
generates everything a minimal automaton of a coprime periodic set can do.

is_pascal_quotient decides in O(base * n) whether a complete DFA is (up to
isomorphism) a quotient of some Pascal automaton:

  Step 0  group automaton + zero-stability, else it cannot be one;
  Step 1  compute the g-successor of every state as a column beside the
          0-column, and verify that no digit carries more information
          (s.a must equal s.g^a.0 for every state and digit);
  Step 2  read off p, R from the g-circuit of the initial state and (h, k)
          from the smallest mixed circuit g^h 0^k;
  Step 3  label every state with its forced image in A_{(h,k)} and check
          that the labelling is an isomorphism.

build_quotient returns A_{(h,k)} as an ordinary Dfa with base 2, digit 0
meaning 0 and digit 1 meaning g.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Iterable

from .automaton import Dfa
from .errors import NotCoprime, PreconditionViolated
from .numeration import _prime_factors, format_list


class QuotientFailure(enum.Enum):
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

    On success `labels[x]` is the id s*k + t of state x's image (s, t) in
    A_{(h,k)}, so x accepts {m : (s + m*base^t) mod p in R}.
    """

    params: PascalParams | None
    failure: QuotientFailure | None
    labels: array | None = None

    @property
    def accepted(self) -> bool:
        return self.params is not None


def multiplicative_order(base: int, p: int) -> int:
    """Smallest t >= 1 with base^t = 1 (mod p); 1 for p = 1.

    The order divides phi(p), so it is phi(p) with each prime factor q
    divided out for as long as base^(t/q) stays 1: two trial divisions and
    O(log^2 p) modular powers instead of a walk of up to p - 1 steps.
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
    tracked length mod psi.  State (s, t) gets id s*psi + t."""
    if p < 1 or math.gcd(p, base) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    rem = set(remainders)
    if any(not 0 <= r < p for r in rem):
        raise PreconditionViolated(f"remainders {rem} not within [0, {p})")
    psi = multiplicative_order(base, p)
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


def _g_columns(dfa: Dfa) -> tuple[array, array, array]:
    """The 0- and g-successor columns plus the 0-predecessor permutation.

    The quotient test works on these striped columns directly; packing a
    column densely halves the randomly touched footprint of every walk
    over it compared to striding through the full table.
    """
    b = dfa.base
    zcol = dfa.transitions[0::b]
    col1 = dfa.transitions[1::b]
    pred0 = array("i", zcol)
    for s, t in enumerate(zcol):
        pred0[t] = s
    gcol = array("i", map(pred0.__getitem__, col1))
    return zcol, gcol, pred0


def _analyze(
    gcol: array, pred0: array, flags: bytes, init: int, base: int
) -> tuple[PascalParams, array, array] | QuotientFailure:
    """Step 2: read the candidate parameters off the g- and 0-columns.

    p and R come from the g-circuit through the initial state; (h, k) is
    the smallest mixed circuit g^h 0^k through it, found by stepping at
    most psi times backward along 0 and testing arrival on the g-circuit.
    Also hands back the g-circuit labelling (position per state, members
    in order) that _matches_quotient reuses.

    Trusts the preconditions (group automaton, zero-stable); returns the
    failed step instead when the parameters cannot exist.
    """
    n = len(gcol)
    pos_on = array("i", (-1,)) * n
    circuit = array("i", (init,))
    append = circuit.append
    pos_on[init] = 0
    idx = 1
    cur = gcol[init]
    while cur != init:
        pos_on[cur] = idx
        append(cur)
        idx += 1
        cur = gcol[cur]
    p = idx

    if math.gcd(p, base) != 1:
        return QuotientFailure.PERIOD_NOT_COPRIME
    remainders = frozenset(r for r, s in enumerate(circuit) if flags[s])
    psi = multiplicative_order(base, p)

    cur = init
    for k in range(1, psi + 1):
        cur = pred0[cur]
        h = pos_on[cur]
        if h != -1:
            return PascalParams(p, remainders, psi, h, k), pos_on, circuit
    return QuotientFailure.NO_MIXED_CIRCUIT


def _quotient_columns(p: int, h: int, k: int, base: int) -> tuple[array, array]:
    """Per-letter successor columns of A_{(h,k)}, indexed by id s*k + t.

    For fixed t the ids s*k + t form an arithmetic sequence in s, so whole
    stripes come out of range objects at C speed; only the row-wrap stripe
    needs per-state arithmetic.
    """
    inv_k = pow(pow(base, -1, p), k, p)
    powers = [1] * k
    for t in range(1, k):
        powers[t] = powers[t - 1] * base % p
    a0 = array("i", (0,)) * (p * k)
    ag = array("i", (0,)) * (p * k)
    for t in range(k):
        if t < k - 1:
            a0[t::k] = array("i", range(t + 1, p * k, k))
        else:
            a0[t::k] = array("i", [(s - h) * inv_k % p * k for s in range(p)])
        pw = powers[t]
        stripe = array("i", range(pw * k + t, p * k, k))
        stripe.extend(range(t, pw * k + t, k))
        ag[t::k] = stripe
    return a0, ag


def build_quotient(params: PascalParams, base: int) -> Dfa:
    """The quotient automaton A_{(h,k)} on Z/pZ x Z/kZ (two letters 0, g).

    Reading 0 bumps t until the row wraps: (s, k-1).0 = ((s-h)/base^k, 0);
    reading g adds base^t to s.  State (s, t) gets id s*k + t.
    """
    p, h, k = params.p, params.h, params.k
    if math.gcd(p, base) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    a0, ag = _quotient_columns(p, h, k, base)
    flat = a0 + a0  # right size; both stripes overwritten below
    flat[0::2] = a0
    flat[1::2] = ag
    finals = frozenset(s * k + t for s in params.remainders for t in range(k))
    return Dfa(2, p * k, 0, flat, finals)


def _matches_quotient(
    zcol: array,
    gcol: array,
    params: PascalParams,
    pos_on: array,
    circuit: array,
    base: int,
) -> array | None:
    """The isomorphism onto A_{(h,k)}, as the id of each state's image, if
    the columns describe an automaton isomorphic to it; else None.

    Any isomorphism is forced: circuit position r must map to (r, 0), and
    0-successors must follow level by level below that.  Building the
    labelling along those edges makes most of the isomorphism equations
    true by construction: the g-edges of the circuit, the non-wrapping
    0-edges, and (level by level, since the caller checked zero-stability,
    with R defined as the circuit's own finality pattern) the finality
    vector.  What remains to verify is that the labelling is conflict-free,
    the wrap edges (s, k-1).0 = ((s-h)/base^k, 0), and the g-edges off the
    circuit.  Assumes p * k equals the state count.
    """
    p, h, k = params.p, params.h, params.k
    n = len(pos_on)
    if k == 1:
        # the circuit covers everything, (s, 0) has id s, and every state
        # is on the wrap row; two bulk passes decide the whole equation
        # f(x.0) = (f(x) - h) / base
        inv1 = pow(base, -1, p)
        lhs = array("i", map(pos_on.__getitem__, zcol))
        rhs = array("i", ((q - h) * inv1 % p for q in pos_on))
        return pos_on if lhs == rhs else None
    ids = array("i", (-1,)) * n
    for r, x in enumerate(circuit):
        ids[x] = r * k
    levels: list = [circuit]
    for _ in range(k - 1):
        prev = levels[-1]
        nxt = list(map(zcol.__getitem__, prev))
        for x, y in zip(prev, nxt):
            if ids[y] != -1:
                # hit an already labelled state, so the 0-levels are not
                # disjoint and no isomorphism can exist
                return None
            ids[y] = ids[x] + 1
        levels.append(nxt)
    inv_k = pow(pow(base, -1, p), k, p)
    for x in levels[-1]:
        if ids[zcol[x]] != (ids[x] // k - h) * inv_k % p * k:
            return None
    pw = 1
    for t, level in enumerate(levels[1:], start=1):
        pw = pw * base % p
        for x in level:
            if ids[gcol[x]] != (ids[x] // k + pw) % p * k + t:
                return None
    return ids


def is_pascal_quotient(dfa: Dfa) -> QuotientCheck:
    """Steps 0-3; O(base * n) total.  Never raises on a negative answer."""
    if not dfa.is_group:
        return QuotientCheck(None, QuotientFailure.NOT_GROUP)
    if not dfa.is_zero_stable:
        return QuotientCheck(None, QuotientFailure.NOT_ZERO_STABLE)
    zcol, gcol, pred0 = _g_columns(dfa)
    # digits 0 and 1 define g, so they agree with it by construction; digit
    # a >= 2 must equal g^a then 0, one bulk map per digit
    trans, b = dfa.transitions, dfa.base
    g_a = gcol
    for a in range(2, b):
        g_a = array("i", map(gcol.__getitem__, g_a))
        if trans[a::b] != array("i", map(zcol.__getitem__, g_a)):
            return QuotientCheck(None, QuotientFailure.SIMPLIFICATION_LOSS)
    found = _analyze(gcol, pred0, dfa._final_bytes, dfa.initial, b)
    if isinstance(found, QuotientFailure):
        return QuotientCheck(None, found)
    params, pos_on, circuit = found
    # a quotient has exactly p*k states; bailing out now also keeps an
    # adversarial p*k >> n from blowing the linear budget below
    if params.p * params.k != dfa.state_count:
        return QuotientCheck(None, QuotientFailure.NOT_ISOMORPHIC)
    labels = _matches_quotient(zcol, gcol, params, pos_on, circuit, b)
    if labels is None:
        return QuotientCheck(None, QuotientFailure.NOT_ISOMORPHIC)
    return QuotientCheck(params, None, labels)


def format_params(params: PascalParams) -> str:
    """Text form used by the CLI: p=.. R=.. psi=.. h=.. k=.."""
    return (
        f"p={params.p} R={format_list(params.remainders)} psi={params.psi}"
        f" h={params.h} k={params.k}"
    )
