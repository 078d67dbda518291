"""Pascal automata, their two-letter simplification, and the quotient test.

The Pascal automaton P_{p,R} tracks (value mod p, length mod psi) where psi
is the multiplicative order of the base modulo p; it accepts R + p*N.  Its
transition group is the semidirect product Z/pZ x| Z/psiZ, which is why a
second letter g (acting like reading 1 then unreading 0) together with 0
generates everything a minimal automaton of a coprime periodic set can do.

is_pascal_quotient decides in O(base * n) whether a complete DFA is (up to
isomorphism) a quotient of some Pascal automaton:

  Step 0  group automaton + zero-stability, else it cannot be one;
  Step 1  relabel to the alphabet {0, g} and verify no digit information
          was lost (s.a must equal s.g^a.0 for every state and digit);
  Step 2  read off p, R from the g-circuit of the initial state and (h, k)
          from the smallest mixed circuit g^h 0^k;
  Step 3  label every state with its forced image in A_{(h,k)} and check
          that the labelling is an isomorphism.

Two-letter automata are represented as ordinary Dfa values with base 2,
digit 0 meaning 0 and digit 1 meaning g.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .automaton import Dfa
from .errors import (
    NotCoprime,
    NotGroupAutomaton,
    NotPascalLike,
    PreconditionViolated,
)
from .numeration import _prime_factors


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


class GElem(NamedTuple):
    """Element (s, t) of the transition group Z/pZ x| Z/psiZ."""

    s: int
    t: int


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


def group_op(x: GElem, y: GElem, p: int, psi: int, base: int) -> GElem:
    """The semidirect product law (s,t) o (h,k) = (s + h*base^t, t + k)."""
    return GElem((x.s + y.s * pow(base, x.t, p)) % p, (x.t + y.t) % psi)


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


def add_g_letter(dfa: Dfa) -> Dfa:
    """Relabel a group automaton to the two-letter alphabet {0, g}.

    g is the action of reading 1 and then unreading 0 (s.g.0 = s.1), which
    is well defined because the 0-action is a permutation.  Digits 2..b-1
    are dropped; verify_simplification checks that drop loses nothing.
    """
    if not dfa.is_group:
        raise NotGroupAutomaton("add_g_letter requires a group automaton")
    zcol, gcol, _ = _g_columns(dfa)
    return _two_letter_dfa(dfa, zcol, gcol)


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


def _two_letter_dfa(dfa: Dfa, zcol: array, gcol: array) -> Dfa:
    """Assemble the {0, g} automaton from its columns, state ids kept."""
    flat = zcol + zcol  # right size; both stripes overwritten below
    flat[0::2] = zcol
    flat[1::2] = gcol
    return Dfa(2, dfa.state_count, dfa.initial, flat, dfa.finals)


def _g_cycles(simplified: Dfa) -> tuple[list[list[int]], list[int], list[int]]:
    """Decompose the g-action into cycles; returns (cycles, cycle_id, pos)."""
    n = simplified.state_count
    trans = simplified.transitions
    cycle_id = [-1] * n
    pos = [0] * n
    cycles: list[list[int]] = []
    for s in range(n):
        if cycle_id[s] != -1:
            continue
        cid = len(cycles)
        cyc = []
        cur = s
        while cycle_id[cur] == -1:
            cycle_id[cur] = cid
            pos[cur] = len(cyc)
            cyc.append(cur)
            cur = trans[cur * 2 + 1]
        cycles.append(cyc)
    return cycles, cycle_id, pos


def verify_simplification(original: Dfa, simplified: Dfa) -> bool:
    """True iff reading a equals g^a then 0, for every state and digit.

    Digits 0 and 1 reduce to bulk slice comparisons (g^1 is a transition of
    the simplified automaton itself); digits 2 and up take g^a steps in
    O(1) each via index arithmetic on the precomputed g-cycles.  The whole
    check is O(base * n).
    """
    n, b = original.state_count, original.base
    torig = original.transitions
    tsimp = simplified.transitions
    g0 = tsimp[0::2]
    if torig[0::b] != g0:
        return False
    if torig[1::b] != array("i", map(g0.__getitem__, tsimp[1::2])):
        return False
    if b == 2:
        return True
    cycles, cycle_id, pos = _g_cycles(simplified)
    for s in range(n):
        cyc = cycles[cycle_id[s]]
        base_pos = pos[s]
        ln = len(cyc)
        row = s * b
        for a in range(2, b):
            ga = cyc[(base_pos + a) % ln]
            if torig[row + a] != tsimp[ga * 2]:
                return False
    return True


def analyze_quotient(simplified: Dfa, base: int) -> PascalParams:
    """Step 2: read the candidate parameters off a simplified automaton.

    p and R come from the g-circuit through the initial state; (h, k) is
    the smallest mixed circuit g^h 0^k through it, found by walking at most
    psi steps backward along 0 and testing arrival on the g-circuit.

    Trusts the preconditions (group automaton over {0, g}, zero-stable);
    raises NotPascalLike when the parameters cannot exist.
    """
    t = simplified.transitions
    params, _, _ = _analyze(
        t[0::2], t[1::2], simplified._final_bytes, simplified.initial, base, None
    )
    return params


def _analyze(
    zcol: array,
    gcol: array,
    flags: bytes,
    init: int,
    base: int,
    pred0: array | None,
) -> tuple[PascalParams, array, array]:
    """analyze_quotient on raw columns, also handing back the g-circuit
    labelling (position per state, members in order) that _matches_quotient
    reuses.  A caller holding the 0-predecessor permutation can pass it to
    replace the 0-cycle walk with direct backward steps."""
    n = len(zcol)
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
        raise NotPascalLike(
            f"g-circuit length {p} shares a factor with base {base}",
            QuotientFailure.PERIOD_NOT_COPRIME,
        )
    remainders = frozenset(r for r, s in enumerate(circuit) if flags[s])
    psi = multiplicative_order(base, p)

    if pred0 is not None:
        cur = init
        for k in range(1, psi + 1):
            cur = pred0[cur]
            h = pos_on[cur]
            if h != -1:
                return PascalParams(p, remainders, psi, h, k), pos_on, circuit
    else:
        # backward 0-steps from the initial state live on its forward
        # 0-cycle (the 0-action is a permutation), so one forward walk
        # provides every pred0 iterate without a predecessor table
        cycle0 = [init]
        append = cycle0.append
        cur = zcol[init]
        while cur != init:
            append(cur)
            cur = zcol[cur]
        span = len(cycle0)
        for k in range(1, psi + 1):
            h = pos_on[cycle0[-k % span]]
            if h != -1:
                return PascalParams(p, remainders, psi, h, k), pos_on, circuit
    raise NotPascalLike(
        f"no mixed circuit g^h 0^k with k <= psi = {psi}",
        QuotientFailure.NO_MIXED_CIRCUIT,
    )


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
    # digits 0 and 1 define g, so the relabelling recovers them exactly by
    # construction; only digits 2 and up can witness a loss
    if dfa.base > 2 and not verify_simplification(
        dfa, _two_letter_dfa(dfa, zcol, gcol)
    ):
        return QuotientCheck(None, QuotientFailure.SIMPLIFICATION_LOSS)
    try:
        params, pos_on, circuit = _analyze(
            zcol, gcol, dfa._final_bytes, dfa.initial, dfa.base, pred0
        )
    except NotPascalLike as e:
        return QuotientCheck(None, e.reason)
    # a quotient has exactly p*k states; bailing out now also keeps an
    # adversarial p*k >> n from blowing the linear budget below
    if params.p * params.k != dfa.state_count:
        return QuotientCheck(None, QuotientFailure.NOT_ISOMORPHIC)
    labels = _matches_quotient(zcol, gcol, params, pos_on, circuit, dfa.base)
    if labels is None:
        return QuotientCheck(None, QuotientFailure.NOT_ISOMORPHIC)
    return QuotientCheck(params, None, labels)


def format_params(params: PascalParams) -> str:
    """Text form used by the CLI: p=.. R=.. psi=.. h=.. k=.."""
    rem = ",".join(str(r) for r in sorted(params.remainders)) or "-"
    return (
        f"p={params.p} R={rem} psi={params.psi} h={params.h} k={params.k}"
    )
