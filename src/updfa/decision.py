"""The periodicity decision on minimal automata: conditions in linear time,
and a read-off of a positive answer linear plus the size of the answer.

A minimal complete DFA accepts an ultimately periodic set (by value, least
significant digit first) iff

  UP0  finality is stable under reading 0;
  UP2  every scc with an internal positive-digit transition is closed
       under all transitions and a Pascal-automaton quotient;
  UP3  every 0-circuit scc has exactly one immediate successor scc, and
       that successor is of the kind checked by UP2;
  UP4  every 0-circuit scc embeds into its successor scc.

Minimality itself (UP1) is trusted, not re-verified; decide() minimizes
first, in O(b*n*log n) for n states in base b, so its callers need not
care.  On success the accepted set is read off in canonical form from
what the checks established, recorded once per state: the quotient
parameters and label of every positive-digit state, the embedding image
of every 0-circuit state, and a handful of equations per transient state
(see _read_parameters).
Nothing is sampled or rebuilt, and since every fact used is an equation
checked on the automaton, a positive answer is never wrong.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

from .automaton import Dfa, SccType, condensation, minimize, successor_sccs
from .errors import PreconditionViolated
from .numeration import UpSet, _with_least_period, value
from .pascal import PascalParams, QuotientFailure, _scc_quotient, accepted_residues

# decide calls none of these; they stay bound here because the benchmark's
# tracer (bench/spans.py) wraps the layers of a decision by their names in
# this module, and reads their counts as evidence that extraction samples
# and rebuilds nothing
from .automaton import accepts, isomorphic  # noqa: E402, F401
from .numeration import build_minimal_automaton  # noqa: E402, F401
from .pascal import is_pascal_quotient  # noqa: E402, F401


@dataclass(frozen=True)
class ConditionFailure:
    """The first violated condition, a witness (a state id for UP0, an scc
    id otherwise, both referring to the minimized automaton), and an
    optional human-readable detail."""

    condition: str
    witness: int
    diagnostic: str | None = None


@dataclass(frozen=True)
class DecisionResult:
    ultimately_periodic: bool
    params: UpSet | None = None
    failure: ConditionFailure | None = None

    def to_json_dict(self) -> dict:
        """The verdict as JSON-ready values.  `period` stays an int, so a
        caller serializing one of more than 4,300 digits lifts CPython's
        limit with sys.set_int_max_str_digits first, as the CLI does."""
        out: dict = {"ultimately_periodic": self.ultimately_periodic}
        if self.params is not None:
            out["period"] = self.params.period
            out["remainders"] = sorted(self.params.remainders)
            out["mismatches"] = list(self.params.mismatches)
        if self.failure is not None:
            out["failed_condition"] = self.failure.condition
            out["witness"] = self.failure.witness
            if self.failure.diagnostic is not None:
                out["diagnostic"] = self.failure.diagnostic
        return out


@dataclass(frozen=True, eq=False)
class _Verified:
    """The per-state facts _conditions established on a passing automaton.

    At a positive-digit state z: rep[z] = z, its scc's quotient parameters
    params[z] and its quotient label label[z] (see QuotientCheck), which
    is -1 at every other state; pred0 and pred1 invert digits 0 and 1 on
    these states.  At a 0-circuit state x: rep[x], its embedding image.
    `transient` lists every other state after its transient successors;
    rep is -1 there until _read_parameters fills it in.  `period` is p_c,
    the lcm of the quotient periods.  A group automaton is one quotient:
    rep is range(n), nothing is transient, and pred1, which only UP4
    reads, stays empty.
    """

    period: int
    params: list[PascalParams | None]
    label: array
    rep: Sequence[int]
    pred0: array
    pred1: array
    transient: Sequence[int]


def _conditions(dfa: Dfa) -> tuple[ConditionFailure | None, _Verified | None]:
    """UP0, the condensation, then UP3, UP2 and UP4, each run once on a
    minimal complete automaton.  Returns the first failure, or None and
    the facts the checks established.

    A group automaton skips the condensation.  Minimal means every state
    is reachable, and the orbit of the initial state under permutation
    letters is forward-closed, so a minimal group automaton is one scc
    with internal positive-digit transitions: UP3 and UP4 are vacuous,
    and UP2 is the single quotient test on the whole automaton.  Otherwise
    UP2 tests each positive-digit scc, its closure included.  Either way
    the quotient test runs on the automaton's own columns and state ids,
    and writes the 0-predecessors and labels straight into the arrays
    _Verified hands on.
    """
    n = dfa.state_count
    cols = dfa.columns

    # UP0 is zero-stability of the whole automaton; the cached check also
    # serves the quotient test later, and the witness scan only runs on
    # the failing path
    if not dfa.is_zero_stable:
        flags = dfa._final_bytes
        succ0 = bytes(map(flags.__getitem__, cols[0]))
        s = next(i for i in range(n) if succ0[i] != flags[i])
        diag = "state and its 0-successor differ on finality"
        return ConditionFailure("UP0", s, diag), None

    label = array("i", (-1,)) * n
    pred0 = array("i", (-1,)) * n
    if dfa.is_group:
        found = _scc_quotient(dfa, range(n), dfa.initial, pred0, label)
        if isinstance(found, QuotientFailure):
            return ConditionFailure("UP2", 0, found.value), None
        return None, _Verified(found.p, [found] * n, label, range(n), pred0, array("i"), ())

    cond = condensation(dfa)
    types = cond.scc_type

    # scc ids are reverse topological, so the trivial sccs met in id order
    # list the transient states successors first
    transient = []
    for c in range(cond.count):
        if types[c] is SccType.TRIVIAL:
            transient.append(cond.scc_members[c][0])
        if types[c] is not SccType.TYPE_TWO:
            continue
        desc = successor_sccs(dfa, cond, c)
        if len(desc) != 1:
            diag = f"0-circuit scc has {len(desc)} successor sccs, expected 1"
            return ConditionFailure("UP3", c, diag), None
        (d,) = desc
        if types[d] is not SccType.TYPE_ONE:
            diag = "successor scc is not a positive-digit scc"
            return ConditionFailure("UP3", c, diag), None

    # digits 0 and 1 permute every positive-digit scc that passes UP2, so
    # each of its states has exactly one 0- and one 1-predecessor among
    # the scc's own members
    col1 = cols[1]
    params: list[PascalParams | None] = [None] * n
    rep = array("i", (-1,)) * n
    pred1 = array("i", (-1,)) * n
    period = 1
    for c in range(cond.count):
        if types[c] is not SccType.TYPE_ONE:
            continue
        members = cond.scc_members[c]
        found = _scc_quotient(dfa, members, min(members), pred0, label)
        if isinstance(found, QuotientFailure):
            return ConditionFailure("UP2", c, found.value), None
        period = math.lcm(period, found.p)
        for z in members:
            params[z] = found
            rep[z] = z
            pred1[col1[z]] = z

    for c in range(cond.count):
        if types[c] is not SccType.TYPE_TWO:
            continue
        f = build_embedding(dfa, cond.scc_members[c], pred1)
        if f is None:
            return ConditionFailure("UP4", c, "no embedding into the successor scc"), None
        for x, fx in f.items():
            rep[x] = fx

    return None, _Verified(period, params, label, rep, pred0, pred1, transient)


def check_conditions(dfa: Dfa) -> DecisionResult:
    """Decide the structural conditions on a minimal complete automaton.

    Check order is UP0, then UP2 as one quotient test of a group
    automaton, else the condensation and UP3, UP2 (one quotient test per
    positive-digit scc) and UP4, failing on the first violation; all
    O(base * n).  The verdict carries no set parameters; decide() adds them.
    """
    if not dfa.is_complete:
        raise PreconditionViolated("check_conditions requires a complete automaton")
    failure, _ = _conditions(dfa)
    return DecisionResult(failure is None, failure=failure)


def build_embedding(
    dfa: Dfa, circuit: Sequence[int], pred1: array
) -> dict[int, int] | None:
    """The only possible embedding f of a 0-circuit scc C into its
    successor scc D, on C's own states, or None if it fails.

    f(x) is forced to be pred1[x.1], the state of D with the same
    1-successor as x.  After UP3 and UP2, x.1 lies in D and D's 1-column
    is a permutation of D, so pred1 answers for it.  f must then satisfy
    x.a = f(x).a for every positive digit a and f(x.0) = f(x).0; x.0 lies
    in C, so f is only ever read on C.
    """
    b = dfa.base
    trans = dfa.transitions
    f = {x: pred1[trans[x * b + 1]] for x in circuit}
    for x, fx in f.items():
        row_x = x * b
        row_f = fx * b
        # digit 1 agrees by the choice of f(x)
        if trans[row_x + 2 : row_x + b] != trans[row_f + 2 : row_f + b]:
            return None
        if f[trans[row_x]] != trans[row_f]:
            return None
    return f


def extract_parameters(dfa: Dfa) -> UpSet:
    """Recover the canonical (p, R, I) accepted by a complete automaton;
    raises PreconditionViolated if it fails check_conditions.

    O(b*n + b*n*|R| + b * sum of the digit counts of I), read off the
    facts the conditions verified; see _read_parameters.  The answer is
    right on a non-minimal automaton that passes the conditions too.
    """
    if not dfa.is_complete:
        raise PreconditionViolated("extract_parameters requires a complete automaton")
    f, verified = _conditions(dfa)
    if f is not None:
        raise PreconditionViolated(f"{f.condition} fails at {f.witness}: {f.diagnostic}")
    return _read_parameters(dfa, verified)


def _read_parameters(dfa: Dfa, verified: _Verified) -> UpSet:
    """The canonical (p, R, I) of a passing automaton, from the facts in
    `verified` alone: no integer is sampled and nothing is rebuilt.

    Write P_q for the purely periodic set that q's set agrees with from
    some point on.  A positive-digit state z accepts a purely periodic set
    with period coprime to b, fixed by its quotient label; a 0-circuit
    state x accepts the set of its image rep(x), up to 0.  One pass over
    the transient states, successors first, gives each of them

      rep(q)  the positive-digit state accepting P_q, if there is one: it
              can only be the z with z.0 = rep(q.0), and it is z exactly
              when z.a = rep(q.a) for every digit a >= 1 as well;
      ex(q)   0 if rep(q) exists, else 1 + max_a ex(q.a), the exponent of
              b in the period of P_q;
      pz0(q)  whether 0 is in P_q: final(rep(q)), else pz0(q.0).

    Every other state has a representative, so ex is 0 and pz0 is the
    finality of rep there.  rep(q) goes into the transient slots of
    verified.rep, so a second reading gives the same answer.  Then p =
    p_c * b^ex(initial), and one descent from the initial state lists R
    and I: R is the union of the residues of the first representative on
    each word, spread over the stride of that word, and n is a mismatch
    iff its canonical word leads to a state q with final(q) != pz0(q).
    The answer is right even when the automaton is not minimal, since
    every fact used is an equation checked on it; only p may then need
    reducing to the least period, which the last step does anyway.
    """
    b = dfa.base
    init = dfa.initial
    n = dfa.state_count
    trans = dfa.transitions
    flags = dfa._final_bytes
    rep, pred0, label = verified.rep, verified.pred0, verified.label
    ex = array("i", (0,)) * n
    # pz0 of the transient states without a representative
    pz0 = bytearray(n)
    # deep[q]: a nonempty word ending in a positive digit leads from q to
    # a state that disagrees with its pz0; only transient states have one
    deep = bytearray(n)

    def off(q: int) -> bool:
        """Whether q disagrees on finality with its pz0."""
        z = rep[q]
        return flags[q] != (flags[z] if z != -1 else pz0[q])

    for q in verified.transient:
        row = q * b
        succ = trans[row : row + b]
        z0 = rep[succ[0]]
        z = pred0[z0] if z0 != -1 else -1
        if z != -1 and all(trans[z * b + a] == rep[succ[a]] for a in range(1, b)):
            rep[q] = z
        else:
            ex[q] = 1 + max(map(ex.__getitem__, succ))
            pz0[q] = flags[z0] if z0 != -1 else pz0[succ[0]]
        deep[q] = deep[succ[0]] or any(deep[t] or off(t) for t in succ[1:])

    # descend until a representative answers, and spread its residues
    # over the stride of R that the word read so far selects; below it,
    # follow only the words to a mismatch.  b^length and the word's value
    # are built only at representatives and mismatches, so a long 0-chain
    # above an empty sink costs no big-int arithmetic
    p = verified.period * b ** ex[init]
    rem: set[int] = set()
    mismatches = []
    word: list[int] = []  # the digits read to the state popped last
    stack = [(init, 0, (), True)]  # state, word[:k] + last, no representative yet
    while stack:
        q, k, last, above = stack.pop()
        word[k:] = last
        z = rep[q]
        # off(q) on the z already read, at a canonical word: empty or ending in a digit > 0
        if (not word or word[-1]) and flags[q] != (flags[z] if z != -1 else pz0[q]):
            mismatches.append(value(word, b))
        if above and z != -1:
            above = False
            params = verified.params[z]
            if params.remainders:
                weight = b ** len(word)
                v = value(word, b)
                stride = params.p * weight
                for m in accepted_residues(params, label[z], b):
                    rem.update(range(v + m * weight, p, stride))
        # below a representative, only a deep state has a child to follow
        if not (above or deep[q]):
            continue
        row = q * b
        k = len(word)
        for a in range(b):
            t = trans[row + a]
            if above or deep[t] or (a and off(t)):
                stack.append((t, k, (a,), above))
    mismatches.sort()
    return _with_least_period(p, frozenset(rem), mismatches)


def decide(dfa: Dfa) -> DecisionResult:
    """End-to-end decision for an arbitrary (possibly partial) automaton:
    complete, minimize, check the structural conditions, and on success
    read off the canonical parameters of the accepted set."""
    minimal = minimize(dfa)
    failure, verified = _conditions(minimal)
    if failure is not None:
        return DecisionResult(False, failure=failure)
    return DecisionResult(True, params=_read_parameters(minimal, verified))
