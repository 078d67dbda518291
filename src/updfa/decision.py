"""The periodicity decision on minimal automata, in time linear in the
transition table.

A minimal complete DFA accepts an ultimately periodic set (by value, least
significant digit first) iff

  UP0  finality is stable under reading 0;
  UP2  every scc with an internal positive-digit transition, which must be
       closed under all transitions, is a Pascal-automaton quotient;
  UP3  every 0-circuit scc has exactly one immediate successor scc, and
       that successor is of the kind checked by UP2;
  UP4  every 0-circuit scc embeds into its successor scc.

Minimality itself (UP1) is trusted, not re-verified; decide() minimizes
first so its callers need not care.  On success the accepted set is read
off in canonical form from what the checks established: the quotient
labelling of every positive-digit scc, the embedding of every 0-circuit,
and a handful of equations per transient state (see _read_parameters).
Nothing is sampled or rebuilt, and since every fact used is an equation
checked on the automaton, a positive answer is never wrong.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .automaton import Condensation, Dfa, SccType, condensation, minimize
from .errors import PreconditionViolated
from .numeration import UpSet, _with_least_period
from .pascal import PascalParams, is_pascal_quotient

# decide calls none of these; they stay bound here because the benchmark's
# tracer (bench/spans.py) wraps the layers of a decision by their names in
# this module, and reads their counts as evidence that extraction samples
# and rebuilds nothing
from .automaton import accepts, isomorphic  # noqa: E402, F401
from .numeration import build_minimal_automaton  # noqa: E402, F401


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


class _Atomic(NamedTuple):
    """A positive-digit scc that passed UP2: its quotient parameters, and
    the quotient label of the state with global id members[i] at
    labels[i]."""

    params: PascalParams
    labels: array
    members: Sequence[int]


@dataclass(frozen=True, eq=False)
class _Verified:
    """What _conditions computed and checked on a passing automaton, kept
    for reading off the parameters.  `cond` is None when the whole
    automaton is one Pascal quotient, which is then atomic[0]; `image`
    maps every 0-circuit state to its embedding image."""

    cond: Condensation | None
    atomic: dict[int, _Atomic]
    image: dict[int, int]


def _scc_sub_dfa(
    dfa: Dfa, members: tuple[int, ...]
) -> tuple[Dfa | None, Sequence[int]]:
    """The automaton restricted to a closed scc, rooted at its lowest
    member, and the global id of each of its states; None in place of
    the automaton if some transition leaves the scc."""
    n, b = dfa.state_count, dfa.base
    if len(members) == n:
        # whole automaton; re-rooting at 0 is immaterial for group automata
        if dfa.initial == 0:
            return dfa, range(n)
        return Dfa(b, n, 0, dfa.transitions, dfa.finals), range(n)
    ordered = sorted(members)
    local = {s: i for i, s in enumerate(ordered)}
    trans = dfa.transitions
    flat = []
    for s in ordered:
        row = s * b
        for a in range(b):
            t = local.get(trans[row + a])
            if t is None:
                return None, ordered
            flat.append(t)
    finals = frozenset(local[q] for q in dfa.finals if q in local)
    return Dfa(b, len(members), 0, tuple(flat), finals), ordered


def _check_atomic_scc(
    dfa: Dfa, members: tuple[int, ...]
) -> tuple[_Atomic | None, str | None]:
    """UP2 on one scc: closure, then the Pascal-quotient test."""
    sub, ordered = _scc_sub_dfa(dfa, members)
    if sub is None:
        return None, "transitions leave the scc"
    check = is_pascal_quotient(sub)
    if check.params is None:
        return None, check.failure.value
    return _Atomic(check.params, check.labels, ordered), None


def _conditions(dfa: Dfa) -> tuple[ConditionFailure | None, _Verified | None]:
    """UP0, the condensation, then UP3, UP2 and UP4, each run once on a
    minimal complete automaton.  Returns the first failure, or None and
    the facts the checks established.

    A group automaton skips the condensation.  Minimal means every state
    is reachable, and the orbit of the initial state under permutation
    letters is forward-closed, so a minimal group automaton is one scc
    with internal positive-digit transitions: UP3 and UP4 are vacuous,
    and UP2 is the single quotient test on the whole automaton.
    """
    n, b = dfa.state_count, dfa.base

    # UP0 is zero-stability of the whole automaton; the cached check also
    # serves the quotient test later, and the witness scan only runs on
    # the failing path
    if not dfa.is_zero_stable:
        flags = dfa._final_bytes
        succ0 = bytes(map(flags.__getitem__, dfa.transitions[0::b]))
        s = next(i for i in range(n) if succ0[i] != flags[i])
        diag = "state and its 0-successor differ on finality"
        return ConditionFailure("UP0", s, diag), None

    if dfa.is_group:
        check = is_pascal_quotient(dfa)
        if not check.accepted:
            return ConditionFailure("UP2", 0, check.failure.value), None
        atomic = _Atomic(check.params, check.labels, range(n))
        return None, _Verified(None, {0: atomic}, {})

    cond = condensation(dfa)
    types = cond.scc_type

    for c in range(cond.count):
        if types[c] is not SccType.TYPE_TWO:
            continue
        desc = cond.descendants[c]
        if len(desc) != 1:
            diag = f"0-circuit scc has {len(desc)} successor sccs, expected 1"
            return ConditionFailure("UP3", c, diag), None
        (d,) = desc
        if types[d] is not SccType.TYPE_ONE:
            diag = "successor scc is not a positive-digit scc"
            return ConditionFailure("UP3", c, diag), None

    atomic = {}
    for c in range(cond.count):
        if types[c] is not SccType.TYPE_ONE:
            continue
        found, diag = _check_atomic_scc(dfa, cond.scc_members[c])
        if found is None:
            return ConditionFailure("UP2", c, diag), None
        atomic[c] = found

    # digit 1 permutes every accepted positive-digit scc, so each of their
    # states has exactly one 1-predecessor among the scc's own members
    trans = dfa.transitions
    pred1 = array("i", (-1,)) * n
    for found in atomic.values():
        for z in found.members:
            pred1[trans[z * b + 1]] = z

    image: dict[int, int] = {}
    for c in range(cond.count):
        if types[c] is not SccType.TYPE_TWO:
            continue
        f = build_embedding(dfa, cond.scc_members[c], pred1)
        if f is None:
            return ConditionFailure("UP4", c, "no embedding into the successor scc"), None
        image.update(f)

    return None, _Verified(cond, atomic, image)


def check_conditions(dfa: Dfa) -> DecisionResult:
    """Decide the structural conditions on a minimal complete automaton.

    Check order is UP0, then, for a group automaton, UP2 as one quotient
    test of the whole automaton, else the condensation and UP3, UP2, UP4,
    failing on the first violation; everything is O(base * n).  The
    verdict carries no set parameters; decide() adds them.
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


def _accepted_residues(params: PascalParams, label: int, base: int) -> frozenset:
    """The residues mod p of the set of the quotient state with the given
    label (s, t): m is in it iff (s + m*base^t) mod p is in R, that is,
    iff m = (r - s) * base^-t (mod p) for some r in R."""
    p = params.p
    s, t = divmod(label, params.k)
    step = pow(base, -t, p)
    return frozenset((r - s) * step % p for r in params.remainders)


def _read_parameters(dfa: Dfa, verified: _Verified) -> UpSet:
    """The canonical (p, R, I) of a passing automaton, from the facts in
    `verified` alone: no integer is sampled and nothing is rebuilt.

    Write P_q for the purely periodic set that q's set agrees with from
    some point on.  A positive-digit state z accepts a purely periodic set
    with period coprime to b, fixed by its quotient label; a 0-circuit
    state x accepts the set of its image f(x), up to 0.  One pass over the
    sccs, successors first, gives every transient state q

      rep(q)  the positive-digit state accepting P_q, if there is one: it
              can only be the z with z.0 = rep(q.0), and it is z exactly
              when z.a = rep(q.a) for every digit a >= 1 as well;
      ex(q)   0 if rep(q) exists, else 1 + max_a ex(q.a), the exponent of
              b in the period of P_q;
      pz0(q)  whether 0 is in P_q: final(rep(q)), else pz0(q.0).

    Then p = p_c * b^ex(initial), R is the union of the residues of the
    representatives the descent from the initial state reaches, each
    spread over the stride of the word that reached it, and n is a
    mismatch iff its canonical word leads to a state q with
    final(q) != pz0(q).  Every fact
    used is an equation checked on the automaton, so the answer is right
    even when the automaton is not minimal; only p may then need reducing
    to the least period, which the last step does anyway.
    """
    b = dfa.base
    init = dfa.initial
    cond, atomic = verified.cond, verified.atomic
    p_c = math.lcm(*(found.params.p for found in atomic.values()))
    if cond is None:
        (whole,) = atomic.values()
        rem = _accepted_residues(whole.params, whole.labels[init], b)
        return _with_least_period(p_c, rem, [])

    n = dfa.state_count
    trans = dfa.transitions
    flags = dfa._final_bytes
    image = verified.image
    rep = array("i", (-1,)) * n
    pred0 = array("i", (-1,)) * n
    ex = array("i", (0,)) * n
    pz0 = bytearray(n)
    # deep[q]: a nonempty word ending in a positive digit leads from q to
    # a state that disagrees with its pz0; only transient states have one
    deep = bytearray(n)
    label = array("i", (0,)) * n
    for c, members in enumerate(cond.scc_members):
        found = atomic.get(c)
        if found is not None:
            for z, lab in zip(found.members, found.labels):
                rep[z] = z
                pred0[trans[z * b]] = z
                pz0[z] = flags[z]
                label[z] = lab
            continue
        if cond.scc_type[c] is SccType.TYPE_TWO:
            for x in members:
                rep[x] = image[x]
                pz0[x] = flags[image[x]]
            continue
        (q,) = members
        row = q * b
        succ = trans[row : row + b]
        z = rep[succ[0]]
        if z != -1:
            z = pred0[z]
        if z != -1 and all(trans[z * b + a] == rep[succ[a]] for a in range(1, b)):
            rep[q] = z
            pz0[q] = flags[z]
        else:
            ex[q] = 1 + max(map(ex.__getitem__, succ))
            pz0[q] = pz0[succ[0]]
        deep[q] = deep[succ[0]] or any(
            deep[t] or flags[t] != pz0[t] for t in succ[1:]
        )

    # descend until a representative answers, and spread its residues
    # over the stride of R that the word read so far selects
    p = p_c * b ** ex[init]
    rem: set[int] = set()
    stack = [(init, 1, 0)]  # state, b^length and value of the word read
    while stack:
        q, weight, v = stack.pop()
        z = rep[q]
        if z == -1:
            row = q * b
            for a in range(b):
                stack.append((trans[row + a], weight * b, v + a * weight))
            continue
        params = atomic[cond.scc_of[z]].params
        stride = params.p * weight
        for m in _accepted_residues(params, label[z], b):
            rem.update(range(v + m * weight, p, stride))

    # only words that end in a positive digit (or the empty word) are
    # canonical expansions; prune to the states a mismatch lies below
    mismatches = []
    if deep[init] or flags[init] != pz0[init]:
        stack = [(init, 1, 0, True)]  # ..., whether the word is canonical
        while stack:
            q, weight, v, canonical = stack.pop()
            if canonical and flags[q] != pz0[q]:
                mismatches.append(v)
            row = q * b
            if deep[trans[row]]:
                stack.append((trans[row], weight * b, v, False))
            for a in range(1, b):
                t = trans[row + a]
                if deep[t] or flags[t] != pz0[t]:
                    stack.append((t, weight * b, v + a * weight, True))
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
