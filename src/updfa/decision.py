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
first so its callers need not care.  On success the accepted set is
recovered in canonical form by candidate sampling verified through an
isomorphism test, so a positive answer is never wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automaton import (
    Condensation,
    Dfa,
    SccType,
    accepts,
    condensation,
    isomorphic,
    minimize,
)
from .errors import (
    ExtractionCapExceeded,
    PreconditionViolated,
    StateLimitExceeded,
)
from .numeration import (
    CharacteristicProfile,
    UpSet,
    build_minimal_automaton,
    canonicalize,
    representation,
)
from .pascal import PascalParams, QuotientCheck, is_pascal_quotient


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
            out["remainders"] = sorted(self.params.remainder_set)
            out["mismatches"] = list(self.params.mismatches)
        if self.failure is not None:
            out["failed_condition"] = self.failure.condition
            out["witness"] = self.failure.witness
            if self.failure.diagnostic is not None:
                out["diagnostic"] = self.failure.diagnostic
        return out


@dataclass(frozen=True, eq=False)
class Embedding:
    """A map f: C + D -> D, identity on D, with f(x.0) = f(x).0 and
    x.a = f(x).a for every positive digit a."""

    mapping: dict[int, int]


def _scc_sub_dfa(dfa: Dfa, members: tuple[int, ...]) -> Dfa | None:
    """The automaton restricted to a closed scc, rooted at its lowest
    member; None if some transition leaves the scc."""
    n, b = dfa.state_count, dfa.base
    if len(members) == n:
        # whole automaton; re-rooting at 0 is immaterial for group automata
        if dfa.initial == 0:
            return dfa
        return Dfa(b, n, 0, dfa.transitions, dfa.finals)
    ordered = sorted(members)
    local = {s: i for i, s in enumerate(ordered)}
    trans = dfa.transitions
    flat = []
    for s in ordered:
        row = s * b
        for a in range(b):
            t = local.get(trans[row + a])
            if t is None:
                return None
            flat.append(t)
    finals = frozenset(local[q] for q in dfa.finals if q in local)
    return Dfa(b, len(members), 0, tuple(flat), finals)


def _check_atomic_scc(
    dfa: Dfa, members: tuple[int, ...], whole: QuotientCheck | None = None
) -> tuple[PascalParams | None, str | None]:
    """UP2 on one scc: closure, then the Pascal-quotient test.  `whole`, a
    quotient test already run on dfa itself, answers for an scc whose
    sub-automaton is dfa."""
    sub = _scc_sub_dfa(dfa, members)
    if sub is None:
        return None, "transitions leave the scc"
    check = whole if whole is not None and sub is dfa else is_pascal_quotient(sub)
    if check.params is None:
        return None, check.failure.value
    return check.params, None


def _conditions(dfa: Dfa) -> tuple[ConditionFailure | None, int]:
    """UP0, the condensation, then UP3, UP2 and UP4, each run once on a
    minimal complete automaton.  Returns the first failure, or None and the
    coprime part of the period: the lcm of the periods of the positive-digit
    sccs."""
    n, b = dfa.state_count, dfa.base

    # UP0 is zero-stability of the whole automaton; the cached check also
    # serves the quotient test later, and the witness scan only runs on
    # the failing path
    if not dfa.is_zero_stable:
        flags = dfa._final_bytes
        succ0 = bytes(map(flags.__getitem__, dfa.transitions[0::b]))
        s = next(i for i in range(n) if succ0[i] != flags[i])
        diag = "state and its 0-successor differ on finality"
        return ConditionFailure("UP0", s, diag), 0

    # a zero-stable group automaton that is outright a Pascal quotient is a
    # single scc (the quotient is forward-connected from its initial state,
    # and orbits of the letter group are forward-closed), so the generic
    # path below would find one positive-digit scc and accept it through
    # the very same quotient test; answer directly and skip the condensation
    whole = is_pascal_quotient(dfa) if dfa.is_group else None
    if whole is not None and whole.accepted:
        return None, whole.params.p

    cond = condensation(dfa)
    types = cond.scc_type

    for c in range(cond.count):
        if types[c] is not SccType.TYPE_TWO:
            continue
        desc = cond.descendants[c]
        if len(desc) != 1:
            diag = f"0-circuit scc has {len(desc)} successor sccs, expected 1"
            return ConditionFailure("UP3", c, diag), 0
        (d,) = desc
        if types[d] is not SccType.TYPE_ONE:
            diag = "successor scc is not a positive-digit scc"
            return ConditionFailure("UP3", c, diag), 0

    p_c = 1
    for c in range(cond.count):
        if types[c] is not SccType.TYPE_ONE:
            continue
        params, diag = _check_atomic_scc(dfa, cond.scc_members[c], whole)
        if params is None:
            return ConditionFailure("UP2", c, diag), 0
        p_c = math.lcm(p_c, params.p)

    for c in range(cond.count):
        if types[c] is not SccType.TYPE_TWO:
            continue
        (d,) = cond.descendants[c]
        if build_embedding(dfa, cond, c, d) is None:
            return ConditionFailure("UP4", c, "no embedding into the successor scc"), 0

    return None, p_c


def check_conditions(dfa: Dfa) -> DecisionResult:
    """Decide the structural conditions on a minimal complete automaton.

    Check order is UP0, then condensation, then UP3, UP2, UP4, failing on
    the first violation; everything is O(base * n).  The verdict carries no
    set parameters; decide() adds them.
    """
    if not dfa.is_complete:
        raise PreconditionViolated("check_conditions requires a complete automaton")
    failure, _ = _conditions(dfa)
    return DecisionResult(failure is None, failure=failure)


def build_embedding(
    dfa: Dfa, cond: Condensation, c: int, d: int
) -> Embedding | None:
    """Construct and verify the only possible embedding of scc c into scc d.

    The candidate is forced: f(x) must be the unique state of D whose
    1-successor equals x's (unique because D passed the group-automaton
    check).  Returns None whenever any required equation fails.
    """
    b = dfa.base
    trans = dfa.transitions
    d_members = cond.scc_members[d]
    pred1 = {trans[y * b + 1]: y for y in d_members}
    f = {y: y for y in d_members}
    for x in cond.scc_members[c]:
        fx = pred1.get(trans[x * b + 1])
        if fx is None:
            return None
        f[x] = fx
    for x in cond.scc_members[c]:
        fx = f[x]
        row_x = x * b
        row_f = fx * b
        for a in range(1, b):
            if trans[row_x + a] != trans[row_f + a]:
                return None
        if f.get(trans[row_x]) != trans[row_f]:
            return None
    return Embedding(f)


def extract_parameters(
    dfa: Dfa,
    max_exponent: int | None = None,
    max_preperiod: int | None = None,
) -> UpSet:
    """Recover the canonical (p, R, I) accepted by a minimal complete
    automaton; raises PreconditionViolated if it fails check_conditions.

    Candidate-and-verify: the coprime part of the period is the lcm of the
    periods of the positive-digit sccs, the base-power part is searched by
    exponent, the preperiod is read off a membership sample, and every
    candidate is confirmed by rebuilding its minimal automaton and testing
    isomorphism.  A returned UpSet is therefore unconditionally correct.
    """
    if not dfa.is_complete:
        raise PreconditionViolated("extract_parameters requires a complete automaton")
    f, p_c = _conditions(dfa)
    if f is not None:
        raise PreconditionViolated(f"{f.condition} fails at {f.witness}: {f.diagnostic}")
    return _search_parameters(dfa, p_c, max_exponent, max_preperiod)


def _search_parameters(
    dfa: Dfa, p_c: int, max_exponent: int | None, max_preperiod: int | None
) -> UpSet:
    """The candidate search of extract_parameters, given the coprime part
    p_c of the period."""
    b = dfa.base
    e_cap = dfa.state_count if max_exponent is None else max_exponent
    for e in range(e_cap + 1):
        p = p_c * b**e
        m_cap = 4 * p * b**e if max_preperiod is None else max_preperiod
        length = m_cap + p
        bits = bytes(
            1 if accepts(dfa, representation(i, b)) else 0 for i in range(length)
        )
        m_min = 0
        for i in range(length - p):
            if bits[i] != bits[i + p]:
                m_min = i + 1
        candidate = canonicalize(
            CharacteristicProfile(bits[:m_min], bits[m_min : m_min + p])
        )
        try:
            built = build_minimal_automaton(candidate, b, state_limit=dfa.state_count)
        except StateLimitExceeded:
            continue
        if isomorphic(built, dfa):
            return candidate
    raise ExtractionCapExceeded(
        f"no candidate verified with exponent <= {e_cap}"
        + ("" if max_preperiod is None else f" and preperiod <= {max_preperiod}")
    )


def decide(
    dfa: Dfa,
    max_exponent: int | None = None,
    max_preperiod: int | None = None,
) -> DecisionResult:
    """End-to-end decision for an arbitrary (possibly partial) automaton:
    complete, minimize, check the structural conditions, and on success
    extract the canonical parameters of the accepted set."""
    minimal = minimize(dfa)
    failure, p_c = _conditions(minimal)
    if failure is not None:
        return DecisionResult(False, failure=failure)
    params = _search_parameters(minimal, p_c, max_exponent, max_preperiod)
    return DecisionResult(True, params=params)
