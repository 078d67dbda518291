"""Deterministic finite automata over digit alphabets {0, ..., base-1}.

States are dense integers in [0, state_count).  The transition table is one
flat ``array("i")`` indexed by ``state * base + digit``; the value -1 marks a
missing transition (partial automaton).  A Dfa converts and validates its
table once, at construction, and the table is never mutated afterwards, so
every traversal reads the same dense 4-byte buffer.  Flat arrays keep every
operation here linear in the table size, which the million-state benchmark
relies on.

Words are read least significant digit first, so the digit-0 successor of a
state plays a special role throughout (appending 0 does not change the value
a word denotes).
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadDigit,
    BadStateId,
    BaseTooSmall,
    FormatError,
    PreconditionViolated,
)

MISSING = -1


@dataclass(frozen=True)
class Dfa:
    """A complete or partial DFA over the digit alphabet {0, ..., base-1}.

    Immutable; all operations in this package are pure functions on it.
    `transitions` may be given as any sequence of ints; it is stored as an
    ``array("i")`` (an ``array("i")`` argument is kept, not copied, so it
    must not be mutated afterwards) and the whole automaton is validated
    before construction returns.
    """

    base: int
    state_count: int
    initial: int
    transitions: array
    finals: frozenset[int]

    def __post_init__(self):
        trans = self.transitions
        if not (isinstance(trans, array) and trans.typecode == "i"):
            try:
                trans = array("i", trans)
            except OverflowError:
                raise BadStateId("transition target out of range") from None
            object.__setattr__(self, "transitions", trans)
        validate(self)

    def __hash__(self) -> int:
        # an array is unhashable, so hash its bytes in its place
        table = self.transitions.tobytes()
        return hash((self.base, self.state_count, self.initial, table, self.finals))

    @classmethod
    def from_map(
        cls,
        base: int,
        state_count: int,
        initial: int,
        transitions: Mapping[tuple[int, int], int],
        finals: Iterable[int],
    ) -> "Dfa":
        """Build a Dfa from a {(state, digit): state} mapping, validating ids."""
        table = array("i", (MISSING,)) * (state_count * base)
        for (q, a), q2 in transitions.items():
            if not 0 <= a < base:
                raise BadDigit(f"digit {a} out of range (base {base})")
            if not 0 <= q < state_count or not 0 <= q2 < state_count:
                raise BadStateId(f"transition ({q}, {a}) -> {q2} out of range")
            table[q * base + a] = q2
        return cls(base, state_count, initial, table, frozenset(finals))

    def step(self, state: int, digit: int) -> int:
        """Successor of `state` by `digit`, or -1 if undefined."""
        return self.transitions[state * self.base + digit]

    @cached_property
    def is_complete(self) -> bool:
        return MISSING not in self.transitions

    @cached_property
    def is_zero_stable(self) -> bool:
        """True iff every state and its 0-successor agree on finality."""
        flags = self._final_bytes
        zcol = self.transitions[0 :: self.base]
        if self.is_complete:
            # finality vector of the 0-successors, gathered at C speed
            return bytes(map(flags.__getitem__, zcol)) == flags
        return all(t == MISSING or flags[s] == flags[t] for s, t in enumerate(zcol))

    @cached_property
    def is_group(self) -> bool:
        """True iff every digit acts as a permutation of the state set."""
        if not self.is_complete:
            raise PreconditionViolated("is_group_automaton requires a complete automaton")
        n, b = self.state_count, self.base
        for a in range(b):
            seen = bytearray(n)
            for t in self.transitions[a::b]:
                if seen[t]:
                    return False
                seen[t] = 1
        return True

    @cached_property
    def _final_bytes(self) -> bytes:
        flags = bytearray(self.state_count)
        for q in self.finals:
            flags[q] = 1
        return bytes(flags)

    def transition_items(self) -> Iterator[tuple[int, int, int]]:
        """Yield (state, digit, target) for every defined transition."""
        b = self.base
        for i, t in enumerate(self.transitions):
            if t != MISSING:
                yield i // b, i % b, t


class SccType(enum.Enum):
    TRIVIAL = "Trivial"
    TYPE_ONE = "TypeOne"
    TYPE_TWO = "TypeTwo"


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a Dfa with per-scc classification.

    `descendants[c]` is the set of immediate successor sccs of c in the
    component graph.  `topological_order` lists scc ids so that every edge of
    the component graph goes forward.  TypeTwo sccs are simple circuits
    labelled only by the digit 0; TypeOne sccs contain an internal transition
    with a positive digit; Trivial sccs are singletons with no internal
    transition.
    """

    scc_of: tuple[int, ...]
    scc_members: tuple[tuple[int, ...], ...]
    scc_type: tuple[SccType, ...]
    descendants: tuple[frozenset[int], ...]
    topological_order: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.scc_members)


def validate(dfa: Dfa) -> None:
    """Check all Dfa invariants; raise on the first violation.

    Runs once per automaton, when it is constructed; every other function
    in the package trusts a Dfa it is given.
    """
    if dfa.base < 2:
        raise BaseTooSmall(f"base {dfa.base} < 2")
    n = dfa.state_count
    if n < 1 or not 0 <= dfa.initial < n:
        raise BadStateId(f"initial state {dfa.initial} out of range")
    trans = dfa.transitions
    if len(trans) != n * dfa.base:
        raise BadDigit(
            f"transition table has {len(trans)} entries, "
            f"expected {n * dfa.base}"
        )
    # bulk range scan; only locate the offender on the slow path
    if max(trans) >= n or min(trans) < MISSING:
        for t in trans:
            if t != MISSING and not 0 <= t < n:
                raise BadStateId(f"transition target {t} out of range")
    for q in dfa.finals:
        if not 0 <= q < n:
            raise BadStateId(f"final state {q} out of range")


def complete(dfa: Dfa) -> Dfa:
    """Return an equivalent complete Dfa.

    A partial input gains one fresh non-final sink with all self-loops; a
    complete input is returned unchanged.
    """
    if dfa.is_complete:
        return dfa
    sink = dfa.state_count
    flat = [sink if t == MISSING else t for t in dfa.transitions]
    flat.extend([sink] * dfa.base)
    return Dfa(dfa.base, sink + 1, dfa.initial, flat, dfa.finals)


def accepts(dfa: Dfa, word: Sequence[int]) -> bool:
    """Run `word` from the initial state; missing transitions reject."""
    s = dfa.initial
    b = dfa.base
    trans = dfa.transitions
    for a in word:
        if not 0 <= a < b:
            raise BadDigit(f"digit {a} out of range (base {b})")
        s = trans[s * b + a]
        if s == MISSING:
            return False
    return s in dfa.finals


def check_zero_stability(dfa: Dfa) -> bool:
    """True iff every state and its 0-successor agree on finality.

    This is what makes an automaton accept by value: all expansions of the
    same number (which differ only by trailing zeros) share one verdict.
    """
    return dfa.is_zero_stable


def is_group_automaton(dfa: Dfa) -> bool:
    """True iff every digit acts as a permutation of the state set."""
    return dfa.is_group


def _reachable_order(dfa: Dfa) -> list[int]:
    """States reachable from the initial one, in BFS order (digit order)."""
    b = dfa.base
    trans = dfa.transitions
    seen = bytearray(dfa.state_count)
    seen[dfa.initial] = 1
    order = [dfa.initial]
    qi = 0
    while qi < len(order):
        row = order[qi] * b
        qi += 1
        for a in range(b):
            t = trans[row + a]
            if t != MISSING and not seen[t]:
                seen[t] = 1
                order.append(t)
    return order


def _restrict_to_reachable(dfa: Dfa) -> Dfa:
    order = _reachable_order(dfa)
    if len(order) == dfa.state_count:
        return dfa
    new_id = {s: i for i, s in enumerate(order)}
    b = dfa.base
    flat = []
    for s in order:
        row = s * b
        for a in range(b):
            t = dfa.transitions[row + a]
            flat.append(MISSING if t == MISSING else new_id[t])
    finals = frozenset(new_id[q] for q in dfa.finals if q in new_id)
    return Dfa(b, len(order), 0, flat, finals)


def minimize(dfa: Dfa) -> Dfa:
    """The minimal complete DFA of the language of complete(dfa).

    Hopcroft partition refinement with smaller-half scheduling, O(bn log n).
    The result keeps its completion sink when one is needed, has all states
    reachable, and is numbered in BFS order from the initial state.
    """
    dfa = _restrict_to_reachable(complete(dfa))
    n, b = dfa.state_count, dfa.base
    trans = dfa.transitions

    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(b)]
    for a in range(b):
        pred_a = preds[a]
        for s, t in enumerate(trans[a::b]):
            pred_a[t].append(s)

    final_set = set(dfa.finals)
    # copy: refinement mutates blocks in place, final_set must stay intact
    blocks: list[set[int]] = []
    for group in (set(final_set), set(range(n)) - final_set):
        if group:
            blocks.append(group)
    block_of = [0] * n
    for i, blk in enumerate(blocks):
        for s in blk:
            block_of[s] = i

    work: list[int] = []
    in_work: set[int] = set()
    if len(blocks) == 2:
        seed = 0 if len(blocks[0]) <= len(blocks[1]) else 1
        work.append(seed)
        in_work.add(seed)

    while work:
        w = work.pop()
        in_work.discard(w)
        splitter = tuple(blocks[w])
        for a in range(b):
            hits: dict[int, list[int]] = {}
            pred_a = preds[a]
            for q in splitter:
                for s in pred_a[q]:
                    hits.setdefault(block_of[s], []).append(s)
            for y, overlap in hits.items():
                y_set = blocks[y]
                if len(overlap) == len(y_set):
                    continue
                new_set = set(overlap)
                y_set -= new_set
                new_id = len(blocks)
                blocks.append(new_set)
                for s in new_set:
                    block_of[s] = new_id
                if y in in_work:
                    work.append(new_id)
                    in_work.add(new_id)
                else:
                    # queue only the smaller half, that is the O(bn log n) trick
                    smaller = new_id if len(new_set) <= len(y_set) else y
                    work.append(smaller)
                    in_work.add(smaller)

    # renumber blocks in BFS order from the initial block; block order[i]
    # becomes state i, and its row is emitted as soon as it is dequeued
    start = block_of[dfa.initial]
    order = [start]
    new_of = {start: 0}
    flat = []
    finals = set()
    qi = 0
    while qi < len(order):
        rep = next(iter(blocks[order[qi]]))
        if rep in final_set:
            finals.add(qi)
        qi += 1
        row = rep * b
        for a in range(b):
            t = block_of[trans[row + a]]
            if t not in new_of:
                new_of[t] = len(order)
                order.append(t)
            flat.append(new_of[t])
    return Dfa(b, len(order), 0, flat, frozenset(finals))


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """Lockstep traversal isomorphism test for complete, reachable DFAs.

    True iff some state bijection maps initial to initial, finals onto
    finals, and commutes with every transition.  O(base * n).

    Reachability is checked by the traversal itself rather than up front;
    a mismatch found before the check may yield False instead of raising,
    which is still sound because a bijection on the full automata would
    restrict to one on the reachable parts.
    """
    if a.base != b.base:
        raise PreconditionViolated("isomorphic requires equal bases")
    if not a.is_complete or not b.is_complete:
        raise PreconditionViolated("isomorphic requires complete automata")
    n = a.state_count
    if n != b.state_count or len(a.finals) != len(b.finals):
        return False
    base = a.base
    ta = a.transitions
    tb = b.transitions
    fa, fb = a._final_bytes, b._final_bytes
    if fa[a.initial] != fb[b.initial]:
        return False
    image = array("i", (MISSING,)) * n
    image[a.initial] = b.initial
    taken = bytearray(n)
    taken[b.initial] = 1
    order = array("i", (0,)) * n
    order[0] = a.initial
    filled = 1
    qi = 0
    digits = range(base)
    while qi < filled:
        s = order[qi]
        qi += 1
        row_a = s * base
        row_b = image[s] * base
        for d in digits:
            u = ta[row_a + d]
            v = tb[row_b + d]
            mu = image[u]
            if mu == MISSING:
                if taken[v] or fa[u] != fb[v]:
                    return False
                image[u] = v
                taken[v] = 1
                order[filled] = u
                filled += 1
            elif mu != v:
                return False
    if filled != n:
        # the pairing covered only part of either automaton, so a True
        # answer would say nothing about the rest; sizes match, hence one
        # traversal count checks both sides
        raise PreconditionViolated("isomorphic requires all states reachable")
    return True


def _group_condensation(dfa: Dfa) -> Condensation:
    """Condensation of a complete group automaton, by orbit flood fill.

    A permutation of a finite forward-closed set is onto it, so forward
    closure under permutation letters is closed under their inverses too:
    components are exactly the orbits of the letter group, no edge leaves
    its orbit, and every orbit has internal positive-digit transitions.
    The flood fill touches one byte per edge where the general search
    below reads a four-byte lowlink, which is what the million-state
    benchmark notices.
    """
    n, b = dfa.state_count, dfa.base
    trans = dfa.transitions
    seen = bytearray(n)
    order = array("i", (0,)) * n
    members: list[tuple[int, ...]] = []
    digits = range(b)
    filled = 0
    for start in range(n):
        if seen[start]:
            continue
        lo = filled
        seen[start] = 1
        order[filled] = start
        filled += 1
        qi = lo
        while qi < filled:
            row = order[qi] * b
            qi += 1
            for a in digits:
                t = trans[row + a]
                if not seen[t]:
                    seen[t] = 1
                    order[filled] = t
                    filled += 1
        members.append(tuple(order[lo:filled]))
    k = len(members)
    if k == 1:
        scc_of = (0,) * n
    else:
        of = array("i", (0,)) * n
        for c, mem in enumerate(members):
            for s in mem:
                of[s] = c
        scc_of = tuple(of)
    return Condensation(
        scc_of=scc_of,
        scc_members=tuple(members),
        scc_type=(SccType.TYPE_ONE,) * k,
        descendants=(frozenset(),) * k,
        topological_order=tuple(range(k - 1, -1, -1)),
    )


def condensation(dfa: Dfa) -> Condensation:
    """Tarjan SCC partition plus digit-type classification, O(base * n).

    Sccs are numbered in emission order, which is reverse topological, so
    `topological_order` is simply the reversed id range.  Group automata
    take the orbit fast path; their components have no cross edges, and
    the root-first flood numbering coincides with emission order there.
    """
    if dfa.is_complete and dfa.is_group:
        return _group_condensation(dfa)
    n, b = dfa.state_count, dfa.base
    trans = dfa.transitions

    # One-array scc search (Pearce): rindex[w] is 0 while unvisited, a
    # visit index in [1, n] while active, and n + c once assigned, where
    # the component counter c runs from n - 1 downward.  Assigned values
    # always exceed active ones, so the single comparison rindex[w] < rv
    # covers back edges and ignores finished components; one random memory
    # touch per edge is what keeps this linear in wall time at a million
    # states.  The lowlink of the current vertex lives in the local rv and
    # is written back only when the vertex is suspended or finished, so a
    # cross edge may observe the plain visit index of an active target;
    # that is the classical index-not-lowlink comparison and stays sound.
    rindex = array("i", (0,)) * n
    stack = array("i", (0,)) * n
    sp = 0
    call = array("i", (0,)) * n
    pos = array("i", (0,)) * n
    low = array("i", (0,)) * n
    was_root = bytearray(n)
    scc_members: list[tuple[int, ...]] = []
    next_index = 1
    c = n - 1

    for start in range(n):
        if rindex[start]:
            continue
        v = start
        row = v * b
        i = 0
        root = True
        depth = 0
        rindex[v] = rv = next_index
        next_index += 1
        while True:
            if i < b:
                w = trans[row + i]
                i += 1
                if w == MISSING:
                    continue
                rw = rindex[w]
                if rw == 0:
                    call[depth] = v
                    pos[depth] = i
                    low[depth] = rv
                    was_root[depth] = root
                    depth += 1
                    v = w
                    row = v * b
                    i = 0
                    root = True
                    rindex[v] = rv = next_index
                    next_index += 1
                elif rw < rv:
                    rv = rw
                    root = False
            else:
                if root:
                    next_index -= 1
                    members = [v]
                    while sp and rindex[stack[sp - 1]] >= rv:
                        sp -= 1
                        w = stack[sp]
                        members.append(w)
                        rindex[w] = n + c
                        next_index -= 1
                    rindex[v] = n + c
                    c -= 1
                    scc_members.append(tuple(members))
                else:
                    # the pop loop above compares stacked lowlinks, so the
                    # deferred write-back must happen before the push
                    rindex[v] = rv
                    stack[sp] = v
                    sp += 1
                child_r = rv
                if depth == 0:
                    break
                depth -= 1
                v = call[depth]
                i = pos[depth]
                rv = low[depth]
                root = was_root[depth]
                row = v * b
                if child_r < rv:
                    rv = child_r
                    root = False

    # assigned value n + c maps to emission-order id (2n - 1) - (n + c)
    scc_of = tuple(map((2 * n - 1).__sub__, rindex))

    k = len(scc_members)
    if k == 1 and dfa.is_complete:
        # every transition is internal and base >= 2 guarantees an internal
        # positive-digit one, so the single scc is always of the first kind
        types = [SccType.TYPE_ONE]
        desc: list[set[int]] = [set()]
    else:
        has_zero = bytearray(k)
        has_positive = bytearray(k)
        desc = [set() for _ in range(k)]
        for s in range(n):
            c = scc_of[s]
            row = s * b
            for a in range(b):
                t = trans[row + a]
                if t == MISSING:
                    continue
                c2 = scc_of[t]
                if c2 == c:
                    if a == 0:
                        has_zero[c] = 1
                    else:
                        has_positive[c] = 1
                else:
                    desc[c].add(c2)

        types = []
        for c in range(k):
            if has_positive[c]:
                types.append(SccType.TYPE_ONE)
            elif has_zero[c]:
                types.append(SccType.TYPE_TWO)
            else:
                types.append(SccType.TRIVIAL)

    return Condensation(
        scc_of=scc_of,
        scc_members=tuple(scc_members),
        scc_type=tuple(types),
        descendants=tuple(frozenset(d) for d in desc),
        topological_order=tuple(range(k - 1, -1, -1)),
    )


def parse_dfa(text: str) -> Dfa:
    """Parse the line-oriented DFA text format.

    Directives: ``base b``, ``states n``, ``initial q``, ``final q...``
    (at most once, possibly empty), ``trans q digit q'`` (no duplicates for
    one (q, digit)).  '#' starts a comment; base and states must come before
    the other directives.
    """
    base: int | None = None
    states: int | None = None
    initial: int | None = None
    finals: list[int] | None = None
    table: array | None = None

    def ints(parts: list[str], lineno: int) -> list[int]:
        out = []
        for p in parts:
            try:
                out.append(int(p))
            except ValueError:
                raise FormatError(f"expected an integer, got {p!r}", lineno) from None
        return out

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, *rest = line.split()
        if kw == "base":
            if base is not None:
                raise FormatError("duplicate base directive", lineno)
            if len(rest) != 1:
                _format_arity(kw, 1, lineno)
            (base,) = ints(rest, lineno)
            if base < 2:
                raise FormatError(f"base {base} < 2", lineno)
            continue
        if kw == "states":
            if states is not None:
                raise FormatError("duplicate states directive", lineno)
            if len(rest) != 1:
                _format_arity(kw, 1, lineno)
            (states,) = ints(rest, lineno)
            if states < 1:
                raise FormatError("states must be >= 1", lineno)
            continue
        if base is None or states is None:
            raise FormatError("base and states must come first", lineno)
        if table is None:
            table = array("i", (MISSING,)) * (states * base)
        if kw == "initial":
            if initial is not None:
                raise FormatError("duplicate initial directive", lineno)
            if len(rest) != 1:
                _format_arity(kw, 1, lineno)
            (initial,) = ints(rest, lineno)
            if not 0 <= initial < states:
                raise FormatError(f"initial state {initial} out of range", lineno)
        elif kw == "final":
            if finals is not None:
                raise FormatError("duplicate final directive", lineno)
            finals = ints(rest, lineno)
            for q in finals:
                if not 0 <= q < states:
                    raise FormatError(f"final state {q} out of range", lineno)
        elif kw == "trans":
            if len(rest) != 3:
                _format_arity(kw, 3, lineno)
            q, a, q2 = ints(rest, lineno)
            if not 0 <= a < base:
                raise FormatError(f"digit {a} out of range (base {base})", lineno)
            if not 0 <= q < states or not 0 <= q2 < states:
                raise FormatError(f"state id out of range in trans {q} {a} {q2}", lineno)
            i = q * base + a
            if table[i] != MISSING:
                raise FormatError(f"duplicate transition for state {q} digit {a}", lineno)
            table[i] = q2
        else:
            raise FormatError(f"unknown directive {kw!r}", lineno)

    if base is None or states is None:
        raise FormatError("missing base or states directive")
    if initial is None:
        raise FormatError("missing initial directive")
    # an initial directive was read, so the table exists
    return Dfa(base, states, initial, table, frozenset(finals or ()))


def _format_arity(kw: str, want: int, lineno: int):
    raise FormatError(f"directive {kw!r} takes exactly {want} argument(s)", lineno)


def write_dfa(dfa: Dfa) -> str:
    """Serialize to the text format parse_dfa reads."""
    lines = [
        f"base {dfa.base}",
        f"states {dfa.state_count}",
        f"initial {dfa.initial}",
    ]
    if dfa.finals:
        lines.append("final " + " ".join(str(q) for q in sorted(dfa.finals)))
    for q, a, q2 in dfa.transition_items():
        lines.append(f"trans {q} {a} {q2}")
    return "\n".join(lines) + "\n"
