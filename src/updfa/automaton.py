"""Deterministic finite automata over digit alphabets {0, ..., base-1}.

States are dense integers in [0, state_count).  The transition table is one
flat ``array("i")`` indexed by ``state * base + digit``; the value -1 marks a
missing transition (partial automaton).  A Dfa converts and validates its
table once, at construction, and the table is never mutated afterwards, so
every traversal reads the same dense 4-byte buffer.  Flat arrays keep every
operation here linear in the table size, which the million-state benchmark
relies on, except `minimize`: partition refinement costs O(bn log n), the
bound of the whole decision.

Words are read least significant digit first, so the digit-0 successor of a
state plays a special role throughout (appending 0 does not change the value
a word denotes).
"""

from __future__ import annotations

import enum
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, count, repeat
from operator import eq, floordiv, mod
from typing import Iterable, Mapping, Sequence

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
        """Build a Dfa from a {(state, digit): state} mapping, validating ids.

        As in `parse_dfa`, a table of more than max(2**20, len(transitions) +
        len(finals)) entries is refused, with PreconditionViolated, before it
        is allocated.
        """
        finals = frozenset(finals)
        _check_table_size(state_count, base, len(transitions) + len(finals), PreconditionViolated)
        table = array("i", (MISSING,)) * (state_count * base)
        for (q, a), q2 in transitions.items():
            if not 0 <= a < base:
                raise BadDigit(f"digit {a} out of range (base {base})")
            if not 0 <= q < state_count or not 0 <= q2 < state_count:
                raise BadStateId(f"transition ({q}, {a}) -> {q2} out of range")
            table[q * base + a] = q2
        return cls(base, state_count, initial, table, finals)

    def step(self, state: int, digit: int) -> int:
        """Successor of `state` by `digit`, or -1 if undefined."""
        if not 0 <= digit < self.base:
            raise BadDigit(f"digit {digit} out of range (base {self.base})")
        if not 0 <= state < self.state_count:
            raise BadStateId(f"state {state} out of range")
        return self.transitions[state * self.base + digit]

    @cached_property
    def is_complete(self) -> bool:
        return MISSING not in self.transitions

    @cached_property
    def is_zero_stable(self) -> bool:
        """True iff every state and its 0-successor agree on finality, a
        missing 0-transition counting as agreeing (so closed sets inherit it):
        Dfa(2, 1, 0, [-1, 0], frozenset({0})) is zero-stable, yet fails UP0 once completed."""
        flags = self._final_bytes
        zcol = self.columns[0]
        if self.is_complete:
            # finality vector of the 0-successors, gathered at C speed
            return bytes(map(flags.__getitem__, zcol)) == flags
        return all(t == MISSING or flags[s] == flags[t] for s, t in enumerate(zcol))

    @cached_property
    def is_group(self) -> bool:
        """True iff every digit acts as a permutation of the state set."""
        if not self.is_complete:
            raise PreconditionViolated("is_group_automaton requires a complete automaton")
        return all(len(set(col)) == self.state_count for col in self.columns)

    @cached_property
    def columns(self) -> tuple[array, ...]:
        """The successor column of every digit: columns[a][s] is s.a.

        Packing a column densely halves the randomly touched footprint of
        every walk over it compared to striding through the table, and
        caching them lets a test of a few states read them in O(1).

        The row table stays too: on bench_automaton(1000003, 2), two runs
        each, Tarjan took 2.64-3.20 s on columns against 2.42-2.63 s on rows,
        BFS renumbering 2.35-2.48 s against 2.06-2.19 s, and check_conditions
        1.16/1.69 s on strided memoryview views against 1.03/1.50 s on these
        copies, all neutral or faster at the benchmark's smaller sizes.
        """
        b = self.base
        return tuple(self.transitions[a::b] for a in range(b))

    @cached_property
    def _final_bytes(self) -> bytes:
        flags = bytearray(self.state_count)
        for q in self.finals:
            flags[q] = 1
        return bytes(flags)


class SccType(enum.Enum):
    TRIVIAL = "Trivial"
    TYPE_ONE = "TypeOne"
    TYPE_TWO = "TypeTwo"


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a Dfa with per-scc classification.

    `scc_of[s]` is the id of state s's scc, one ``array("i")`` slot per
    state, and `scc_members[c]` the states of scc c.  Ids are reverse
    topological, so every edge of the component graph goes to a smaller
    id; `successor_sccs` reads the edges of one scc.  TypeTwo sccs are
    simple circuits labelled only by the digit 0; TypeOne sccs contain an
    internal transition with a positive digit; Trivial sccs are singletons
    with no internal transition.
    """

    scc_of: array
    scc_members: tuple[tuple[int, ...], ...]
    scc_type: tuple[SccType, ...]

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
        raise PreconditionViolated(
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


def is_group_automaton(dfa: Dfa) -> bool:
    """True iff every digit acts as a permutation of the state set."""
    return dfa.is_group


def minimize(dfa: Dfa) -> Dfa:
    """The minimal complete DFA of the language of complete(dfa).

    Partition refinement in O(bn log n): bulk Moore rounds of one hash per
    state while they grow the block count by half, then a Hopcroft tail
    (see `_moore`).  Blocks are named by their least state, so the
    renumbering reads block c through state c.  The result keeps its
    completion sink when one is needed, has all states reachable, and is
    numbered in BFS order from the initial state.
    """
    dfa = complete(dfa)
    b = dfa.base
    cls = _moore(dfa.columns, dfa._final_bytes)
    flat, reps = _bfs(dfa.transitions, b, dfa.initial, cls)
    finals = compress(range(len(reps)), map(dfa._final_bytes.__getitem__, reps))
    return Dfa(b, len(reps), 0, flat, frozenset(finals))


def _bfs(
    trans: array, b: int, start: int, cls: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The table of the quotient by `cls`, numbered in BFS order from the
    block of `start`, and the block behind each new state.

    `cls[s]` names state s's block by a state of that block, the block's
    successors being read through that state; blocks not reachable from
    `start` are never emitted.  With cls = range(n) this is a canonical
    numbering of the reachable states themselves.
    """
    new_of = [MISSING] * len(cls)
    reps = [cls[start]]
    new_of[reps[0]] = 0
    flat = []
    for c in reps:
        for t in trans[c * b : c * b + b]:
            blk = cls[t]
            i = new_of[blk]
            if i == MISSING:
                i = new_of[blk] = len(reps)
                reps.append(blk)
            flat.append(i)
    return flat, reps


def _least_names(keys: Iterable) -> tuple[list[int], int]:
    """Each position named by the first, least, position with an equal key,
    and the number of distinct keys: one hash per key, no second lookup."""
    ids: dict = {}
    return list(map(ids.setdefault, keys, count())), len(ids)


def _moore(cols: Sequence[array], flags: bytes) -> list[int]:
    """Block of each state in the coarsest partition that is finer than
    `flags` and stable under every column, named by its least state.

    A Moore round refines the blocks by the blocks of the successors: each
    state's signature is made and hashed once, at C speed, and one per
    block is kept, so a round costs O(bn) however few blocks it splits.
    A round is productive if it grows the block count by more than half.
    The fourth unproductive round hands over to the Hopcroft tail, so a run
    one round short of its fixpoint still confirms it by Moore, and chains,
    where Moore alone needs n rounds, stay within O(bn log n): there are at
    most log1.5 n + 4 rounds.
    """
    n = len(flags)
    cls, k = _least_names(flags)
    idle = 0
    while k < n:  # singletons are stable
        cls, k2 = _least_names(zip(cls, *[map(cls.__getitem__, col) for col in cols]))
        if k2 == k:
            break  # the same partition, so the same names
        if 2 * k2 <= 3 * k:
            idle += 1
            if idle == 4:
                return _least_names(_hopcroft(cols, cls))[0]
        k = k2
    return cls


def _hopcroft(cols: Sequence[array], cls: Sequence[int]) -> list[int]:
    """The coarsest refinement of `cls` stable under every column, as
    dense block ids.

    `cls` may name its blocks by any ints; they are numbered densely on
    entry.  The worklist starts with every block but the largest: a
    partition stable with respect to all blocks but one is stable with
    respect to their union's complement, the last.  Blocks are ranges
    [first, end) of one element array with a position index; a marked
    predecessor is swapped to the front of its block, below `mid`, so both
    halves of a split stay contiguous.  The new block is always the smaller
    half and always joins the worklist (if its parent was queued both must
    be, otherwise the smaller suffices), which is the O(bn log n) bound.
    Predecessors per digit are CSR arrays: states sorted by target, plus
    offsets.
    """
    n = len(cls)
    dense = dict(zip(dict.fromkeys(cls), count()))
    cls = list(map(dense.__getitem__, cls))
    elems = sorted(range(n), key=cls.__getitem__)
    loc = [0] * n
    for i, s in enumerate(elems):
        loc[s] = i
    size = Counter(cls)
    first = list(accumulate(map(size.__getitem__, range(len(size) - 1)), initial=0))
    end = first[1:] + [n]
    mid = first[:]
    work = list(range(len(first)))
    work.remove(max(work, key=size.__getitem__))

    preds = []
    for col in cols:
        into = Counter(col)
        offsets = array("i", accumulate(map(into.get, range(n), repeat(0)), initial=0))
        preds.append((array("i", sorted(range(n), key=col.__getitem__)), offsets, offsets[1:]))

    while work:
        w = work.pop()
        splitter = elems[first[w] : end[w]]
        for by_target, start, stop in preds:
            touched = []
            for q in splitter:
                # a state has one successor per digit, so it is marked once
                for s in by_target[start[q] : stop[q]]:
                    blk = cls[s]
                    m = mid[blk]
                    if m == first[blk]:
                        touched.append(blk)
                    p = loc[s]
                    t = elems[m]
                    elems[p] = t
                    loc[t] = p
                    elems[m] = s
                    loc[s] = m
                    mid[blk] = m + 1
            for blk in touched:
                lo, m, hi = first[blk], mid[blk], end[blk]
                mid[blk] = lo
                if m == hi:
                    continue
                if m - lo <= hi - m:
                    first[blk] = mid[blk] = hi = m
                else:
                    end[blk] = lo = m
                new = len(first)
                first.append(lo)
                end.append(hi)
                mid.append(lo)
                for s in elems[lo:hi]:
                    cls[s] = new
                work.append(new)
    return cls


def isomorphic(a: Dfa, b: Dfa) -> bool:
    """True iff some state bijection maps initial to initial, finals onto
    finals, and commutes with every transition; for complete DFAs with
    every state reachable, minimal or not.

    Each side is renumbered in BFS order from its initial state, as
    `minimize` numbers its result, and the two tables and finality
    vectors are compared.  O(base * n).
    """
    if a.base != b.base:
        raise PreconditionViolated("isomorphic requires equal bases")
    if not a.is_complete or not b.is_complete:
        raise PreconditionViolated("isomorphic requires complete automata")
    forms = []
    for d in (a, b):
        flat, reps = _bfs(d.transitions, d.base, d.initial, range(d.state_count))
        if len(reps) != d.state_count:
            raise PreconditionViolated("isomorphic requires all states reachable")
        forms.append((flat, bytes(map(d._final_bytes.__getitem__, reps))))
    return forms[0] == forms[1]


def condensation(dfa: Dfa) -> Condensation:
    """SCC partition (Pearce's Tarjan) plus digit-type classification, O(base * n).

    Sccs are numbered in emission order, which is reverse topological.
    Each digit's column is then read once, for the sccs with an internal
    transition by that digit, which fixes every scc's kind.  The edges
    between sccs are not listed: `successor_sccs` reads them for one scc
    on demand.  One algorithm serves every automaton; the decision never
    needs it on a minimal group automaton, which is a single scc (see
    decision._conditions).
    """
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
    scc_of = array("i", map((2 * n - 1).__sub__, rindex))

    # inside[c] has bit 1 if c has an internal 0-transition and bit 2 if
    # it has one by a positive digit: each column keeps, at C speed, the
    # sccs whose state and successor agree; ext ends in a -1 sentinel, so
    # a missing target matches no scc and a partial automaton classifies too
    inside = bytearray(len(scc_members))
    ext = scc_of + array("i", (MISSING,))
    for a, col in enumerate(dfa.columns):
        bit = 2 if a else 1
        for c in set(compress(scc_of, map(eq, scc_of, map(ext.__getitem__, col)))):
            inside[c] |= bit
    kinds = (SccType.TRIVIAL, SccType.TYPE_TWO, SccType.TYPE_ONE, SccType.TYPE_ONE)

    return Condensation(scc_of, tuple(scc_members), tuple(map(kinds.__getitem__, inside)))


def successor_sccs(dfa: Dfa, cond: Condensation, c: int) -> set[int]:
    """The immediate successor sccs of scc `c` in the component graph, in
    O(base * |c|): only the members' rows are read, and nothing of the
    automaton's size is allocated, so one call per scc stays linear."""
    b, trans, scc_of = dfa.base, dfa.transitions, cond.scc_of
    rows = (trans[s * b : s * b + b] for s in cond.scc_members[c])
    return {scc_of[t] for row in rows for t in row if t != MISSING} - {c}


def parse_dfa(text: str) -> Dfa:
    """Parse the line-oriented DFA text format.

    Directives: ``base b``, ``states n``, ``initial q``, ``final q...``
    (at most once, possibly empty), ``trans q digit q'`` (no duplicates for
    one (q, digit)).  '#' starts a comment; base and states must come before
    the other directives, states may not exceed the length of the text
    (states that never appear in it are unreachable padding), and the
    table, states x base entries, may not exceed max(2**20, that length).

    The text is read in chunks cut at line ends: the header up to the
    first ``trans`` line, then about `_CHUNK` characters at a time.  A
    chunk of plain ``trans`` lines in table order (ASCII, four tokens, no
    comment, ``\n`` or ``\r\n`` breaks), as `write_dfa` emits them, is
    converted in bulk; any other chunk is read line by line, so every
    FormatError comes from the line reader, with its line number.
    """
    got, lineno = _Parsed(), 0
    pos, end = 0, text.find("\ntrans ") + 1 or len(text)
    while pos < len(text):
        chunk = text[pos:end]
        lineno = _read_trans_block(chunk, got, lineno) or _read_lines(
            chunk, len(text), got, lineno
        )
        pos, end = end, text.find("\n", end + _CHUNK) + 1 or len(text)
    return got.dfa()


@dataclass
class _Parsed:
    """The directives read so far, by either reader."""

    base: int | None = None
    states: int | None = None
    initial: int | None = None
    finals: list[int] | None = None
    table: array | None = None

    def dfa(self) -> Dfa:
        if self.base is None or self.states is None:
            raise FormatError("missing base or states directive")
        if self.initial is None:
            raise FormatError("missing initial directive")
        # an initial directive was read, so the table exists
        finals = frozenset(self.finals or ())
        return Dfa(self.base, self.states, self.initial, self.table, finals)


def _check_table_size(states: int, base: int, size: int, error: type, *where) -> None:
    """Raise `error` unless a table of states x base entries fits an input
    of `size` entries or characters: any input may declare 2**20 entries
    (4 MB), and a larger one only as many as it has."""
    limit = max(1 << 20, size)
    if states * base > limit:
        entries = f"states {states} x base {base} = {states * base} table entries"
        raise error(f"{entries} exceed the limit of {limit}", *where)


def _ints(parts: list[str], lineno: int) -> list[int]:
    out: list[int] = []
    try:
        out.extend(map(int, parts))
    except ValueError:
        # extend keeps what it converted, so the offender comes next
        bad = parts[len(out)]
        raise FormatError(f"expected an integer, got {bad!r}", lineno) from None
    return out


def _format_arity(kw: str, want: int, lineno: int):
    raise FormatError(f"directive {kw!r} takes exactly {want} argument(s)", lineno)


def _read_lines(text: str, size: int, got: _Parsed, lineno: int) -> int:
    """Read `text` line by line into `got`, numbering from lineno + 1, and
    return the last line's number; `size` is the length of the whole input."""
    for lineno, raw in enumerate(text.splitlines(), start=lineno + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, *rest = line.split()
        if kw == "base" or kw == "states":
            if getattr(got, kw) is not None:
                raise FormatError(f"duplicate {kw} directive", lineno)
            if len(rest) != 1:
                _format_arity(kw, 1, lineno)
            (v,) = _ints(rest, lineno)
            if kw == "base" and v < 2:
                raise FormatError(f"base {v} < 2", lineno)
            if kw == "states" and v < 1:
                raise FormatError("states must be >= 1", lineno)
            if kw == "states" and v > size:
                raise FormatError(
                    f"states {v} exceeds the input length ({size} characters)", lineno
                )
            setattr(got, kw, v)
            # a complete automaton writes a trans line of at least 12
            # characters per entry: only a partial automaton is refused here
            _check_table_size(got.states or 0, got.base or 0, size, FormatError, lineno)
            continue
        base, states = got.base, got.states
        if base is None or states is None:
            raise FormatError("base and states must come first", lineno)
        if got.table is None:
            got.table = array("i", (MISSING,)) * (states * base)
        if kw == "initial":
            if got.initial is not None:
                raise FormatError("duplicate initial directive", lineno)
            if len(rest) != 1:
                _format_arity(kw, 1, lineno)
            (got.initial,) = _ints(rest, lineno)
            if not 0 <= got.initial < states:
                raise FormatError(f"initial state {got.initial} out of range", lineno)
        elif kw == "final":
            if got.finals is not None:
                raise FormatError("duplicate final directive", lineno)
            got.finals = finals = _ints(rest, lineno)
            if finals and (min(finals) < 0 or max(finals) >= states):
                q = next(q for q in finals if not 0 <= q < states)
                raise FormatError(f"final state {q} out of range", lineno)
        elif kw == "trans":
            if len(rest) != 3:
                _format_arity(kw, 3, lineno)
            q, a, q2 = _ints(rest, lineno)
            if not 0 <= a < base:
                raise FormatError(f"digit {a} out of range (base {base})", lineno)
            if not 0 <= q < states or not 0 <= q2 < states:
                raise FormatError(f"state id out of range in trans {q} {a} {q2}", lineno)
            i = q * base + a
            if got.table[i] != MISSING:
                raise FormatError(f"duplicate transition for state {q} digit {a}", lineno)
            got.table[i] = q2
        else:
            raise FormatError(f"unknown directive {kw!r}", lineno)
    return lineno


# characters per bulk chunk; its tokens take about 12 bytes per character
_CHUNK = 1 << 18


def _read_trans_block(chunk: str, got: _Parsed, lineno: int) -> int:
    """Store the trans lines of `chunk` into `got.table` in bulk.

    Returns the number of the chunk's last line, or 0, with nothing
    written, unless the chunk is made of plain ``trans q a q'`` lines in
    table order (the order `write_dfa` emits) whose entries are all valid
    and still missing; the caller then reads the chunk line by line.
    """
    b, n, table = got.base, got.states, got.table
    # each \n or \r\n ends a line and each line starts with "trans "; no
    # other line break, and no minus sign, so every integer is >= 0
    if table is None or not chunk.isascii() or any(c in chunk for c in "-\v\f\x1c\x1d\x1e"):
        return 0
    if "\r" in chunk and chunk.count("\r") != chunk.count("\r\n"):
        return 0
    lines = chunk.count("\n") + (not chunk.endswith("\n"))
    if lines != chunk.startswith("trans ") + chunk.count("\ntrans "):
        return 0
    # "trans" is no integer and starts every line, so once the other three
    # columns convert, 4k tokens on k lines make every line four tokens
    # long, with no room for a comment
    toks = chunk.split()
    if len(toks) != 4 * lines:
        return 0
    try:
        first = int(toks[1]) * b + int(toks[2])
        # array() fills faster from a list than from an iterator
        targets = array("i", list(map(int, toks[3::4])))
    except (ValueError, OverflowError):
        return 0
    if first + lines > len(table) or max(targets) >= n:
        return 0
    # in table order the (q, a) columns hold the numerals of the indices
    # first, first + 1, ...: compare them as strings, then store the
    # targets as one slice, into entries still missing
    if (toks[1::4], toks[2::4]) != _numerals(first, lines, b):
        return 0
    if table[first : first + lines] != array("i", (MISSING,)) * lines:
        return 0
    table[first : first + lines] = targets
    return lineno + lines


def _numerals(first: int, count: int, b: int) -> tuple[list[str], list[str]]:
    """The state and digit numerals of table indices first .. first+count-1."""
    if b > count:
        # fewer indices than a row holds: name each one
        idx = range(first, first + count)
        states = map(floordiv, idx, repeat(b))
        return list(map(str, states)), list(map(str, map(mod, idx, repeat(b))))
    # whole rows: one numeral per state and per digit, copied b and
    # (q1 - q0) times, in at most count + 2b slots
    q0, a0 = divmod(first, b)
    q1 = (first + count - 1) // b + 1
    names = [""] * (b * (q1 - q0))
    numerals = list(map(str, range(q0, q1)))
    for a in range(b):
        names[a::b] = numerals
    digits = list(map(str, range(b))) * (q1 - q0)
    return names[a0 : a0 + count], digits[a0 : a0 + count]


def write_dfa(dfa: Dfa) -> str:
    """Serialize to the text format parse_dfa reads."""
    lines = [
        f"base {dfa.base}",
        f"states {dfa.state_count}",
        f"initial {dfa.initial}",
    ]
    if dfa.finals:
        lines.append("final " + " ".join(str(q) for q in sorted(dfa.finals)))
    b = dfa.base
    for i, t in enumerate(dfa.transitions):
        if t != MISSING:
            lines.append(f"trans {i // b} {i % b} {t}")
    text = "\n".join(lines) + "\n"
    # parse_dfa refuses text shorter than `states`, or than the table once
    # it has over 2**20 entries; only a sparse partial automaton can be
    # that short (a complete one writes 12 or more characters per entry)
    entries = dfa.state_count * b
    short = max(dfa.state_count, entries if entries > 1 << 20 else 0) - len(text)
    if short > 0:
        text = "#" * max(short - 1, 1) + "\n" + text
    return text
