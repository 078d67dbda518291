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
from itertools import accumulate, compress, repeat
from operator import floordiv, mod
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
    component graph; scc ids are reverse topological, so every edge of the
    component graph goes to a smaller id.  TypeTwo sccs are simple circuits
    labelled only by the digit 0; TypeOne sccs contain an internal transition
    with a positive digit; Trivial sccs are singletons with no internal
    transition.
    """

    scc_of: tuple[int, ...]
    scc_members: tuple[tuple[int, ...], ...]
    scc_type: tuple[SccType, ...]
    descendants: tuple[frozenset[int], ...]

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


def minimize(dfa: Dfa) -> Dfa:
    """The minimal complete DFA of the language of complete(dfa).

    Partition refinement in O(bn log n): bulk Moore rounds while they pay,
    then a Hopcroft tail (see `_moore`).  The result keeps its completion
    sink when one is needed, has all states reachable, and is numbered in
    BFS order from the initial state.
    """
    dfa = complete(dfa)
    n, b = dfa.state_count, dfa.base
    trans = dfa.transitions
    cls = _moore([trans[a::b] for a in range(b)], dfa._final_bytes)
    # BFS from the initial block, reading each block through the first of
    # its states the search meets; unreachable blocks are never emitted
    new_of = [MISSING] * n
    new_of[cls[dfa.initial]] = 0
    reps = [dfa.initial]
    flat = []
    for s in reps:
        for t in trans[s * b : s * b + b]:
            blk = cls[t]
            i = new_of[blk]
            if i == MISSING:
                i = new_of[blk] = len(reps)
                reps.append(t)
            flat.append(i)
    finals = compress(range(len(reps)), map(dfa._final_bytes.__getitem__, reps))
    return Dfa(b, len(reps), 0, flat, frozenset(finals))


def _blocks(sig: Sequence) -> tuple[list[int], int]:
    """Dense block ids by first occurrence of each signature, and their count."""
    ids = dict(zip(dict.fromkeys(sig), range(len(sig))))
    return list(map(ids.__getitem__, sig)), len(ids)


def _moore(cols: list[array], flags: bytes) -> list[int]:
    """Block of each state in the coarsest partition that is finer than
    `flags` and stable under every column.

    A Moore round refines the blocks by the blocks of the successors: one
    signature tuple per state, built and numbered at C speed, so a round
    costs O(bn) however few blocks it splits.  A round is productive if it
    doubles the block count or adds n/16 blocks or more.  After the third
    unproductive round the Hopcroft tail finishes, so there are at most
    log2 n + 19 rounds, and chains, where Moore alone needs n rounds, stay
    within O(bn log n).
    """
    n = len(flags)
    cls, k = _blocks(flags)
    idle = 0
    while k < n:  # singletons are stable
        nxt, k2 = _blocks(list(zip(cls, *[map(cls.__getitem__, col) for col in cols])))
        if k2 == k:
            break
        if k2 < 2 * k and (k2 - k) * 16 < n:
            idle += 1
        prev, cls, k = cls, nxt, k2
        if idle == 3:
            return _hopcroft(cols, cls, prev)
    return cls


def _hopcroft(cols: list[array], cls: list[int], prev: list[int]) -> list[int]:
    """Refine `cls` (dense block ids) in place to the Moore fixpoint.

    `cls` must refine `prev` and be stable with respect to every block of
    `prev`, as Moore round r is with `prev` from round r-1 (and the
    finality split with `prev` one block), so the worklist starts with
    every part of each block of `prev` but its largest.  Blocks are ranges
    [first, end) of one element array with a position index; a marked
    predecessor is swapped to the front of its block, below `mid`, so both
    halves of a split stay contiguous.  The new block is always the smaller
    half and always joins the worklist (if its parent was queued both must
    be, otherwise the smaller suffices), which is the O(bn log n) bound.
    Predecessors per digit are CSR arrays: states sorted by target, plus
    offsets.
    """
    n = len(cls)
    elems = sorted(range(n), key=cls.__getitem__)
    loc = [0] * n
    for i, s in enumerate(elems):
        loc[s] = i
    size = Counter(cls)
    first = list(accumulate(map(size.__getitem__, range(len(size) - 1)), initial=0))
    end = first[1:] + [n]
    mid = first[:]
    parent = list(map(prev.__getitem__, map(elems.__getitem__, first)))
    order = sorted(range(len(first)), key=lambda blk: (parent[blk], size[blk]))
    work = [x for x, y in zip(order, order[1:]) if parent[x] == parent[y]]

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


def condensation(dfa: Dfa) -> Condensation:
    """Tarjan SCC partition plus digit-type classification, O(base * n).

    Sccs are numbered in emission order, which is reverse topological.
    One algorithm serves every automaton; the decision never needs it on a
    minimal group automaton, which is a single scc (see
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
    scc_of = tuple(map((2 * n - 1).__sub__, rindex))

    k = len(scc_members)
    has_zero = bytearray(k)
    has_positive = bytearray(k)
    desc: list[set[int]] = [set() for _ in range(k)]
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
    )


def parse_dfa(text: str) -> Dfa:
    """Parse the line-oriented DFA text format.

    Directives: ``base b``, ``states n``, ``initial q``, ``final q...``
    (at most once, possibly empty), ``trans q digit q'`` (no duplicates for
    one (q, digit)).  '#' starts a comment; base and states must come before
    the other directives, and states may not exceed the length of the text
    (states that never appear in it are unreachable padding).

    When every line from the first ``trans`` line on is a plain ``trans``
    line (ASCII, four tokens, no comment, only ``\\n`` breaks) and the
    lines come in table order, as `write_dfa` emits them, that block is
    converted in bulk, a chunk at a time.  Any other text, and any block
    in which a check fails, is read line by line, so every FormatError
    comes from the line reader, with its line number.
    """
    start = text.find("\ntrans ") + 1
    if start:
        head = _read_lines(text[:start], len(text))
        if head.initial is not None and _read_trans_block(text, start, head):
            return head.dfa()
    return _read_lines(text, len(text)).dfa()


@dataclass
class _Parsed:
    """The directives the line reader has met so far."""

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


def _read_lines(text: str, size: int) -> _Parsed:
    """Read `text` line by line; `size` is the length of the whole input."""
    got = _Parsed()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kw, *rest = line.split()
        if kw == "base":
            if got.base is not None:
                raise FormatError("duplicate base directive", lineno)
            if len(rest) != 1:
                _format_arity(kw, 1, lineno)
            (got.base,) = _ints(rest, lineno)
            if got.base < 2:
                raise FormatError(f"base {got.base} < 2", lineno)
            continue
        if kw == "states":
            if got.states is not None:
                raise FormatError("duplicate states directive", lineno)
            if len(rest) != 1:
                _format_arity(kw, 1, lineno)
            (got.states,) = _ints(rest, lineno)
            if got.states < 1:
                raise FormatError("states must be >= 1", lineno)
            if got.states > size:
                raise FormatError(
                    f"states {got.states} exceeds the input length ({size} characters)",
                    lineno,
                )
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
    return got


# characters per bulk chunk; its tokens take about 12 bytes per character
_CHUNK = 1 << 18


def _read_trans_block(text: str, start: int, got: _Parsed) -> bool:
    """Store the trans lines of text[start:] into `got.table` in bulk.

    Returns False, with the table partly written, as soon as the block is
    not made of plain ``trans q a q'`` lines in table order (the order
    `write_dfa` emits) or a line in it is wrong; the caller then reads the
    whole text line by line.
    """
    # each \n ends a line and each line starts with "trans "; no other line
    # break, and no minus sign, so every integer is >= 0
    if not text.isascii() or any(text.find(c, start) >= 0 for c in "-\r\v\f\x1c\x1d\x1e"):
        return False
    lines_left = text.count("\ntrans ", start - 1)
    if lines_left != text.count("\n", start - 1) - text.endswith("\n"):
        return False
    b, n, table = got.base, got.states, got.table
    pos = start
    while pos < len(text):
        end = text.find("\n", pos + _CHUNK) + 1 or len(text)
        toks = text[pos:end].split()
        pos = end
        # "trans" is no integer and starts every line, so once the other
        # three columns convert, a chunk of 4k tokens has at most k lines;
        # the block having as many lines as the chunks have k's then makes
        # every line four tokens long, with no room for a comment
        lines, rest = divmod(len(toks), 4)
        lines_left -= lines
        if rest:
            return False
        try:
            first = int(toks[1]) * b + int(toks[2])
            # array() fills faster from a list than from an iterator
            targets = array("i", list(map(int, toks[3::4])))
        except (ValueError, OverflowError):
            return False
        if first + lines > len(table) or max(targets) >= n:
            return False
        # in table order the (q, a) columns hold the numerals of the indices
        # first, first + 1, ...: compare them as strings, then store the
        # targets as one slice, into entries still missing
        if (toks[1::4], toks[2::4]) != _numerals(first, lines, b):
            return False
        if table[first : first + lines] != array("i", (MISSING,)) * lines:
            return False
        table[first : first + lines] = targets
    return lines_left == 0


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
    for q, a, q2 in dfa.transition_items():
        lines.append(f"trans {q} {a} {q2}")
    return "\n".join(lines) + "\n"
