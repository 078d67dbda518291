"""Pascal automata, the g-column, and the quotient test."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest

from updfa import (
    Dfa,
    PascalParams,
    QuotientFailure,
    UpSet,
    accepts,
    build_minimal_automaton,
    build_pascal,
    build_quotient,
    format_params,
    is_group_automaton,
    is_pascal_quotient,
    isomorphic,
    minimize,
    value,
)
from updfa.errors import NotCoprime, PreconditionViolated, StateLimitExceeded
from updfa.numeration import DEFAULT_STATE_LIMIT
from updfa.pascal import _multiplicative_order

from test_automaton import EVEN_ONES, MISSING, powers_of_two_dfa


# ---------------------------------------------------------------- order


def test_multiplicative_order_goldens():
    assert _multiplicative_order(2, 7) == 3
    assert _multiplicative_order(2, 5) == 4
    assert _multiplicative_order(3, 5) == 4
    assert _multiplicative_order(2, 1) == 1
    assert _multiplicative_order(10, 9) == 1


def test_multiplicative_order_definition():
    import math

    for p in range(1, 1200):
        for base in (2, 3, 4, 5, 10):
            if math.gcd(base, p) != 1:
                continue
            psi = _multiplicative_order(base, p)
            assert pow(base, psi, p) == 1 % p
            # the walk the order replaces: the first t with base^t = 1
            acc, t = base % p, 1
            while acc != 1 % p:
                acc, t = acc * base % p, t + 1
            assert psi == t, (base, p)


def test_multiplicative_order_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        _multiplicative_order(2, 4)
    with pytest.raises(NotCoprime):
        _multiplicative_order(2, 0)


# ---------------------------------------------------------------- build_pascal


def test_pascal_state_counts():
    assert build_pascal(3, [2], 2).state_count == 6
    assert build_pascal(7, [6], 2).state_count == 21
    assert build_pascal(5, [0, 3], 3).state_count == 20


def test_pascal_rejects_bad_inputs():
    with pytest.raises(NotCoprime):
        build_pascal(4, [0], 2)
    with pytest.raises(PreconditionViolated):
        build_pascal(5, [5], 2)
    # p*psi states are bounded, p alone before psi is computed, and after
    # the coprimality and remainder checks
    big = 10**18 + 9
    for p in (100003, big):
        with pytest.raises(StateLimitExceeded):
            build_pascal(p, [0], 2)
    with pytest.raises(NotCoprime):
        build_pascal(2 * big, [0], 2)
    with pytest.raises(PreconditionViolated):
        build_pascal(big, [big], 2)


def test_pascal_run_characterization():
    # after any word the state is (value mod p, length mod psi)
    p, base = 5, 2
    psi = _multiplicative_order(base, p)
    dfa = build_pascal(p, [0, 3], base)
    rng = random.Random(13)
    for _ in range(300):
        word = [rng.randrange(base) for _ in range(rng.randrange(12))]
        s = dfa.initial
        for a in word:
            s = dfa.step(s, a)
        assert s == (value(word, base) % p) * psi + len(word) % psi


def test_pascal_accepts_by_residue():
    p, rem, base = 5, {0, 3}, 2
    dfa = build_pascal(p, rem, base)
    for length in range(8):
        for word in itertools.product(range(base), repeat=length):
            assert accepts(dfa, word) == (value(word, base) % p in rem)


def test_pascal_walk_realizes_group_action():
    p, base = 5, 2
    psi = _multiplicative_order(base, p)
    dfa = build_pascal(p, [0, 3], base)
    rng = random.Random(21)
    for _ in range(200):
        s, t = rng.randrange(p), rng.randrange(psi)
        word = [rng.randrange(base) for _ in range(rng.randrange(9))]
        cur = s * psi + t
        for a in word:
            cur = dfa.step(cur, a)
        # (s, t) o (h, k) = (s + h*base^t, t + k) with (h, k) = (val w, |w|)
        want_s = (s + value(word, base) * pow(base, t, p)) % p
        want_t = (t + len(word)) % psi
        assert (cur // psi, cur % psi) == (want_s, want_t)


def test_pascal_is_group_and_zero_stable():
    for p, rem, base in [(3, [2], 2), (7, [6], 2), (5, [0, 3], 3)]:
        dfa = build_pascal(p, rem, base)
        assert is_group_automaton(dfa)
        assert dfa.is_zero_stable


# ---------------------------------------------------------------- g letter


def zero_and_g(dfa):
    """Reference columns, state by state: the 0-successor and the
    g-successor of every state, g being reading 1 and then unreading 0,
    and the 0-predecessors as a dict."""
    n = dfa.state_count
    zcol = [dfa.step(s, 0) for s in range(n)]
    pred0 = {t: s for s, t in enumerate(zcol)}
    gcol = [pred0[dfa.step(s, 1)] for s in range(n)]
    return zcol, gcol, pred0


def high_digits_ok(dfa):
    """Reference for the simplification check: s.a = s.g^a.0, state by state."""
    zcol, gcol, _ = zero_and_g(dfa)
    for s in range(dfa.state_count):
        x = s
        for a in range(dfa.base):
            if dfa.step(s, a) != zcol[x]:
                return False
            x = gcol[x]
    return True


def test_add_g_letter_requires_group():
    # digit 0 permutes the states but digit 1 does not, so g is not a
    # permutation; the group test rejects before any g-column is read
    d = Dfa.from_map(2, 2, 0, {(0, 0): 1, (1, 0): 0, (0, 1): 0, (1, 1): 0}, {0, 1})
    assert not is_group_automaton(d)
    assert is_pascal_quotient(d).failure == QuotientFailure.NOT_GROUP


def test_quotient_test_on_a_closed_scc():
    # the scc is tested on the automaton's own state ids and rooted at its
    # least member, whatever the order of `members`; an open set fails
    d = build_pascal(7, [6], 2)
    whole = is_pascal_quotient(d)
    members = list(range(d.state_count))[::-1]
    check = is_pascal_quotient(d, members)
    assert check.params == whole.params
    assert check.labels == whole.labels
    assert is_pascal_quotient(d, [0, 1]).failure == QuotientFailure.NOT_CLOSED
    # members must be distinct states, at least one, checked before
    # anything is read: the repeated state's set is a valid quotient
    d = minimize(d)
    n = d.state_count
    assert is_pascal_quotient(d, list(range(n))).accepted
    for bad in ([], [n], [-1, *range(n)], list(range(n)) + [0]):
        with pytest.raises(PreconditionViolated):
            is_pascal_quotient(d, bad)


def test_quotient_test_refuses_a_partial_automaton():
    # the whole-automaton mode names itself; the members mode, here on all
    # states, counts the missing target as a transition that leaves them
    d = Dfa(2, 1, 0, [MISSING, 0], frozenset())
    with pytest.raises(PreconditionViolated) as exc:
        is_pascal_quotient(d)
    assert str(exc.value) == "is_pascal_quotient requires a complete automaton"
    assert is_pascal_quotient(d, [0]).failure == QuotientFailure.NOT_CLOSED


def sccs_below_a_root(*units: Dfa) -> Dfa:
    """A non-final root, state 0, above disjoint copies of the complete
    automata `units`: digit j reads into copy j's initial state, and the
    root's other digits are missing.  Copy j's states follow the root and
    the copies before it, in order."""
    b = units[0].base
    trans, finals, offset = [MISSING] * b, [], 1
    for j, unit in enumerate(units):
        trans[j] = offset + unit.initial
        trans += [t + offset for t in unit.transitions]
        finals += [offset + q for q in unit.finals]
        offset += unit.state_count
    return Dfa(b, offset, 0, trans, frozenset(finals))


FLIPPED = Dfa(2, 2, 0, [1, 1, 0, 0], frozenset({0}))  # a group, not zero-stable


def test_closed_scc_of_a_partial_automaton_is_tested():
    # the root's digit 1 is missing; a missing transition counts as zero-
    # stable, so the cached answer can vouch for a closed scc or not
    unit = build_pascal(3, [1], 2)
    whole = is_pascal_quotient(unit)
    d = sccs_below_a_root(unit)
    assert not d.is_complete and d.is_zero_stable
    check = is_pascal_quotient(d, range(1, d.state_count))
    assert check.params == whole.params
    assert check.labels == {x + 1: lab for x, lab in whole.labels.items()}
    d = sccs_below_a_root(FLIPPED)
    assert not d.is_complete and not d.is_zero_stable
    assert is_pascal_quotient(d, [1, 2]).failure == QuotientFailure.NOT_ZERO_STABLE


def test_zero_stability_is_checked_per_scc_when_the_automaton_fails_it():
    # two closed positive-digit sccs below a root; only the second one
    # breaks zero-stability, so only it is rejected for it
    unit = build_pascal(3, [1], 2)
    d = sccs_below_a_root(unit, FLIPPED)
    assert d.is_complete and not d.is_zero_stable
    assert is_group_automaton(FLIPPED)
    m = unit.state_count
    check = is_pascal_quotient(d, range(1, m + 1))
    assert check.params == is_pascal_quotient(unit).params
    failed = is_pascal_quotient(d, [m + 1, m + 2])
    assert failed.failure == QuotientFailure.NOT_ZERO_STABLE


def copies_below_a_chain(unit: Dfa, copies: int, length: int) -> Dfa:
    """`copies` disjoint copies of the complete automaton `unit` below a
    chain of `length` transient states, the initial state first: chain
    state i reads 0 into state i + 1, the last one into copy 0, and every
    other digit into copy i mod `copies`.  Copy j's states follow the
    chain, shifted by length + j * unit.state_count."""
    b, m = unit.base, unit.state_count
    trans = []
    for i in range(length):
        root = length + i % copies * m + unit.initial
        trans += [i + 1 if i + 1 < length else length + unit.initial] + [root] * (b - 1)
    for j in range(copies):
        trans += [t + length + j * m for t in unit.transitions]
    finals = [length + j * m + q for j in range(copies) for q in unit.finals]
    return Dfa(b, length + copies * m, 0, trans, frozenset(finals))


def test_scc_test_allocates_nothing_of_the_automaton_size():
    # a 6-state Pascal automaton below 10^5 - 6 transient states: once a
    # first call has cached the columns, testing the scc allocates O(base *
    # 6), where one column or one array over all states takes 400 KB; so
    # `updfa info`, one test per scc, stays linear in the number of sccs
    unit = build_pascal(3, [1], 2)
    n = 10**5
    dfa = copies_below_a_chain(unit, 1, n - unit.state_count)
    members = range(n - unit.state_count, n)
    first = is_pascal_quotient(dfa, members)
    tracemalloc.start()
    try:
        check = is_pascal_quotient(dfa, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check == first and check.params == is_pascal_quotient(unit).params
    assert peak < 64 * 1024, f"peak {peak} bytes"


def test_add_g_letter_on_pascal():
    # on P_{p,R} the letter g acts as (s, t) -> (s + base^t, t)
    p, base = 5, 2
    psi = _multiplicative_order(base, p)
    dfa = build_pascal(p, [0, 3], base)
    zcol, gcol, pred0 = zero_and_g(dfa)
    assert len(gcol) == dfa.state_count
    for s in range(p):
        for t in range(psi):
            sid = s * psi + t
            assert zcol[sid] == dfa.step(sid, 0)
            assert pred0[zcol[sid]] == sid
            assert gcol[sid] == ((s + pow(base, t, p)) % p) * psi + t


def test_add_g_letter_undoes_zero():
    # s.g.0 = s.1 by definition of g
    for p, rem, base in [(5, [0, 3], 2), (7, [1, 2], 3)]:
        dfa = build_pascal(p, rem, base)
        _, gcol, _ = zero_and_g(dfa)
        for s in range(dfa.state_count):
            assert dfa.step(gcol[s], 0) == dfa.step(s, 1)


def test_verify_simplification_accepts_derived_pairs():
    for p, rem, base in [(5, [0, 3], 2), (7, [6], 2), (5, [0, 3], 3), (11, [2, 5], 3)]:
        dfa = build_pascal(p, rem, base)
        assert high_digits_ok(dfa)
        assert is_pascal_quotient(dfa).accepted


def test_verify_simplification_detects_tampering():
    # swapping two entries of a digit column keeps every digit a
    # permutation, so a tampered automaton still reaches the check; the
    # verdict must agree with the state-by-state reference
    rng = random.Random(20260814)
    for p, base in [(5, 3), (7, 3), (5, 4), (7, 5)]:
        dfa = build_pascal(p, [0, p - 2], base)
        n = dfa.state_count
        caught = 0
        for _ in range(40):
            a = rng.randrange(2, base)
            x, y = rng.sample(range(n), 2)
            trans = list(dfa.transitions)
            trans[x * base + a], trans[y * base + a] = (
                trans[y * base + a],
                trans[x * base + a],
            )
            bad = Dfa(base, n, dfa.initial, trans, dfa.finals)
            assert is_group_automaton(bad)
            assert bad.is_zero_stable
            loss = is_pascal_quotient(bad).failure == QuotientFailure.SIMPLIFICATION_LOSS
            assert loss == (not high_digits_ok(bad))
            caught += loss
        assert caught > 0


def test_verify_simplification_checks_high_digits():
    # 0 is the identity and g adds 1, so digit a must add a; in each
    # automaton exactly one digit a >= 2 breaks that: base 3 with s.2 = s + 4,
    # base 5 with s.4 = s + 5
    for base, n, bad_digit, shift in [(3, 5, 2, 4), (5, 7, 4, 5)]:
        trans = {}
        for s in range(n):
            for a in range(base):
                trans[(s, a)] = (s + (shift if a == bad_digit else a)) % n
        dfa = Dfa.from_map(base, n, 0, trans, {0})
        assert is_group_automaton(dfa)
        assert not high_digits_ok(dfa)
        assert is_pascal_quotient(dfa).failure == QuotientFailure.SIMPLIFICATION_LOSS


# ---------------------------------------------------------------- analyze


def test_analyze_trivial_quotient_of_full_pascal():
    # the unreduced Pascal automaton is its own quotient with (h, k) = (0, psi)
    dfa = build_pascal(7, [6], 2)
    assert is_pascal_quotient(dfa).params == PascalParams(7, frozenset({6}), 3, 0, 3)


def test_analyze_rejects_non_coprime_circuit():
    # the g-circuit has length 2 in base 2: step 2 rejects the automaton
    # in both modes of the test
    for members in (None, [0, 1]):
        check = is_pascal_quotient(EVEN_ONES, members)
        assert check.failure is QuotientFailure.PERIOD_NOT_COPRIME


def test_analyze_rejects_missing_mixed_circuit():
    # g cycles 0 -> 2 -> 4 -> 0 (p = 3, psi = 2) but walking 0 backward from
    # the initial state stays off the circuit for both usable lengths; the
    # finals are whole 0-cycles, so the automaton is zero-stable
    zero = {0: 3, 3: 1, 1: 0, 2: 4, 4: 5, 5: 2}
    g = {0: 2, 2: 4, 4: 0, 1: 3, 3: 5, 5: 1}
    trans = {}
    for s in range(6):
        trans[(s, 0)] = zero[s]
        trans[(s, 1)] = zero[g[s]]
    d = Dfa.from_map(2, 6, 0, trans, {0, 1, 3})
    assert is_group_automaton(d)
    assert d.is_zero_stable
    assert is_pascal_quotient(d).failure == QuotientFailure.NO_MIXED_CIRCUIT


# ---------------------------------------------------------------- quotient


def test_quotient_golden_rows():
    # worked instance: p=5, R={0,3}, psi=4, (h,k)=(3,2), base 3
    params = PascalParams(5, frozenset({0, 3}), 4, 3, 2)
    q = build_quotient(params, 3)
    assert q.state_count == 10
    for s in range(5):
        assert q.step(s * 2 + 0, 0) == s * 2 + 1  # (s,0).0 = (s,1)
        assert q.step(s * 2 + 1, 0) == ((4 * s - 2) % 5) * 2  # (s,1).0 = (4s-2,0)
        assert q.step(s * 2 + 0, 1) == ((s + 1) % 5) * 2  # (s,0).g = (s+1,0)
        assert q.step(s * 2 + 1, 1) == ((s + 3) % 5) * 2 + 1  # (s,1).g = (s+3,1)
    assert q.finals == frozenset({0, 1, 6, 7})


def test_quotient_with_full_k_is_simplified_pascal():
    for p, rem, base in [(3, [2], 2), (5, [0, 3], 2), (7, [6], 2), (5, [1], 3)]:
        psi = _multiplicative_order(base, p)
        trivial = PascalParams(p, frozenset(rem), psi, 0, psi)
        pascal = build_pascal(p, rem, base)
        zcol, gcol, _ = zero_and_g(pascal)
        flat = [x for pair in zip(zcol, gcol) for x in pair]
        simplified = Dfa(2, pascal.state_count, pascal.initial, flat, pascal.finals)
        assert isomorphic(build_quotient(trivial, base), simplified)


def test_quotient_agrees_with_the_labels():
    # the labelling is_pascal_quotient returns is an isomorphism onto the
    # automaton build_quotient builds: 0-edges, g-edges and finality, on
    # two random sets per coprime p < 30 (21 of the 142 quotients have
    # h != 0, so the wrap edge is exercised off the identity)
    rng = random.Random(20261019)
    wraps = 0
    for base in (2, 3, 5, 10):
        for p in range(1, 30):
            if math.gcd(p, base) != 1:
                continue
            for _ in range(2):
                rem = [r for r in range(p) if rng.random() < 0.5]
                dfa = minimize(build_pascal(p, rem, base))
                check = is_pascal_quotient(dfa)
                assert check.accepted, (p, rem, base)
                q = build_quotient(check.params, base)
                wraps += check.params.h != 0
                zcol, gcol, _ = zero_and_g(dfa)
                lab = check.labels
                assert sorted(lab) == list(range(dfa.state_count))
                assert sorted(lab.values()) == list(range(q.state_count))
                assert lab[dfa.initial] == q.initial
                for x in range(dfa.state_count):
                    assert q.step(lab[x], 0) == lab[zcol[x]], (p, rem, base, x)
                    assert q.step(lab[x], 1) == lab[gcol[x]], (p, rem, base, x)
                    assert (lab[x] in q.finals) == (x in dfa.finals)
    assert wraps > 0


def test_quotient_params_validation():
    with pytest.raises(PreconditionViolated):
        PascalParams(5, frozenset({5}), 4, 0, 1)
    with pytest.raises(PreconditionViolated):
        PascalParams(5, frozenset(), 4, 5, 1)
    with pytest.raises(PreconditionViolated):
        PascalParams(5, frozenset(), 4, 0, 5)
    with pytest.raises(PreconditionViolated):
        PascalParams(0, frozenset(), 1, 0, 1)
    with pytest.raises(PreconditionViolated):
        PascalParams(5, frozenset(), 0, 0, 1)
    with pytest.raises(NotCoprime):
        build_quotient(PascalParams(4, frozenset({1}), 1, 0, 1), 2)
    # p*k states are refused before any list is built, and after the
    # coprimality check
    with pytest.raises(StateLimitExceeded):
        build_quotient(PascalParams(1000003, frozenset({0}), 1, 0, 1), 2)
    with pytest.raises(StateLimitExceeded):
        build_quotient(PascalParams(1001, frozenset(), 1000, 0, 1000), 2)
    with pytest.raises(NotCoprime):
        build_quotient(PascalParams(2 * DEFAULT_STATE_LIMIT, frozenset({0}), 1, 0, 1), 2)


# ---------------------------------------------------------------- full check


def test_running_example_accepted():
    dfa = minimize(build_pascal(5, [0, 3], 3))
    check = is_pascal_quotient(dfa)
    assert check.accepted
    assert check.failure is None
    assert check.params == PascalParams(5, frozenset({0, 3}), 4, 3, 2)


def test_minimized_pascal_collapses_to_arithmetic():
    # on P_{7,{6}} minimization collapses the length track entirely
    dfa = minimize(build_pascal(7, [6], 2))
    assert dfa.state_count == 7
    check = is_pascal_quotient(dfa)
    assert check.accepted
    assert check.params.p == 7
    assert check.params.remainders == frozenset({6})
    assert check.params.psi == 3
    assert (check.params.h, check.params.k) == (1, 1)


def test_atomic_automata_are_quotients():
    for p, rem, base in [(5, [0, 1, 2, 4], 2), (5, [0, 3], 3), (9, [2, 4], 2), (1, [0], 2)]:
        dfa = build_minimal_automaton(UpSet.from_parts(p, rem), base)
        check = is_pascal_quotient(dfa)
        assert check.accepted
        assert check.params.p == p
        assert check.params.remainders == frozenset(rem)


def test_rejects_non_group():
    assert is_pascal_quotient(powers_of_two_dfa()).failure == QuotientFailure.NOT_GROUP


def test_rejects_zero_instability():
    d = Dfa(base=2, state_count=2, initial=0, transitions=(1, 1, 0, 0), finals=frozenset({0}))
    assert is_group_automaton(d)
    assert is_pascal_quotient(d).failure == QuotientFailure.NOT_ZERO_STABLE


def test_rejects_non_coprime_period():
    # parity of the number of 1 digits: the g-circuit has length 2 in base 2
    assert is_pascal_quotient(EVEN_ONES).failure == QuotientFailure.PERIOD_NOT_COPRIME


def test_rejects_state_count_mismatch():
    # p = 3 g-circuit and a length-1 mixed circuit, but 6 states != p*k
    d = Dfa.from_map(
        2,
        6,
        0,
        {
            (0, 0): 2, (2, 0): 0, (1, 0): 1, (3, 0): 3, (4, 0): 4, (5, 0): 5,
            (0, 1): 0, (2, 1): 4, (4, 1): 2, (1, 1): 3, (3, 1): 5, (5, 1): 1,
        },
        {0, 2},
    )
    assert is_group_automaton(d)
    assert d.is_zero_stable
    check = is_pascal_quotient(d)
    assert check.failure == QuotientFailure.NOT_ISOMORPHIC


def test_rejects_unreachable_states():
    # the analysis reads p=5, k=2 off the reachable part (8 states); two
    # padding states bring the count to p*k = 10, so the rejection has to
    # come from the final isomorphism test, not the cheap size bail
    pi0 = {5: 0, 1: 5, 0: 1, 2: 2, 3: 3, 4: 4, 6: 6, 7: 7, 8: 8, 9: 9}
    g = {0: 1, 1: 2, 2: 3, 3: 4, 4: 0, 5: 6, 6: 7, 7: 5, 8: 9, 9: 8}
    trans = {}
    for s in range(10):
        trans[(s, 0)] = pi0[s]
        trans[(s, 1)] = pi0[g[s]]
    d = Dfa.from_map(2, 10, 0, trans, {2})
    assert is_group_automaton(d)
    assert d.is_zero_stable
    check = is_pascal_quotient(d)
    assert not check.accepted
    assert check.failure == QuotientFailure.NOT_ISOMORPHIC


def test_rejects_g_edges_that_do_not_rotate_their_level():
    # c_i = i and l_i = 3 + i: 0 swaps c_i and l_i, 1 maps c_i to l_{i+1}
    # and l_i to c_{i+1}.  The g-circuit c_0 c_1 c_2 gives p = 3, the mixed
    # circuit 0^2 gives k = 2, the levels are disjoint and the wrap edges
    # hold; only g on level 1 fails, adding 1 where it must add 2
    trans = []
    for other in (3, 0):
        for i in range(3):
            trans += [other + i, other + (i + 1) % 3]
    d = Dfa(2, 6, 0, trans, frozenset({0, 3}))
    assert is_group_automaton(d)
    assert d.is_zero_stable
    for check in (is_pascal_quotient(d), is_pascal_quotient(d, range(6))):
        assert check.failure == QuotientFailure.NOT_ISOMORPHIC


def test_format_params():
    assert format_params(PascalParams(5, frozenset({0, 3}), 4, 3, 2)) == "p=5 R=0,3 psi=4 h=3 k=2"
    assert format_params(PascalParams(3, frozenset(), 2, 0, 1)) == "p=3 R=- psi=2 h=0 k=1"
