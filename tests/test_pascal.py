"""Pascal automata, the {0, g} simplification, and the quotient test."""

from __future__ import annotations

import itertools
import random

import pytest

from updfa import (
    Dfa,
    GElem,
    PascalParams,
    QuotientFailure,
    accepts,
    add_g_letter,
    analyze_quotient,
    build_atomic_explicit,
    build_pascal,
    build_quotient,
    check_zero_stability,
    format_params,
    group_op,
    is_group_automaton,
    is_pascal_quotient,
    isomorphic,
    minimize,
    multiplicative_order,
    value,
    verify_simplification,
)
from updfa.errors import (
    NotCoprime,
    NotGroupAutomaton,
    NotPascalLike,
    PreconditionViolated,
)

from test_automaton import EVEN_ONES, powers_of_two_dfa


# ---------------------------------------------------------------- order


def test_multiplicative_order_goldens():
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 5) == 4
    assert multiplicative_order(3, 5) == 4
    assert multiplicative_order(2, 1) == 1
    assert multiplicative_order(10, 9) == 1


def test_multiplicative_order_definition():
    import math

    for p in range(1, 1200):
        for base in (2, 3, 4, 5, 10):
            if math.gcd(base, p) != 1:
                continue
            psi = multiplicative_order(base, p)
            assert pow(base, psi, p) == 1 % p
            # the walk the order replaces: the first t with base^t = 1
            acc, t = base % p, 1
            while acc != 1 % p:
                acc, t = acc * base % p, t + 1
            assert psi == t, (base, p)


def test_multiplicative_order_rejects_shared_factor():
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 4)
    with pytest.raises(NotCoprime):
        multiplicative_order(2, 0)


# ---------------------------------------------------------------- group law


def test_group_axioms_mod_5_base_2():
    p, psi, base = 5, 4, 2
    elems = [GElem(s, t) for s in range(p) for t in range(psi)]
    e = GElem(0, 0)
    for x in elems:
        assert group_op(e, x, p, psi, base) == x
        assert group_op(x, e, p, psi, base) == x
        assert any(
            group_op(x, y, p, psi, base) == e and group_op(y, x, p, psi, base) == e
            for y in elems
        )
    rng = random.Random(5)
    for _ in range(200):
        x, y, z = (rng.choice(elems) for _ in range(3))
        left = group_op(group_op(x, y, p, psi, base), z, p, psi, base)
        right = group_op(x, group_op(y, z, p, psi, base), p, psi, base)
        assert left == right


def test_group_op_matches_word_composition():
    # (val u, |u|) o (val v, |v|) must equal (val uv, |uv|)
    p, base = 7, 2
    psi = multiplicative_order(base, p)
    rng = random.Random(8)
    for _ in range(200):
        u = [rng.randrange(base) for _ in range(rng.randrange(8))]
        v = [rng.randrange(base) for _ in range(rng.randrange(8))]
        x = GElem(value(u, base) % p, len(u) % psi)
        y = GElem(value(v, base) % p, len(v) % psi)
        w = u + v
        assert group_op(x, y, p, psi, base) == GElem(value(w, base) % p, len(w) % psi)


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


def test_pascal_run_characterization():
    # after any word the state is (value mod p, length mod psi)
    p, base = 5, 2
    psi = multiplicative_order(base, p)
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
    psi = multiplicative_order(base, p)
    dfa = build_pascal(p, [0, 3], base)
    rng = random.Random(21)
    for _ in range(200):
        s, t = rng.randrange(p), rng.randrange(psi)
        word = [rng.randrange(base) for _ in range(rng.randrange(9))]
        cur = s * psi + t
        for a in word:
            cur = dfa.step(cur, a)
        got = GElem(cur // psi, cur % psi)
        want = group_op(
            GElem(s, t), GElem(value(word, base) % p, len(word) % psi), p, psi, base
        )
        assert got == want


def test_pascal_is_group_and_zero_stable():
    for p, rem, base in [(3, [2], 2), (7, [6], 2), (5, [0, 3], 3)]:
        dfa = build_pascal(p, rem, base)
        assert is_group_automaton(dfa)
        assert check_zero_stability(dfa)


# ---------------------------------------------------------------- g letter


def test_add_g_letter_requires_group():
    with pytest.raises(NotGroupAutomaton):
        add_g_letter(powers_of_two_dfa())


def test_add_g_letter_on_pascal():
    # on P_{p,R} the letter g acts as (s, t) -> (s + base^t, t)
    p, base = 5, 2
    psi = multiplicative_order(base, p)
    dfa = build_pascal(p, [0, 3], base)
    simp = add_g_letter(dfa)
    assert simp.base == 2
    assert simp.state_count == dfa.state_count
    assert simp.finals == dfa.finals
    for s in range(p):
        for t in range(psi):
            sid = s * psi + t
            assert simp.step(sid, 0) == dfa.step(sid, 0)
            assert simp.step(sid, 1) == ((s + pow(base, t, p)) % p) * psi + t


def test_add_g_letter_undoes_zero():
    # s.g.0 = s.1 by definition of g
    for p, rem, base in [(5, [0, 3], 2), (7, [1, 2], 3)]:
        dfa = build_pascal(p, rem, base)
        simp = add_g_letter(dfa)
        for s in range(dfa.state_count):
            assert dfa.step(simp.step(s, 1), 0) == dfa.step(s, 1)


def test_verify_simplification_accepts_derived_pairs():
    for p, rem, base in [(5, [0, 3], 2), (7, [6], 2), (5, [0, 3], 3), (11, [2, 5], 3)]:
        dfa = build_pascal(p, rem, base)
        assert verify_simplification(dfa, add_g_letter(dfa))


def test_verify_simplification_detects_tampering():
    rng = random.Random(20260814)
    for p, base in [(5, 2), (7, 2), (5, 3), (7, 3)]:
        dfa = build_pascal(p, [0, p - 2], base)
        simp = add_g_letter(dfa)
        for _ in range(40):
            i = rng.randrange(len(simp.transitions))
            old = simp.transitions[i]
            new = rng.choice([s for s in range(simp.state_count) if s != old])
            trans = list(simp.transitions)
            trans[i] = new
            bad = Dfa(2, simp.state_count, simp.initial, tuple(trans), simp.finals)
            assert not verify_simplification(dfa, bad)


def test_verify_simplification_checks_high_digits():
    # base 3 automaton where digits 0 and 1 are consistent but 2 is not:
    # s.2 = s + 4 while g^2 then 0 gives s + 2
    trans = {}
    for s in range(5):
        trans[(s, 0)] = s
        trans[(s, 1)] = (s + 1) % 5
        trans[(s, 2)] = (s + 4) % 5
    dfa = Dfa.from_map(3, 5, 0, trans, {0})
    assert is_group_automaton(dfa)
    simp = add_g_letter(dfa)
    assert not verify_simplification(dfa, simp)
    assert is_pascal_quotient(dfa).failure == QuotientFailure.SIMPLIFICATION_LOSS


# ---------------------------------------------------------------- analyze


def test_analyze_trivial_quotient_of_full_pascal():
    # the unreduced Pascal automaton is its own quotient with (h, k) = (0, psi)
    dfa = build_pascal(7, [6], 2)
    params = analyze_quotient(add_g_letter(dfa), 2)
    assert params == PascalParams(7, frozenset({6}), 3, 0, 3)
    assert is_pascal_quotient(dfa) .params == params


def test_analyze_rejects_non_coprime_circuit():
    simp = add_g_letter(EVEN_ONES)
    with pytest.raises(NotPascalLike) as exc:
        analyze_quotient(simp, 2)
    assert exc.value.reason == QuotientFailure.PERIOD_NOT_COPRIME


def test_analyze_rejects_missing_mixed_circuit():
    # g cycles 0 -> 2 -> 4 -> 0 (p = 3, psi = 2) but walking 0 backward from
    # the initial state stays off the circuit for both usable lengths
    d = Dfa.from_map(
        2,
        6,
        0,
        {
            (0, 0): 3, (3, 0): 1, (1, 0): 0, (2, 0): 4, (4, 0): 5, (5, 0): 2,
            (0, 1): 2, (2, 1): 4, (4, 1): 0, (1, 1): 3, (3, 1): 5, (5, 1): 1,
        },
        {0, 2, 4},
    )
    assert is_group_automaton(d)
    with pytest.raises(NotPascalLike) as exc:
        analyze_quotient(d, 2)
    assert exc.value.reason == QuotientFailure.NO_MIXED_CIRCUIT


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
        psi = multiplicative_order(base, p)
        trivial = PascalParams(p, frozenset(rem), psi, 0, psi)
        assert isomorphic(
            build_quotient(trivial, base), add_g_letter(build_pascal(p, rem, base))
        )


def test_quotient_params_validation():
    with pytest.raises(PreconditionViolated):
        PascalParams(5, frozenset({5}), 4, 0, 1)
    with pytest.raises(PreconditionViolated):
        PascalParams(5, frozenset(), 4, 5, 1)
    with pytest.raises(PreconditionViolated):
        PascalParams(5, frozenset(), 4, 0, 5)
    with pytest.raises(NotCoprime):
        build_quotient(PascalParams(4, frozenset({1}), 1, 0, 1), 2)


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
        dfa = build_atomic_explicit(p, rem, base)
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
    assert check_zero_stability(d)
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
    assert check_zero_stability(d)
    check = is_pascal_quotient(d)
    assert not check.accepted
    assert check.failure == QuotientFailure.NOT_ISOMORPHIC


def test_format_params():
    assert format_params(PascalParams(5, frozenset({0, 3}), 4, 3, 2)) == "p=5 R=0,3 psi=4 h=3 k=2"
    assert format_params(PascalParams(3, frozenset(), 2, 0, 1)) == "p=3 R=- psi=2 h=0 k=1"
