"""The four structural conditions, embeddings, and parameter extraction."""

from __future__ import annotations

import decimal
import math
import random
import runpy
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import updfa.automaton
import updfa.cli
import updfa.decision
import updfa.numeration
from updfa import (
    ConditionFailure,
    Dfa,
    QuotientFailure,
    SccType,
    UpSet,
    build_minimal_automaton,
    build_pascal,
    check_conditions,
    condensation,
    decide,
    extract_parameters,
    format_upset,
    is_pascal_quotient,
    membership,
    minimize,
    successor_sccs,
)
from updfa.cli import bench_automaton
from updfa.decision import build_embedding
from updfa.errors import PreconditionViolated

from conftest import subprocess_env
from oracle import brute_decide, characteristic_prefix
from test_acceptance import Budget
from test_automaton import (
    EVEN_ONES,
    powers_of_two_dfa,
    random_dfa,
    random_multi_orbit_group_dfa,
    redundant_product,
)


# A 16-state instance exercising every structural case at once: three
# preperiod states (t0 t1 t2), a junk sink z, three 0-circuits (the final
# self-loop I2, the pair B2/C2, the self-loop D2), and two atomic sccs
# (mod-3 states d0 d1 d2, mod-5 states e0..e4) the circuits embed into.
#
# ids: t0=0 t1=1 t2=2 I2=3 B2=4 C2=5 D2=6 z=7 d0=8 d1=9 d2=10 e0..e4=11..15
INSTANCE_TRANS = {
    (0, 0): 1, (0, 1): 3,
    (1, 0): 4, (1, 1): 2,
    (2, 0): 6, (2, 1): 7,
    (3, 0): 3, (3, 1): 9,
    (4, 0): 5, (4, 1): 8,
    (5, 0): 4, (5, 1): 10,
    (6, 0): 6, (6, 1): 14,
    (7, 0): 7, (7, 1): 7,
    (8, 0): 8, (8, 1): 9,
    (9, 0): 10, (9, 1): 8,
    (10, 0): 9, (10, 1): 10,
    (11, 0): 12, (11, 1): 13,
    (12, 0): 14, (12, 1): 12,
    (13, 0): 11, (13, 1): 15,
    (14, 0): 13, (14, 1): 11,
    (15, 0): 15, (15, 1): 14,
}
INSTANCE_FINALS = {2, 3, 6, 9, 10, 11, 12, 13, 14}


def instance() -> Dfa:
    return Dfa.from_map(2, 16, 0, INSTANCE_TRANS, INSTANCE_FINALS)


def mutate(d: Dfa, s: int, a: int, t: int) -> Dfa:
    tr = list(d.transitions)
    tr[s * d.base + a] = t
    return Dfa(d.base, d.state_count, d.initial, tuple(tr), d.finals)


def up4_instance() -> Dfa:
    # one 0-loop state feeding the automaton of {0}+3N at a state whose
    # forced preimage under 1 is not fixed by 0, so no embedding exists;
    # the accepted set (certain values 2^j * q) is genuinely aperiodic
    return Dfa.from_map(
        2,
        4,
        0,
        {(0, 0): 0, (0, 1): 3, (1, 0): 1, (1, 1): 2,
         (2, 0): 3, (2, 1): 1, (3, 0): 2, (3, 1): 3},
        {1},
    )


# ---------------------------------------------------------------- instance


def test_instance_is_minimal():
    d = instance()
    assert minimize(d).state_count == 16


def test_instance_low_bits():
    # membership of 0..7, worked out by hand along the transition table
    assert list(characteristic_prefix(instance(), 8)) == [0, 1, 1, 1, 0, 1, 0, 0]


def test_instance_condensation_layout():
    cond = condensation(instance())
    by_type: dict = {}
    for members, t in zip(cond.scc_members, cond.scc_type):
        by_type.setdefault(t, set()).add(frozenset(members))
    assert by_type[SccType.TRIVIAL] == {frozenset({0}), frozenset({1}), frozenset({2})}
    assert by_type[SccType.TYPE_TWO] == {frozenset({3}), frozenset({4, 5}), frozenset({6})}
    assert by_type[SccType.TYPE_ONE] == {
        frozenset({7}),
        frozenset({8, 9, 10}),
        frozenset({11, 12, 13, 14, 15}),
    }


def test_instance_decides_positive():
    res = decide(instance())
    assert res.ultimately_periodic
    assert res.failure is None
    s = res.params
    assert s.period == 120
    assert s.mismatches == (0, 1, 2)
    assert not membership(s, 0) and membership(s, 1) and membership(s, 5)


def test_instance_agrees_with_brute_force():
    d = instance()
    assert brute_decide(d, 16, 128) == decide(d).params


def test_instance_conditions_pass():
    res = check_conditions(instance())
    assert res.ultimately_periodic
    assert res.params is None  # conditions alone do not extract


# ---------------------------------------------------------------- embeddings


def pred1_of(d: Dfa, cond) -> array:
    """1-predecessors over the positive-digit sccs, as _conditions builds
    them once UP2 has passed."""
    pred1 = array("i", (-1,)) * d.state_count
    for c in range(cond.count):
        if cond.scc_type[c] is SccType.TYPE_ONE:
            for y in cond.scc_members[c]:
                pred1[d.step(y, 1)] = y
    return pred1


def test_embeddings_are_the_forced_ones():
    d = instance()
    cond = condensation(d)
    pred1 = pred1_of(d, cond)
    cases = [
        ({3}, {3: 8}),        # I2 -> d0
        ({4, 5}, {4: 9, 5: 10}),  # B2 -> d1, C2 -> d2
        ({6}, {6: 15}),       # D2 -> e4
    ]
    for members, want in cases:
        c = cond.scc_of[next(iter(members))]
        assert set(cond.scc_members[c]) == members
        # f is forced on the circuit and maps nothing else
        assert build_embedding(d, cond.scc_members[c], pred1) == want


def test_embedding_commutes_with_transitions():
    d = instance()
    cond = condensation(d)
    pred1 = pred1_of(d, cond)
    for c in range(cond.count):
        if cond.scc_type[c] != SccType.TYPE_TWO:
            continue
        (dsc,) = successor_sccs(d, cond, c)
        f = build_embedding(d, cond.scc_members[c], pred1)
        assert set(f) == set(cond.scc_members[c])
        for x, fx in f.items():
            assert cond.scc_of[fx] == dsc
            assert d.step(x, 1) == d.step(fx, 1)
            assert f[d.step(x, 0)] == d.step(fx, 0)


def test_embedding_fails_when_zero_action_disagrees():
    d = mutate(instance(), 6, 1, 12)  # D2.1 -> e1, but e1.0 != e1
    cond = condensation(d)
    c = cond.scc_of[6]
    assert build_embedding(d, cond.scc_members[c], pred1_of(d, cond)) is None


# ---------------------------------------------------------------- conditions


def test_up0_failure():
    d = Dfa(2, 16, 0, instance().transitions, frozenset(INSTANCE_FINALS - {6}))
    res = check_conditions(d)
    assert not res.ultimately_periodic
    f = res.failure
    assert f.condition == "UP0"
    assert f.witness == 2  # t2 is final, its 0-successor D2 no longer is
    assert f.diagnostic == "state and its 0-successor differ on finality"


def test_up2_failure():
    # a 1-loop on t2 makes its scc positive-digit, but 0 still leaves it
    res = check_conditions(mutate(instance(), 2, 1, 2))
    assert res.failure.condition == "UP2"
    assert res.failure.diagnostic == "transitions leave the scc"


def test_up2_failure_on_non_quotient_scc():
    # parity of 1s: single closed scc, but not a Pascal quotient in base 2
    res = decide(EVEN_ONES)
    assert not res.ultimately_periodic
    assert res.failure.condition == "UP2"
    assert "PeriodNotCoprime" in res.failure.diagnostic


def sub_automaton_check(dfa, members):
    """Reference for UP2 on one scc: copy it into a Dfa of its own over
    the sorted members, rooted at the least one, and test that.  Gives
    params, diagnostic and the label of each global state id."""
    b = dfa.base
    ordered = sorted(members)
    local = {s: i for i, s in enumerate(ordered)}
    targets = {(local[s], a): local.get(dfa.step(s, a)) for s in ordered for a in range(b)}
    if None in targets.values():
        return None, "transitions leave the scc", {}
    finals = [local[q] for q in dfa.finals if q in local]
    check = is_pascal_quotient(Dfa.from_map(b, len(ordered), 0, targets, finals))
    if not check.accepted:
        return None, check.failure.value, {}
    return check.params, None, {ordered[x]: lab for x, lab in check.labels.items()}


def test_scc_quotient_test_matches_a_sub_automaton():
    # every positive-digit scc of about 2,000 automata: multi-orbit group
    # automata, where each orbit is a closed scc, and minimal automata of
    # random tables and of random coprime periodic sets
    rng = random.Random(20261019)
    dfas = []
    for _ in range(700):
        dfas.append(random_multi_orbit_group_dfa(rng, rng.randint(2, 4), rng.randint(1, 4)))
        dfas.append(minimize(random_dfa(rng, max_states=12, max_base=4)))
        base = rng.choice((2, 3, 5))
        p = rng.choice([q for q in range(1, 40) if math.gcd(q, base) == 1])
        dfas.append(minimize(build_pascal(p, [r for r in range(p) if rng.random() < 0.5], base)))
    seen: dict = {}
    up2_failures = certified = 0
    for d in dfas:
        cond = condensation(d)
        failure, verified = updfa.decision._conditions(d)
        # off the group path the decision tests each scc on its own too
        own = not d.is_group
        for c in range(cond.count):
            if cond.scc_type[c] is not SccType.TYPE_ONE:
                continue
            members = cond.scc_members[c]
            want = sub_automaton_check(d, members)
            check = is_pascal_quotient(d, members)
            diag = None if check.accepted else check.failure.value
            assert (check.params, diag, check.labels or {}) == want, (d, c)
            # and its verdict gave the same diagnostic, or the same facts
            if own and failure is not None and (failure.condition, failure.witness) == ("UP2", c):
                assert failure.diagnostic == want[1], (d, c)
                up2_failures += 1
            elif own and verified is not None:
                assert {z: verified.label[z] for z in members} == want[2], (d, c)
                assert all(verified.params[z] == want[0] for z in members), (d, c)
                certified += 1
            seen[diag] = seen.get(diag, 0) + 1
    # every outcome occurs, and most sccs pass
    assert set(seen) == {None, "transitions leave the scc", *(f.value for f in QuotientFailure)}
    assert seen[None] > 1000
    assert up2_failures > 0 and certified > 0


def test_scc_permutation_count_reaches_past_4096_members():
    # a transient root above a closed 5,000-state scc: digit 0 runs round
    # it, and digit 1 fixes every member but the last, which it sends to
    # the first, a collision at position 4,999 of `members` and nowhere
    # else; both the decision and the public test must see it
    m = 5000
    trans = [1, 1]
    for i in range(m):
        trans += [1 + (i + 1) % m, 1 if i == m - 1 else 1 + i]
    d = Dfa(2, m + 1, 0, trans, frozenset())
    members = list(range(1, m + 1))
    assert is_pascal_quotient(d, members).failure == QuotientFailure.NOT_GROUP
    cond = condensation(d)
    (c,) = (c for c in range(cond.count) if cond.scc_type[c] is SccType.TYPE_ONE)
    assert sorted(cond.scc_members[c]) == members
    failure, _ = updfa.decision._conditions(d)
    assert failure == ConditionFailure("UP2", c, "NotGroup")


def test_conditions_build_no_dfa(monkeypatch):
    # each positive-digit scc is tested on the automaton's own columns and
    # state ids: no Dfa is built, hence none validated, while the
    # conditions run
    calls = []
    validate = updfa.automaton.validate
    monkeypatch.setattr(updfa.automaton, "validate", lambda d: calls.append(d) or validate(d))
    d = minimize(instance())
    group = random_multi_orbit_group_dfa(random.Random(3), 3, 4)
    calls.clear()
    assert check_conditions(d).ultimately_periodic
    check_conditions(group)
    assert calls == []


def test_up3_failure_two_descendants():
    res = check_conditions(mutate(instance(), 4, 1, 7))
    assert res.failure.condition == "UP3"
    assert res.failure.diagnostic == "0-circuit scc has 2 successor sccs, expected 1"


def test_up3_failure_powers_of_two():
    res = decide(powers_of_two_dfa())
    assert not res.ultimately_periodic
    assert res.failure.condition == "UP3"
    assert res.failure.diagnostic == "successor scc is not a positive-digit scc"


def test_up4_failure_by_mutation():
    res = check_conditions(mutate(instance(), 6, 1, 12))
    assert res.failure.condition == "UP4"
    assert res.failure.diagnostic == "no embedding into the successor scc"


def test_up4_failure_minimal_instance():
    d = up4_instance()
    assert minimize(d).state_count == 4
    res = decide(d)
    assert res.failure.condition == "UP4"
    assert brute_decide(d, 256, 64) is None


def circuits_dfa(p: int) -> Dfa:
    """D = {0} + pN for an odd p, plus a state x_e per residue e that
    reads 0 into x_(e/2 mod p) and 1 as e does, final iff e != 0: about
    p / ord_p(2) 0-circuits of length dividing ord_p(2), each embedding
    into D."""
    d = bench_automaton(p, 2)
    half = pow(2, -1, p)
    trans = list(d.transitions)
    for e in range(p):
        trans += [p + e * half % p, d.transitions[2 * e + 1]]
    return Dfa(2, 2 * p, 0, trans, frozenset([0, *range(p + 1, 2 * p)]))


UP4_SCALING_BENCH = """
import gc, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from test_decision import circuits_dfa
from updfa import check_conditions

# p = 2^L - 1, so ord_p(2) = L: about 2^L / L 0-circuits
dfas = [circuits_dfa(2**L - 1) for L in (10, 12, 14)]
assert all(check_conditions(dfa).ultimately_periodic for dfa in dfas)
times = [[] for _ in dfas]
gc.disable()
for _ in range(7):
    for dfa, samples in zip(dfas, times):
        t0 = time.perf_counter_ns()
        check_conditions(dfa)
        samples.append(time.perf_counter_ns() - t0)
print(*(int(statistics.median(s)) for s in times))
"""


def test_up4_scaling_many_circuits_into_one_scc():
    # the state count grows 4x per step; an embedding that maps all of D
    # for every 0-circuit costs |D| per circuit, about 10x to 15x per step
    # here, a linear check about 4x; measured in a fresh interpreter,
    # repeats round-robin over the sizes (as criterion 09 in
    # test_acceptance.py, which times the group family)
    proc = subprocess.run(
        [sys.executable, "-c", UP4_SCALING_BENCH, str(Path(__file__).parent)],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    medians = list(map(int, proc.stdout.split()))
    for smaller, larger in zip(medians, medians[1:]):
        ratio = larger / smaller
        assert ratio <= 6, f"4x-size ratio {ratio:.2f} exceeds 6 ({medians} ns)"


def test_benchmark_layer_names_stay_bound():
    # bench/spans.py traces a decision by rebinding these names in
    # updfa.decision and updfa.cli, whether or not the package calls them
    spans = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "spans.py"))
    for module, names in (
        (updfa.decision, spans["DECISION_LAYERS"] + spans["COUNTED"]),
        (updfa.cli, spans["CLI_LAYERS"]),
    ):
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)


def test_check_conditions_requires_complete():
    partial = Dfa(2, 1, 0, (0, -1), frozenset())
    with pytest.raises(PreconditionViolated):
        check_conditions(partial)


# ---------------------------------------------------------------- extraction


def test_extract_round_trip_examples():
    for s in [
        UpSet.from_parts(5, [0, 1, 2, 4]),
        UpSet.from_parts(6, [1, 4], [0, 3]),
        UpSet.from_parts(1, [0], [0, 5]),
        UpSet.from_parts(12, [0, 2, 7]),
    ]:
        for base in (2, 3):
            dfa = build_minimal_automaton(s, base)
            assert extract_parameters(dfa) == s
            res = decide(dfa)
            assert res.ultimately_periodic and res.params == s


def base_power_dfa(e: int, base: int) -> Dfa:
    """The minimal automaton of base^e * N: state j < e accepts
    base^(e-j) * N and reads 0 into state j + 1; state e accepts N; every
    other digit before state e leads to the empty sink e + 1."""
    sink = e + 1
    trans = {}
    for j in range(e):
        trans[(j, 0)] = j + 1
        for a in range(1, base):
            trans[(j, a)] = sink
    for a in range(base):
        trans[(e, a)] = e
        trans[(sink, a)] = sink
    return Dfa.from_map(base, e + 2, 0, trans, range(e + 1))


# the minimal automaton of ({0, 1, 2} + 5N) xor {21} in base 2, 17 states;
# Moore rounds on its 3-fold redundant product reach the final partition in
# their third round that grows the block count by half or less, and the
# next round confirms it
SETTLES_LATE = build_minimal_automaton(UpSet.from_parts(5, [0, 1, 2], [21]), 2)


def test_moore_rounds_that_settle_skip_the_tail(monkeypatch):
    # the group family's rounds give 2, 3, 5, 9, ... blocks, and a run one
    # round short of its fixpoint confirms it by Moore: neither builds the
    # Hopcroft tail
    want = minimize(SETTLES_LATE)
    monkeypatch.setattr(updfa.automaton, "_hopcroft", None)  # must not be reached
    assert minimize(updfa.cli.bench_automaton(10007, 2)).state_count == 10007
    assert minimize(redundant_product(SETTLES_LATE, 3)) == want


def test_chains_reach_the_tail(monkeypatch):
    # a chain splits off one state per Moore round, so Moore alone would
    # take n rounds: the chain and the 0-chain of 2^e * N hand over
    tails = []
    tail = updfa.automaton._hopcroft

    def counted_tail(*args):
        tails.append(args)
        return tail(*args)

    monkeypatch.setattr(updfa.automaton, "_hopcroft", counted_tail)
    n = 1000
    chain = Dfa(
        2, n, 0, [min(s + 1, n - 1) for s in range(n) for _ in range(2)], frozenset({n - 1})
    )
    for dfa in (chain, base_power_dfa(n, 2)):
        tails.clear()
        assert minimize(dfa).state_count == dfa.state_count
        assert len(tails) == 1


def test_extract_base_power_period_is_linear():
    # the old candidate search sampled 4 * p * b^e integers per exponent
    # and never returned on 2^20 * N; a residue vector of length p would
    # ask for a terabyte at 2^40
    for e, base in [(20, 2), (40, 2), (25, 3)]:
        dfa = base_power_dfa(e, base)
        assert minimize(dfa).state_count == e + 2
        with Budget(1):
            res = decide(dfa)
            doc = res.to_json_dict()
        assert res.params == UpSet(base**e, {0}, ())
        assert doc["remainders"] == [0]


def test_format_upset_of_a_period_beyond_the_int_str_limit():
    # 2^15000 has 4,516 decimal digits, more than CPython >= 3.11 converts
    # by default: printing any answer decide returns lifts that limit, and
    # puts it back, so reading a numeral keeps it
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    text = format_upset(decide(base_power_dfa(15000, 2)).params)
    assert text == f"p={decimal.Decimal(2**15000)} R=0 I=-"
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if limit:
        with pytest.raises(ValueError):
            int("9" * (limit + 1))


def test_extract_large_single_mismatch():
    # {2^40}: a 0-chain of 41 states down to the state of {0}, whose
    # 0-self-loop embeds into the empty sink
    s = UpSet(1, frozenset(), (2**40,))
    with Budget(1):
        dfa = build_minimal_automaton(s, 2)
        res = decide(dfa)
    assert dfa.state_count == 43
    assert res.params == s


def test_extract_long_words():
    # residues and mismatches of 200 to 300 binary digits, most of them
    # nonzero, read off words that extraction builds only at their ends
    e = 300
    s = UpSet.from_parts(3 * 2**e, [2**e - 1, 2**(e - 1) + 5], [2**200 + 12345, 3 * 2**250 + 1])
    with Budget(2):
        assert decide(build_minimal_automaton(s, 2)).params == s


def test_extract_reduces_a_non_minimal_period():
    # P_{15,R} with R of period 5 is a Pascal automaton that is not
    # minimal; its g-circuit has length 15, the set's least period is 5
    dfa = build_pascal(15, [0, 3, 5, 8, 10, 13], 2)
    assert extract_parameters(dfa) == UpSet.from_parts(5, [0, 3])
    # composite base: 2N in base 10 reads as period 10 off the automaton
    # before the reduction
    two_n = build_minimal_automaton(UpSet.from_parts(2, [0]), 10)
    assert extract_parameters(two_n) == UpSet.from_parts(2, [0])


def zero_stable_dfa(rng: random.Random, base: int, n: int) -> Dfa:
    """A random automaton made to pass UP0: finality is constant on the
    classes of the undirected graph of 0-transitions."""
    trans = [rng.randrange(n) for _ in range(n * base)]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for q in range(n):
        parent[find(q)] = find(trans[q * base])
    pick: dict = {}
    finals = frozenset(
        q for q in range(n) if pick.setdefault(find(q), rng.random() < 0.5)
    )
    return Dfa(base, n, 0, trans, finals)


def length_parity_product(d: Dfa) -> Dfa:
    """The product of the complete automaton `d` with the parity of the
    length of the word read: twice the states, the same set."""
    b = d.base
    trans = []
    for q in range(2 * d.state_count):
        s, parity = divmod(q, 2)
        trans += [2 * t + 1 - parity for t in d.transitions[s * b : s * b + b]]
    finals = frozenset(2 * q + parity for q in d.finals for parity in (0, 1))
    return Dfa(b, 2 * d.state_count, 2 * d.initial, trans, finals)


def test_decide_agrees_with_brute_force_on_random_automata():
    rng = random.Random(20261018)
    max_m, max_p = 40, 40

    def agrees(i: int, dfa: Dfa) -> bool:
        """Compare decide with the oracle on `dfa`; whether it is positive."""
        verdict = decide(dfa)
        slow = brute_decide(dfa, max_m, max_p)
        if slow is not None:
            assert verdict.params == slow, (i, verdict, slow)
        elif verdict.ultimately_periodic:
            # a positive decide verdict outside the oracle's bounds
            params = verdict.params
            assert params.period > max_p or params.preperiod > max_m
        if verdict.ultimately_periodic:
            bits = characteristic_prefix(dfa, 300)
            assert bits == bytes(membership(verdict.params, k) for k in range(300))
        return verdict.ultimately_periodic

    positives = rich = 0
    with Budget(60):
        for i in range(3000):
            base = (2, 3, 10)[i % 3]
            n = rng.randint(1, 7)
            if i % 4:
                dfa = zero_stable_dfa(rng, base, n)
            else:
                finals = frozenset(q for q in range(n) if rng.random() < 0.5)
                trans = [rng.randrange(n) for _ in range(n * base)]
                dfa = Dfa(base, n, 0, trans, finals)
            positives += agrees(i, dfa)
        # most positives above minimize to a single state, so these draws
        # add larger ones: minimal automata of random (p, R, I), doubled by
        # the parity of the word length, three in ten with one transition
        # changed
        for i in range(600):
            base = (2, 3, 4, 6, 10)[i % 5]
            p = rng.randint(1, 12)
            rem = [r for r in range(p) if rng.random() < 0.5]
            s = UpSet.from_parts(p, rem, rng.sample(range(30), rng.randint(0, 2)))
            dfa = length_parity_product(build_minimal_automaton(s, base))
            if rng.random() < 0.3:
                trans = list(dfa.transitions)
                trans[rng.randrange(len(trans))] = rng.randrange(dfa.state_count)
                dfa = Dfa(base, dfa.state_count, dfa.initial, trans, dfa.finals)
            if agrees(i, dfa) and minimize(dfa).state_count >= 5:
                rich += 1
    assert positives > 1000
    assert rich >= 300


def test_extract_rejects_automata_failing_the_conditions():
    # UP3 fails here; the candidate search must not run at all
    with pytest.raises(PreconditionViolated, match="UP3"):
        extract_parameters(minimize(powers_of_two_dfa()))
    with pytest.raises(PreconditionViolated, match="UP2"):
        extract_parameters(EVEN_ONES)
    with pytest.raises(PreconditionViolated, match="complete"):
        extract_parameters(Dfa(2, 1, 0, [0, -1], frozenset()))


def test_decide_computes_each_fact_once(monkeypatch):
    calls = dict.fromkeys(
        ["condensation", "successor_sccs", "is_pascal_quotient", "_scc_quotient",
         "accepts", "isomorphic", "build_minimal_automaton"],
        0,
    )

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counted(updfa.decision, name)
    # extraction must not reach the sampling and rebuilding layers by any
    # route, so count them where they are defined as well
    counted(updfa.automaton, "accepts")
    counted(updfa.automaton, "isomorphic")
    counted(updfa.numeration, "build_minimal_automaton")

    # periodic with mismatches: the condensation path, then extraction
    d = instance()
    res = decide(d)
    assert res.params.mismatches == (0, 1, 2)
    assert calls["condensation"] <= 1
    cond = condensation(minimize(d))
    positive = sum(t is SccType.TYPE_ONE for t in cond.scc_type)
    assert calls["_scc_quotient"] == positive == 3
    # only UP3 reads successor sccs, once per 0-circuit scc; UP2's closure
    # is part of the quotient test
    circuits = sum(t is SccType.TYPE_TWO for t in cond.scc_type)
    assert calls["successor_sccs"] == circuits == 3
    assert calls["is_pascal_quotient"] == 0
    assert calls["accepts"] == calls["isomorphic"] == 0
    assert calls["build_minimal_automaton"] == 0
    # a minimal group automaton is one scc: one quotient test decides it,
    # rejected or accepted, reached the same way as on the condensation
    # path, and no condensation runs
    calls["_scc_quotient"] = calls["condensation"] = calls["successor_sccs"] = 0
    res = decide(EVEN_ONES)
    assert res.failure == ConditionFailure("UP2", 0, "PeriodNotCoprime")
    assert calls["_scc_quotient"] == 1
    assert calls["condensation"] == calls["successor_sccs"] == 0
    calls["_scc_quotient"] = 0
    res = decide(build_pascal(7, [6], 2))
    assert res.params == UpSet.from_parts(7, [6])
    assert calls["_scc_quotient"] == 1
    assert calls["is_pascal_quotient"] == calls["condensation"] == calls["successor_sccs"] == 0
    assert calls["accepts"] == calls["isomorphic"] == 0
    assert calls["build_minimal_automaton"] == 0


def check_certificate(dfa: Dfa, v) -> None:
    """Check the per-state facts _conditions returns against the automaton
    by local equations, O(b) per state: the quotient equations and
    finality at every positive-digit state, the inverse digit 0 there and
    digit 1 where it is recorded, the embedding equations at every
    0-circuit state, and the order of the transient states."""
    n, b, trans = dfa.state_count, dfa.base, dfa.transitions
    flags = dfa._final_bytes
    transient = list(v.transient)
    pos = dict(zip(transient, range(len(transient))))
    assert len(pos) == len(transient)
    positive = [z for z in range(n) if v.params[z] is not None]
    assert v.period == math.lcm(*(v.params[z].p for z in positive))
    # pred1 serves only UP4; the group path, which has no 0-circuit and
    # no transient state, leaves it empty
    preds = (v.pred0, v.pred1) if len(v.pred1) else (v.pred0,)
    assert len(v.pred1) or not transient
    for z in positive:
        prm = v.params[z]
        p, h, k = prm.p, prm.h, prm.k
        s, t = divmod(v.label[z], k)
        assert v.rep[z] == z and z not in pos
        assert flags[z] == (s in prm.remainders)
        for a in range(b):
            y = trans[z * b + a]
            s2 = (s + a * pow(b, t, p)) % p
            want = s2 * k + t + 1 if t < k - 1 else (s2 - h) * pow(b, -k, p) % p * k
            assert v.params[y] is prm and v.label[y] == want
        for a, pred in enumerate(preds):
            assert pred[trans[z * b + a]] == z
    for x in range(n):
        if v.params[x] is not None or x in pos:
            continue
        fx = v.rep[x]
        assert v.params[fx] is not None
        x0 = trans[x * b]
        assert v.params[x0] is None and x0 not in pos
        assert v.rep[x0] == trans[fx * b]
        assert trans[x * b + 1 : x * b + b] == trans[fx * b + 1 : fx * b + b]
    for q in transient:
        assert v.params[q] is None and v.rep[q] == -1
        assert all(pos.get(t, -1) < pos[q] for t in trans[q * b : q * b + b])


def test_conditions_certify_their_facts_locally(corpus_instances):
    # passing automata in bases 2, 3, 4, 6 and 10: minimal automata of
    # random ultimately periodic sets, the minimized ones of a transition
    # or finality flag of those mutated, and group automata; then the
    # whole corpus
    rng = random.Random(20261020)
    dfas = []
    while len(dfas) < 600:
        base = rng.choice((2, 3, 4, 6, 10))
        kind = len(dfas) % 3
        if kind < 2:
            p = rng.randint(1, 12) * base ** rng.randint(0, 1)
            rem = [r for r in range(p) if rng.random() < 0.4]
            mis = rng.sample(range(60), rng.randint(0, 3))
            d = build_minimal_automaton(UpSet.from_parts(p, rem, mis), base)
        if kind == 1:
            n = d.state_count
            trans, finals = list(d.transitions), set(d.finals)
            if rng.random() < 0.5:
                trans[rng.randrange(n * base)] = rng.randrange(n)
            else:
                finals ^= {rng.randrange(n)}
            d = minimize(Dfa(base, n, d.initial, trans, finals))
        elif kind == 2:
            p = rng.choice([q for q in range(1, 40) if math.gcd(q, base) == 1])
            d = minimize(build_pascal(p, [r for r in range(p) if rng.random() < 0.5], base))
        if check_conditions(d).ultimately_periodic:
            dfas.append(d)
    dfas += [build_minimal_automaton(s, b) for s, b in corpus_instances]
    groups = transients = circuits = 0
    for d in dfas:
        failure, verified = updfa.decision._conditions(d)
        assert failure is None
        check_certificate(d, verified)
        groups += d.is_group
        transients += bool(verified.transient)
        circuits += verified.params.count(None) > len(verified.transient)
    # every shape of certificate occurs often
    assert groups > 200 and transients > 1000 and circuits > 1000


def test_decide_total_on_partial_input():
    # decide minimizes first, so partial tables are completed on the way in
    partial = Dfa(2, 2, 0, (1, -1, 1, 1), frozenset({1}))
    res = decide(partial)
    assert isinstance(res.ultimately_periodic, bool)


# ---------------------------------------------------------------- json shape


def test_json_dict_shapes():
    pos = decide(instance()).to_json_dict()
    assert pos["ultimately_periodic"] is True
    assert pos["period"] == 120
    assert pos["mismatches"] == [0, 1, 2]
    assert sorted(pos) == ["mismatches", "period", "remainders", "ultimately_periodic"]

    neg = decide(powers_of_two_dfa()).to_json_dict()
    assert neg["ultimately_periodic"] is False
    assert neg["failed_condition"] == "UP3"
    assert isinstance(neg["witness"], int)
    assert sorted(neg) == [
        "diagnostic",
        "failed_condition",
        "ultimately_periodic",
        "witness",
    ]
