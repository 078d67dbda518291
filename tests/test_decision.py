"""The four structural conditions, embeddings, and parameter extraction."""

from __future__ import annotations

import random
import subprocess
import sys
from array import array

import pytest

import updfa.automaton
import updfa.decision
import updfa.numeration
from updfa import (
    ConditionFailure,
    Dfa,
    SccType,
    UpSet,
    build_embedding,
    build_minimal_automaton,
    build_pascal,
    check_conditions,
    condensation,
    decide,
    extract_parameters,
    membership,
    minimize,
)
from updfa.errors import PreconditionViolated

from oracle import brute_decide, characteristic_prefix
from test_acceptance import Budget
from test_automaton import EVEN_ONES, powers_of_two_dfa


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
        (dsc,) = cond.descendants[c]
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


UP4_SCALING_BENCH = """
import gc, statistics, time
from updfa import Dfa, check_conditions
from updfa.cli import bench_automaton

def circuits_dfa(L):
    # D = {0} + pN with p = 2^L - 1, plus a state x_e per residue e that
    # reads 0 into x_(e/2 mod p) and 1 as e does, final iff e != 0: about
    # 2^L / L 0-circuits of length dividing L, each embedding into D
    p = 2**L - 1
    d = bench_automaton(p, 2)
    half = pow(2, -1, p)
    trans = list(d.transitions)
    for e in range(p):
        trans += [p + e * half % p, d.transitions[2 * e + 1]]
    return Dfa(2, 2 * p, 0, trans, frozenset([0, *range(p + 1, 2 * p)]))

dfas = [circuits_dfa(L) for L in (10, 12, 14)]
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
        [sys.executable, "-c", UP4_SCALING_BENCH],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    medians = list(map(int, proc.stdout.split()))
    for smaller, larger in zip(medians, medians[1:]):
        ratio = larger / smaller
        assert ratio <= 6, f"4x-size ratio {ratio:.2f} exceeds 6 ({medians} ns)"


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


def test_extract_large_single_mismatch():
    # {2^40}: a 0-chain of 41 states down to the state of {0}, whose
    # 0-self-loop embeds into the empty sink
    s = UpSet(1, frozenset(), (2**40,))
    with Budget(1):
        dfa = build_minimal_automaton(s, 2)
        res = decide(dfa)
    assert dfa.state_count == 43
    assert res.params == s


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


def test_decide_agrees_with_brute_force_on_random_automata():
    rng = random.Random(20261018)
    max_m, max_p = 40, 40
    positives = 0
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
            verdict = decide(dfa)
            slow = brute_decide(dfa, max_m, max_p)
            if slow is not None:
                assert verdict.params == slow, (i, verdict, slow)
            elif verdict.ultimately_periodic:
                # a positive decide verdict outside the oracle's bounds
                params = verdict.params
                assert params.period > max_p or params.preperiod > max_m
            if verdict.ultimately_periodic:
                positives += 1
                bits = characteristic_prefix(dfa, 300)
                assert bits == bytes(membership(verdict.params, k) for k in range(300))
    assert positives > 1000


def test_extract_rejects_automata_failing_the_conditions():
    # UP3 fails here; the candidate search must not run at all
    with pytest.raises(PreconditionViolated, match="UP3"):
        extract_parameters(minimize(powers_of_two_dfa()))
    with pytest.raises(PreconditionViolated, match="UP2"):
        extract_parameters(EVEN_ONES)


def test_decide_computes_each_fact_once(monkeypatch):
    calls = dict.fromkeys(
        ["condensation", "is_pascal_quotient", "accepts", "isomorphic",
         "build_minimal_automaton"],
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
    assert calls["is_pascal_quotient"] == positive == 3
    assert calls["accepts"] == calls["isomorphic"] == 0
    assert calls["build_minimal_automaton"] == 0
    # a minimal group automaton is one scc: one quotient test decides it,
    # rejected or accepted, and no condensation runs
    calls["is_pascal_quotient"] = calls["condensation"] = 0
    res = decide(EVEN_ONES)
    assert res.failure == ConditionFailure("UP2", 0, "PeriodNotCoprime")
    assert calls["is_pascal_quotient"] == 1
    assert calls["condensation"] == 0
    calls["is_pascal_quotient"] = 0
    res = decide(build_pascal(7, [6], 2))
    assert res.params == UpSet.from_parts(7, [6])
    assert calls["is_pascal_quotient"] == 1
    assert calls["condensation"] == 0
    assert calls["accepts"] == calls["isomorphic"] == 0
    assert calls["build_minimal_automaton"] == 0


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
