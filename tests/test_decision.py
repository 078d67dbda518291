"""The four structural conditions, embeddings, and parameter extraction."""

from __future__ import annotations

import pytest

import updfa.decision
from updfa import (
    Dfa,
    SccType,
    UpSet,
    build_embedding,
    build_minimal_automaton,
    check_conditions,
    condensation,
    decide,
    extract_parameters,
    membership,
    minimize,
)
from updfa.errors import ExtractionCapExceeded, PreconditionViolated
from updfa.oracle import brute_decide, characteristic_prefix

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


def test_embeddings_are_the_forced_ones():
    d = instance()
    cond = condensation(d)
    cases = [
        ({3}, {3: 8}),        # I2 -> d0
        ({4, 5}, {4: 9, 5: 10}),  # B2 -> d1, C2 -> d2
        ({6}, {6: 15}),       # D2 -> e4
    ]
    for members, want in cases:
        c = cond.scc_of[next(iter(members))]
        (dsc,) = cond.descendants[c]
        emb = build_embedding(d, cond, c, dsc)
        assert emb is not None
        # f is the identity on the target scc and forced on the circuit
        identity = {x: x for x in cond.scc_members[dsc]}
        assert emb.mapping == want | identity


def test_embedding_commutes_with_transitions():
    d = instance()
    cond = condensation(d)
    for c in range(cond.count):
        if cond.scc_type[c] != SccType.TYPE_TWO:
            continue
        (dsc,) = cond.descendants[c]
        emb = build_embedding(d, cond, c, dsc)
        for x, fx in emb.mapping.items():
            assert d.step(x, 1) == d.step(fx, 1)
            assert emb.mapping[d.step(x, 0)] == d.step(fx, 0)


def test_embedding_fails_when_zero_action_disagrees():
    d = mutate(instance(), 6, 1, 12)  # D2.1 -> e1, but e1.0 != e1
    cond = condensation(d)
    c = cond.scc_of[6]
    (dsc,) = cond.descendants[c]
    assert build_embedding(d, cond, c, dsc) is None


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


def test_extract_respects_exponent_cap():
    # {0}+2N in base 2 needs one factor of the base in the period
    dfa = build_minimal_automaton(UpSet.from_parts(2, [0]), 2)
    assert extract_parameters(dfa) == UpSet.from_parts(2, [0])
    with pytest.raises(ExtractionCapExceeded):
        extract_parameters(dfa, max_exponent=0)
    with pytest.raises(ExtractionCapExceeded):
        decide(dfa, max_exponent=0)  # the cap error passes through decide


def test_extract_respects_preperiod_cap():
    s = UpSet.from_parts(3, [1], [9])
    dfa = build_minimal_automaton(s, 2)
    assert extract_parameters(dfa) == s
    with pytest.raises(ExtractionCapExceeded):
        extract_parameters(dfa, max_preperiod=2)


def test_extract_rejects_automata_failing_the_conditions():
    # UP3 fails here; the candidate search must not run at all
    with pytest.raises(PreconditionViolated, match="UP3"):
        extract_parameters(minimize(powers_of_two_dfa()))
    with pytest.raises(PreconditionViolated, match="UP2"):
        extract_parameters(EVEN_ONES)


def test_decide_computes_each_fact_once(monkeypatch):
    calls = {"condensation": 0, "is_pascal_quotient": 0}

    def counted(name):
        fn = getattr(updfa.decision, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(updfa.decision, name, wrapper)

    counted("condensation")
    counted("is_pascal_quotient")
    # periodic with mismatches: the condensation path, then extraction
    res = decide(instance())
    assert res.params.mismatches == (0, 1, 2)
    assert calls["condensation"] <= 1
    # group automaton rejected by the fast path: one quotient test, reused
    # for its single scc under UP2
    calls["is_pascal_quotient"] = 0
    res = decide(EVEN_ONES)
    assert res.failure.condition == "UP2"
    assert calls["is_pascal_quotient"] == 1


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
