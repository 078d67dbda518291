"""Acceptance gate: one test per shipping criterion, with runtime bounds.

Each test states its tolerance inline and fails honestly if the bound or
the budget is missed; pytest -v therefore reads as a per-criterion report.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from pathlib import Path

from updfa import (
    Dfa,
    PascalParams,
    UpSet,
    build_minimal_automaton,
    build_pascal,
    build_quotient,
    condensation,
    decide,
    delta,
    h_p,
    is_group_automaton,
    is_pascal_quotient,
    minimize,
)

from conftest import language_table, membership_table, subprocess_env
from oracle import brute_decide
from test_automaton import EVEN_ONES, powers_of_two_dfa


class Budget:
    """Wall-clock guard: `with Budget(seconds):` fails the test when over."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.t0
            assert elapsed < self.seconds, f"took {elapsed:.3f}s, budget {self.seconds}s"
        return False


def test_criterion_01_h5_golden_table():
    table = {0: (0, 2), 1: (3, 0), 2: (1, 3), 3: (4, 1), 4: (2, 4)}
    with Budget(0.001):
        got = {e: (h_p(e, 0, 5, 2), h_p(e, 1, 5, 2)) for e in range(5)}
    assert got == table


def test_criterion_02_delta_golden_rows():
    s1 = UpSet.from_parts(1, [], [0, 3, 4])
    s45 = UpSet.from_parts(5, [0, 1, 2, 4], [0])
    with Budget(0.001):
        r1 = delta(s1, 0, 2)
        r4 = delta(s45, 0, 2)
        r5 = delta(s45, 1, 2)
    assert r1 == UpSet.from_parts(1, [], [0, 2])
    assert r4 == UpSet.from_parts(5, [0, 1, 2, 3], [0])
    assert r5 == UpSet.from_parts(5, [0, 2, 3, 4])


def test_criterion_03_running_example():
    want = PascalParams(5, frozenset({0, 3}), 4, 3, 2)
    with Budget(0.010):
        check = is_pascal_quotient(minimize(build_pascal(5, [0, 3], 3)))
        assert check.params == want
        q = build_quotient(want, 3)
        for s in range(5):
            assert q.step(s * 2 + 0, 0) == s * 2 + 1
            assert q.step(s * 2 + 1, 0) == ((4 * s - 2) % 5) * 2
            assert q.step(s * 2 + 0, 1) == ((s + 1) % 5) * 2
            assert q.step(s * 2 + 1, 1) == ((s + 3) % 5) * 2 + 1


def test_criterion_04_pascal_state_counts():
    with Budget(0.001):
        six = build_pascal(3, [2], 2).state_count
        twenty_one = build_pascal(7, [6], 2).state_count
    assert six == 6
    assert twenty_one == 21


def test_criterion_05_construction_matches_membership(corpus_instances):
    assert 2000 <= len(corpus_instances) <= 10000  # "several thousand"
    with Budget(60):
        for s, base in corpus_instances:
            dfa = build_minimal_automaton(s, base)
            got = language_table(dfa, 8)
            want = membership_table(s, base, 8)
            for g, w in zip(got, want):
                assert (g == w).all(), (s, base)


def test_criterion_06_round_trip_completeness(corpus_instances):
    with Budget(120):
        for s, base in corpus_instances:
            res = decide(build_minimal_automaton(s, base))
            assert res.ultimately_periodic, (s, base)
            assert res.params == s, (s, base)


def even_position_digit_one_dfa() -> Dfa:
    # {n : some even position of the base-2 expansion holds digit 1},
    # tracked as (position parity, seen a hit); minimal form has 3 states
    trans = {}
    for par in range(2):
        for seen in range(2):
            q = par * 2 + seen
            for a in range(2):
                hit = seen or (a == 1 and par == 0)
                trans[(q, a)] = (1 - par) * 2 + hit
    return minimize(Dfa.from_map(2, 4, 0, trans, {1, 3}))


def test_criterion_07_soundness_on_aperiodic_sets():
    with Budget(10):
        for dfa in (minimize(powers_of_two_dfa()), EVEN_ONES, even_position_digit_one_dfa()):
            res = decide(dfa)
            assert not res.ultimately_periodic
            assert res.failure is not None
            assert brute_decide(dfa, 2**10, 2**8) is None


def test_criterion_08_mutation_suite(corpus_sets):
    rng = random.Random(20260814)
    max_m, max_p = 48, 64
    with Budget(120):
        for i in range(200):
            s = rng.choice(corpus_sets)
            base = 2 + i % 2
            dfa = build_minimal_automaton(s, base)
            idx = rng.randrange(len(dfa.transitions))
            old = dfa.transitions[idx]
            new = rng.choice([q for q in range(dfa.state_count) if q != old])
            trans = list(dfa.transitions)
            trans[idx] = new
            mutant = minimize(
                Dfa(base, dfa.state_count, dfa.initial, tuple(trans), dfa.finals)
            )
            verdict = decide(mutant)
            slow = brute_decide(mutant, max_m, max_p)
            if slow is not None:
                # a verified positive from the oracle is ground truth
                assert verdict.ultimately_periodic and verdict.params == slow
            elif verdict.ultimately_periodic:
                # a verified positive from decide is ground truth too, so the
                # oracle may only have missed it for lack of bounds
                assert (
                    verdict.params.period > max_p
                    or verdict.params.preperiod > max_m
                )


def test_criterion_09_linear_scaling():
    # measured through the shipped bench command in a fresh interpreter, so
    # the timings are not skewed by this test session's heap
    sizes = ["1003", "10007", "100003", "1000003"]
    with Budget(300):
        proc = subprocess.run(
            [sys.executable, "-m", "updfa.cli", "bench", *sizes, "--repeats", "9"],
            capture_output=True,
            env=subprocess_env(),
            text=True,
        )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert [r[0] for r in rows] == sizes
    medians = [int(r[3]) for r in rows]
    for smaller, larger in zip(medians, medians[1:]):
        ratio = larger / smaller
        assert ratio <= 13, f"decade ratio {ratio:.2f} exceeds 13 ({medians})"


CHAIN_MINIMIZE_BENCH = """
import gc, statistics, time
from updfa import Dfa, minimize
sizes = (10**4, 10**5)
chains = [Dfa(2, n, 0, [min(s + 1, n - 1) for s in range(n) for _ in range(2)],
              frozenset({n - 1})) for n in sizes]
times = [[] for _ in sizes]
gc.disable()
for _ in range(5):
    for dfa, samples in zip(chains, times):
        t0 = time.perf_counter_ns()
        minimize(dfa)
        samples.append(time.perf_counter_ns() - t0)
print(*(int(statistics.median(s)) for s in times))
"""


def test_minimize_chain_scaling():
    # in the chain, state i reads every digit into i + 1 and only the last
    # state is final, so each Moore round splits off a single state: Moore
    # rounds alone cost about 100x per decade here, O(bn log n) about 12x;
    # measured in a fresh interpreter, repeats round-robin over the sizes
    proc = subprocess.run(
        [sys.executable, "-c", CHAIN_MINIMIZE_BENCH],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    ratio = large / small
    assert ratio <= 20, f"decade ratio {ratio:.2f} exceeds 20 ({small}, {large} ns)"


DECIDE_SCALING_BENCH = """
import gc, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from test_automaton import SETTLES, redundant_product
from test_decision import base_power_dfa, circuits_dfa
from updfa import Dfa, automaton, decide, minimize
from updfa.cli import bench_automaton
from updfa.decision import _conditions, _read_parameters

def extract(minimal):
    verified = _conditions(minimal)[1]
    return lambda: _read_parameters(minimal, verified)

products = [redundant_product(SETTLES, copies) for copies in (81, 807)]
groups = [bench_automaton(p, 2) for p in (10007, 100003)]
chains = [Dfa(2, n, 0, [min(s + 1, n - 1) for s in range(n) for _ in range(2)],
              frozenset({n - 1})) for n in (10**4, 10**5)]
powers = [base_power_dfa(e, 2) for e in (10**4, 10**5)]
# p = 3 * 11 * 151 and 151 * 331 divide 2^30 - 1: about p / 30
# 0-circuits, 9,966 and 99,962 states
circuits = [circuits_dfa(p) for p in (4983, 49981)]
runs = [lambda d=d: decide(d) for d in products + groups + chains + powers]
runs += [extract(minimize(d)) for d in powers]
runs += [lambda d=d: decide(d) for d in circuits]
tail = automaton._hopcroft
automaton._hopcroft = None  # the products and the group family settle in Moore rounds
assert all(decide(d).ultimately_periodic for d in products + groups)
automaton._hopcroft = tail
times = [[] for _ in runs]
gc.disable()
for _ in range(5):
    for run, samples in zip(runs, times):
        t0 = time.perf_counter_ns()
        run()
        samples.append(time.perf_counter_ns() - t0)
print(*(int(statistics.median(s)) for s in times))
"""


def test_decide_scaling():
    # decide end to end at 10^4 and 10^5 states: a redundant product and
    # the group automaton of {0} + pN, which Moore rounds settle; the chain
    # of test_minimize_chain_scaling, which the Hopcroft tail finishes; and
    # the 0-chain of 2^e * N, whose extraction alone is timed as well,
    # since the decide ratio hides it; and the 0-circuits of
    # test_up4_scaling_many_circuits_into_one_scc, embedded through the
    # 1-predecessors that UP2 records; O(bn log n) is about 12x per
    # decade, a quadratic extraction about 100x.  Measured in a fresh
    # interpreter, repeats round-robin over the sizes
    proc = subprocess.run(
        [sys.executable, "-c", DECIDE_SCALING_BENCH, str(Path(__file__).parent)],
        capture_output=True,
        env=subprocess_env(),
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    medians = list(map(int, proc.stdout.split()))
    names = (
        "redundant product", "group automaton", "chain", "2^e * N", "2^e * N extraction",
        "0-circuits",
    )
    for name, small, large in zip(names, medians[::2], medians[1::2]):
        ratio = large / small
        assert ratio <= 20, f"{name}: decade ratio {ratio:.2f} exceeds 20 ({small}, {large} ns)"


def test_criterion_10_group_structure_lemmas(corpus_sets):
    with Budget(30):
        for s in corpus_sets:
            for base in (2, 3):
                atomic = not s.mismatches and math.gcd(s.period, base) == 1
                dfa = build_minimal_automaton(s, base)
                group = is_group_automaton(dfa)
                strongly_connected = condensation(dfa).count == 1
                assert atomic == group == strongly_connected, (s, base)
        # quotients of group automata stay group automata
        for p, rem, base in [(5, [0, 3], 2), (5, [0, 3], 3), (7, [6], 2), (13, [1, 8], 3)]:
            assert is_group_automaton(minimize(build_pascal(p, rem, base)))
