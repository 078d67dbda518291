"""Checks of the benchmark's own generators against their intended sets,
by brute membership on 0..N.  Run with: python3 -m pytest bench
"""

from __future__ import annotations

import random

import pytest

import gen
import workloads


def _accepts_value(spec: gen.Spec, n: int, padding: int = 0) -> bool:
    return gen.run(spec, gen.digits(n, spec.base) + [0] * padding)


def _agrees(obj, limit: int) -> None:
    spec = obj.spec()
    for n in range(limit):
        want = obj.member(n)
        # by value: trailing zeros above the top digit change nothing
        for padding in (0, 1, 3):
            assert _accepts_value(spec, n, padding) == want, (obj, n, padding)


@pytest.mark.parametrize(
    "base,period,mismatches,redundancy",
    [(2, 12, (5, 9), 3), (3, 7, (), 2), (10, 30, (4, 17), 1), (2, 4096, (), 1)],
)
def test_periodic_tracker(base, period, mismatches, redundancy):
    rng = random.Random(period)
    rem = frozenset(rng.sample(range(period), period // 2))
    mis = frozenset(mismatches)
    t = gen.Tracker(base, period, rem, mis, redundancy, gen.exact_digits(mis, base))
    _agrees(t, 3 * period + 50)


@pytest.mark.parametrize("base,m", [(2, 3), (3, 5), (10, 2)])
def test_digit_sum_tracker(base, m):
    t = gen.Tracker(base, 7, frozenset({1, 2, 4}), frozenset({6}), 1,
                    gen.exact_digits({6}, base), m=m, sums=frozenset({1}))
    _agrees(t, 600)


@pytest.mark.parametrize("base", [2, 3, 10])
def test_powers_tracker(base):
    t = gen.Tracker(base, 5, frozenset({0, 3}), redundancy=2, powers=True)
    _agrees(t, 1200)


@pytest.mark.parametrize("base,period", [(2, 11), (3, 7), (10, 7)])
def test_stripped(base, period):
    _agrees(gen.Stripped(base, period, frozenset({1, 2}), 2), 1500)


@pytest.mark.parametrize("base,period,depth", [(2, 7, 40), (3, 8, 25)])
def test_unrolled(base, period, depth):
    u = gen.Unrolled(base, period, frozenset({1, 5}), frozenset({9, 20}), depth)
    spec = u.spec()
    assert spec.states >= period * depth
    _agrees(u, 500)
    # past the unrolled depth the automaton keeps counting correctly
    for n in (base**depth + 5, 3 * base ** (depth + 2) + 1):
        assert _accepts_value(spec, n) == u.member(n)


@pytest.mark.parametrize("base", [2, 3, 10])
def test_canonical_language(base):
    c = gen.Canonical(base, 6, frozenset({0, 4}), 2)
    spec = c.spec()
    for n in range(400):
        word = gen.digits(n, base)
        assert gen.run(spec, word) == c.accepts_word(word) == (n % 6 in {0, 4})
        # not closed under appending 0: the padded word is always refused
        assert not gen.run(spec, word + [0])


def _brute_canonical(member, limit: int, max_period: int):
    bits = [member(n) for n in range(limit)]
    for d in range(1, max_period + 1):
        tail = limit // 2
        if all(bits[n] == bits[n + d] for n in range(tail, limit - d)):
            m = tail
            while m > 0 and bits[m - 1] == bits[m - 1 + d]:
                m -= 1
            rem = frozenset(r for r in range(d) if bits[tail + (r - tail) % d])
            mis = tuple(n for n in range(m) if bits[n] != (n % d in rem))
            return d, rem, mis
    raise AssertionError("no period found")


def test_canonical_form_matches_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.randint(1, 24)
        rem = frozenset(r for r in range(p) if rng.random() < 0.5)
        mis = frozenset(rng.sample(range(40), rng.randint(0, 3)))

        def member(n, p=p, rem=rem, mis=mis):
            return (n % p in rem) != (n in mis)

        assert gen.canonical_form(p, rem, mis) == _brute_canonical(member, 400, p)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_sizes_do_not_depend_on_seed(name, tmp_path):
    setup = workloads.WORKLOADS[name]
    sizes = [
        [op.states for op in setup(random.Random(f"{name}:{seed}"), tmp_path)]
        for seed in (1, 2, 3)
    ]
    assert sizes[0] == sizes[1] == sizes[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_match_their_sets(name, tmp_path):
    setup = workloads.WORKLOADS[name]
    for op in setup(random.Random(f"{name}:3"), tmp_path):
        src = op.source
        for n in range(1500):
            if isinstance(src, gen.Canonical):
                word = gen.digits(n, src.base)
                assert gen.run(op.spec, word) == src.accepts_word(word), (op.label, n)
            else:
                assert _accepts_value(op.spec, n) == src.member(n), (op.label, n)
