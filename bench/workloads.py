"""The three workloads: which automata one round holds, and what each
verdict must be.

A round is a fixed list of slots; the seed draws the sets inside each slot
(remainders, mismatches, digit-sum classes) but never a slot's family,
base, period or input size, so every seed asks for the same amount of
work and only the contents vary.  A builder makes one round; the runner
builds a round afresh, runs it, and repeats until the run's time is up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen


class WrongVerdict(AssertionError):
    pass


@dataclass
class Op:
    label: str
    source: object  # the gen object the input was built from
    spec: gen.Spec
    check: Callable[[dict], None]
    # positive slots: replay the verdict on every n below this bound
    walk_bound: int | None = None
    path: Path | None = None  # the input as a text file, for the CLI
    # seconds after which the operation is stopped and counted as failed
    deadline: float | None = None

    @property
    def states(self) -> int:
        return self.spec.states


def _draw_remainders(rng: random.Random, p: int) -> frozenset:
    """A random half-density residue set whose least period is p."""
    while True:
        rem = frozenset(r for r in range(p) if rng.random() < 0.5)
        if 0 < len(rem) < p and gen.canonical_form(p, rem, ())[0] == p:
            return rem


def _draw_mismatches(
    rng: random.Random, base: int, period: int, count: int, digits: int
) -> frozenset:
    """`count` numbers with exactly `digits` base-b digits, pairwise
    distinct modulo the period, so that a tracker has the same number of
    states whatever the draw."""
    pool = range(base ** (digits - 1), base**digits)
    while True:
        mis = rng.sample(pool, count)
        if len({m % period for m in mis}) == count:
            return frozenset(mis)


def expect_periodic(period: int, remainders, mismatches) -> Callable[[dict], None]:
    p, rem, mis = gen.canonical_form(period, remainders, mismatches)
    want = {
        "ultimately_periodic": True,
        "period": p,
        "remainders": sorted(rem),
        "mismatches": list(mis),
    }

    def check(verdict: dict) -> None:
        got = {k: verdict.get(k) for k in want}
        if got != want:
            raise WrongVerdict(f"expected {want}, got {verdict}")

    return check


def expect_rejected(conditions: tuple) -> Callable[[dict], None]:
    def check(verdict: dict) -> None:
        if verdict.get("ultimately_periodic") is not False:
            raise WrongVerdict(f"expected a rejection, got {verdict}")
        if verdict.get("failed_condition") not in conditions:
            raise WrongVerdict(
                f"expected a failure at one of {conditions}, got {verdict}"
            )

    return check


def walk_check(op: Op, verdict: dict) -> None:
    """Replay the verdict's parameters against the input automaton on
    every n below the slot's bound (at least two periods past the last
    mismatch)."""
    base, bound = op.spec.base, op.walk_bound
    p = verdict["period"]
    rem = set(verdict["remainders"])
    mis = set(verdict["mismatches"])
    for n in range(bound):
        said = (n % p in rem) != (n in mis)
        if gen.run(op.spec, gen.digits(n, base)) != said:
            raise WrongVerdict(f"{op.label}: parameters disagree with the input at n={n}")


def _walk_bound(period: int, mismatches) -> int:
    return max(256, max(mismatches, default=-1) + 1 + 2 * period)


def _periodic_op(label: str, source) -> Op:
    return Op(
        label,
        source,
        source.spec(),
        expect_periodic(source.period, source.remainders, source.mismatches),
        _walk_bound(source.period, source.mismatches),
    )


# periodic-extract: (base, coprime part, base-power exponent, redundancy,
# mismatches, digits of each mismatch); the period is coprime part *
# base ** exponent.  Slots are listed by the cost of `decide` on them,
# about 8 ms to 0.2 s on a 2-vCPU virtual machine.  With three draws of
# each, the median falls on slot 10 and the 90th percentile between slots
# 18 and 19; the slots around both cost about the same and vary little
# with the draw, so neither percentile sits in a gap between slots.  Every
# mismatch stays below 4 * p * b^e, the preperiod extraction samples, so
# no draw sends extraction down a different path.
LADDER = (
    (10, 3, 1, 3, 2, 2),
    (3, 7, 1, 2, 2, 3),
    (3, 5, 2, 3, 2, 3),
    (2, 31, 0, 3, 2, 6),
    (2, 5, 4, 3, 2, 6),
    (10, 13, 0, 2, 2, 1),
    (2, 11, 1, 20, 2, 6),
    (3, 23, 0, 4, 2, 4),
    (10, 7, 1, 2, 2, 2),
    (2, 43, 0, 1, 2, 7),
    (2, 29, 0, 5, 2, 6),
    (2, 29, 0, 8, 2, 6),
    (2, 17, 2, 1, 2, 6),
    (2, 17, 2, 3, 2, 6),
    (2, 19, 1, 5, 2, 6),
    (2, 19, 1, 2, 2, 6),
    (2, 41, 0, 3, 2, 7),
    (2, 41, 0, 5, 2, 7),
    (2, 47, 0, 2, 2, 7),
    (2, 47, 0, 1, 2, 7),
    (2, 13, 3, 1, 2, 7),
)
LADDER_COPIES = 3
# sets b^e * N, whose extraction samples 4 * b^(2e') integers for every
# e' <= e: they stay past any deadline a user would set.  Only these carry
# a deadline; the ladder runs unbounded, so a slowdown there shows in the
# latencies instead of turning into failures.
DEADLINE_SETS = ((2, 12), (3, 8))
DEADLINE_S = 1.0


def periodic_extract(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for copy in range(LADDER_COPIES):
        for i, (b, pc, e, k, n_mis, digits) in enumerate(LADDER):
            p = pc * b**e
            mis = _draw_mismatches(rng, b, p, n_mis, digits)
            tracker = gen.Tracker(b, p, _draw_remainders(rng, p), mis, k, digits)
            ops.append(_periodic_op(f"ladder{i}.{copy} b={b} p={p}", tracker))
    for b, e in DEADLINE_SETS:
        tracker = gen.Tracker(b, b**e, frozenset({0}))
        op = _periodic_op(f"deadline b={b} p={b}^{e}", tracker)
        op.deadline = DEADLINE_S
        ops.append(op)
    return ops


def _draw_sums(rng: random.Random, m: int) -> frozenset:
    """A proper nonempty set of digit-sum classes modulo m."""
    return frozenset(rng.sample(range(m), rng.randint(1, m - 1)))


def _reject_op(label: str, source, conditions: tuple) -> Op:
    return Op(label, source, source.spec(), expect_rejected(conditions))


# a set that is ultimately periodic by value can never fail UP0, so the
# families that are read by value must fail later
BY_VALUE = ("UP2", "UP3", "UP4")


def aperiodic_reject(rng: random.Random, workdir: Path) -> list[Op]:
    """Sets that are not ultimately periodic, for the reason in each
    family's docstring in gen (digit sums: Gelfond's equidistribution of
    s_b mod m along progressions when gcd(m, b - 1) = 1; powers of b: an
    infinite set of density 0; Stripped: see its docstring)."""

    def group(b, p, k, m):
        return gen.Tracker(b, p, _draw_remainders(rng, p), redundancy=k, m=m,
                           sums=_draw_sums(rng, m))

    def transient(b, p, k, m, n_mis, digits):
        return gen.Tracker(b, p, _draw_remainders(rng, p),
                           _draw_mismatches(rng, b, p, n_mis, digits), k, digits,
                           m=m, sums=_draw_sums(rng, m))

    def powers(b, p, k):
        return gen.Tracker(b, p, _draw_remainders(rng, p), redundancy=k, powers=True)

    def stripped(b, p, k, size):
        rest = rng.sample([r for r in range(p) if r != 1], size - 1)
        return gen.Stripped(b, p, frozenset({1, *rest}), k)

    def canonical(b, p, k):
        return gen.Canonical(b, p, _draw_remainders(rng, p), k)

    # an odd number of slots, so that the median falls on the samples of
    # the middle slot and never in the gap between two; the top slot holds
    # the 90th percentile.  Group path: the two `group` slots;
    # condensation: powers, transient and stripped; UP0 before either:
    # canonical
    return [
        _reject_op("powers b=2 p=101 k=3", powers(2, 101, 3), BY_VALUE),
        _reject_op("transient b=2 p=101 m=5", transient(2, 101, 1, 5, 3, 7), BY_VALUE),
        _reject_op("canonical b=2 p=101 k=5", canonical(2, 101, 5), ("UP0",)),
        _reject_op("group b=10 p=97 m=2", group(10, 97, 1, 2), BY_VALUE),
        _reject_op("stripped b=2 p=211", stripped(2, 211, 1, 20), BY_VALUE),
        _reject_op("group b=2 p=101 m=3 k=5", group(2, 101, 5, 3), BY_VALUE),
        _reject_op("stripped b=2 p=211 k=3", stripped(2, 211, 3, 20), BY_VALUE),
    ]


# cli-redundant: (base, period, depth of the unrolled length counter,
# digits of each of the two mismatches); 1e5 to 1.5e5 states, the middle
# two of equal cost
UNROLLED = (
    (2, 7, 11100, 4),
    (2, 9, 13600, 5),
    (2, 5, 21400, 4),
    (3, 8, 15000, 3),
)


def write_text(spec: gen.Spec, path: Path) -> None:
    """The automaton in the CLI's text format, one trans line per edge."""
    b = spec.base
    with open(path, "w") as fh:
        fh.write(f"base {b}\nstates {spec.states}\ninitial 0\n")
        fh.write("final " + " ".join(map(str, spec.final_states())) + "\n")
        fh.writelines(
            f"trans {i // b} {i % b} {q}\n" for i, q in enumerate(spec.transitions)
        )


def cli_redundant(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i, (b, p, depth, digits) in enumerate(UNROLLED):
        mis = _draw_mismatches(rng, b, p, 2, digits)
        unrolled = gen.Unrolled(b, p, _draw_remainders(rng, p), mis, depth)
        op = _periodic_op(f"unrolled b={b} p={p} depth={depth}", unrolled)
        op.path = workdir / f"unrolled{i}.dfa"
        write_text(op.spec, op.path)
        ops.append(op)
    return ops


# name -> builder of one round
WORKLOADS = {
    "periodic-extract": periodic_extract,
    "aperiodic-reject": aperiodic_reject,
    "cli-redundant": cli_redundant,
}
