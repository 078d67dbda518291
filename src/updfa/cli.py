"""Command-line front end.

Subcommands: decide, gen, info, minimize, bench.  Exit codes: 0 success
(decide: ultimately periodic), 1 decide found the set not ultimately
periodic, 2 input or validation error, or out of memory, 3 an unexpected
internal error (its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

from .automaton import Dfa, SccType, condensation, minimize, parse_dfa, successor_sccs, write_dfa
from .decision import check_conditions, decide
from .errors import (
    FormatError,
    NotCanonical,
    NotCoprime,
    PreconditionViolated,
    UpdfaError,
)
from .numeration import UpSet, _long_int_output, build_minimal_automaton, format_list, format_upset
from .pascal import PascalParams, build_pascal, format_params, is_pascal_quotient


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"expected an integer, got {text!r}")


def _parse_int_list(text: str) -> list[int]:
    if text == "-" or text == "":
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise FormatError(f"expected a comma-separated integer list, got {text!r}")


def _parse_kv(tokens: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        key, sep, val = tok.partition("=")
        if not sep or not key:
            raise FormatError(f"expected key=value, got {tok!r}")
        if key in out:
            raise FormatError(f"duplicate parameter {key!r}")
        out[key] = val
    return out


def _require(kv: dict[str, str], key: str) -> str:
    if key not in kv:
        raise FormatError(f"missing required parameter {key}=...")
    return kv[key]


def cmd_decide(args) -> int:
    dfa = parse_dfa(_read_text(args.path))
    result = decide(dfa)
    with _long_int_output():
        if args.json:
            print(json.dumps(result.to_json_dict()))
        elif result.ultimately_periodic:
            s = result.params
            print("ultimately periodic")
            print(
                f"period={s.period} remainders={format_list(s.remainders)}"
                f" mismatches={format_list(s.mismatches)}"
            )
        else:
            f = result.failure
            print("not ultimately periodic")
            line = f"failed_condition={f.condition} witness={f.witness}"
            if f.diagnostic is not None:
                line += f" diagnostic={f.diagnostic}"
            print(line)
    return 0 if result.ultimately_periodic else 1


def cmd_gen(args) -> int:
    kv = _parse_kv(args.params)
    known = ("base", "p", "R", "I") if args.kind == "upset" else ("base", "p", "R")
    for key in kv:
        if key not in known:
            raise FormatError(f"unknown parameter {key!r} for gen {args.kind}")
    base = _parse_int(kv.get("base", "2"))
    p = _parse_int(_require(kv, "p"))
    rem = _parse_int_list(_require(kv, "R"))
    if args.kind == "upset":
        mis = _parse_int_list(kv.get("I", "-"))
        s = UpSet.from_parts(p, rem, mis)
        given = (p, frozenset(rem), tuple(sorted(set(mis))))
        if (s.period, s.remainders, s.mismatches) != given:
            raise NotCanonical(
                f"(p={p}, R={format_list(rem)}, I={format_list(mis)}) is not canonical;"
                f" its canonical form is {format_upset(s)}"
            )
        dfa = build_minimal_automaton(s, base)
    else:
        dfa = build_pascal(p, rem, base)
    text = write_dfa(dfa)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


def cmd_info(args) -> int:
    dfa = parse_dfa(_read_text(args.path))
    comp = dfa.is_complete
    group = comp and dfa.is_group
    cond = condensation(dfa)
    sccs = []
    quotients: list[PascalParams | None] = [None] * cond.count
    for c in range(cond.count):
        members = cond.scc_members[c]
        entry = {
            "id": c,
            "size": len(members),
            "type": cond.scc_type[c].value,
            "descendants": sorted(successor_sccs(dfa, cond, c)),
            "pascal": None,
            "pascal_failure": None,
        }
        if cond.scc_type[c] is SccType.TYPE_ONE and comp:
            if (check := is_pascal_quotient(dfa, members)).accepted:
                quotients[c] = params = check.params
                entry["pascal"] = {"p": params.p, "remainders": sorted(params.remainders),
                                   "psi": params.psi, "h": params.h, "k": params.k}
            else:
                entry["pascal_failure"] = check.failure.value
        sccs.append(entry)

    if args.json:
        report = {"states": dfa.state_count, "complete": comp, "group": group, "sccs": sccs}
        print(json.dumps(report))
        return 0
    print(f"states {dfa.state_count}")
    print(f"complete {'true' if comp else 'false'}")
    print(f"group {'true' if group else 'false'}")
    for entry, params in zip(sccs, quotients):
        print(
            f"scc {entry['id']} size={entry['size']} type={entry['type']}"
            f" descendants={format_list(entry['descendants'])}"
        )
        if params is not None:
            print(f"scc {entry['id']} pascal {format_params(params)}")
        elif entry["pascal_failure"] is not None:
            print(f"scc {entry['id']} pascal rejected ({entry['pascal_failure']})")
    return 0


def cmd_minimize(args) -> int:
    dfa = parse_dfa(_read_text(args.path))
    sys.stdout.write(write_dfa(minimize(dfa)))
    return 0


def bench_automaton(p: int, base: int) -> Dfa:
    """The minimal automaton of {0} + p*N, built arithmetically: state e
    stands for the derived set {e} + p*N, so reading digit a maps e to
    (e - a) / base mod p.  Exactly p states, all reachable."""
    if math.gcd(p, base) != 1:
        raise NotCoprime(f"gcd({base}, {p}) != 1")
    inv = pow(base, -1, p)
    flat = [(e - a) * inv % p for e in range(p) for a in range(base)]
    return Dfa(base, p, 0, flat, frozenset({0}))


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise PreconditionViolated(f"--repeats must be at least 1, got {args.repeats}")
    if any(p < 1 for p in args.sizes):
        raise PreconditionViolated(f"sizes must be at least 1, got {min(args.sizes)}")
    dfas = [bench_automaton(p, args.base) for p in args.sizes]
    times: list[list[int]] = [[] for _ in dfas]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # round-robin over the sizes, so that a slow spell of the machine
        # lands on samples of every size instead of on one size's median
        for _ in range(args.repeats):
            for dfa, samples in zip(dfas, times):
                t0 = time.perf_counter_ns()
                check_conditions(dfa)
                samples.append(time.perf_counter_ns() - t0)
    finally:
        if was_enabled:
            gc.enable()
    print("p,states,transitions,nanos")
    for p, dfa, samples in zip(args.sizes, dfas, times):
        nanos = int(statistics.median(samples))
        print(f"{p},{dfa.state_count},{dfa.state_count * args.base},{nanos}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="updfa",
        description=(
            "Decide whether a digit automaton (least significant digit first)"
            " accepts an ultimately periodic set of naturals."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide ultimate periodicity of a DFA file")
    p_decide.add_argument("path", help="DFA text file, or - for stdin")
    p_decide.set_defaults(func=cmd_decide)

    p_gen = sub.add_parser("gen", help="generate a DFA from set parameters")
    p_gen.add_argument("kind", choices=["upset", "pascal"])
    p_gen.add_argument(
        "params",
        nargs="*",
        help="key=value parameters: p=, R=, I= (upset only), base= (default 2); '-' = empty list",
    )
    p_gen.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_info = sub.add_parser("info", help="report automaton structure")
    p_info.add_argument("path", help="DFA text file, or - for stdin")
    p_info.set_defaults(func=cmd_info)

    p_min = sub.add_parser("minimize", help="minimize a DFA file")
    p_min.add_argument("path", help="DFA text file, or - for stdin")
    p_min.set_defaults(func=cmd_minimize)

    p_bench = sub.add_parser("bench", help="time check_conditions on p-state automata")
    p_bench.add_argument("sizes", nargs="*", type=int, help="period sizes, coprime with base")
    p_bench.add_argument("--base", type=int, default=2)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UpdfaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception:
        # exit 1 is a verdict, so a fault of this program must not use it
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
