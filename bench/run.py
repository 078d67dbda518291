"""Run one workload of the updfa benchmark and print its metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src`.
Whole rounds run until S seconds have passed.  Each round first builds its
inputs afresh from the seed, timed (set-up), then runs its operations.
Every verdict is checked against the answer the benchmark computed itself.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.

With --trace 1 every operation runs twice, first untraced and then with
spans around the package's layers (see spans.py); in the first round it
runs a third time to take tracemalloc peaks.  Per-layer figures are means
per operation over the operations that reached a verdict, and
trace.overhead_s is the traced minus the untraced time per operation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "states_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# metric name -> unit; layer metrics are per operation that reached a verdict
PER_LAYER = {
    "automaton.parse_dfa.self_s": "s",
    "automaton.parse_dfa.peak_mb": "MB",
    "automaton.minimize.self_s": "s",
    "automaton.minimize.peak_mb": "MB",
    "automaton.minimize.states_in": "count",
    "automaton.minimize.states_out": "count",
    "decision.decide.self_s": "s",
    "decision.check_conditions.self_s": "s",
    "automaton.condensation.self_s": "s",
    "automaton.condensation.calls": "count",
    "automaton.condensation.sccs": "count",
    "pascal.is_pascal_quotient.self_s": "s",
    "pascal.is_pascal_quotient.calls": "count",
    "decision.build_embedding.self_s": "s",
    "decision.build_embedding.calls": "count",
    "decision.extract_parameters.self_s": "s",
    "decision.extract_parameters.verified_ratio": "ratio",
    "automaton.accepts.calls": "count",
    "numeration.build_minimal_automaton.self_s": "s",
    "numeration.build_minimal_automaton.states": "count",
    "automaton.isomorphic.self_s": "s",
    "automaton.isomorphic.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class Deadline(Exception):
    pass


class OpFailed(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


def load_package():
    """Import updfa from this checkout's src, and nothing else."""
    if not (SRC / "updfa" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import updfa

    if Path(updfa.__file__).resolve().parent != SRC / "updfa":
        raise SystemExit(f"bench: imported updfa from {updfa.__file__}, not {SRC}")
    return updfa


class Runner:
    """Executes one operation untraced, traced or under tracemalloc."""

    def __init__(self, updfa, workdir: Path):
        self.updfa = updfa
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def execute(self, op, tracer: spans.Tracer | None = None) -> tuple[float, dict]:
        if op.path is not None:
            return self._execute_cli(op, tracer)
        updfa = self.updfa
        s = op.spec
        # a fresh Dfa per operation: the package memoises into the instance
        dfa = updfa.Dfa(s.base, s.states, 0, tuple(s.transitions),
                        frozenset(s.final_states()))
        uninstall = None
        decide = updfa.decide
        if tracer is not None:
            uninstall = spans.install(tracer)
            decide = tracer.wrap(decide)
        gc.collect()
        gc.freeze()
        try:
            if op.deadline:
                signal.setitimer(signal.ITIMER_REAL, op.deadline)
            try:
                t0 = time.perf_counter()
                result = decide(dfa)
                elapsed = time.perf_counter() - t0
            finally:
                if op.deadline:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            gc.unfreeze()
            if uninstall is not None:
                uninstall()
        return elapsed, result.to_json_dict()

    def _execute_cli(self, op, tracer):
        cli = ["--json", "decide", str(op.path)]
        if tracer is None:
            cmd = [sys.executable, "-m", "updfa.cli", *cli]
        else:
            span_file = self.workdir / "spans.json"
            cmd = [sys.executable, str(HERE / "host.py"), "--spans", str(span_file)]
            cmd += ["--memory"] if tracer.memory else []
            cmd += ["--", *cli]
        gc.collect()
        gc.freeze()
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT)
            elapsed = time.perf_counter() - t0
        finally:
            gc.unfreeze()
        if proc.returncode not in (0, 1):
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()}")
        if tracer is not None:
            with open(span_file) as fh:
                saved = json.load(fh)
            tracer.spans.extend(saved["spans"])
            for name, n in saved["counts"].items():
                tracer.counts[name] += n
        return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(traced: list, peaks: dict, overhead: float) -> dict:
    """Per-operation means of self time and sizes over the traced
    operations, the largest tracemalloc peaks, and the tracing overhead."""
    n = max(len(traced), 1)
    self_s: dict = {}
    calls: dict = {}
    attrs: dict = {}
    accepts = 0
    for tracer in traced:
        for name, t in spans.self_times(tracer.spans).items():
            self_s[name] = self_s.get(name, 0.0) + t
        for rec in tracer.spans:
            calls[rec[0]] = calls.get(rec[0], 0) + 1
            for key, value in (rec[4] or {}).items():
                attrs[rec[0], key] = attrs.get((rec[0], key), 0) + value
        accepts += tracer.counts.get("automaton.accepts", 0)
    iso = calls.get("automaton.isomorphic", 0)
    out = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "self_s":
            value = self_s.get(layer, 0.0) / n
        elif field == "calls":
            value = (accepts if layer == "automaton.accepts" else calls.get(layer, 0)) / n
        elif field == "peak_mb":
            value = peaks.get(layer, 0) / 2**20
        elif field == "verified_ratio":
            value = attrs.get(("automaton.isomorphic", "verified"), 0) / iso if iso else 0.0
        elif layer == "trace":
            value = overhead / n
        else:
            value = attrs.get((layer, field), 0) / n
        out[metric] = value
    return out


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    ops: list = field(default_factory=list)  # the last round built
    setup: list = field(default_factory=list)  # seconds per round built
    times: dict = field(default_factory=dict)  # op index -> seconds per verdict
    traced: list = field(default_factory=list)  # one Tracer per traced operation
    peaks: dict = field(default_factory=dict)  # layer -> largest tracemalloc peak
    overhead: float = 0.0  # traced minus untraced seconds, summed
    first_error: str | None = None
    wrong: str | None = None  # set when a verdict was wrong; the run stops


def build_round(tally: Tally, build, seed: str, workdir: Path) -> list:
    """Build one round's inputs afresh and time it.  The previous round is
    dropped first, so only one round is ever held, and every build starts
    from the same heap."""
    tally.ops = []
    gc.collect()
    rng = random.Random(seed)
    t0 = time.perf_counter()
    ops = build(rng, workdir)
    tally.setup.append(time.perf_counter() - t0)
    tally.ops = ops
    return ops


def measure(build, seed: str, runner: Runner, seconds: float, trace: bool) -> Tally:
    """Build and run whole rounds until their operations have taken
    `seconds`; the builds do not count.  Set-up is timed once per round,
    so its samples are spread over the whole run."""
    tally = Tally()
    walked = set()
    spent = 0.0
    first_round = True
    while True:
        ops = build_round(tally, build, seed, runner.workdir)
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tally.attempted += 1
            try:
                if trace:
                    # alternate which of the pair runs first, so the warm
                    # caches of the second run do not bias the overhead
                    tracer = spans.Tracer()
                    if i % 2:
                        elapsed, verdict = runner.execute(op)
                        traced_elapsed, traced_verdict = runner.execute(op, tracer)
                    else:
                        traced_elapsed, traced_verdict = runner.execute(op, tracer)
                        elapsed, verdict = runner.execute(op)
                else:
                    elapsed, verdict = runner.execute(op)
            except Exception as exc:
                # a deadline, a crash or an error exit: the operation failed,
                # the run goes on
                tally.failed += 1
                if tally.first_error is None:
                    tally.first_error = f"{op.label}: " + (
                        "deadline passed" if isinstance(exc, Deadline)
                        else traceback.format_exc()
                    )
                continue
            try:
                op.check(verdict)
                if trace:
                    op.check(traced_verdict)
                if op.walk_bound is not None and i not in walked:
                    workloads.walk_check(op, verdict)
                    walked.add(i)
            except workloads.WrongVerdict as exc:
                tally.wrong = f"{op.label}: {exc}"
                return tally
            tally.times.setdefault(i, []).append(elapsed)
            if trace:
                tally.traced.append(tracer)
                tally.overhead += traced_elapsed - elapsed
                if first_round:
                    memory = spans.Tracer(memory=True)
                    runner.execute(op, memory)
                    for rec in memory.spans:
                        tally.peaks[rec[0]] = max(
                            tally.peaks.get(rec[0], 0), rec[4]["peak_bytes"])
        first_round = False
        ops = None
        spent += time.perf_counter() - start
        if spent >= seconds:
            return tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    updfa = load_package()
    # one CPU for the whole run; child processes inherit it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    build = workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally = measure(build, f"{args.workload}:{args.seed}", Runner(updfa, workdir),
                        args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tally.first_error:
        print(f"bench: {tally.failed} of {tally.attempted} operations failed;"
              f" first: {tally.first_error}", file=sys.stderr)
    result = {"correct": tally.wrong is None, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": {}}
    if tally.wrong:
        print(f"bench: WRONG VERDICT {tally.wrong}", file=sys.stderr)
        print(json.dumps(result))
        return 1
    if args.trace:
        values = layer_metrics(tally.traced, tally.peaks, tally.overhead)
        units = PER_LAYER
        with open(OUT / f"spans-{tag}.json", "w") as fh:
            json.dump([{"spans": t.spans, "counts": dict(t.counts)} for t in tally.traced], fh)
    else:
        who = (resource.RUSAGE_CHILDREN if tally.ops[0].path is not None
               else resource.RUSAGE_SELF)
        pooled = [t for ts in tally.times.values() for t in ts]
        states = sum(tally.ops[i].states * len(ts) for i, ts in tally.times.items())
        values = {
            "setup_s": statistics.median(tally.setup),
            "states_per_s": states / sum(pooled),
            "latency_p50_ms": 1000 * statistics.median(pooled),
            "latency_p90_ms": 1000 * statistics.quantiles(pooled, n=10)[8],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        units = END_TO_END
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
