"""The traced run: per-layer costs of `decide` on every workload.

usage: python3 bench/layers.py [--seed N] [--seconds S]

Runs `bench/run.py --trace 1` once per workload, each in its own process,
and prints one table: a row per layer metric, a column per workload.  The
`self_s` rows are the layer costs of `decide` (seconds per operation);
`trace.overhead_s` is what the spans cost per operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def traced(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()

    names = list(workloads.WORKLOADS)
    results = {w: traced(w, args.seed, args.seconds) for w in names}
    print(f"seed {args.seed}, {args.seconds:g} s per workload; "
          "figures per operation that reached a verdict")
    print()
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for metric, cell in results[names[0]]["metrics"].items():
        row = [f"{results[w]['metrics'][metric]['value']:.4g}" for w in names]
        print(f"| {metric} | {cell['unit']} | " + " | ".join(row) + " |")
    ops = [f"{results[w]['attempted']} ({results[w]['failed']} failed)" for w in names]
    print("| operations traced | count | " + " | ".join(ops) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
