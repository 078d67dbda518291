"""Run the updfa command line under the benchmark's tracer.

usage: python3 bench/host.py --spans FILE [--memory] -- CLI-ARGUMENTS...

Behaves like `updfa CLI-ARGUMENTS...` (same output, same exit code) and
writes the spans of that one invocation to FILE.  The package must be
importable, for example with PYTHONPATH=src.
"""

from __future__ import annotations

import argparse
import sys

import spans


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = spans.Tracer(memory=args.memory)
    spans.install(tracer)
    import updfa.cli

    try:
        return tracer.wrap(updfa.cli.main)(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
