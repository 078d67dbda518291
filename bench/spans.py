"""Spans around the package's public functions, recorded from outside.

`install` rebinds, in `updfa.decision` and `updfa.cli`, the names those
modules call their layers by, so every call the package makes between
layers passes through a wrapper.  A wrapper appends one span (name, start,
end, parent, attributes) to an in-memory list; nothing is written until
`dump`.  One tracer holds the spans of one operation.  `accepts` is
called once per sampled integer during extraction, so it only bumps a
counter.  A layer's self time is its span's duration minus
the durations of its child spans (calls are sequential, so children never
overlap).

In memory mode the `parse_dfa` and `minimize` wrappers run their call under
`tracemalloc` instead and record the peak growth of traced memory, in a
pass of its own because tracemalloc slows every allocation it sees.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import defaultdict

# names bound in updfa.decision, then in updfa.cli, that are wrapped
DECISION_LAYERS = (
    "minimize",
    "check_conditions",
    "condensation",
    "is_pascal_quotient",
    "build_embedding",
    "extract_parameters",
    "build_minimal_automaton",
    "isomorphic",
)
CLI_LAYERS = ("parse_dfa", "decide")
COUNTED = ("accepts",)
MEMORY_LAYERS = ("parse_dfa", "minimize")


def layer_name(fn) -> str:
    """'module.function' with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _attributes(name: str, args, result) -> dict:
    """Sizes that say how much work a call was given or produced."""
    if name == "automaton.minimize":
        return {"states_in": args[0].state_count, "states_out": result.state_count}
    if name == "automaton.condensation":
        return {"sccs": result.count}
    if name == "numeration.build_minimal_automaton":
        return {"states": result.state_count}
    if name == "automaton.isomorphic":
        return {"verified": bool(result)}
    return {}


class Tracer:
    """Spans and counts of one traced operation."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn):
        name = layer_name(fn)
        if self.memory:
            if fn.__name__ not in MEMORY_LAYERS:
                return fn
            return self._wrap_memory(fn, name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            result = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if result is not None:
                    rec[4] = _attributes(name, args, result)

        return traced

    def _wrap_memory(self, fn, name):
        spans = self.spans

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                spans.append([name, 0.0, 0.0, -1, {"peak_bytes": peak}])

        return measured

    def count(self, fn):
        name = layer_name(fn)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def install(tracer: Tracer):
    """Wrap the layer names of updfa.decision and updfa.cli; returns a
    function that puts the originals back."""
    import updfa.cli
    import updfa.decision

    saved = []
    for module, names in (
        (updfa.decision, DECISION_LAYERS + COUNTED),
        (updfa.cli, CLI_LAYERS),
    ):
        for attr in names:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            if attr not in COUNTED:
                setattr(module, attr, tracer.wrap(fn))
            elif not tracer.memory:
                setattr(module, attr, tracer.count(fn))

    def uninstall():
        for module, attr, fn in saved:
            setattr(module, attr, fn)

    return uninstall


def self_times(spans) -> dict:
    """{name: summed self seconds} from span records."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict = defaultdict(float)
    for i, rec in enumerate(spans):
        out[rec[0]] += rec[2] - rec[1] - child[i]
    return out
