"""Spans and counters recorded from outside torusbt, by wrapping its public functions.

``instrument(tb, recorder)`` replaces every public module-level function
of each torusbt module with a wrapper that records a span (name, start,
end, parent span, operation id). The wrapper is also put wherever the
same function object was imported by name into another module (for
example ``engine.subgroup_classes``), so calls through such an import
are recorded too. Spans stay in memory until ``Recorder.dump``.

A layer's busy time is the union of its spans; a layer's self time is
its span's duration minus what its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

# Modules whose public functions are layers, in the order of the package.
MODULES = ("exact", "cyclotomic", "intmat", "groups", "lattices", "cohomology",
           "induction", "dirichlet", "units", "realization", "engine",
           "catalog", "manifest")

# Small helpers called so often that a span each would cost more than the
# work they do; their time stays in the calling layer's self time.
UNTRACED = frozenset({
    "cyclotomic.cyclotomic_polynomial", "cyclotomic.phi_degree",
    "intmat.from_rows", "intmat.from_columns", "intmat.identity",
    "intmat.zeros", "intmat.columns", "intmat.diag",
    "groups.subgroup_elements",
    "units.units_mod", "units.euler_phi", "units.factorize",
    "units.crt_pair",
})


def _result_hooks(counters: Counter) -> dict:
    """Counters read from a layer's arguments or result at its boundary."""
    def orbits(args, res):
        counters["dirichlet.galois_orbits.orbits"] += len(res)

    def cells(args, res):
        counters["intmat.snf_diagonal.cells"] += args[0].rows * args[0].cols

    def depth(args, res):
        counters["realization.depth_sum"] += sum(d for _, _, d in res.parts)

    def verdict(args, res):
        counters["cohomology.unknown_verdicts"] += res[0] == "Unknown"

    return {"dirichlet.galois_orbits": orbits, "intmat.snf_diagonal": cells,
            "realization.w_group_order": depth,
            "cohomology.check_motivic_interpretation": verdict}


class Recorder:
    """In-memory span list; one instance per traced pass."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id, outermost of its name)
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._active: Counter = Counter()

    def wrap(self, name: str, fn, hook=None):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outermost = active[name] == 0
            spans.append(None)
            stack.append(idx)
            active[name] += 1
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id, outermost)
            if hook is not None:
                hook(args, res)
            return res
        return wrapper

    def begin_op(self, op_id: int) -> None:
        """Start an operation. A deadline can interrupt a wrapper before it
        closes its span, so the open-span state is reset here."""
        self.op_id = op_id
        self._stack.clear()
        self._active.clear()

    def closed_spans(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def count_calls(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ summaries

    def layer_totals(self) -> tuple[dict, dict]:
        """(busy seconds, calls) per layer name."""
        busy: dict = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _, _, outermost in self.closed_spans():
            calls[name] += 1
            if outermost:
                busy[name] += end - start
        return busy, calls

    def attributed_time(self) -> dict:
        """Per op id: time inside layers called from the op's entry points.

        The entry points are the root spans of an operation (btc_predict,
        or parse_manifest and run_manifest); the spans directly below them
        cover everything attributed to a named layer.
        """
        out: dict = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, op, _ in self.closed_spans():
            if parent >= 0 and spans[parent] is not None and spans[parent][3] == -1:
                out[op] += end - start
        return out

    def dump(self, path: str, op_names: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "ops": op_names,
                       "spans": [s[:5] for s in self.closed_spans()],
                       "counters": dict(self.counters)}, fh)


def instrument(tb, recorder: Recorder) -> None:
    """Wrap torusbt's public functions in place."""
    hooks = _result_hooks(recorder.counters)
    wrappers: dict[int, object] = {}
    for short in MODULES:
        mod = getattr(tb, short)
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            if name in UNTRACED:
                continue
            wrappers[id(obj)] = recorder.wrap(name, obj, hooks.get(name))
    for mod in [tb] + [getattr(tb, short) for short in MODULES]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
    matrix = tb.intmat.IntMatrix
    matrix.__matmul__ = recorder.count_calls(
        "intmat.IntMatrix.__matmul__.calls", matrix.__matmul__)
