"""torusbt benchmark: seeded workloads through btc_predict and the manifest runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cyclotomic-ladder --seed 1 --seconds 20 --trace 0

Load shape: closed loop, one caller on one thread, each operation
starting when the previous one ends. Every pass imports torusbt afresh
and rebuilds its inputs, so process-global caches (``units.unit_group``,
``cyclotomic._PHI_CACHE``) start empty as for a CLI user; reuse between
operations inside a pass is real and counted. Every operation has the
workload's deadline from ``DEADLINE_S``, enforced with ``SIGALRM`` in
this process.

``--trace 0`` runs untraced passes until ``--seconds`` is spent and
prints the end-to-end metrics, timed with ``speed.Gauge``: each time is
scaled to a reference machine speed measured while the program runs. ``--trace 1`` runs pairs of an untraced
and a traced pass, alternating between them operation by operation, and
prints the per-layer metrics. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
REFERENCE = os.path.join(HERE, "reference.json")

# Deadline per workload, three to four times the slowest operation that
# completes on it (traced, on the machine in README.md). A failed
# operation is charged its deadline, so the deadline is kept as small as
# that margin allows: the charge is a constant in work_s and hides the
# real work behind it.
DEADLINE_S = {"cyclotomic-ladder": 6.0, "multiquadratic": 3.0,
              "symbolic": 15.0, "manifest-cache": 25.0}
# Before the first pass, set up at least SETUP_FIRST times and until
# SETUP_FIRST_S seconds are spent; before every later pass, at least
# SETUP_PASS times and until SETUP_PASS_S. Never more than SETUP_MAX at once.
SETUP_FIRST, SETUP_FIRST_S = 3, 1.0
SETUP_PASS, SETUP_PASS_S = 2, 0.5
SETUP_MAX = 12
WORKLOADS = tuple(DEADLINE_S)

# The classical anchors, checked exactly on every run.
ANCHORS = {"fixture/gm_q": "2", "fixture/res_sqrt5": "4",
           "fixture/res_sqrt2": "4", "fixture/normone_5": "4"}

END_TO_END = {"work_s": "s", "op_ms.p50": "ms", "largest_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_TIMES = (
    "dirichlet.artin_L_minus_one", "dirichlet.zeta_minus_one",
    "dirichlet.L_minus_one", "dirichlet.characters_mod",
    "dirichlet.conductor_primitive", "engine.btc_predict", "engine.ono_l_value",
    "realization.w_group_order", "realization.global_coinvariants_order",
    "realization.w2_of_subfield", "intmat.snf_diagonal", "intmat.kernel_basis",
    "intmat.solve_exact", "cohomology.check_motivic_interpretation",
    "cohomology.search_invertibility_certificate",
    "cohomology.flasque_resolution", "cohomology.real_decomposition",
    "groups.subgroup_classes", "induction.ono_decomposition",
    "lattices.validate", "manifest.parse_manifest", "manifest.run_manifest",
)
LAYER_COUNTS = {
    "dirichlet.galois_orbits.orbits": "count",
    "units.unit_group.hit_ratio": "ratio", "units.unit_group.misses": "count",
    "realization.depth_sum": "count", "intmat.snf_diagonal.cells": "count",
    "intmat.IntMatrix.__matmul__.calls": "count",
    "cohomology.unknown_verdicts": "count",
    "manifest.cache_hit_ratio": "ratio", "manifest.cache_bytes_read": "bytes",
    "manifest.cache_bytes_written": "bytes",
    "manifest.hit_ms.p50": "ms", "manifest.miss_ms.p50": "ms",
    "failed_frac": "ratio", "trace.coverage": "ratio", "trace.overhead": "ratio",
    "trace.overhead.iqr": "ratio", "trace.pairs": "count",
}


def layer_metric_units() -> dict:
    out = {}
    for name in LAYER_TIMES:
        out[f"{name}.s"] = "s"
        out[f"{name}.calls"] = "count"
    out.update(LAYER_COUNTS)
    return out


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an operation; a BaseException so that no
    ``except Exception`` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _torusbt_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "torusbt" or n.startswith("torusbt.")}


def fresh_torusbt():
    """Import torusbt from this checkout's src/, discarding any earlier import."""
    for name in _torusbt_modules():
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    tb = importlib.import_module("torusbt")
    if not os.path.abspath(tb.__file__).startswith(SRC + os.sep):
        raise ImportError(f"torusbt imported from {tb.__file__}, not from {SRC}")
    return tb


@dataclass
class Program:
    """One fresh import of torusbt and the workload built on it.

    ``modules`` are the import's entries of ``sys.modules``. A function
    that imports a sibling module at call time looks it up there, so
    they are put back before each of the program's operations when two
    imports run side by side.
    """
    tb: object
    wl: object
    modules: dict

    def activate(self) -> None:
        sys.modules.update(self.modules)


def setup(workload: str, seed: int, smoke: bool, gauge=None) -> tuple[float, Program]:
    """Import torusbt and build every input; returns (seconds, Program).
    With a ``speed.Gauge`` the seconds are scaled to its reference speed."""
    from workloads import BUILDERS, manifest_cache
    start = time.perf_counter()
    with (gauge.section() if gauge else contextlib.nullcontext()) as sec:
        tb = fresh_torusbt()
        rng = random.Random(seed)
        if workload == "manifest-cache":
            wl = manifest_cache(tb, rng, smoke, os.path.join(OUT_DIR, "cache"))
        else:
            wl = BUILDERS[workload](tb, rng, smoke)
    seconds = sec.scaled if gauge else time.perf_counter() - start
    return seconds, Program(tb, wl, _torusbt_modules())


def setup_repeated(args, times: list, least: int, least_s: float, gauge) -> Program:
    """Set up at least ``least`` times and until ``least_s`` seconds are
    spent (at most SETUP_MAX times); append each time to ``times`` and
    return the last set-up's program."""
    spent, prog = 0.0, None
    for i in range(SETUP_MAX):
        if i >= least and spent >= least_s:
            break
        if prog is not None:
            prog.wl.cleanup()
            prog = None
        gc.collect()
        seconds, prog = setup(args.workload, args.seed, args.smoke, gauge)
        times.append(seconds)
        spent += seconds
    return prog


def digest(body: dict) -> str:
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class OpResult:
    name: str
    kind: str
    seconds: float            # scaled by the speed gauge, where one was used
    raw: float                # wall time, without the gauge's probes
    deadline: float
    outcome: str              # "report", "deadline" or "error:<Type>"
    digest: str | None
    status: str               # "ok", "new", "unfinished" or "wrong"
    note: str = ""
    meta: dict = field(default_factory=dict)
    drawn: bool = False

    @property
    def completed(self) -> bool:
        return self.status in ("ok", "new")

    @property
    def charged(self) -> float:
        """Measured time, or the full deadline for an op without a correct report."""
        return self.seconds if self.completed else self.deadline


def classify(name: str, outcome: str, dig: str | None, body, reference: dict):
    """Status against the committed reference outcome, and a note for the output.

    An op whose reference is an error or the deadline is a known defect:
    failing again the same way is "unfinished", completing is "new" (there
    is no digest to compare yet). Everything else that differs from the
    reference, including an op the reference does not name, is "wrong".
    """
    ref = reference.get(name)
    if outcome == "report":
        anchor = ANCHORS.get(name)
        if anchor is not None and body.get("predicted_kt_order") != anchor:
            return "wrong", f"anchor {body.get('predicted_kt_order')} != {anchor}"
    if ref is None:
        return "wrong", "not in reference.json"
    if outcome == "report":
        if ref["outcome"] != "report":
            return "new", f"completed; reference {ref['outcome']}"
        if ref["digest"] != dig:
            return "wrong", f"digest differs from reference {ref['digest'][:16]}"
        return "ok", ""
    if outcome == ref["outcome"]:
        return "unfinished", f"known defect ({outcome})"
    return "wrong", f"{outcome}; reference {ref['outcome']}"


def run_op(op, reference: dict, deadline: float, recorder=None,
           op_id: int = -1, gauge=None) -> OpResult:
    """Run and check one op. With a ``speed.Gauge`` its time is scaled."""
    if recorder is not None:
        recorder.begin_op(op_id)
    result, outcome = None, "report"
    sec = gauge.section() if gauge else None
    start = time.perf_counter()
    try:
        with sec or contextlib.nullcontext():
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        outcome = "deadline"
    except Exception as exc:          # any raise is an outcome to compare
        outcome = f"error:{type(exc).__name__}"
    raw = sec.seconds if sec else time.perf_counter() - start
    seconds = sec.scaled if sec else raw
    body = dig = None
    if outcome == "report":
        body = op.body(result)
        dig = digest(body)
    status, note = classify(op.name, outcome, dig, body, reference)
    return OpResult(op.name, op.kind, seconds, raw, deadline, outcome, dig, status,
                    note, dict(op.meta), op.drawn)


def run_or_skip(op, i, reference, deadline, skip, recorder=None, gauge=None) -> OpResult:
    """Ops named in ``skip`` passed the deadline in the first pass of this
    run; they keep that result, charged again without running, so that a
    later pass does not wait out the same deadline."""
    if op.name in skip:
        return dataclasses.replace(skip[op.name], seconds=deadline, raw=0.0,
                                   note="not re-run")
    return run_op(op, reference, deadline, recorder, i, gauge)


def run_pass(prog: Program, reference: dict, deadline: float, skip, gauge) -> list[OpResult]:
    """Run every op of the program in order, timed with ``gauge``."""
    gc.collect()
    try:
        return [run_or_skip(op, i, reference, deadline, skip, gauge=gauge)
                for i, op in enumerate(prog.wl.ops)]
    finally:
        prog.wl.cleanup()


def run_pair(plain: Program, traced: Program, recorder, reference: dict,
             deadline: float, skip=None) -> tuple[list, list]:
    """An untraced and a traced pass over the same ops, alternating op by
    op (the untraced op first on even indices, second on odd ones), so
    that both passes see the same drift in the machine's speed."""
    gc.collect()
    out_plain, out_traced = [], []
    try:
        for i, (op_p, op_t) in enumerate(zip(plain.wl.ops, traced.wl.ops)):
            order = [(plain, op_p, None, out_plain), (traced, op_t, recorder, out_traced)]
            for prog, op, rec, out in (order if i % 2 == 0 else order[::-1]):
                prog.activate()
                out.append(run_or_skip(op, i, reference, deadline, skip or {}, rec))
        return out_plain, out_traced
    finally:
        plain.wl.cleanup()
        traced.wl.cleanup()


def median(values):
    return statistics.median(values) if values else 0.0


def quartile_distance(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def pass_summary(results: list[OpResult], largest: str) -> dict:
    big = [r.charged for r in results if r.name == largest]
    return {"work_s": sum(r.charged for r in results),
            "largest_s": big[0] if big else results[0].deadline,
            "op_s": {r.name: r.charged for r in results}}


def end_to_end(summaries: list[dict], drawn: set, setup_times: list) -> dict:
    """Per-pass figures are averaged over the run's passes: with a few
    passes, on a machine whose speed drifts, the mean is steadier than
    the median. op_ms.p50 is the median over
    operations of each one's mean time; it leaves out seed-drawn inputs,
    so that every seed takes it over the same operations."""
    names = [n for n in summaries[0]["op_s"] if n not in drawn]
    per_op = [statistics.mean(s["op_s"][n] for s in summaries) for n in names]
    return {
        "work_s": statistics.mean(s["work_s"] for s in summaries),
        "op_ms.p50": statistics.median(per_op) * 1e3,
        "largest_s": statistics.mean(s["largest_s"] for s in summaries),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def report_ops(results: list[OpResult]) -> None:
    for r in results:
        print(f"op {r.status:10s} {r.seconds * 1e3:10.1f} ms {r.raw * 1e3:10.1f} ms raw"
              f"  {r.name}  "
              f"{r.outcome if r.digest is None else r.digest}"
              + (f"  ({r.note})" if r.note and r.status != "ok" else ""))
    unfinished = [r.name for r in results if r.status == "unfinished"]
    wrong = [f"{r.name}: {r.note}" for r in results if r.status == "wrong"]
    new = [r.name for r in results if r.status == "new"]
    charge = f"{results[0].deadline:g} s" if results else "the deadline"
    print(f"unfinished (known defects, charged {charge} each): "
          f"{', '.join(unfinished) or 'none'}")
    if new:
        print(f"completed where the reference failed: {', '.join(new)}")
    print(f"FAILED: {'; '.join(wrong)}" if wrong else "failed: none")


def pair_overheads(plain: list[OpResult], traced: list[OpResult]) -> tuple[float, list]:
    """Traced over untraced time, minus 1, over the ops that ran and
    completed in both passes: for the pass, and for each op."""
    both = [(a.seconds, b.seconds) for a, b in zip(plain, traced)
            if a.completed and b.completed]
    base = sum(a for a, _ in both)
    whole = sum(b for _, b in both) / base - 1 if base else 0.0
    return whole, [b / a - 1 for a, b in both if a > 0]


def layer_metrics(recorder, traced, untraced, tb_untraced, overheads, per_op) -> dict:
    busy, calls = recorder.layer_totals()
    m = {}
    for name in LAYER_TIMES:
        m[f"{name}.s"] = busy.get(name, 0.0)
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("dirichlet.galois_orbits.orbits", "realization.depth_sum",
                 "intmat.snf_diagonal.cells", "intmat.IntMatrix.__matmul__.calls",
                 "cohomology.unknown_verdicts"):
        m[name] = recorder.counters.get(name, 0)
    info = tb_untraced.units.unit_group.cache_info()
    lookups = info.hits + info.misses
    m["units.unit_group.hit_ratio"] = info.hits / lookups if lookups else 0.0
    m["units.unit_group.misses"] = info.misses

    manifest_ops = [r for r in untraced if r.kind in ("miss", "hit") and r.completed]
    hits = [r for r in manifest_ops if r.meta.get("hit")]
    m["manifest.cache_hit_ratio"] = len(hits) / len(manifest_ops) if manifest_ops else 0.0
    m["manifest.cache_bytes_read"] = sum(r.meta["bytes"] for r in hits)
    m["manifest.cache_bytes_written"] = sum(
        r.meta["bytes"] for r in manifest_ops if not r.meta.get("hit"))
    m["manifest.hit_ms.p50"] = median([r.charged * 1e3 for r in untraced if r.kind == "hit"])
    m["manifest.miss_ms.p50"] = median([r.charged * 1e3 for r in untraced if r.kind == "miss"])
    m["failed_frac"] = sum(not r.completed for r in untraced) / len(untraced)

    attributed = recorder.attributed_time()
    op_time = sum(r.seconds for r in traced)
    m["trace.coverage"] = sum(attributed.values()) / op_time if op_time else 0.0
    m["trace.overhead"] = median(overheads)
    m["trace.overhead.iqr"] = quartile_distance(per_op)
    m["trace.pairs"] = len(overheads)
    return m


def another_pass(began: float, last: float, seconds: float) -> bool:
    """Whether one more pass as long as the last one ends the run closer to
    ``seconds`` than stopping now does."""
    return time.perf_counter() - began + last / 2 <= seconds


def run_untraced(args, reference: dict, deadline: float) -> tuple[list, dict]:
    """Untraced passes until about --seconds is spent (see another_pass)."""
    from speed import Gauge
    gauge, setup_times = Gauge(), []
    prog = setup_repeated(args, setup_times, SETUP_FIRST, SETUP_FIRST_S, gauge)
    began = time.perf_counter()
    first = run_pass(prog, reference, deadline, {}, gauge)
    report_ops(first)
    results = list(first)
    summaries = [pass_summary(first, prog.wl.largest)]
    last = time.perf_counter() - began
    skip = {r.name: r for r in first if r.outcome == "deadline"}
    while another_pass(began, last, args.seconds):
        t0 = time.perf_counter()
        prog = None
        prog = setup_repeated(args, setup_times, SETUP_PASS, SETUP_PASS_S, gauge)
        this = run_pass(prog, reference, deadline, skip, gauge)
        last = time.perf_counter() - t0
        results += [r for r in this if r.name not in skip]
        summaries.append(pass_summary(this, prog.wl.largest))
    metrics = end_to_end(summaries, {r.name for r in first if r.drawn}, setup_times)
    print(f"passes: {len(summaries)}; ops per pass: {len(first)}; "
          f"op_ms.p50 over {sum(not r.drawn for r in first)} ops; "
          f"setup_s over {len(setup_times)} set-ups; probe median "
          f"{statistics.median(gauge.probes) * 1e3:.4f} ms over {len(gauge.probes)}")
    return results, metrics


def run_traced(args, reference: dict, deadline: float) -> tuple[list, dict]:
    """Pairs of an untraced and a traced pass until about --seconds is
    spent (see another_pass). The first pair gives the per-layer figures;
    every pair gives one reading of the tracing overhead."""
    from spans import Recorder, instrument
    began = time.perf_counter()
    overheads, per_op, results, skip, first, last = [], [], [], {}, None, 0.0
    while first is None or another_pass(began, last, args.seconds):
        t0 = time.perf_counter()
        plain = traced = recorder = None
        gc.collect()
        _, plain = setup(args.workload, args.seed, args.smoke)
        _, traced = setup(args.workload, args.seed, args.smoke)
        recorder = Recorder()
        instrument(traced.tb, recorder)
        untraced_pass, traced_pass = run_pair(plain, traced, recorder, reference,
                                              deadline, skip)
        last = time.perf_counter() - t0
        results += [r for r in untraced_pass + traced_pass if r.name not in skip]
        whole, ops = pair_overheads(untraced_pass, traced_pass)
        overheads.append(whole)
        per_op += ops
        if first is None:
            first = (untraced_pass, traced_pass, recorder, plain.tb)
            for label, passed in (("untraced", untraced_pass), ("traced", traced_pass)):
                print(f"{label} pass:")
                report_ops(passed)
            skip = {r.name: r for r in untraced_pass if r.outcome == "deadline"}
    untraced_pass, traced_pass, recorder, tb_untraced = first
    os.makedirs(OUT_DIR, exist_ok=True)
    recorder.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"),
                  [r.name for r in traced_pass])
    print(f"pairs: {len(overheads)}; overhead per pair: "
          + ", ".join(f"{o:+.3f}" for o in overheads))
    return results, layer_metrics(recorder, traced_pass, untraced_pass, tb_untraced,
                                  overheads, per_op)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal inputs, for checking the harness itself")
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        print("perfbench: run without -O; the program's checks are asserts",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.path.insert(0, HERE)
    try:
        reference = load_reference()
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read {REFERENCE}: {exc!r}", file=sys.stderr)
        return 2
    deadline = DEADLINE_S[args.workload]
    try:
        if args.trace:
            results, metrics = run_traced(args, reference, deadline)
            units = layer_metric_units()
        else:
            results, metrics = run_untraced(args, reference, deadline)
            units = END_TO_END
    except ImportError as exc:      # operations catch their own exceptions
        print(f"perfbench: cannot import torusbt from {SRC}: {exc}", file=sys.stderr)
        return 2

    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    failed = sum(r.status == "wrong" for r in results)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
