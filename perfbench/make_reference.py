"""Write reference.json: the outcome of every operation any seed can produce.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

Each workload is built once (its operations do not depend on the seed
apart from their order), and the ladder also gets every sum of
permutation lattices a rung can draw. Reports are stored as SHA-256
digests; operations that raise or pass the deadline are stored with
that outcome and count as known defects.
"""

from __future__ import annotations

import json
import signal
import sys

import run
from workloads import (GROUP_TOO_LARGE_PRIMES, LADDER_PRIMES, api_op, ladder_draws,
                       ladder_rung)


def main() -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    ops = {}
    for workload in run.WORKLOADS:
        _, prog = run.setup(workload, 0, smoke=False)
        tb, wl = prog.tb, prog.wl
        extra = []
        if workload == "cyclotomic-ladder":
            for p in (p for p in LADDER_PRIMES if p not in GROUP_TOO_LARGE_PRIMES):
                for d in ladder_draws(p):
                    name, lat, r = ladder_rung(tb, p, d)[3]
                    extra.append(api_op(tb, name, lat, r))
        for op in wl.ops + extra:
            if op.name in ops:
                continue
            res = run.run_op(op, {}, run.DEADLINE_S[workload])
            entry = {"outcome": res.outcome}
            if res.digest is not None:
                entry["digest"] = res.digest
            ops[op.name] = entry
            print(f"{res.seconds:8.3f} s  {op.name}  {res.outcome}", flush=True)
        wl.cleanup()
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"deadline_s": run.DEADLINE_S, "ops": dict(sorted(ops.items()))},
                  fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, run.HERE)
    sys.exit(main())
