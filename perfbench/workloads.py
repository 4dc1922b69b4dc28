"""The four benchmark workloads, built from a seed through torusbt's public API.

Each builder takes a namespace of freshly imported torusbt modules, a
seeded ``random.Random`` and the ``smoke`` flag, and returns a
``Workload``: the operations in the order they will run, plus the name
of the workload's largest successful operation. Everything here runs
before timing starts, so it counts in ``setup_s``.

The rung lists (primes, discriminants, groups) are fixed. The seed only
chooses the order of operations and, on ``cyclotomic-ladder``, the
same-rank sum of permutation lattices drawn at each rung.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Callable

# p for Res Q(zeta_p)^+ with G = C_{(p-1)/2}. p = 5 is left out because the
# fixtures res_sqrt5 and normone_5 are that rung. p = 101 (C50) is past
# groups.SUBGROUP_ENUM_BOUND and raises GroupTooLarge. The norm-one lattice
# at p = 59 (C29), like those at p = 41, 67, 71, 79 (which are not rungs),
# shows Smith-form coefficient growth in the W-group loop.
LADDER_PRIMES = (7, 13, 17, 29, 37, 59, 61, 97, 101)
# C29 norm-one takes about 4 s in that growth, a third of a pass; it is
# left out so that a run holds three passes.
LADDER_SKIP = {"C29-p59/norm-one"}
SMOKE_LADDER_PRIMES = (7, 101)
# Every lattice at C50 raises GroupTooLarge from btc_predict's first step,
# subgroup_classes(x.group), before the lattice is read. So the rung holds
# one operation, its regular lattice, and the defect is charged one
# deadline rather than one per lattice.
GROUP_TOO_LARGE_PRIMES = {101}

# Fundamental discriminants of the real quadratic subfields.
MULTIQUADRATIC_FIELDS = ((8, 5), (8, 12), (5, 13), (8, 12, 5))
SMOKE_MULTIQUADRATIC_FIELDS = ((8, 12),)

SYMBOLIC_GROUPS = {
    "S3": [[1, 2, 0], [1, 0, 2]],
    "D4": [[1, 2, 3, 0], [0, 3, 2, 1]],
    "D5": [[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]],
    "A4": [[1, 2, 0, 3], [0, 2, 3, 1]],
    "D6": [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]],
}
SMOKE_SYMBOLIC_GROUPS = ("S3", "D5")
# D6 norm-one takes about 13 s of certificate search, past the deadline.
SYMBOLIC_SKIP = {"D6/norm-one"}

MANIFEST_PRIMES = (5, 7, 13, 29, 37, 61)
SMOKE_MANIFEST_PRIMES = (5, 7)
MANIFEST_COMMANDS = ("predict, lvalue, wgroup, resolve, real-decompose, "
                     "local-table, check-shapiro")

FIXTURES = ("gm_q", "res_sqrt5", "normone_5", "res_sqrt2", "dual_normone_v4",
            "s3_standard")
SMOKE_FIXTURES = ("gm_q", "res_sqrt5", "normone_5", "res_sqrt2")


@dataclass
class Op:
    """One operation. ``run()`` is the timed call; ``body(result)`` turns
    its result into the report body that is digested, after timing.

    ``kind`` is "api", or "miss"/"hit" on the manifest path, where
    ``body`` also records the cache outcome in ``meta``. ``drawn`` marks
    an operation whose input the seed chose.
    """
    name: str
    kind: str
    run: Callable[[], object]
    body: Callable[[object], dict]
    meta: dict = field(default_factory=dict)
    drawn: bool = False


@dataclass
class Workload:
    ops: list[Op]
    largest: str
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------- arithmetic

def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    qs = _prime_factors(p - 1)
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n > 0."""
    out = 1
    while n % 2 == 0:
        n //= 2
        out *= 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    a, res = d % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                res = -res
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            res = -res
        a %= n
    return out * (res if n == 1 else 0)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------- API ops

def api_op(tb, name: str, lattice, realization) -> Op:
    def run():
        return tb.engine.btc_predict(lattice, realization)
    return Op(name, "api", run, lambda report: report.to_json())


def _cyclic_norm_one(tb, g):
    """Norm-one lattice of the cyclic group g = C_n (element k is the k-fold
    rotation) on the basis [a] - [0], a = 1..n-1, as lattices.norm_one_lattice
    builds it. It is written out element by element because norm_one_lattice
    validates all |G|^2 products and expanding a generator takes |G| dense
    products, about 1 s at C48."""
    n = g.order

    def coords(a: int, k: int) -> tuple[int, ...]:
        # k.([a] - [0]) = ([a+k] - [0]) - ([k] - [0])
        col = [0] * (n - 1)
        if (a + k) % n:
            col[(a + k) % n - 1] += 1
        if k % n:
            col[k % n - 1] -= 1
        return tuple(col)
    mats = tuple(tb.intmat.from_columns([coords(a, k) for a in range(1, n)], n - 1)
                 for k in range(n))
    return tb.lattices.GLattice(g, n - 1, mats)


def ladder_rung(tb, p: int, d: int) -> list[tuple[str, object, object]]:
    """(name, lattice, realization) for the four lattices at one rung; d is the
    index of the subgroup H whose Z[G/H] is summed up to rank n."""
    n = (p - 1) // 2
    g = tb.groups.cyclic_group(n)
    r = tb.realization.realization_from_images(g, p, {primitive_root(p): 1})
    regular = tb.lattices.permutation_lattice(g, (g.identity,))
    norm_one = _cyclic_norm_one(tb, g)
    summand = tb.lattices.permutation_lattice(g, tuple(range(0, n, d)))
    # n/d copies of Z[G/H], block by block (lattices.direct_sum_list pairwise
    # would cost O(n^4) here).
    drawn = tb.lattices.GLattice(g, n, tuple(
        tb.intmat.block_diag([m] * (n // d)) for m in summand.action))
    rung = f"C{n}-p{p}"
    return [(f"{rung}/regular", regular, r),
            (f"{rung}/norm-one", norm_one, r),
            (f"{rung}/dual-norm-one", tb.lattices.dual(norm_one), r),
            (f"{rung}/sum-d{d}", drawn, r)]


def ladder_draws(p: int) -> list[int]:
    """Indices d of the summands a rung may draw (d = n is the regular lattice)."""
    n = (p - 1) // 2
    return [d for d in divisors(n) if d < n]


def cyclotomic_ladder(tb, rng, smoke: bool) -> Workload:
    ops = []
    for name in (SMOKE_FIXTURES if smoke else FIXTURES):
        fx = tb.catalog.fixture(name)
        ops.append(api_op(tb, f"fixture/{name}", fx.lattice, fx.realization))
    primes = SMOKE_LADDER_PRIMES if smoke else LADDER_PRIMES
    for p in primes:
        d = rng.choice(ladder_draws(p))
        rung = ladder_rung(tb, p, d)
        if p in GROUP_TOO_LARGE_PRIMES:
            rung = rung[:1]
        for name, lat, r in rung:
            if name not in LADDER_SKIP:
                ops.append(api_op(tb, name, lat, r))
                ops[-1].drawn = name.endswith(f"/sum-d{d}")
    rng.shuffle(ops)
    largest = "C3-p7/regular" if smoke else "C48-p97/regular"
    return Workload(ops, largest)


def multiquadratic_field(tb, discs: tuple[int, ...]):
    """(name, group C2^k, realization) for Q(sqrt d : d in discs), f = lcm |d|."""
    k = len(discs)
    perms = [[x ^ (1 << i) for x in range(2 ** k)] for i in range(k)]
    g = tb.groups.group_from_generators(perms, name=f"C2^{k}")
    f = 1
    for d in discs:
        f = lcm(f, d)

    def element(u: int) -> int:
        e = g.identity
        for i, d in enumerate(discs):
            if kronecker(d, u) == -1:
                e = g.op(e, g.generators[i])
        return e
    images = {u: element(u) for u in range(1, f) if gcd(u, f) == 1}
    r = tb.realization.realization_from_images(g, f, images)
    return f"C2^{k}-f{f}", g, r


def multiquadratic(tb, rng, smoke: bool) -> Workload:
    ops = []
    for discs in (SMOKE_MULTIQUADRATIC_FIELDS if smoke else MULTIQUADRATIC_FIELDS):
        field_name, g, r = multiquadratic_field(tb, discs)
        norm_one = tb.lattices.norm_one_lattice(g)
        for kind, lat in (("regular", tb.lattices.permutation_lattice(g, (g.identity,))),
                          ("norm-one", norm_one),
                          ("dual-norm-one", tb.lattices.dual(norm_one))):
            ops.append(api_op(tb, f"{field_name}/{kind}", lat, r))
    rng.shuffle(ops)
    largest = "C2^2-f24/dual-norm-one" if smoke else "C2^3-f120/dual-norm-one"
    return Workload(ops, largest)


def symbolic(tb, rng, smoke: bool) -> Workload:
    ops = []
    names = SMOKE_SYMBOLIC_GROUPS if smoke else tuple(SYMBOLIC_GROUPS)
    for gname in names:
        g = tb.groups.group_from_generators(SYMBOLIC_GROUPS[gname], name=gname)
        norm_one = tb.lattices.norm_one_lattice(g)
        for kind, lat in (("regular", tb.lattices.permutation_lattice(g, (g.identity,))),
                          ("norm-one", norm_one),
                          ("dual-norm-one", tb.lattices.dual(norm_one))):
            name = f"{gname}/{kind}"
            if name not in SYMBOLIC_SKIP:
                ops.append(api_op(tb, name, lat, None))
    rng.shuffle(ops)
    largest = "D5/regular" if smoke else "D4/norm-one"
    return Workload(ops, largest)


# ---------------------------------------------------------------- manifest ops

def res_manifest_text(p: int) -> str:
    """Manifest for Res_{Q(zeta_p)^+/Q} G_m: Z[C_n] with n = (p-1)/2."""
    n = (p - 1) // 2
    shift = [(i + 1) % n for i in range(n)]
    rows = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
    return (f"[group]\ngenerators = [{shift}]\n"
            f"[lattice]\nrank = {n}\naction.g0 = {rows}\n"
            f"[realization]\nmodulus = {p}\nimages = {{{primitive_root(p)}: 1}}\n"
            f"[commands]\nrun = {MANIFEST_COMMANDS}\n")


def fixture_manifest_text(name: str) -> str:
    return f"[fixture]\nname = {name}\n[commands]\nrun = {MANIFEST_COMMANDS}\n"


def manifest_cache(tb, rng, smoke: bool, scratch_root: str) -> Workload:
    """Each text runs twice in a fresh cache directory: a miss, then a hit."""
    texts = [(f"fixture/{n}", fixture_manifest_text(n))
             for n in (SMOKE_FIXTURES if smoke else FIXTURES)]
    texts += [(f"C{(p - 1) // 2}-p{p}", res_manifest_text(p))
              for p in (SMOKE_MANIFEST_PRIMES if smoke else MANIFEST_PRIMES)]
    rng.shuffle(texts)
    os.makedirs(scratch_root, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch_root)

    def make(name: str, text: str, kind: str) -> Op:
        def run():
            return tb.manifest.run_manifest(tb.manifest.parse_manifest(text),
                                            cache_dir)

        def body(result) -> dict:
            report, hit = result
            op.meta["hit"] = hit
            op.meta["bytes"] = os.path.getsize(
                os.path.join(cache_dir, report["cache_key"] + ".json"))
            return {k: v for k, v in report.items() if k != "generated_at"}
        op = Op(f"manifest/{name}/{kind}", kind, run, body)
        return op

    ops = []
    for name, text in texts:
        ops.append(make(name, text, "miss"))
        ops.append(make(name, text, "hit"))
    largest = "manifest/C3-p7/miss" if smoke else "manifest/C30-p61/miss"
    return Workload(ops, largest,
                    cleanup=lambda: shutil.rmtree(cache_dir, ignore_errors=True))


BUILDERS = {
    "cyclotomic-ladder": cyclotomic_ladder,
    "multiquadratic": multiquadratic,
    "symbolic": symbolic,
    "manifest-cache": manifest_cache,
}

