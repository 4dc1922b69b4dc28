"""Shared fixtures and the independent brute-force oracles.

Oracles here must stay independent of the code paths they check:
cosets as sorted element tuples, w2 by direct congruence search,
Bernoulli numbers by the binomial recurrence, H^1 from the all-elements
cocycle complex, cyclic H^1 from ker(norm)/im(sigma - 1), Smith
diagonals by the integer Smith elimination, determinants by the
Bareiss elimination and Hermite lattice quotients by the
lattice_quotient that intmat no longer carries.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import pytest

from torusbt import intmat
from torusbt import lattices as lat
from torusbt.errors import NotUnimodular, ShapeMismatch
from torusbt.exact import FinAbGroup, from_elementary_divisors
from torusbt.groups import cyclic_group, group_from_generators, subgroup_classes


def run_fresh(script, timeout):
    """stdout of script in a fresh interpreter on this checkout's src."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


# ---------------------------------------------------------------- groups

@pytest.fixture(scope="session")
def c2():
    return group_from_generators([[1, 0]], name="C2")


@pytest.fixture(scope="session")
def s3():
    return group_from_generators([[1, 2, 0], [1, 0, 2]], name="S3")


@pytest.fixture(scope="session")
def v4():
    return group_from_generators([[1, 0, 3, 2], [2, 3, 0, 1]], name="V4")


@pytest.fixture(scope="session")
def d4():
    return group_from_generators([[1, 2, 3, 0], [0, 3, 2, 1]], name="D4")


@pytest.fixture(scope="session")
def a4():
    return group_from_generators([[1, 2, 0, 3], [0, 2, 3, 1]], name="A4")


def quaternion_generators():
    """Q8 acting on itself: elements 1,-1,i,-i,j,-j,k,-k as 0..7."""
    mul = {}
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def sign_of(s):
        return -1 if s.startswith("-") else 1

    def base_of(s):
        return s.lstrip("-")

    base_mul = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def mult(a, b):
        sa, sb = sign_of(a), sign_of(b)
        s, c = base_mul[(base_of(a), base_of(b))]
        s *= sa * sb
        return ("-" if s < 0 else "") + c

    perms = []
    for g in ("i", "j"):
        perms.append([names.index(mult(g, x)) for x in names])
    return perms


def small_groups(s3, d4, a4, max_cyclic):
    """S3, D4, A4, Q8, D5, D6, C2^3 and C_n for n <= max_cyclic."""
    groups = [s3, d4, a4, group_from_generators(quaternion_generators(), name="Q8")]
    for gens, name in (([[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], "D5"),
                       ([[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]], "D6"),
                       ([[x ^ (1 << i) for x in range(8)] for i in range(3)], "C2^3")):
        groups.append(group_from_generators(gens, name=name))
    return groups + [cyclic_group(n) for n in range(1, max_cyclic + 1)]


# ---------------------------------------------------------------- lattices

def sign_lattice_v4(v4, s1, s2):
    """Rank-1 lattice over V4 with generator signs s1, s2."""
    return lat.from_generator_matrices(
        v4, 1, [intmat.from_rows([[s1]]), intmat.from_rows([[s2]])])


def catalog_pool(c2, s3, v4):
    """Named indecomposable building blocks per group, for random sums."""
    s3_cls = subgroup_classes(s3)
    v4_cls = subgroup_classes(v4)
    std = lat.from_generator_matrices(s3, 2, [
        intmat.from_rows([[0, -1], [1, -1]]),
        intmat.from_rows([[-1, 1], [0, 1]])])
    return {
        "c2": [lat.trivial_lattice(c2), lat.sign_lattice(c2),
               lat.permutation_lattice(c2, (0,))],
        "s3": [lat.trivial_lattice(s3), std,
               lat.permutation_lattice(s3, s3_cls[1]),
               lat.permutation_lattice(s3, s3_cls[2])],
        "v4": [lat.trivial_lattice(v4),
               sign_lattice_v4(v4, -1, 1), sign_lattice_v4(v4, 1, -1),
               sign_lattice_v4(v4, -1, -1),
               lat.permutation_lattice(v4, v4_cls[1]),
               lat.dual(lat.norm_one_lattice(v4))],
    }


def random_unimodular(n: int, rng: random.Random, shears: int = 6) -> intmat.IntMatrix:
    """Product of random elementary shears and signed permutations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += q * m[j][k]
    perm = list(range(n))
    rng.shuffle(perm)
    m = [m[p] for p in perm]
    for i in range(n):
        if rng.random() < 0.5:
            m[i] = [-x for x in m[i]]
    return intmat.from_rows(m)


def conjugate_lattice(x, u: intmat.IntMatrix):
    """Base change by a unimodular u: action -> u^{-1} action u (same lattice, new basis)."""
    uinv = intmat.solve_exact(u, intmat.identity(u.rows))
    if uinv is None:
        raise NotUnimodular("base change matrix is not invertible over Z")
    mats = tuple(uinv @ m @ u for m in x.action)
    return lat.GLattice(x.group, x.rank, mats)


def random_lattice(group_pool, rng: random.Random, max_rank: int = 5):
    """Random direct sum of pool lattices, conjugated by a random basis change."""
    pool = list(group_pool)
    parts = []
    rank = 0
    while True:
        cand = rng.choice(pool)
        if rank + cand.rank > max_rank:
            break
        parts.append(cand)
        rank += cand.rank
        if rank == max_rank or rng.random() < 0.3:
            break
    if not parts:
        parts = [pool[0]]
    x = parts[0]
    for p in parts[1:]:
        x = lat.direct_sum(x, p)
    u = random_unimodular(x.rank, rng)
    return conjugate_lattice(x, u)


# ---------------------------------------------------------------- oracles

def left_cosets(g, elements):
    """Left cosets x*H as sorted tuples, ordered by their minimal element."""
    cosets = {tuple(sorted(g.op(x, a) for a in elements)) for x in range(g.order)}
    return sorted(cosets, key=lambda c: c[0])


def oracle_w2(modulus: int, allowed_units, search_cap: int = 2000) -> int:
    """Largest N <= cap with a^2 = 1 (mod N) for every unit a of N*modulus
    whose residue mod modulus lies in allowed_units. Brute force."""
    allowed = {u % modulus for u in allowed_units} if modulus > 1 else None
    best = 1
    for n in range(1, search_cap + 1):
        m = n * modulus
        ok = True
        for a in range(1, m + 1):
            if gcd(a, m) != 1:
                continue
            if allowed is not None and a % modulus not in allowed:
                continue
            if (a * a - 1) % n != 0:
                ok = False
                break
        if ok:
            best = max(best, n)
    return best


def _snf_inplace(a: list[list[int]], rows: int, cols: int) -> None:
    """Reduce a to Smith form in place, keeping no transforms.

    Pivot choice is the minimal nonzero absolute value in the remaining
    block, which keeps intermediate entries small at the scales this
    package works at.
    """
    def swap_cols(j1, j2):
        for r in a:
            r[j1], r[j2] = r[j2], r[j1]

    def addmul_row(dst, src, q):
        ad, asrc = a[dst], a[src]
        for j in range(cols):
            ad[j] += q * asrc[j]

    def addmul_col(dst, src, q):
        for r in a:
            r[dst] += q * r[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Locate the smallest nonzero entry in the trailing block.
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            swap_cols(t, bj)

        while True:
            # Clear the pivot column.
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            if dirty:
                continue
            # Clear the pivot row.
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1


def det(mat: intmat.IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ShapeMismatch("determinant of non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = [list(r) for r in mat.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def snf_diagonal(mat: intmat.IntMatrix) -> list[int]:
    a = [list(r) for r in mat.data]
    _snf_inplace(a, mat.rows, mat.cols)
    return [a[i][i] for i in range(min(mat.rows, mat.cols))]


def oracle_cokernel(mat: intmat.IntMatrix) -> FinAbGroup:
    """Z^rows / column-image(mat) read off the integer Smith diagonal."""
    ds = snf_diagonal(mat)
    r = sum(1 for d in ds if d != 0)
    return from_elementary_divisors([d for d in ds if d > 1], mat.rows - r)


def oracle_bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n from sum_k C(m+1, k) B_k = 0 (B1 = -1/2 convention)."""
    bs = [Fraction(1)]
    for m in range(1, n + 1):
        s = sum(Fraction(comb(m + 1, k)) * bs[k] for k in range(m))
        bs.append(-s / (m + 1))
    return bs


def lattice_quotient(basis: intmat.IntMatrix, sub_gens: intmat.IntMatrix) -> FinAbGroup:
    """Structure of (lattice with given basis columns) / (span of sub_gens columns).

    Requires every sub_gens column to be an integer combination of the
    basis columns (true whenever basis is saturated and the columns lie
    in its rational span, the situation for all cohomology quotients here).
    """
    y = intmat.solve_exact(basis, sub_gens)
    if y is None:
        raise ShapeMismatch("sublattice generators outside the lattice")
    return intmat.cokernel_structure(y)


def oracle_h1_cyclic(x, sigma: int) -> FinAbGroup:
    """H^1(<sigma>, X) = ker(N)/im(sigma - 1) by a direct kernel/quotient."""
    g = x.group
    order = g.element_order(sigma)
    n = intmat.zeros(x.rank, x.rank)
    a = g.identity
    for _ in range(order):
        n = n + x.action[a]
        a = g.op(a, sigma)
    ker = intmat.kernel_basis(n)
    ident = intmat.identity(x.rank)
    return lattice_quotient(ker, x.action[sigma] - ident)


def oracle_h1_bar(x, elements) -> FinAbGroup:
    """H^1 from the full cocycle complex: unknowns c(h) for every h in H,
    constraints c(gh) = c(g) + g.c(h) for all pairs. Slow, for small H."""
    g = x.group
    elems = list(elements)
    pos = {h: i for i, h in enumerate(elems)}
    n = x.rank
    k = len(elems)
    rows = []
    for a in elems:
        for b in elems:
            ab = g.op(a, b)
            for i in range(n):
                row = [0] * (n * k)
                row[pos[ab] * n + i] += 1
                row[pos[a] * n + i] -= 1
                for j in range(n):
                    row[pos[b] * n + j] -= x.action[a].data[i][j]
                rows.append(row)
    constraints = intmat.from_rows(rows, n * k) if rows else intmat.zeros(0, n * k)
    cocycles = intmat.kernel_basis(constraints)
    ident = intmat.identity(n)
    cobound = intmat.vstack([x.action[h] - ident for h in elems])
    return lattice_quotient(cocycles, cobound)


def fin_ab(*factors, free=0) -> FinAbGroup:
    return FinAbGroup(tuple(factors), free)
