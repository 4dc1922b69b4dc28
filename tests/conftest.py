"""Shared fixtures and the independent brute-force oracles.

Oracles here must stay independent of the code paths they check:
cosets as sorted element tuples, w2 by direct congruence search,
Bernoulli numbers by the binomial recurrence, H^1 from the all-elements
cocycle complex, cyclic H^1 from ker(norm)/im(sigma - 1), Smith
diagonals by the integer Smith elimination, p-adic Smith valuations by
the dense elimination mod p^k, determinants by the Bareiss elimination,
and cokernels and lattice quotients by the integer Smith form
(oracle_cokernel, lattice_quotient), which intmat no longer reads.
Character multiplicities by the per-lattice loop that the realization's
character table replaced. Galois-orbit norms by the
product of the conjugates, each primitivized and evaluated on its own,
that _orbit_norm replaced with one evaluation and its conjugates. Exact
solves by the full Hermite form of [A; I] (solve_exact, once intmat's),
which reduces every row where intmat.kernel_basis and span_coordinates
reduce only what they read. W-group parts and depths by the fixed
precision p^30 that realization._stable_part used before it read its
precision off w_2(L) (cap30_stable_part). H^1, X^H and the K-orbit
sums of the flasque resolution by the dense routes that h1,
invariant_basis and _orbit_sums replaced: rho(s) - I from the identity
matrix and a subtraction, the kernel from the stacked [A; I], and each
K-orbit by applying rho(k) to each vector (dense_*). The norm-one
lattice by the element-by-element build that norm_one_lattice replaced
with its generators, validated afterwards (element_norm_one_lattice).
The column Hermite form hnf_columns and its diagonal, which intmat
replaced with is_onto and pivot_rows read off the forward pass alone.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd, prod
from pathlib import Path

import pytest

from torusbt import intmat
from torusbt import lattices as lat
from torusbt.cohomology import _smith_torsion
from torusbt.cyclotomic import mul_mod_phi, phi_degree
from torusbt.dirichlet import (DirichletCharacter, _bernoulli2_integers, _ramanujan_sum,
                               characters_trivial_on, conductor_primitive, galois_orbits)
from torusbt.errors import (MultiplicityNotInteger, NonAbelianRealization, NotRational,
                            NotUnimodular, ShapeMismatch)
from torusbt.exact import FinAbGroup
from torusbt.groups import (cyclic_group, group_from_generators, subgroup_classes,
                            subgroup_elements, subgroup_generators)
from torusbt.units import euler_phi, unit_group, units_mod


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


def element_norm_one_lattice(group):
    """Norm-one lattice with a matrix built for every element g,
    g([a]-[e]) = ([ga]-[e]) - ([g]-[e]), then validated."""
    nonid = [a for a in range(group.order) if a != group.identity]
    pos = {a: i for i, a in enumerate(nonid)}
    n = len(nonid)

    def basis_vec(a: int) -> list[int]:
        v = [0] * n
        if a != group.identity:
            v[pos[a]] = 1
        return v

    mats = []
    for g in range(group.order):
        cols = [tuple(x - y for x, y in zip(basis_vec(group.op(g, a)), basis_vec(g)))
                for a in nonid]
        mats.append(intmat.from_columns(cols, n))
    x = lat.GLattice(group, n, tuple(mats))
    lat.validate(x)
    return x


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
    uinv = solve_exact(u, intmat.identity(u.rows))
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


def dense_smith_valuations(mat: intmat.IntMatrix, p: int, k: int) -> list[int]:
    """min(v_p(d_i), k) for the Smith diagonal d_1 | d_2 | ... of mat.

    Gaussian elimination over Z/p^k, where every ideal is a power of p.
    Every live entry stays divisible by p^v, v the last pivot valuation;
    a pivot of valuation exactly v divides its column, so row operations
    clear it, and the column operations that would clear its row touch
    no other row, so its row and column are dropped. Entries stay below
    p^k.
    """
    pk = p ** k
    rows = [[a % pk for a in r] for r in mat.data]
    live = list(range(mat.cols))
    out, v = [], 0
    while rows and live and v < k:
        pv = p ** (v + 1)
        hit = next(((i, j) for i, r in enumerate(rows) for j in live if r[j] % pv), None)
        if hit is None:
            v += 1
            continue
        i, j = hit
        piv = rows.pop(i)
        inv = pow(piv[j] // p ** v, -1, pk)
        for r in rows:
            q = r[j] // p ** v * inv % pk
            if q:
                r[:] = [(a - q * b) % pk for a, b in zip(r, piv)]
        live.remove(j)
        out.append(v)
    return out + [k] * (min(mat.rows, mat.cols) - len(out))


def cap30_stable_part(x, r, p: int, twist: int, side: str) -> tuple[int, int]:
    """(p-part, depth) by the W-group route as it ran at the fixed precision
    p^30, before realization._stable_part read its own off w_2(L): the same
    stacked a^twist rho(a) - 1, valuations from smith_valuations(., p, 30)."""
    pk = p ** 30
    rows = []
    for a in unit_group(r.modulus * (8 if p == 2 else p * p)).generators:
        c, m = pow(a, twist, pk), x.action[r.pi(a)].data
        if side == "coinvariants":
            m = list(zip(*m))
        for i, row in enumerate(m):
            rows.append(tuple(c * e - (i == j) for j, e in enumerate(row)))
    vs = intmat.smith_valuations(intmat.IntMatrix(len(rows), x.rank, tuple(rows)), p, 30)
    depth = max(1, max(vs, default=0))
    assert depth < 30, (r.modulus, p)
    return p ** sum(vs), depth


def hnf_columns(mat: intmat.IntMatrix) -> intmat.IntMatrix:
    """Column-style Hermite normal form of the column lattice of mat.

    Zero columns are dropped; pivots (first nonzero entry of each column,
    scanning top-down) are positive and strictly lower with each later
    column; earlier columns' entries in a pivot row are reduced into
    [0, pivot). The result is the canonical basis of the column span.
    Verbatim the intmat.hnf_columns that the flasque onto check and
    artin_induction read before intmat.is_onto and intmat.pivot_rows.
    """
    m, piv = intmat._echelon(mat)
    intmat._reduce_above(m, piv, 0)
    return intmat.from_columns(m[:len(piv)], mat.rows)


def _diagonal(mat: intmat.IntMatrix) -> list[int]:
    """The Hermite diagonal of mat: its echelon pivots. Verbatim the
    intmat._diagonal that is_unimodular read before intmat.is_onto."""
    m, piv = intmat._echelon(mat)
    return [m[k][j] for k, j in enumerate(piv)]


def abs_det(mat: intmat.IntMatrix) -> int:
    """|det| of a square matrix: the product of n echelon pivots, 0 if fewer.
    Verbatim the intmat.abs_det that local point counts read before
    realization.point_count took them off the character table."""
    if mat.rows != mat.cols:
        raise ShapeMismatch("determinant of non-square matrix")
    d = _diagonal(mat)
    return prod(d) if len(d) == mat.cols else 0


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


def vstack(mats: list[intmat.IntMatrix]) -> intmat.IntMatrix:
    """The matrices one above the other; all need the same number of
    columns, and no matrices give the 0x0 matrix."""
    cols = mats[0].cols if mats else 0
    assert all(m.cols == cols for m in mats)
    return intmat.IntMatrix(sum(m.rows for m in mats), cols,
                            tuple(r for m in mats for r in m.data))


def hstack(mats: list[intmat.IntMatrix]) -> intmat.IntMatrix:
    """The matrices side by side; all need the same number of rows."""
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    return intmat.from_rows([[a for m in mats for a in m.data[i]] for i in range(rows)],
                            sum(m.cols for m in mats))


def solve_exact(mat: intmat.IntMatrix, rhs: intmat.IntMatrix) -> intmat.IntMatrix | None:
    """Solve mat @ X = rhs over the integers; None when no solution exists.

    hnf_columns([mat; I]) = [mat @ T; T] with T unimodular and the first
    r columns of mat @ T in echelon form, the rest zero. Each column of
    rhs is forward-substituted along those pivots (a remainder stays in
    the residual) and mapped back by T's first r columns; when mat has
    full column rank the solution is unique.
    """
    if rhs.rows != mat.rows:
        raise ShapeMismatch("solve_exact shape mismatch")
    h = hnf_columns(vstack([mat, intmat.identity(mat.cols)]))
    top, t = h.data[:mat.rows], h.data[mat.rows:]
    r = sum(1 for j in range(mat.cols) if any(row[j] for row in top))
    pivots = [next(i for i, row in enumerate(top) if row[k]) for k in range(r)]
    ys = []
    for j in range(rhs.cols):
        res = list(rhs.col(j))
        y = []
        for k, p in enumerate(pivots):
            q = res[p] // top[p][k]
            y.append(q)
            if q:
                res = [a - q * row[k] for a, row in zip(res, top)]
        if any(res):
            return None
        ys.append(y)
    return (intmat.IntMatrix(mat.cols, r, tuple(row[:r] for row in t))
            @ intmat.from_columns(ys, r))


def snf_diagonal(mat: intmat.IntMatrix) -> list[int]:
    a = [list(r) for r in mat.data]
    _snf_inplace(a, mat.rows, mat.cols)
    return [a[i][i] for i in range(min(mat.rows, mat.cols))]


def oracle_cokernel(mat: intmat.IntMatrix) -> FinAbGroup:
    """Z^rows / column-image(mat) read off the integer Smith diagonal
    d_1 | d_2 | ...: its nonzero entries past 1 are the invariant factors,
    and each of the other rows is a free summand."""
    nonzero = [d for d in snf_diagonal(mat) if d]
    return FinAbGroup(tuple(d for d in nonzero if d > 1), mat.rows - len(nonzero))


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
    y = solve_exact(basis, sub_gens)
    if y is None:
        raise ShapeMismatch("sublattice generators outside the lattice")
    return oracle_cokernel(y)


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
    cobound = vstack([x.action[h] - ident for h in elems])
    return lattice_quotient(cocycles, cobound)


def fin_ab(*factors, free=0) -> FinAbGroup:
    return FinAbGroup(tuple(factors), free)


# ------------------------------------------- dense routes of the resolution

def _dense_minus_identity(x, elems) -> intmat.IntMatrix:
    """The stacked rho(s) - I over s in elems, from intmat.identity,
    IntMatrix subtraction and vstack."""
    ident = intmat.identity(x.rank)
    return vstack([x.action[s] - ident for s in elems])


def dense_kernel_basis(mat: intmat.IntMatrix) -> intmat.IntMatrix:
    """kernel_basis by the echelon pass of the stacked matrix [mat; I]."""
    m, piv = intmat._echelon(vstack([mat, intmat.identity(mat.cols)]))
    r = sum(1 for j in piv if j < mat.rows)
    intmat._reduce_above(m, piv, r)
    return intmat.from_columns([row[mat.rows:] for row in m[r:]], mat.cols)


def dense_invariant_basis(x, h) -> intmat.IntMatrix:
    """lattices.invariant_basis through the dense rows: the identity for
    a trivial H."""
    gens = subgroup_generators(x.group, h)
    if not gens:
        return intmat.identity(x.rank)
    return dense_kernel_basis(_dense_minus_identity(x, gens))


def dense_h1(h, x) -> FinAbGroup:
    """cohomology.h1 through the dense rows."""
    elems = subgroup_elements(x.group, h)
    z = sum(x.action[a][i, i] for a in elems for i in range(x.rank)) // len(elems)
    stacked = _dense_minus_identity(x, subgroup_generators(x.group, h))
    return _smith_torsion(stacked, len(elems), z)


def dense_orbit_sums(x, kelems, orbit) -> list[tuple[int, ...]]:
    """cohomology._orbit_sums by applying rho(k) to each vector of the
    G-orbit: sums of its K-orbits, in the order of each one's first vector."""
    seen, cols = set(), []
    for vec in orbit:
        if vec not in seen:
            korbit = {x.action[k].apply(vec) for k in kelems}
            seen |= korbit
            cols.append(tuple(map(sum, zip(*korbit))))
    return cols


# ---------------------------------------------------------------- characters

def loop_character_multiplicities(x, realization) -> list[tuple[list[DirichletCharacter], int]]:
    """Multiplicity of the characters of each Galois orbit of G inside the
    lattice representation, as (orbit, multiplicity) pairs.

    m_chi = (1/|G|) sum_g conj(chi)(g) tr rho(g). The traces are rational,
    so the phi(m) conjugates of chi (order m) share m_chi, and summing
    over the orbit turns each zeta_m^e into the Ramanujan sum
    c_m(e) = mu(q) phi(m) / phi(q), q = m / gcd(e, m):
    phi(m) |G| m_chi = sum_g tr rho(g) c_m(e_g). The quotient is certified
    to be a nonnegative integer.
    """
    g = x.group
    if not g.is_abelian():
        raise NonAbelianRealization("character multiplicities need an abelian group")
    f = realization.modulus
    kernel = {u for u in units_mod(f) if realization.pi(u) == g.identity}
    chars = characters_trivial_on(f, kernel)
    # One unit representative per group element.
    reps: dict[int, int] = {}
    for u in units_mod(f):
        reps.setdefault(realization.pi(u), u)
    if len(reps) != g.order:
        raise NonAbelianRealization("realization does not cover the group")
    traces = {a: sum(x.action[a].data[i][i] for i in range(x.rank))
              for a in range(g.order)}
    out = []
    for orbit in galois_orbits(chars):
        chi, m = orbit[0], orbit[0].order
        total = sum(traces[a] * _ramanujan_sum(m, chi.value_exponent(reps[a]))
                    for a in range(g.order))
        mult, rem = divmod(total, euler_phi(m) * g.order)
        if rem or mult < 0:
            raise MultiplicityNotInteger(
                f"multiplicity {Fraction(total, euler_phi(m) * g.order)} of {chi}")
        out.append((orbit, mult))
    return out


def conjugate_orbit_norm(chi: DirichletCharacter) -> Fraction:
    """Rational product of L(chi^k, -1) over k coprime to the order m.

    Each conjugate is primitivized and evaluated on its own;
    conductor_primitive keeps the order, so every value lies in
    Z[zeta_m] over its own denominator -12f.
    """
    m = chi.order
    num = [1] + [0] * (phi_degree(m) - 1)
    den = 1
    for k in units_mod(m):
        v, d = _bernoulli2_integers(conductor_primitive(chi.power(k))[1])
        num = mul_mod_phi(m, num, v)
        den *= -2 * d
    if any(num[1:]):
        raise NotRational(f"orbit product of conjugate L-values not rational: {num}/{den}")
    return Fraction(num[0], den)
