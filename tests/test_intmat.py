import random
import time
from itertools import combinations, product
from math import gcd

import pytest

from conftest import det, oracle_cokernel, random_unimodular, snf_diagonal
from torusbt import intmat
from torusbt.errors import ShapeMismatch
from torusbt.exact import FinAbGroup
from torusbt.intmat import (IntMatrix, abs_det, cokernel_structure, from_columns, from_rows,
                            hnf_columns, identity, is_unimodular, kernel_basis, solve_exact,
                            zeros)


def _minor_gcd(m, k):
    """gcd of all k x k minors of m (0 when every one vanishes)."""
    out = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            out = gcd(out, det(from_rows([[m[i, j] for j in cols] for i in rows])))
    return out


def check_snf(m):
    """The Smith diagonal read off cokernel_structure against the
    determinantal divisors: d_1...d_k is the gcd of the k x k minors."""
    coker = cokernel_structure(m)
    r = m.rows - coker.free_rank
    diag = ([1] * (r - len(coker.invariant_factors)) + list(coker.invariant_factors)
            + [0] * (min(m.rows, m.cols) - r))
    assert len(diag) == min(m.rows, m.cols)
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert prod == _minor_gcd(m, k)
    return diag


def test_snf_identity():
    assert check_snf(identity(3)) == [1, 1, 1]


def test_snf_determinant_divisor_oracle():
    # d1 = gcd of entries, d1*d2 = |det| for [[2,4],[6,8]]
    m = from_rows([[2, 4], [6, 8]])
    diag = check_snf(m)
    entries_gcd = gcd(gcd(2, 4), gcd(6, 8))
    assert diag[0] == entries_gcd == 2
    assert diag[0] * diag[1] == abs(det(m)) == 8
    assert diag == [2, 4]


def test_snf_zero_matrix():
    assert check_snf(zeros(2, 3)) == [0, 0]


@pytest.mark.parametrize("rows", [[[1.5]], [[1.0]], [[True]], [[1, "a"]]], ids=str)
def test_from_rows_rejects_non_int_entries(rows):
    with pytest.raises(ShapeMismatch, match="must be integers"):
        from_rows(rows)


def test_snf_empty_shapes():
    assert check_snf(zeros(0, 3)) == []
    assert check_snf(zeros(2, 0)) == []


@pytest.mark.parametrize("seed", range(12))
def test_snf_random_property(seed):
    rng = random.Random(1000 + seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = from_rows([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    check_snf(m)


def _valuation(d, p, k):
    v = 0
    while d and d % p == 0 and v < k:
        d //= p
        v += 1
    return k if d == 0 else v


@pytest.mark.parametrize("seed", range(12))
def test_smith_valuations_match_the_integer_smith_form(seed):
    rng = random.Random(2000 + seed)
    rows, cols = rng.randint(0, 6), rng.randint(0, 5)
    p = rng.choice([2, 3, 5])
    k = rng.randint(1, 4)
    # entries built from powers of p so that high valuations occur
    m = from_rows([[rng.choice([0, 1, -1, 2]) * p ** rng.randint(0, 3)
                    for _ in range(cols)] for _ in range(rows)], cols)
    expected = [_valuation(d, p, k) for d in snf_diagonal(m)]
    assert intmat.smith_valuations(m, p, k) == expected


def test_smith_valuations_examples():
    assert intmat.smith_valuations(from_rows([[8, 0], [0, 3]]), 2, 5) == [0, 3]
    assert intmat.smith_valuations(from_rows([[8, 0], [0, 3]]), 2, 2) == [0, 2]
    assert intmat.smith_valuations(zeros(3, 2), 7, 4) == [4, 4]
    assert intmat.smith_valuations(zeros(0, 2), 7, 4) == []


def test_cokernel_examples():
    assert cokernel_structure(from_rows([[2]])) == FinAbGroup((2,))
    assert cokernel_structure(zeros(2, 0)) == FinAbGroup((), 2)
    assert cokernel_structure(from_rows([[2, 4], [6, 8]])) == FinAbGroup((2, 4))


def test_cokernel_factors_only_the_torsion_order():
    """The Hermite pivot 2**89 - 1 is an artefact of the basis: the
    cokernel is Z, and reading it factors nothing that large."""
    start = time.perf_counter()
    assert cokernel_structure(from_rows([[2 ** 89 - 1], [1]])) == FinAbGroup((), 1)
    assert time.perf_counter() - start < 1.0


def _random_matrix(rng):
    """Rank-deficient products, prime-power entries or plain small entries,
    in any shape from 0 x 0 to 7 x 7."""
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    kind = rng.randrange(3)
    if kind == 0:
        inner = rng.randint(0, 4)
        b = from_rows([[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)], inner)
        return b @ from_rows([[rng.randint(-4, 4) for _ in range(cols)]
                              for _ in range(inner)], cols)
    if kind == 1:
        p = rng.choice([2, 3, 5, 7])
        return from_rows([[rng.choice([0, 1, -1, 2]) * p ** rng.randint(0, 4)
                           for _ in range(cols)] for _ in range(rows)], cols)
    return from_rows([[rng.randint(-30, 30) for _ in range(cols)]
                      for _ in range(rows)], cols)


@pytest.mark.parametrize("seed", range(5))
def test_cokernel_matches_the_integer_smith_form(seed):
    rng = random.Random(6000 + seed)
    for _ in range(120):
        m = _random_matrix(rng)
        assert cokernel_structure(m) == oracle_cokernel(m), m


@pytest.mark.parametrize("seed", range(8))
def test_cokernel_order_equals_det(seed):
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 4)
    while True:
        m = from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            break
    assert cokernel_structure(m).order() == abs(det(m))


def test_kernel_basis_is_saturated_and_canonical():
    m = from_rows([[1, -1, 0], [0, 0, 0]])
    k = kernel_basis(m)
    assert k.cols == 2
    assert (m @ k).is_zero()
    # canonical: running twice gives the same matrix
    assert kernel_basis(m) == k


@pytest.mark.parametrize("seed", range(8))
def test_kernel_random(seed):
    rng = random.Random(3000 + seed)
    m = from_rows([[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)])
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert hnf_columns(k).cols == k.cols       # independent columns
    assert hnf_columns(m).cols + k.cols == 4


def test_solve_exact_finds_integral_solutions():
    m = from_rows([[2, 0], [0, 3]])
    rhs = from_rows([[4], [9]])
    x = solve_exact(m, rhs)
    assert x is not None and m @ x == rhs
    assert solve_exact(m, from_rows([[1], [0]])) is None


def test_solve_exact_underdetermined():
    m = from_rows([[2, 4]])
    rhs = from_rows([[6]])
    x = solve_exact(m, rhs)
    assert x is not None and m @ x == rhs


def test_hnf_columns_canonical_form():
    m = from_rows([[2, 1], [0, 1]])
    h = hnf_columns(m)
    # span{(2,0),(1,1)} = {(a,b): a+..}: pivots positive, reduced
    assert h == hnf_columns(h)
    assert det(h) in (2, -2)


def test_matmul_and_empty_dims():
    a = zeros(2, 0)
    b = zeros(0, 3)
    assert (a @ b) == zeros(2, 3)
    assert abs_det(zeros(0, 0)) == 1 and is_unimodular(zeros(0, 0))


@pytest.mark.parametrize("cols", [[(1, 2, 3)], [(1, 2), (3,)]], ids=["too-long", "too-short"])
def test_from_columns_rejects_a_column_of_the_wrong_length(cols):
    with pytest.raises(ShapeMismatch, match="length 2"):
        from_columns(cols, 2)


def test_from_columns_shapes():
    assert from_columns([(1, 2), (3, 4), (5, 6)], 2).data == ((1, 3, 5), (2, 4, 6))
    assert from_columns([], 3) == zeros(3, 0)
    assert from_columns([(), ()], 0) == zeros(0, 2)


def test_block_and_stack_helpers():
    a = identity(2)
    b = from_rows([[5]])
    bd = intmat.block_diag([a, b])
    assert bd.data == ((1, 0, 0), (0, 1, 0), (0, 0, 5))
    assert intmat.vstack([a, zeros(1, 2)]).rows == 3
    assert intmat.hstack([a, zeros(2, 1)]).cols == 3


# ------------------------------------- the Smith-transform reference solver

def _snf_with_transforms(mat):
    """Reference: (U, D, V) with U @ mat @ V = D, by the Smith elimination
    that once drove kernel_basis and solve_exact (min-|pivot| choice)."""
    rows, cols = mat.rows, mat.cols
    a = [list(r) for r in mat.data]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i1, i2):
        a[i1], a[i2] = a[i2], a[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for r in a + v:
            r[j1], r[j2] = r[j2], r[j1]

    def addmul_row(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for r in a + v:
            r[dst] += q * r[src]

    for t in range(min(rows, cols)):
        nz = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols)
              if a[i][j]]
        if not nz:
            break
        _, bi, bj = min(nz)
        swap_rows(t, bi)
        swap_cols(t, bj)
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    addmul_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    addmul_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            offender = next((i for i in range(t + 1, rows)
                             for j in range(t + 1, cols) if a[i][j] % a[t][t]), None)
            if offender is None:
                break
            addmul_row(t, offender, 1)
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
    return from_rows(u, rows), from_rows(a, cols), from_rows(v, cols)


def _reference_kernel(mat):
    _, d, v = _snf_with_transforms(mat)
    free = [v.col(j) for j in range(mat.cols)
            if j >= min(mat.rows, mat.cols) or d[j, j] == 0]
    return hnf_columns(intmat.from_columns(free, mat.cols))


def _reference_solve(mat, rhs):
    u, d, v = _snf_with_transforms(mat)
    w = u @ rhs
    zcols = []
    for j in range(rhs.cols):
        z = [0] * mat.cols
        for i in range(mat.rows):
            di = d[i, i] if i < min(mat.rows, mat.cols) else 0
            if (w[i, j] if di == 0 else w[i, j] % di) != 0:
                return None
            if di:
                z[i] = w[i, j] // di
        zcols.append(tuple(z))
    return v @ intmat.from_columns(zcols, mat.cols)


def _random_system(rng):
    """A random A (often rank-deficient, with zero rows or columns) and a
    right-hand side mixing solvable and unsolvable columns."""
    rows, cols, inner = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
    b = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(rows)]
    c = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(inner)]
    a = from_rows(b, inner) @ from_rows(c, cols)
    data = [list(r) for r in a.data]
    for i in range(rows):
        if rng.random() < 0.15:
            data[i] = [0] * cols
    for j in range(cols):
        if rng.random() < 0.15:
            for r in data:
                r[j] = 0
    a = from_rows(data, cols)
    x = from_rows([[rng.randint(-3, 3) for _ in range(3)] for _ in range(cols)], 3)
    rhs = [list(r) for r in (a @ x).data]
    for r in rhs:
        if rng.random() < 0.3:
            r[rng.randrange(3)] += rng.choice([-2, -1, 1, 2])
    return a, from_rows(rhs, 3)


@pytest.mark.parametrize("seed", range(10))
def test_hermite_kernel_and_solve_match_the_smith_transforms(seed):
    rng = random.Random(4000 + seed)
    for _ in range(60):
        a, rhs = _random_system(rng)
        assert kernel_basis(a) == _reference_kernel(a)
        full_rank = hnf_columns(a).cols == a.cols
        for j in range(rhs.cols):
            b = intmat.from_columns([rhs.col(j)], a.rows)
            x, ref = solve_exact(a, b), _reference_solve(a, b)
            assert (x is None) == (ref is None)
            if x is not None:
                assert a @ x == b
                if full_rank:
                    assert x == ref
        x = solve_exact(a, rhs)
        if x is not None:
            assert a @ x == rhs


def _random_square(rng):
    """A singular product, a unimodular matrix or plain small entries,
    in any size from 0 x 0 to 7 x 7."""
    n = rng.randint(0, 7)
    kind = rng.randrange(3)
    if kind == 0:
        inner = rng.randint(0, max(n - 1, 0))
        b = from_rows([[rng.randint(-4, 4) for _ in range(inner)] for _ in range(n)], inner)
        return b @ from_rows([[rng.randint(-4, 4) for _ in range(n)]
                              for _ in range(inner)], n)
    if kind == 1:
        return random_unimodular(n, rng) if n else zeros(0, 0)
    return from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)], n)


@pytest.mark.parametrize("seed", range(5))
def test_abs_det_and_is_unimodular_match_the_bareiss_determinant(seed):
    rng = random.Random(6000 + seed)
    kinds = {"singular": 0, "unimodular": 0, "other": 0}
    for _ in range(240):
        m = _random_square(rng)
        d = det(m)
        assert abs_det(m) == abs(d), m
        assert is_unimodular(m) == (d in (1, -1)), m
        kinds["singular" if d == 0 else "unimodular" if abs(d) == 1 else "other"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_abs_det_and_is_unimodular_reject_non_square():
    m = from_rows([[1, 0, 0], [0, 1, 0]])
    assert not is_unimodular(m)
    assert not is_unimodular(m.transpose())
    with pytest.raises(ShapeMismatch):
        abs_det(m)


# ------------------------------------------ the dense kernels they replaced

def _dense_matmul(a, b):
    """Reference: every entry as the dot product of a row and a column."""
    cols = list(zip(*b.data)) if b.data else [()] * b.cols
    out = tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in a.data)
    if a.rows and b.cols == 0:
        out = tuple(() for _ in range(a.rows))
    return IntMatrix(a.rows, b.cols, out)


def _dense_apply(a, vec):
    return tuple(sum(x * y for x, y in zip(r, vec)) for r in a.data)


def _interleaved_hnf(mat):
    """Reference: the column Hermite form with the rows above each pivot
    reduced as soon as that pivot is found."""
    m = [list(c) for c in zip(*mat.data)] if mat.data else []
    nrows = len(m)
    pivot_row = 0
    for j in range(mat.rows):
        if pivot_row >= nrows:
            break
        nz = [i for i in range(pivot_row, nrows) if m[i][j] != 0]
        if not nz:
            continue
        i0 = nz[0]
        m[pivot_row], m[i0] = m[i0], m[pivot_row]
        for i in range(pivot_row + 1, nrows):
            while m[i][j] != 0:
                q = m[pivot_row][j] // m[i][j]
                m[pivot_row] = [x - q * y for x, y in zip(m[pivot_row], m[i])]
                if m[pivot_row][j] == 0:
                    m[pivot_row], m[i] = m[i], m[pivot_row]
                    break
                m[pivot_row], m[i] = m[i], m[pivot_row]
        if m[pivot_row][j] < 0:
            m[pivot_row] = [-x for x in m[pivot_row]]
        p = m[pivot_row][j]
        for i in range(pivot_row):
            q = m[i][j] // p
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[pivot_row])]
        pivot_row += 1
    return IntMatrix(mat.rows, pivot_row,
                     tuple(tuple(r[i] for r in m[:pivot_row]) for i in range(mat.rows)))


def _sparse(rng, rows, cols, density, bound):
    return from_rows([[rng.choice((-1, 1)) * rng.randint(1, bound)
                       if rng.random() < density else 0
                       for _ in range(cols)] for _ in range(rows)], cols)


def _signed_permutation(rng, n):
    perm = rng.sample(range(n), n)
    return from_rows([[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)]
                      for i in range(n)], n)


def _product_pool(seed):
    """Factor pairs of every shape k x l @ l x m with k, l, m in 0..7
    (so k x 0 @ 0 x m and 0 x k @ k x m too), at densities 0, about 10%
    and 100%, with entries below 10 or beyond 2**64; then signed
    permutation matrices on either side."""
    rng = random.Random(seed)
    for (k, l, m), density in product(product(range(8), repeat=3), (0, 0.1, 1)):
        bound = rng.choice((9, 2 ** 70))
        yield _sparse(rng, k, l, density, bound), _sparse(rng, l, m, density, bound)
    for n in range(8):
        p, a = _signed_permutation(rng, n), _sparse(rng, n, n, 1, 2 ** 70)
        yield p, a
        yield a, p
        yield p, _signed_permutation(rng, n)


@pytest.mark.parametrize("seed", range(2))
def test_products_match_the_dense_kernels(seed):
    rng = random.Random(7000 + seed)
    for a, b in _product_pool(7000 + seed):
        assert a @ b == _dense_matmul(a, b), (a, b)
        vec = tuple(rng.randint(-2 ** 70, 2 ** 70) for _ in range(a.cols))
        assert a.apply(vec) == _dense_apply(a, vec), (a, vec)


@pytest.mark.parametrize("seed", range(2))
def test_hermite_form_matches_the_interleaved_reduction(seed):
    for a, b in _product_pool(7000 + seed):
        for mat in (a, b, a @ b):
            h = hnf_columns(mat)
            assert h == _interleaved_hnf(mat), mat
            m, piv = intmat._echelon(mat)
            assert len(piv) == h.cols
            assert [next(i for i in range(h.rows) if h[i, k]) for k in range(h.cols)] == piv
            assert [m[k][j] for k, j in enumerate(piv)] == [h[j, k] for k, j in enumerate(piv)]
