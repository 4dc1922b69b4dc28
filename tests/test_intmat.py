import random
from itertools import combinations, product
from math import gcd, prod

import pytest

from conftest import (abs_det, dense_smith_valuations, det, hnf_columns, oracle_cokernel,
                      random_unimodular, snf_diagonal, solve_exact, vstack)
from torusbt import intmat, lattices
from torusbt.errors import ShapeMismatch
from torusbt.exact import FinAbGroup, from_elementary_divisors
from torusbt.groups import cyclic_group
from torusbt.intmat import (IntMatrix, from_columns, from_rows, identity, is_unimodular,
                            kernel_basis, zeros)
from torusbt.realization import _stable_part, realization_from_images
from torusbt.units import factorize, primitive_root_mod_prime


def _minor_gcd(m, k):
    """gcd of all k x k minors of m (0 when every one vanishes)."""
    out = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            out = gcd(out, det(from_rows([[m[i, j] for j in cols] for i in rows])))
    return out


def check_snf(m):
    """The Smith diagonal read off smith_valuations at each p^e exactly
    dividing the last nonzero determinantal divisor D_r (r the rank),
    against the determinantal divisors: d_1...d_k = D_k, the gcd of the
    k x k minors. Each d_i with i <= r divides D_r, so p^e caps none."""
    n = min(m.rows, m.cols)
    minors = [_minor_gcd(m, k) for k in range(1, n + 1)]
    r = sum(1 for d in minors if d)
    diag = [1] * r
    for p, e in factorize(minors[r - 1] if r else 1):
        for i, v in enumerate(intmat.smith_valuations(m, p, e)[:r]):
            diag[i] *= p ** v
    diag += [0] * (n - r)
    prod = 1
    for k, d in enumerate(diag, start=1):
        prod *= d
        assert prod == minors[k - 1]
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


def _padic_pool(seed):
    """(matrix, p, k) for every shape 0..8 x 0..8 at densities 0, about
    10% and 100%, each with every p in {2, 3, 5, 97} and k in {1, 2, 30}.
    Nonzero entries are +-p^e u, e <= 4, with u below 10 or beyond 2**64,
    so high valuations and wide entries both occur."""
    rng = random.Random(seed)
    for (rows, cols), density in product(product(range(9), repeat=2), (0, 0.1, 1)):
        for p, k in product((2, 3, 5, 97), (1, 2, 30)):
            bound = rng.choice((9, 2 ** 70))
            yield from_rows([[rng.choice((-1, 1)) * p ** rng.randint(0, 4)
                              * rng.randint(1, bound) if rng.random() < density else 0
                              for _ in range(cols)] for _ in range(rows)], cols), p, k


def test_smith_valuations_match_the_dense_elimination():
    """The sparse elimination against the dense one it replaced, and
    against the integer Smith form up to 5 x 5."""
    checked = 0
    for m, p, k in _padic_pool(2500):
        vals = intmat.smith_valuations(m, p, k)
        assert vals == dense_smith_valuations(m, p, k), (m, p, k)
        if m.rows <= 5 and m.cols <= 5:
            assert vals == [_valuation(d, p, k) for d in snf_diagonal(m)], (m, p, k)
            checked += 1
    assert checked == 36 * 3 * 12


@pytest.mark.parametrize("f", [7, 13, 17, 29, 37, 59, 61, 97])
def test_smith_valuations_on_the_ladder_w_group_matrices(f, monkeypatch):
    """The stacked a^2 rho(a) - 1 that realization._stable_part feeds to
    the elimination at p = 2, 3 and f, on the regular, norm-one and dual
    norm-one lattices of Res Q(zeta_f)^+ (C3 .. C48), against the dense
    elimination (w_group_order reads the parts at a p prime to |G|,
    such as f, off the character table). w_2(Q(zeta_f)^+) = 24f sets the caps 2^4, 3^2, f^2. The
    CRT generators of the 2- and 3-parts are 1 mod f, so they act as the
    scalars c = a^2 and are folded into the precision p^v_p(c - 1): 2^3
    (from a = 5 mod 8) and 3^1. Only the (Z/f)* generator's block is fed
    at p = 2 and 3, and the whole cyclic (Z/f^3)* stack at p = f."""
    g = cyclic_group((f - 1) // 2)
    r = realization_from_images(g, f, {primitive_root_mod_prime(f): 1})
    norm_one = lattices.norm_one_lattice(g)
    fed = []
    sparse = intmat.smith_valuations
    monkeypatch.setattr(intmat, "smith_valuations",
                        lambda m, p, k: fed.append((m, p, k)) or sparse(m, p, k))
    for x in (lattices.permutation_lattice(g, (g.identity,)), norm_one,
              lattices.dual(norm_one)):
        for p in (2, 3, f):
            _stable_part(x, r, p, 2, "invariants")
    assert sorted({(p, k) for _, p, k in fed}) == [(2, 3), (3, 1), (f, 2)]
    assert len(fed) == 9
    assert all(m.rows == m.cols for m, _, _ in fed)
    for m, p, k in fed:
        assert sparse(m, p, k) == dense_smith_valuations(m, p, k), (f, p, m.rows)


def test_smith_valuations_examples():
    assert intmat.smith_valuations(from_rows([[8, 0], [0, 3]]), 2, 5) == [0, 3]
    assert intmat.smith_valuations(from_rows([[8, 0], [0, 3]]), 2, 2) == [0, 2]
    assert intmat.smith_valuations(zeros(3, 2), 7, 4) == [4, 4]
    assert intmat.smith_valuations(zeros(0, 2), 7, 4) == []


def _is_onto(m):
    """The columns of m span Z^rows: flasque_resolution's onto test."""
    return hnf_columns(m).is_identity()


def test_cokernel_examples():
    """The oracle's cokernels, and the onto test on each."""
    examples = [(from_rows([[2]]), FinAbGroup((2,))),
                (zeros(2, 0), FinAbGroup((), 2)),
                (from_rows([[2, 4], [6, 8]]), FinAbGroup((2, 4))),
                (from_rows([[2 ** 89 - 1], [1]]), FinAbGroup((), 1)),
                (from_rows([[2, 3]]), FinAbGroup()),
                (zeros(0, 0), FinAbGroup()),
                (zeros(0, 3), FinAbGroup())]
    for m, coker in examples:
        assert oracle_cokernel(m) == coker
        assert _is_onto(m) == coker.is_trivial, m


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


def _torsion_order(m) -> int:
    """|d_1 ... d_r| over the nonzero Smith entries of m: the pivot
    product of the Hermite form of the transposed column basis."""
    h = hnf_columns(hnf_columns(m).transpose())
    return prod(h[k, k] for k in range(h.cols))


@pytest.mark.parametrize("seed", range(5))
def test_cokernel_matches_the_integer_smith_form(seed):
    """The cokernel as the package reads such quotients: free rank from the
    Hermite form, and the p-parts of the torsion from smith_valuations at
    each p^e exactly dividing its order."""
    rng = random.Random(6000 + seed)
    for _ in range(120):
        m = _random_matrix(rng)
        r = hnf_columns(m).cols
        divisors = [p ** v for p, e in factorize(_torsion_order(m))
                    for v in intmat.smith_valuations(m, p, e)[:r]]
        coker = oracle_cokernel(m)
        assert (m.rows - r, from_elementary_divisors(divisors)) == \
            (coker.free_rank, FinAbGroup(coker.invariant_factors)), m


@pytest.mark.parametrize("seed", range(8))
def test_cokernel_order_equals_det(seed):
    """|Z^n / mZ^n| = |det m|, as p^(sum of smith_valuations(m, p, e)) over
    the p^e exactly dividing det m."""
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 4)
    while True:
        m = from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        if det(m) != 0:
            break
    assert prod(p ** sum(intmat.smith_valuations(m, p, e))
                for p, e in factorize(abs(det(m)))) == abs(det(m))


def _onto_pool(rng):
    """Matrices with 0 to 4 rows and 0 to 6 columns: unimodular blocks with
    extra columns (onto), their images under a random integer matrix, and
    plain small entries."""
    rows, cols = rng.randint(0, 4), rng.randint(0, 6)
    kind = rng.randrange(3)
    if kind == 0 and cols >= rows:
        u = random_unimodular(rows, rng) if rows else zeros(0, 0)
        extra = [[rng.randint(-3, 3) for _ in range(cols - rows)] for _ in range(rows)]
        return from_rows([list(a) + b for a, b in zip(u.data, extra)], cols)
    if kind == 1:
        return from_rows([[rng.randint(-2, 2) for _ in range(rows)] for _ in range(rows)],
                         rows) @ from_rows([[rng.randint(-2, 2) for _ in range(cols)]
                                            for _ in range(rows)], cols)
    return from_rows([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols)


def test_onto_test_matches_the_integer_smith_form():
    """hnf_columns(m) == I exactly when the oracle cokernel of m is 0
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4), on
    3,000 random matrices with 0 to 4 rows, the empty shapes included."""
    rng = random.Random(29)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        m = _onto_pool(rng)
        onto = _is_onto(m)
        assert onto == oracle_cokernel(m).is_trivial, m
        seen[onto] += 1
    assert min(seen.values()) > 500
    assert _is_onto(zeros(0, 0)) and _is_onto(zeros(0, 2)) and not _is_onto(zeros(3, 0))


def test_is_onto_and_pivot_rows_match_the_full_hermite_form():
    """is_onto, pivot_rows and is_unimodular read the forward pass alone,
    against the full column Hermite form (conftest.hnf_columns): onto iff
    it is I, and the pivot rows are the first nonzero row of each of its
    columns. 3,000 matrices of both random pools, empty shapes included."""
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    mats = [zeros(0, 0), zeros(0, 3), zeros(3, 0), zeros(2, 2)]
    mats += [(_onto_pool if i % 2 else _random_matrix)(rng) for i in range(3000)]
    for m in mats:
        h = hnf_columns(m)
        onto = h.is_identity()
        assert intmat.is_onto(m) == onto, m
        assert is_unimodular(m) == (m.rows == m.cols and onto), m
        assert intmat.pivot_rows(m) == \
            [next(i for i in range(h.rows) if h[i, k]) for k in range(h.cols)], m
        seen[onto] += 1
    assert min(seen.values()) > 500, seen


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
    assert intmat.block_diag([]) == zeros(0, 0)
    assert intmat.block_diag([zeros(1, 0), b, zeros(0, 2)]).data == ((0, 0, 0), (5, 0, 0))


# ------------------------------------- the Smith-transform reference solver

def _snf_with_transforms(mat):
    """Reference: (U, D, V) with U @ mat @ V = D, by the Smith elimination
    that once drove kernel_basis and the solve_exact oracle (min-|pivot|
    choice)."""
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



def _full_hermite_kernel(a):
    """The last columns of T in hnf_columns([a; I]) = [a @ T; T]: the
    kernel as it was read before kernel_basis reduced only those rows."""
    h = hnf_columns(vstack([a, identity(a.cols)]))
    r = sum(1 for j in range(h.cols) if any(h[i, j] for i in range(a.rows)))
    return IntMatrix(a.cols, a.cols - r, tuple(row[r:] for row in h.data[a.rows:]))


@pytest.mark.parametrize("seed", range(4))
def test_kernel_basis_matches_the_full_hermite_tail(seed):
    rng = random.Random(8500 + seed)
    for _ in range(120):
        a, _ = _random_system(rng)
        assert kernel_basis(a) == _full_hermite_kernel(a), a


@pytest.mark.parametrize("seed", range(10))
def test_span_test_matches_solve_exact(seed):
    """span_coordinates is None exactly when the solve_exact oracle finds
    no solution, on the rank-deficient, non-saturated systems of
    _random_system, one coordinate map per matrix. The coordinates are
    along the echelon rows: through the hnf_columns of the matrix they
    give vec back."""
    rng = random.Random(8000 + seed)
    for _ in range(60):
        a, rhs = _random_system(rng)
        coordinates = intmat.span_coordinates(a)
        h = hnf_columns(a)
        h_coordinates = intmat.span_coordinates(h)
        for j in range(rhs.cols):
            v = rhs.col(j)
            c = coordinates(v)
            assert (c is None) == (solve_exact(a, from_columns([v], a.rows)) is None), (a, v)
            assert (c is None) == (h_coordinates(v) is None)
            if c is not None:
                assert h.apply(tuple(h_coordinates(v))) == v


@pytest.mark.parametrize("seed", range(4))
def test_span_coordinates_on_a_hermite_form_are_its_column_coordinates(seed):
    """On an HNF H (from hnf_columns or kernel_basis) the coordinates of
    H @ c are c, and _echelon leaves H as it is."""
    rng = random.Random(8600 + seed)
    for _ in range(60):
        a, _ = _random_system(rng)
        for h in (hnf_columns(a), kernel_basis(a)):
            m, piv = intmat._echelon(h)
            assert from_columns(m[:len(piv)], h.rows) == h
            coordinates = intmat.span_coordinates(h)
            for _ in range(3):
                c = [rng.randint(-9, 9) for _ in range(h.cols)]
                assert coordinates(h.apply(tuple(c))) == c, (h, c)


def test_span_test_edge_cases():
    empty = intmat.span_coordinates(zeros(3, 0))
    assert empty((0, 0, 0)) == [] and empty((0, 1, 0)) is None
    two = intmat.span_coordinates(from_rows([[2]]))     # 2Z: pivot 2 rejects odd entries
    assert [two((a,)) for a in (-4, -3, -1, 0, 1, 2, 5, 6)] == \
        [[-2], None, None, [0], None, [1], None, [3]]
    # Rank 1 in Z^2, the second column twice the first, not saturated.
    line = intmat.span_coordinates(from_rows([[2, 4], [6, 12]]))
    assert line((4, 12)) == [2] and line((-2, -6)) == [-1]
    assert line((1, 3)) is None and line((2, 7)) is None and line((0, 6)) is None
    # An entry between pivots that no later row can clear.
    skew = intmat.span_coordinates(from_columns([(1, 0, 0), (0, 0, 1)], 3))
    assert skew((5, 0, -2)) == [5, -2] and skew((0, 1, 0)) is None
    with pytest.raises(ShapeMismatch):
        two((1, 2))
    with pytest.raises(ShapeMismatch):
        empty((0, 0))

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
