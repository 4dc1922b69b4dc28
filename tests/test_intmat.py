import random
from math import gcd

import pytest

from torusbt import intmat
from torusbt.exact import FinAbGroup
from torusbt.intmat import (cokernel_structure, det, from_rows, hnf_columns,
                            identity, kernel_basis, smith_normal_form,
                            solve_exact, zeros)


def check_snf(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert intmat.is_unimodular(u) and intmat.is_unimodular(v)
    diag = [d.data[i][i] for i in range(min(m.rows, m.cols))]
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert d.data[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and (a == 0 and b == 0 or b % max(a, 1) == 0 or a == 0)
        if a != 0:
            assert b % a == 0
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
    expected = [_valuation(d, p, k) for d in intmat.snf_diagonal(m)]
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
    assert intmat.rank(k) == k.cols            # independent columns
    assert intmat.rank(m) + k.cols == 4


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
    assert det(zeros(0, 0)) == 1


def test_block_and_stack_helpers():
    a = identity(2)
    b = from_rows([[5]])
    bd = intmat.block_diag([a, b])
    assert bd.data == ((1, 0, 0), (0, 1, 0), (0, 0, 5))
    assert intmat.vstack([a, zeros(1, 2)]).rows == 3
    assert intmat.hstack([a, zeros(2, 1)]).cols == 3
