import random
from fractions import Fraction

import pytest

from conftest import catalog_pool, random_lattice, small_groups
from torusbt import intmat
from torusbt import lattices as lat
from torusbt.errors import NoSolution
from torusbt.exact import lcm
from torusbt.groups import conjugacy_classes, subgroup_classes
from torusbt.induction import artin_induction, ono_decomposition, permutation_character_table


def reconstruct(g, dec):
    cols = permutation_character_table(g)
    n = len(conjugacy_classes(g))
    return tuple(sum(dec.coefficients.get(j, 0) * cols[j][i]
                     for j in range(len(cols))) for i in range(n))


def test_coset_lattice_decomposes_to_itself(s3):
    cls = subgroup_classes(s3)
    for c in cls:
        x = lat.permutation_lattice(s3, c)
        dec = artin_induction(s3, lat.lattice_character(x))
        assert dec.m == 1
        assert dec.coefficients == {c.class_id: 1}


def test_sign_lattice_c2(c2):
    dec = artin_induction(c2, lat.lattice_character(lat.sign_lattice(c2)))
    assert dec.m == 1
    assert dec.coefficients == {0: 1, 1: -1}     # chi- = chi_reg - chi_triv


def test_standard_s3_lattice(s3):
    std = lat.from_generator_matrices(s3, 2, [
        intmat.from_rows([[0, -1], [1, -1]]),
        intmat.from_rows([[-1, 1], [0, 1]])])
    chi = lat.lattice_character(std)
    assert chi == (2, 0, -1)
    dec = artin_induction(s3, chi)
    assert dec.m == 1
    assert reconstruct(s3, dec) == (2, 0, -1)
    assert dec.coefficients == {1: 1, 3: -1}     # chi_{Z[S3/C2]} - chi_triv


def test_identity_verified_on_random_sums(c2, s3, v4):
    rng = random.Random(23)
    pool = catalog_pool(c2, s3, v4)
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        for _ in range(6):
            x = random_lattice(pool[key], rng, max_rank=5)
            chi = lat.lattice_character(x)
            dec = artin_induction(g, chi)
            got = reconstruct(g, dec)
            assert got == tuple(dec.m * v for v in chi)


def test_merged_solution_of_direct_sum(s3):
    std = lat.from_generator_matrices(s3, 2, [
        intmat.from_rows([[0, -1], [1, -1]]),
        intmat.from_rows([[-1, 1], [0, 1]])])
    y = lat.permutation_lattice(s3, subgroup_classes(s3)[2])
    da = artin_induction(s3, lat.lattice_character(std))
    db = artin_induction(s3, lat.lattice_character(y))
    m = lcm(da.m, db.m)
    merged = {}
    for dec, scale in ((da, m // da.m), (db, m // db.m)):
        for cid, a in dec.coefficients.items():
            merged[cid] = merged.get(cid, 0) + scale * a
    s = lat.direct_sum(std, y)
    chi = lat.lattice_character(s)
    got = reconstruct(s3, artin_induction(s3, chi))
    # merged coefficients satisfy the identity with m = lcm of parts
    cols = permutation_character_table(s3)
    lhs = tuple(m * v for v in chi)
    rhs = tuple(sum(merged.get(j, 0) * cols[j][i] for j in range(len(cols)))
                for i in range(len(lhs)))
    assert lhs == rhs
    assert got == tuple(artin_induction(s3, chi).m * v for v in chi)


def test_non_character_rejected(c2):
    with pytest.raises(NoSolution):
        artin_induction(c2, (Fraction(1, 2), Fraction(0)))
    # class function outside the permutation-character span: over C3 the
    # span forces equal values on the two nontrivial classes
    from torusbt.groups import cyclic_group
    c3 = cyclic_group(3)
    with pytest.raises(NoSolution):
        artin_induction(c3, (0, 1, -1))


@pytest.mark.parametrize("chi", [(1,), (1, 1, 1), (1.0, 1.0), (Fraction(1), 1),
                                 (True, True), "ab", 5, None])
def test_malformed_class_function_is_no_solution(c2, chi):
    with pytest.raises(NoSolution):
        artin_induction(c2, chi)


def test_determinism(s3):
    std = lat.from_generator_matrices(s3, 2, [
        intmat.from_rows([[0, -1], [1, -1]]),
        intmat.from_rows([[-1, 1], [0, 1]])])
    d1 = artin_induction(s3, lat.lattice_character(std))
    d2 = artin_induction(s3, lat.lattice_character(std))
    assert d1 == d2


def test_ono_decomposition_examples(c2):
    m, p, q, _ = ono_decomposition(lat.trivial_lattice(c2))
    assert (m, p, q) == (1, {}, {1: 1})
    m, p, q, _ = ono_decomposition(lat.sign_lattice(c2))
    assert (m, p, q) == (1, {1: 1}, {0: 1})      # T + Gm ~ Res Gm
    m, p, q, _ = ono_decomposition(lat.permutation_lattice(c2, (0,)))
    assert (m, p, q) == (1, {}, {0: 1})


def test_ono_identity_on_catalog(c2, s3, v4):
    pool = catalog_pool(c2, s3, v4)
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        cols = permutation_character_table(g)
        for x in pool[key]:
            m, p_spec, q_spec, _ = ono_decomposition(x)
            chi = lat.lattice_character(x)
            nclasses = len(chi)
            for i in range(nclasses):
                lhs = m * chi[i] + sum(mult * cols[j][i]
                                       for j, mult in p_spec.items())
                rhs = sum(mult * cols[j][i] for j, mult in q_spec.items())
                assert lhs == rhs


def test_permutation_character_table_counts_fixed_cosets(s3, d4, a4):
    """Against the traces of the coset lattices Z[G/H] themselves."""
    for g in small_groups(s3, d4, a4, 48):
        table = permutation_character_table(g)
        classes = subgroup_classes(g)
        assert len(table) == len(classes), g.name
        for col, cls in zip(table, classes):
            assert all(type(v) is int for v in col), g.name
            assert col == lat.lattice_character(lat.permutation_lattice(g, cls)), \
                (g.name, cls.class_id)


def _fraction_artin_induction(cols, chi):
    """(m, coefficients) for chi over the permutation-character table cols
    by Gauss-Jordan over Q, pivots from the largest subgroup down and free
    coefficients zero: the solve that the intmat one replaced, kept as an
    independent oracle."""
    nrows, ncols = len(chi), len(cols)
    if all(v == 0 for v in chi):
        return 1, {}
    for j in range(ncols):
        c = Fraction(chi[0], cols[j][0])
        if all(chi[i] == c * cols[j][i] for i in range(nrows)):
            return c.denominator, {j: c.numerator}
    a = [[Fraction(cols[j][i]) for j in range(ncols)] + [Fraction(chi[i])]
         for i in range(nrows)]
    pivots, used_rows = [], set()
    for j in range(ncols - 1, -1, -1):
        prow = next((i for i in range(nrows) if i not in used_rows and a[i][j] != 0), None)
        if prow is None:
            continue
        used_rows.add(prow)
        pivots.append((prow, j))
        pv = a[prow][j]
        a[prow] = [v / pv for v in a[prow]]
        for i in range(nrows):
            if i != prow and a[i][j] != 0:
                f = a[i][j]
                a[i] = [v - f * w for v, w in zip(a[i], a[prow])]
    assert all(a[i][ncols] == 0 for i in range(nrows) if i not in used_rows)
    x = [Fraction(0)] * ncols
    for prow, j in pivots:
        x[j] = a[prow][ncols] - sum(a[prow][k] * x[k] for k in range(ncols) if k != j)
    m = 1
    for v in x:
        m = lcm(m, v.denominator)
    return m, {j: int(v * m) for j, v in enumerate(x) if v != 0}


def test_integer_solve_matches_fraction_elimination(s3, d4, a4):
    """Every Z[G/H], the norm-one and dual norm-one lattices, and seeded
    random direct sums of them give the same (m, a_H) as the Fraction
    Gauss-Jordan solve."""
    rng = random.Random(10)
    for g in small_groups(s3, d4, a4, 24):
        norm_one = lat.norm_one_lattice(g)
        parts = [lat.permutation_lattice(g, cls) for cls in subgroup_classes(g)]
        parts += [norm_one, lat.dual(norm_one)]
        cols = permutation_character_table(g)
        chars = [lat.lattice_character(x) for x in parts]
        for _ in range(8):
            summands = rng.choices(chars[:len(parts)], k=rng.randint(2, 4))
            chars.append(tuple(map(sum, zip(*summands))))
        for chi in chars:
            dec = artin_induction(g, chi)
            assert (dec.m, dec.coefficients) == _fraction_artin_induction(cols, chi), \
                (g.name, chi)
