import dataclasses
import random

import pytest

from conftest import (catalog_pool, conjugate_lattice, det, left_cosets, random_lattice,
                      random_unimodular, run_fresh, small_groups)
from torusbt import intmat
from torusbt import lattices as lat
from torusbt.errors import (GroupMismatch, NotHomomorphism, NotUnimodular,
                            ShapeMismatch)
from torusbt.exact import FinAbGroup
from torusbt.groups import (cyclic_group, group_from_table, spanning_generators,
                            subgroup_classes)
from torusbt.manifest import parse_manifest


def test_validate_trivial_ok(s3):
    lat.validate(lat.trivial_lattice(s3))


def test_validate_rejects_non_unimodular(c2):
    bad = lat.GLattice(c2, 1, (intmat.identity(1), intmat.from_rows([[2]])))
    with pytest.raises(NotUnimodular):
        lat.validate(bad)


def test_validate_rejects_non_homomorphism(c2):
    # action(sigma)^2 != identity
    bad = lat.GLattice(c2, 2, (intmat.identity(2),
                               intmat.from_rows([[1, 1], [0, 1]])))
    with pytest.raises(NotHomomorphism):
        lat.validate(bad)


def test_sign_lattice_ok(c2):
    zm = lat.sign_lattice(c2)
    lat.validate(zm)
    assert zm.action[1].tolist() == [[-1]]


def test_permutation_lattice_swap(c2):
    x = lat.permutation_lattice(c2, (c2.identity,))
    assert x.rank == 2
    assert x.action[1].tolist() == [[0, 1], [1, 0]]


def test_permutation_lattice_full_subgroup_is_trivial(s3):
    cls = subgroup_classes(s3)
    x = lat.permutation_lattice(s3, cls[-1])
    assert x.rank == 1
    assert all(m.is_identity() for m in x.action)


def test_permutation_character_s3(s3):
    cls = subgroup_classes(s3)
    x = lat.permutation_lattice(s3, cls[1])
    assert x.rank == 3
    assert lat.lattice_character(x) == (3, 1, 0)


def test_direct_sum(c2):
    z = lat.trivial_lattice(c2)
    zm = lat.sign_lattice(c2)
    s = lat.direct_sum(z, zm)
    assert s.rank == 2
    assert s.action[1].tolist() == [[1, 0], [0, -1]]
    zero = lat.zero_lattice(c2)
    assert lat.direct_sum(z, zero).action == z.action


def test_direct_sum_of_coset_lattices_is_permutation(c2):
    zreg = lat.permutation_lattice(c2, (0,))
    both = lat.direct_sum(zreg, zreg)
    assert both.rank == 4
    rows = sorted(intmat.identity(4).data)
    assert all(sorted(m.data) == rows for m in both.action)   # permutation matrices


def test_sign_lattice_character(c2):
    assert lat.lattice_character(lat.sign_lattice(c2)) == (1, -1)
    assert lat.lattice_character(lat.trivial_lattice(c2, 3)) == (3, 3)


def test_direct_sum_group_mismatch(c2, s3):
    with pytest.raises(GroupMismatch):
        lat.direct_sum(lat.trivial_lattice(c2), lat.trivial_lattice(s3))


def test_sign_lattice_and_direct_sum_argument_errors_are_typed(v4):
    with pytest.raises(ShapeMismatch, match="each of the 4 elements"):
        lat.sign_lattice(v4, {0: 1, 1: -1, 2: 1})
    with pytest.raises(ShapeMismatch, match="empty direct sum"):
        lat.direct_sum()


def test_dual_involution_and_fixed_points(c2, s3):
    zm = lat.sign_lattice(c2)
    assert lat.dual(zm).action == zm.action
    assert lat.dual(lat.trivial_lattice(s3)).action == lat.trivial_lattice(s3).action
    x = lat.permutation_lattice(s3, subgroup_classes(s3)[1])
    assert lat.dual(x).action == x.action       # permutation: transpose = inverse
    rng = random.Random(5)
    y = conjugate_lattice(x, random_unimodular(3, rng))
    assert lat.dual(lat.dual(y)).action == y.action


def test_restrict_to_trivial_and_full(s3):
    x = lat.permutation_lattice(s3, subgroup_classes(s3)[1])
    sub, embed = lat.restrict(x, (s3.identity,))
    assert sub.group.order == 1 and sub.rank == x.rank
    full, embed = lat.restrict(x, tuple(range(6)))
    assert full.group.order == 6
    assert full.action == x.action


def test_restrict_coset_lattice_to_c3_is_regular(s3):
    cls = subgroup_classes(s3)
    x = lat.permutation_lattice(s3, cls[1])     # rank 3
    sub, embed = lat.restrict(x, cls[2])        # C3
    assert sub.group.order == 3
    chi = lat.lattice_character(sub)
    assert chi == (3, 0, 0)                     # regular representation
    rows = sorted(intmat.identity(3).data)
    assert all(sorted(m.data) == rows for m in sub.action)    # permutation matrices


def test_invariants_coinvariants_examples(c2):
    zm = lat.sign_lattice(c2)
    basis, co = lat.invariant_basis(zm, (0, 1)), lat.coinvariants(zm, (0, 1))
    assert basis.cols == 0
    assert co == FinAbGroup((2,))

    zreg = lat.permutation_lattice(c2, (0,))
    basis, co = lat.invariant_basis(zreg, (0, 1)), lat.coinvariants(zreg, (0, 1))
    assert basis.cols == 1 and tuple(basis.col(0)) == (1, 1)
    assert co == FinAbGroup((), 1)

    z = lat.trivial_lattice(c2)
    basis, co = lat.invariant_basis(z, (0, 1)), lat.coinvariants(z, (0, 1))
    assert basis.cols == 1
    assert co == FinAbGroup((), 1)


def test_invariant_rank_equals_coinvariant_free_rank(c2, s3, v4):
    rng = random.Random(99)
    pool = catalog_pool(c2, s3, v4)
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        for _ in range(4):
            x = random_lattice(pool[key], rng, max_rank=4)
            for cls in subgroup_classes(g):
                basis, co = lat.invariant_basis(x, cls), lat.coinvariants(x, cls)
                assert basis.cols == co.free_rank


def test_character_additive_and_dual_invariant(c2, s3, v4):
    rng = random.Random(7)
    pool = catalog_pool(c2, s3, v4)
    for key in pool:
        a = random_lattice(pool[key], rng, max_rank=3)
        b = random_lattice(pool[key], rng, max_rank=3)
        sa, sb = lat.lattice_character(a), lat.lattice_character(b)
        s = lat.lattice_character(lat.direct_sum(a, b))
        assert s == tuple(x + y for x, y in zip(sa, sb))
        assert lat.lattice_character(lat.dual(a)) == sa


def test_rank_is_character_at_identity(s3):
    x = lat.permutation_lattice(s3, subgroup_classes(s3)[1])
    chi = lat.lattice_character(x)
    assert chi[0] == x.rank


def test_permutation_character_counts_fixed_cosets(s3, v4):
    for g in (s3, v4):
        for cls in subgroup_classes(g):
            x = lat.permutation_lattice(g, cls)
            for value in lat.lattice_character(x):
                assert value >= 0 and value == int(value)


def _sorted_tuple_permutation_lattice(g, h):
    """Z[G/H] as built before coset_action: one column per sorted coset
    tuple, looked up after multiplying its elements out."""
    cosets = left_cosets(g, h.elements)
    pos = {c: i for i, c in enumerate(cosets)}
    n = len(cosets)
    mats = []
    for a in range(g.order):
        cols = []
        for c in cosets:
            col = [0] * n
            col[pos[tuple(sorted(g.op(a, x) for x in c))]] = 1
            cols.append(tuple(col))
        mats.append(intmat.from_columns(cols, n))
    return lat.GLattice(g, n, tuple(mats))


def test_permutation_lattice_matches_sorted_coset_tuples(c2, s3, v4, d4, a4):
    for g in small_groups(s3, d4, a4, 12) + [c2, v4]:
        for cls in subgroup_classes(g):
            assert lat.permutation_lattice(g, cls) == _sorted_tuple_permutation_lattice(g, cls), \
                (g, cls)


def test_norm_one_lattice_character(v4):
    n1 = lat.norm_one_lattice(v4)
    assert n1.rank == 3
    assert lat.lattice_character(n1) == (3, -1, -1, -1)


def test_from_generator_matrices_rejects_bad_action(c2):
    with pytest.raises(NotHomomorphism):
        lat.from_generator_matrices(c2, 1, [intmat.from_rows([[1]])] * 2)
    with pytest.raises(NotHomomorphism):
        # sigma -> shear: sigma^2 != 1
        lat.from_generator_matrices(c2, 2, [intmat.from_rows([[1, 1], [0, 1]])])


# ------------------------------------------- action checks on a generating set

def _all_pairs_oracle(x):
    """Reference validate: every element's shape and determinant, the
    identity, then all |G|^2 products. Returns the error class or None."""
    g = x.group
    if len(x.action) != g.order:
        return NotHomomorphism
    for m in x.action:
        if (m.rows, m.cols) != (x.rank, x.rank) or det(m) not in (1, -1):
            return NotUnimodular
    if not x.action[g.identity].is_identity():
        return NotHomomorphism
    for a in range(g.order):
        for b in range(g.order):
            if x.action[a] @ x.action[b] != x.action[g.op(a, b)]:
                return NotHomomorphism
    return None


def _validate_outcome(x):
    try:
        lat.validate(x)
    except (NotHomomorphism, NotUnimodular) as exc:
        return type(exc)
    return None


def _with_action(x, a, m):
    action = list(x.action)
    action[a] = m
    return lat.GLattice(x.group, x.rank, tuple(action))


def test_validate_rejects_error_only_at_non_generators():
    c6 = cyclic_group(6)
    assert c6.generators == (1,)
    reg = lat.permutation_lattice(c6, (c6.identity,))
    lat.validate(reg)
    action = list(reg.action)
    action[2], action[4] = action[4], action[2]     # both of order 3
    bad = lat.GLattice(c6, reg.rank, tuple(action))
    assert _all_pairs_oracle(bad) is NotHomomorphism
    with pytest.raises(NotHomomorphism):
        lat.validate(bad)


def test_validate_does_not_trust_declared_generators(c2, s3, v4):
    std = catalog_pool(c2, s3, v4)["s3"][1]         # the rank-2 standard lattice
    rotation = next(a for a in range(s3.order) if s3.element_order(a) == 3)
    rotations = {s3.identity, rotation, s3.op(rotation, rotation)}
    t = next(a for a in range(s3.order) if a not in rotations)
    # M(r^k) = R^k and M(r^k t) = R^k: every reflection acts like a rotation.
    action = tuple(m if a in rotations else m @ std.action[t]
                   for a, m in enumerate(std.action))
    for gens in ((), (rotation,)):
        g = dataclasses.replace(s3, generators=gens)
        assert len(spanning_generators(g)) == 2
        lat.validate(lat.GLattice(g, 2, std.action))
        bad = lat.GLattice(g, 2, action)
        # A check on the declared rotation alone would pass ...
        assert all(action[rotation] @ action[b] == action[g.op(rotation, b)]
                   for b in range(g.order))
        # ... but the table is not a homomorphism.
        assert _all_pairs_oracle(bad) is NotHomomorphism
        with pytest.raises(NotHomomorphism):
            lat.validate(bad)


def test_spanning_generators_of_default_table_group(v4):
    g = group_from_table([list(r) for r in v4.mul])
    assert len(g.generators) == 3               # every non-identity element
    assert len(spanning_generators(g)) == 2


def test_validate_agrees_with_all_pairs_oracle(c2, s3, v4):
    rng = random.Random(2024)
    pool = catalog_pool(c2, s3, v4)
    groups = {"c2": c2, "s3": s3, "v4": v4}
    seen = set()
    for key in pool:
        for _ in range(8):
            x = random_lattice(pool[key], rng, max_rank=4)
            assert _validate_outcome(x) is None and _all_pairs_oracle(x) is None
            g = groups[key]
            for _ in range(6):
                a = rng.randrange(g.order)
                kind = rng.choice(("entry", "negate", "swap"))
                if kind == "entry":
                    rows = x.action[a].tolist()
                    i, j = rng.randrange(x.rank), rng.randrange(x.rank)
                    rows[i][j] += rng.choice((-2, -1, 1, 2))
                    bad = _with_action(x, a, intmat.from_rows(rows))
                elif kind == "negate":
                    bad = _with_action(x, a, intmat.from_rows(
                        [[-v for v in row] for row in x.action[a].tolist()]))
                else:
                    b = rng.randrange(g.order)
                    bad = _with_action(_with_action(x, a, x.action[b]), b, x.action[a])
                want = _all_pairs_oracle(bad)
                assert _validate_outcome(bad) is want, (key, kind, a)
                seen.add(want)
    assert seen == {None, NotHomomorphism, NotUnimodular}


def test_from_generator_matrices_rejects_bad_shape_or_element(c2, s3):
    with pytest.raises(ShapeMismatch):
        lat.from_generator_matrices(c2, 2, [intmat.from_rows([[-1]])])
    with pytest.raises(ShapeMismatch):
        lat.from_generator_matrices(s3, 2, [intmat.identity(2),
                                            intmat.from_rows([[1, 0, 0], [0, 1, 0]])])
    with pytest.raises(NotHomomorphism):
        lat.from_generator_matrices(c2, 1, {2: intmat.from_rows([[-1]])})


def test_parsing_res_manifest_checks_generators_only(monkeypatch):
    """C18 = Gal(Q(zeta_37)^+/Q): at most |S||G| + |G| products, not |G|^2."""
    n, p = 18, 37
    shift = [(i + 1) % n for i in range(n)]
    rows = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
    text = (f"[group]\ngenerators = [{shift}]\n"
            f"[lattice]\nrank = {n}\naction.g0 = {rows}\n"
            f"[realization]\nmodulus = {p}\nimages = {{2: 1}}\n")
    calls = []
    matmul = intmat.IntMatrix.__matmul__

    def counting(a, b):
        calls.append(None)
        return matmul(a, b)

    monkeypatch.setattr(intmat.IntMatrix, "__matmul__", counting)
    man = parse_manifest(text)
    s = len(spanning_generators(man.group))
    assert man.group.order == n and s == 1
    assert len(calls) <= s * n + n


C96_NORM_ONE = """
import time
from torusbt.groups import cyclic_group
from torusbt.lattices import norm_one_lattice
g = cyclic_group(96)
start = time.perf_counter()
x = norm_one_lattice(g)
print(x.rank, time.perf_counter() - start)
"""


def test_norm_one_c96_builds_and_validates_fast():
    """The 96 rank-95 matrices of the C96 norm-one lattice, built and
    validated (one product and one unimodularity check per element) in a
    fresh process, the group built untimed."""
    rank, seconds = run_fresh(C96_NORM_ONE, timeout=60).split()
    assert rank == "95"
    assert float(seconds) < 1.5
