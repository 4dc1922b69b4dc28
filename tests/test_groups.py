import pytest

from conftest import quaternion_generators
from torusbt.errors import GroupTooLarge, NonPermutation, NotHomomorphism, NotSubgroup
from torusbt.groups import (conjugacy_classes, cyclic_group, generating_set,
                            group_from_generators, group_from_table, is_metacyclic,
                            left_cosets, subgroup_as_group, subgroup_classes)


def test_single_transposition_gives_c2():
    g = group_from_generators([[1, 0]])
    assert g.order == 2


def test_s3_from_generators(s3):
    assert s3.order == 6
    # brute-force closure oracle: count distinct products of generator words
    seen = {(0, 1, 2)}
    frontier = [(0, 1, 2)]
    gens = [(1, 2, 0), (1, 0, 2)]
    while frontier:
        new = []
        for q in frontier:
            for p in gens:
                r = tuple(p[q[i]] for i in range(3))
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    assert len(seen) == s3.order


def test_empty_generators_trivial_group():
    g = group_from_generators([])
    assert g.order == 1 and g.identity == 0


def test_non_permutation_rejected():
    with pytest.raises(NonPermutation):
        group_from_generators([[0, 0]])
    with pytest.raises(NonPermutation):
        group_from_generators([[1, 2]])


@pytest.mark.parametrize("perms", [5, [[1, "a"]], [[1.0, 0.0]], [[True, False]], "ab"],
                         ids=str)
def test_badly_typed_generators_rejected(perms):
    with pytest.raises(NonPermutation):
        group_from_generators(perms)


@pytest.mark.parametrize("table, gens, error", [
    ("ab", None, NotHomomorphism), ([[0, 1], [1, "a"]], None, NotHomomorphism),
    ([[0, 1], [1, 0.0]], None, NotHomomorphism),
    ([[0, 1], [1, 0]], [7], NotSubgroup), ([[0, 1], [1, 0]], "x", NotSubgroup),
    ([[0, 1], [1, 0]], 1, NotSubgroup), ([[0, 1], [1, 0]], [True], NotSubgroup),
], ids=str)
def test_badly_typed_table_or_generators_rejected(table, gens, error):
    with pytest.raises(error):
        group_from_table(table, generators=gens)


def test_table_roundtrip(v4):
    g = group_from_table([list(r) for r in v4.mul])
    assert g.order == 4 and g.mul == v4.mul


def test_conjugacy_classes_c2(c2):
    assert conjugacy_classes(c2) == [[0], [1]]


def test_conjugacy_classes_s3(s3):
    sizes = [len(c) for c in conjugacy_classes(s3)]
    assert sizes == [1, 3, 2]
    assert conjugacy_classes(s3)[0] == [s3.identity]


def test_conjugacy_classes_v4_all_singletons(v4):
    assert [len(c) for c in conjugacy_classes(v4)] == [1, 1, 1, 1]


def test_class_sizes_sum_to_order(s3, v4):
    for g in (s3, v4, cyclic_group(6)):
        assert sum(len(c) for c in conjugacy_classes(g)) == g.order


def test_subgroup_classes_c2(c2):
    assert [(c.order, c.index) for c in subgroup_classes(c2)] == [(1, 2), (2, 1)]


def test_subgroup_classes_s3(s3):
    cls = subgroup_classes(s3)
    assert [(c.order, c.index) for c in cls] == [(1, 6), (2, 3), (3, 2), (6, 1)]
    assert cls[1].n_conjugates == 3 and cls[1].normalizer_size == 2
    assert cls[2].n_conjugates == 1


def test_subgroup_classes_v4(v4):
    cls = subgroup_classes(v4)
    assert [c.order for c in cls] == [1, 2, 2, 2, 4]
    assert len(cls) == 5


def test_lagrange(s3, v4):
    for g in (s3, v4):
        for c in subgroup_classes(g):
            assert g.order % c.order == 0


def test_subgroup_classes_deterministic(s3):
    assert subgroup_classes(s3) == subgroup_classes(s3)


def test_classes_are_computed_per_group_instance():
    """Two equal groups built separately enumerate independently and agree;
    one instance hands back its stored lists."""
    a, b = (group_from_generators([[1, 2, 0], [1, 0, 2]]) for _ in range(2))
    assert a == b and a is not b
    for classes in (subgroup_classes, conjugacy_classes):
        assert classes(a) == classes(b)
        assert classes(a) is not classes(b)
        assert classes(a) is classes(a)


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        subgroup_classes(cyclic_group(50))


@pytest.mark.parametrize("elems", [(0, 1, 2), (1,), (), (0, 99), (0, -1)], ids=str)
def test_generating_set_rejects_non_subgroups(s3, elems):
    with pytest.raises(NotSubgroup):
        generating_set(s3, elems)


def test_metacyclic_suite(s3, v4):
    d5 = group_from_generators([[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], name="D5")
    assert d5.order == 10
    a4 = group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]], name="A4")
    assert a4.order == 12
    q8 = group_from_generators(quaternion_generators(), name="Q8")
    assert q8.order == 8
    assert is_metacyclic(s3) is True
    assert is_metacyclic(cyclic_group(6)) is True
    assert is_metacyclic(d5) is True
    assert is_metacyclic(v4) is False
    assert is_metacyclic(a4) is False
    assert is_metacyclic(q8) is False


def test_metacyclic_on_all_cyclic_groups():
    for n in range(1, 13):
        assert is_metacyclic(cyclic_group(n)) is True


def test_left_cosets(s3):
    cls = subgroup_classes(s3)
    cosets = left_cosets(s3, cls[1].elements)
    assert len(cosets) == 3
    assert sorted(x for c in cosets for x in c) == list(range(6))


def test_subgroup_as_group(s3):
    cls = subgroup_classes(s3)
    sub, embed = subgroup_as_group(s3, cls[2])
    assert sub.order == 3
    assert sorted(embed) == list(cls[2].elements)
    sub.validate()


def test_element_orders(s3):
    orders = sorted(s3.element_order(a) for a in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]
