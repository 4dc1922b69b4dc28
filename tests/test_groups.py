import itertools
import sys
from collections import Counter

import pytest

from conftest import left_cosets, quaternion_generators, small_groups
from torusbt.errors import (GroupTooLarge, NonPermutation, NotHomomorphism, NotSubgroup,
                            ShapeMismatch)
from torusbt.groups import (FiniteGroup, all_subgroups, conjugacy_classes, coset_action,
                            cyclic_group, generating_set, group_from_generators,
                            group_from_table, is_metacyclic, subgroup_classes,
                            subgroup_elements)
from torusbt.engine import btc_predict
from torusbt.induction import permutation_character_table
from torusbt.lattices import norm_one_lattice


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
    """The bound holds only for non-abelian groups: D25 (order 50) is refused,
    C50 is enumerated, one class per divisor of 50."""
    d25 = group_from_generators([[(i + 1) % 25 for i in range(25)],
                                 [-i % 25 for i in range(25)]], name="D25")
    assert d25.order == 50
    with pytest.raises(GroupTooLarge):
        subgroup_classes(d25)
    assert [c.order for c in subgroup_classes(cyclic_group(50))] == [1, 2, 5, 10, 25, 50]


def test_subgroup_count_budget():
    """C2^6 has 2825 subgroups, within the budget; C2^7 has 29212 and is refused."""
    assert len(all_subgroups(_product_of_cyclics(*[2] * 6))) == 2825
    with pytest.raises(GroupTooLarge):
        all_subgroups(_product_of_cyclics(*[2] * 7))


@pytest.mark.parametrize("elems", [(0, 1, 2), (1,), (), (0, 99), (0, -1)], ids=str)
def test_generating_set_rejects_non_subgroups(s3, elems):
    with pytest.raises(NotSubgroup):
        generating_set(s3, elems)


def test_subgroup_elements_keeps_rejecting_non_int_elements(c2):
    """(0, True) equals the checked (0, 1) as a tuple, but True is not an element index."""
    assert subgroup_elements(c2, (0, 1)) == subgroup_elements(c2, (1, 0)) == (0, 1)
    with pytest.raises(NotSubgroup):
        subgroup_elements(c2, (0, True))


@pytest.mark.parametrize("h", [None, 3, (0, "a"), [[0]]], ids=str)
def test_subgroup_elements_refuses_what_is_no_element_tuple(c2, h):
    """Each raised a raw TypeError from set() or sorted()."""
    with pytest.raises(NotSubgroup):
        subgroup_elements(c2, h)


def test_cyclic_group_is_typed_and_bounded():
    """A str order was a raw TypeError, and an unbounded order built its
    n x n table before any check."""
    with pytest.raises(ShapeMismatch):
        cyclic_group("3")
    with pytest.raises(ShapeMismatch):
        cyclic_group(True)
    with pytest.raises(GroupTooLarge):
        cyclic_group(257)


def test_predict_runs_generating_set_once_per_element_set(monkeypatch):
    """subgroup_elements keeps the generating set it checks, and h1,
    invariant_basis, coinvariants and spanning_generators read it back: a
    D4 norm-one predict closes each element set once. The group is fresh,
    so no memo is warm; it and the lattice are built before counting."""
    d4 = group_from_generators([[1, 2, 3, 0], [0, 3, 2, 1]], name="D4")
    x = norm_one_lattice(d4)
    calls = Counter()

    def counted(g, elements):
        calls[frozenset(elements)] += 1
        return generating_set(g, elements)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "torusbt" and \
                getattr(module, "generating_set", None) is generating_set:
            monkeypatch.setattr(module, "generating_set", counted)
    btc_predict(x, None)
    assert len(calls) == len(subgroup_classes(d4)) and max(calls.values()) == 1, calls


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


def test_coset_action_is_the_action_on_sorted_cosets(s3, d4, a4):
    """Coset i of coset_action is the i-th sorted coset tuple, G acts by
    left multiplication through a homomorphism into the permutations, and
    coset 0 is H; a non-subgroup raises NotSubgroup."""
    for g in small_groups(s3, d4, a4, 12):
        assert g.identity == 0, g
        for cls in subgroup_classes(g):
            cosets = left_cosets(g, cls.elements)
            pos = {c: i for i, c in enumerate(cosets)}
            perms = coset_action(g, cls)
            assert cosets[0] == cls.elements
            assert {a for a in range(g.order) if perms[a][0] == 0} == set(cls.elements)
            for a in range(g.order):
                assert sorted(perms[a]) == list(range(len(cosets))), (g, cls, a)
                assert list(perms[a]) == [pos[tuple(sorted(g.op(a, x) for x in c))]
                                          for c in cosets], (g, cls, a)
                for b in range(g.order):
                    assert perms[g.op(a, b)] == tuple(perms[a][i] for i in perms[b])
    with pytest.raises(NotSubgroup):
        coset_action(s3, (1, 2))


def test_element_orders(s3):
    orders = sorted(s3.element_order(a) for a in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


# ------------------------------------- abelian closed forms against brute force

def _brute_closure(g, seed):
    elems = set(seed) | {g.identity}
    while True:
        new = {g.op(a, b) for a in elems for b in elems} - elems
        if not new:
            return frozenset(elems)
        elems |= new


def _brute_subgroup_classes(g):
    """Joins of cyclic subgroups by closure, then classes by conjugating over G."""
    cyclics = {_brute_closure(g, [a]) for a in range(g.order)}
    found, frontier = set(cyclics), set(cyclics)
    while frontier:
        frontier = {_brute_closure(g, h | c) for h in frontier for c in cyclics} - found
        found |= frontier
    subs = sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t))
    classes, remaining = [], set(subs)
    for h in subs:
        if h not in remaining:
            continue
        conjugates = {tuple(sorted(g.conjugate(x, a) for a in h)) for x in range(g.order)}
        normalizer = sum(tuple(sorted(g.conjugate(x, a) for a in h)) == h
                         for x in range(g.order))
        remaining -= conjugates
        classes.append((len(classes), h, len(h), g.order // len(h), normalizer,
                        len(conjugates)))
    return classes


def _brute_conjugacy_classes(g):
    classes = {tuple(sorted({g.conjugate(x, a) for x in range(g.order)}))
               for a in range(g.order)}
    return sorted((list(c) for c in classes), key=lambda c: (c[0] != g.identity, c[0]))


def _brute_fixed_cosets(g, classes, conj):
    return [tuple(sum(g.conjugate(x, c[0]) in h for x in range(g.order)) // len(h)
                  for c in conj) for _, h, *_ in classes]


def _product_of_cyclics(*ns):
    """C_n1 x C_n2 x ... as rotations of disjoint cycles of points."""
    perms, start = [], 0
    total = sum(ns)
    for n in ns:
        perms.append([start + (i - start + 1) % n if start <= i < start + n else i
                      for i in range(total)])
        start += n
    return group_from_generators(perms, name="x".join(f"C{n}" for n in ns))


ABELIAN_GROUPS = ([cyclic_group(n) for n in range(1, 61)]
                  + [_product_of_cyclics(*ns) for ns in
                     ((2, 2), (2, 2, 2), (2, 4), (2, 6), (3, 3), (4, 4))])


@pytest.mark.parametrize("g", ABELIAN_GROUPS, ids=repr)
def test_abelian_closed_forms_match_brute_force(g):
    """Set-product joins, singleton classes with normaliser G and the table
    [G:H] on H, 0 off it agree with closure, conjugation over G and the
    fixed-coset count."""
    brute = _brute_subgroup_classes(g)
    conj = _brute_conjugacy_classes(g)
    assert [(c.class_id, c.elements, c.order, c.index, c.normalizer_size, c.n_conjugates)
            for c in subgroup_classes(g)] == brute
    assert all_subgroups(g) == [h for _, h, *_ in brute]
    assert conjugacy_classes(g) == conj
    assert permutation_character_table(g) == _brute_fixed_cosets(g, brute, conj)


def test_permutation_character_table_is_kept_on_the_group(s3):
    for g in (s3, cyclic_group(12)):
        assert permutation_character_table(g) is permutation_character_table(g)


# ---------------------------------------------------- Light's associativity test

def _identity_and_inverses_hold(g):
    e = g.identity
    return all(g.mul[e][a] == a == g.mul[a][e] and g.mul[a][g.inverse[a]] == e
               for a in range(g.order))


def _full_scan_verdict(g):
    """The O(n^3) check: identity, inverses and every triple."""
    n, mul = g.order, g.mul
    return _identity_and_inverses_hold(g) and all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n) for b in range(n) for c in range(n))


def _light_verdict(g):
    try:
        g.validate()
    except NotHomomorphism:
        return False
    return True


@pytest.mark.parametrize("name, changed", [("S3", 1), ("C6", 1), ("C2^3", 1), ("C2^2", 2)])
def test_light_associativity_test_matches_full_scan(name, changed):
    """Every table with one (for C2^2, two) products of the group changed
    gets the same verdict from validate as from the full scan. At least 100
    of them keep identity and inverses, so only associativity can reject
    them; three two-product changes of C2^2 escape a check on the first
    spanning generator alone."""
    base = {"S3": group_from_generators([[1, 2, 0], [1, 0, 2]]), "C6": cyclic_group(6),
            "C2^3": _product_of_cyclics(2, 2, 2), "C2^2": _product_of_cyclics(2, 2)}[name]
    assert _light_verdict(base) and _full_scan_verdict(base)
    n, associativity_only = base.order, 0
    cells = [(a, b) for a in range(n) for b in range(n)]
    for where in itertools.combinations(cells, changed):
        for values in itertools.product(*(set(range(n)) - {base.mul[a][b]}
                                          for a, b in where)):
            mul = [list(row) for row in base.mul]
            for (a, b), v in zip(where, values):
                mul[a][b] = v
            g = FiniteGroup(n, tuple(map(tuple, mul)), base.identity, base.inverse,
                            base.generators)
            assert _light_verdict(g) == _full_scan_verdict(g), (where, values)
            associativity_only += _identity_and_inverses_hold(g)
    assert associativity_only >= 100
