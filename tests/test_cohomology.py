import itertools
import random

import pytest

from conftest import (catalog_pool, fin_ab, oracle_h1_bar, oracle_h1_cyclic,
                      random_lattice)
from torusbt import cohomology as coh
from torusbt import intmat
from torusbt import lattices as lat
from torusbt.errors import InvariantViolation, ShapeMismatch
from torusbt.exact import FinAbGroup
from torusbt.groups import cyclic_group, subgroup_classes


def test_h1_sign_lattice(c2):
    assert coh.h1((0, 1), lat.sign_lattice(c2)) == fin_ab(2)


def test_h1_trivial_lattice_vanishes(s3):
    for cls in subgroup_classes(s3):
        assert coh.h1(cls, lat.trivial_lattice(s3)).is_trivial


def test_h1_permutation_lattices_vanish(c2, s3, v4):
    for g in (c2, s3, v4):
        classes = subgroup_classes(g)
        for hcls in classes:
            for pcls in classes:
                x = lat.permutation_lattice(g, pcls)
                assert coh.h1(hcls, x).is_trivial, (g.name, hcls, pcls)


def test_h1_matches_bar_oracle(c2, s3, v4):
    rng = random.Random(42)
    pool = catalog_pool(c2, s3, v4)
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        for _ in range(3):
            x = random_lattice(pool[key], rng, max_rank=3)
            for cls in subgroup_classes(g):
                assert coh.h1(cls, x) == oracle_h1_bar(x, cls.elements)


def test_tate_h0_examples(c2):
    assert coh.tate_h0((0, 1), lat.trivial_lattice(c2)) == fin_ab(2)
    assert coh.tate_h0((0, 1), lat.sign_lattice(c2)).is_trivial
    assert coh.tate_h0((0, 1), lat.permutation_lattice(c2, (0,))).is_trivial


def test_tate_h0_coset_lattice_double_coset_oracle(c2, s3, v4):
    """Tate H^0(H, Z[G/H']) = (+) Z/(|H| / orbit size) over the H-orbits
    on cosets: a purely combinatorial prediction."""
    from torusbt.exact import from_elementary_divisors
    from torusbt.groups import left_cosets
    for g in (c2, s3, v4):
        classes = subgroup_classes(g)
        for hcls in classes:
            for pcls in classes:
                x = lat.permutation_lattice(g, pcls)
                cosets = left_cosets(g, pcls.elements)
                remaining = set(cosets)
                divisors = []
                while remaining:
                    c = min(remaining)
                    orbit = {c}
                    frontier = [c]
                    while frontier:
                        cc = frontier.pop()
                        for a in hcls.elements:
                            img = tuple(sorted(g.op(a, y) for y in cc))
                            if img not in orbit:
                                orbit.add(img)
                                frontier.append(img)
                    remaining -= orbit
                    divisors.append(hcls.order // len(orbit))
                expected = from_elementary_divisors(divisors)
                assert coh.tate_h0(hcls, x) == expected, (g.name, hcls, pcls)


def test_is_flasque_witnesses(c2, s3):
    ok, wit = coh.is_flasque(lat.trivial_lattice(s3))
    assert ok and not wit
    ok, wit = coh.is_flasque(lat.sign_lattice(c2))
    assert not ok
    assert len(wit) == 1
    cls, grp = wit[0]
    assert cls.order == 2 and grp == fin_ab(2)


def test_flasque_resolution_identity_for_permutation(s3):
    cls = subgroup_classes(s3)
    x = lat.permutation_lattice(s3, cls[1])
    res = coh.flasque_resolution(x)
    assert res.p_spec == (1,)
    assert res.q_lattice.rank == 0
    assert res.surjection.rows == res.surjection.cols == 3
    assert intmat.is_unimodular(res.surjection)


def test_flasque_resolution_sign_lattice(c2):
    # 0 -> Z -> Z[C2] -> Z^- -> 0
    res = coh.flasque_resolution(lat.sign_lattice(c2))
    assert res.p_spec == (0,)                       # one copy of Z[C2/1]
    assert res.p_lattice.rank == 2
    assert res.q_lattice.rank == 1
    assert all(m.is_identity() for m in res.q_lattice.action)   # Q = trivial Z
    assert tuple(res.inclusion.col(0)) in ((1, 1), (-1, -1))
    assert lat.lattice_character(res.q_lattice) == (1, 1)
    ok, _ = coh.is_flasque(res.q_lattice)
    assert ok


def test_flasque_resolution_dual_norm_one(v4):
    j = lat.dual(lat.norm_one_lattice(v4))
    res = coh.flasque_resolution(j)
    ok, _ = coh.is_flasque(res.q_lattice)
    assert ok
    assert res.p_lattice.rank == res.q_lattice.rank + j.rank


def test_flasque_resolution_random_postconditions(c2, s3, v4):
    rng = random.Random(11)
    pool = catalog_pool(c2, s3, v4)
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        for _ in range(3):
            x = random_lattice(pool[key], rng, max_rank=4)
            res = coh.flasque_resolution(x)     # postconditions asserted inside
            assert res.p_lattice.rank == res.q_lattice.rank + x.rank


def test_verify_invertibility_trivial_cases(c2, s3):
    zero = lat.zero_lattice(s3)
    cert = coh.InvertibilityCertificate(None, intmat.zeros(0, 0), ())
    assert coh.verify_invertibility(zero, cert)

    z = lat.trivial_lattice(s3)
    classes = subgroup_classes(s3)
    cert = coh.InvertibilityCertificate(None, intmat.identity(1),
                                        (classes[-1].class_id,))
    assert coh.verify_invertibility(z, cert)


def test_sign_lattice_has_no_rank1_complement(c2):
    """Exhaustive: Z^- (+) any rank-1 C2-lattice never matches a rank-2
    permutation lattice through a unimodular map with entries in -1..1."""
    zm = lat.sign_lattice(c2)
    classes = subgroup_classes(c2)
    complements = [lat.trivial_lattice(c2), lat.sign_lattice(c2)]
    targets = [(0,), (1, 1)]                   # Z[C2] or Z (+) Z
    found = False
    for comp, tspec in itertools.product(complements, targets):
        for entries in itertools.product((-1, 0, 1), repeat=4):
            iso = intmat.from_rows([list(entries[:2]), list(entries[2:])])
            if not intmat.is_unimodular(iso):
                continue
            cert = coh.InvertibilityCertificate(comp, iso, tspec)
            if coh.verify_invertibility(zm, cert, classes):
                found = True
    assert not found


def test_verify_invertibility_shape_mismatch(c2):
    cert = coh.InvertibilityCertificate(None, intmat.identity(2), (0,))
    with pytest.raises(ShapeMismatch):
        coh.verify_invertibility(lat.sign_lattice(c2), cert)


def test_motivic_metacyclic_shortcut():
    c6 = cyclic_group(6)
    verdict, cert, res = coh.check_motivic_interpretation(lat.trivial_lattice(c6))
    assert verdict == "YesMetaCyclic"


def test_motivic_certificate_for_dual_norm_one(v4):
    j = lat.dual(lat.norm_one_lattice(v4))
    verdict, cert, res = coh.check_motivic_interpretation(j)
    assert verdict == "YesInvertibleCertificate"
    assert cert is not None
    assert coh.verify_invertibility(res.q_lattice, cert)


def test_motivic_supplied_certificate_wins(v4):
    j = lat.dual(lat.norm_one_lattice(v4))
    res = coh.flasque_resolution(j)
    cert = coh.search_invertibility_certificate(res.q_lattice)
    verdict, used, _ = coh.check_motivic_interpretation(j, cert)
    assert verdict == "YesInvertibleCertificate"
    assert used is cert


def test_motivic_unknown_fallback(v4):
    # The norm-one lattice of V4 itself: flasque resolution kernel is the
    # classical non-invertible example, so the bounded search must give up.
    n1 = lat.norm_one_lattice(v4)
    verdict, cert, res = coh.check_motivic_interpretation(n1)
    assert verdict in ("Unknown", "YesInvertibleCertificate")
    if verdict == "Unknown":
        assert cert is None


def test_real_decomposition_basic_lattices(c2):
    z = lat.trivial_lattice(c2)
    zm = lat.sign_lattice(c2)
    zreg = lat.permutation_lattice(c2, (0,))
    assert coh.real_decomposition(z, 1)[:3] == (1, 0, 0)
    assert coh.real_decomposition(z, 1)[3] == fin_ab(2)
    assert coh.real_decomposition(zm, 1)[:3] == (0, 1, 0)
    assert coh.real_decomposition(zm, 1)[3] == FinAbGroup()
    assert coh.real_decomposition(zreg, 1)[:3] == (0, 0, 1)
    assert coh.real_decomposition(zreg, 1)[3] == FinAbGroup()


def test_real_decomposition_trivial_conj(c2):
    # conj = identity: everything is a trivial summand
    z2 = lat.direct_sum(lat.trivial_lattice(c2), lat.sign_lattice(c2))
    a, b, c, tor = coh.real_decomposition(z2, c2.identity)
    assert (a, b, c) == (2, 0, 0)
    assert tor == fin_ab(2, 2)


def test_real_decomposition_additive_and_consistent(c2):
    rng = random.Random(3)
    basics = [lat.trivial_lattice(c2), lat.sign_lattice(c2),
              lat.permutation_lattice(c2, (0,))]
    for _ in range(10):
        counts = [rng.randint(0, 2) for _ in basics]
        if sum(counts) == 0:
            continue
        parts = [b for b, c in zip(basics, counts) for _ in range(c)]
        x = parts[0]
        for p in parts[1:]:
            x = lat.direct_sum(x, p)
        a, b, c, _ = coh.real_decomposition(x, 1)
        assert (a, b, c) == tuple(counts)
        assert a + b + 2 * c == x.rank
        # recompose and compare characters at identity and conj
        chi = lat.lattice_character(x)
        assert chi == (a + b + 2 * c, a - b)


def test_h1_additive_over_direct_sum(c2, s3, v4):
    rng = random.Random(17)
    pool = catalog_pool(c2, s3, v4)
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        x = random_lattice(pool[key], rng, max_rank=3)
        y = random_lattice(pool[key], rng, max_rank=2)
        s = lat.direct_sum(x, y)
        for cls in subgroup_classes(g):
            merged = coh.h1(cls, x).direct_sum(coh.h1(cls, y))
            assert coh.h1(cls, s) == merged


def test_h1_cyclic_oracle_on_catalog(c2, s3, v4):
    for g in (c2, s3, v4):
        pool = catalog_pool(c2, s3, v4)[g.name.lower() if g.name != "V4" else "v4"]
        for x in pool:
            for cls in subgroup_classes(g):
                sub_orders = {g.element_order(a) for a in cls.elements}
                if max(sub_orders) != cls.order:
                    continue                      # not cyclic
                sigma = next(a for a in cls.elements
                             if g.element_order(a) == cls.order)
                assert coh.h1(cls, x) == oracle_h1_cyclic(x, sigma)


def test_flasque_postconditions_are_typed_errors(c2, monkeypatch):
    x = lat.permutation_lattice(c2, (c2.identity,))
    # P built with a trivial action: P -> X stops being equivariant.
    monkeypatch.setattr(coh, "permutation_lattice",
                        lambda g, h: lat.trivial_lattice(g, g.order // len(h.elements)))
    with pytest.raises(InvariantViolation, match="not equivariant"):
        coh.flasque_resolution(x)
    monkeypatch.undo()
    monkeypatch.setattr(coh, "is_flasque", lambda q, classes: (False, "forced"))
    with pytest.raises(InvariantViolation, match="not flasque"):
        coh.flasque_resolution(x)
