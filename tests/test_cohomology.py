import itertools
import random
import time

import pytest

from conftest import (catalog_pool, fin_ab, lattice_quotient, left_cosets, oracle_h1_bar,
                      oracle_h1_cyclic, run_fresh, small_groups, random_lattice,
                      sign_lattice_v4)
from torusbt import cohomology as coh
from torusbt import intmat
from torusbt import lattices as lat
from torusbt.errors import InconsistentRank, InvariantViolation, NotSubgroup, ShapeMismatch
from torusbt.exact import FinAbGroup, from_elementary_divisors
from torusbt.groups import (cyclic_group, generating_set, group_from_generators,
                            subgroup_classes, subgroup_elements, subgroup_generators)
from torusbt.induction import permutation_character_table


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


def test_flasque_kernel_action_is_carried_by_the_inclusion(c2, s3, v4, d4, a4):
    """inclusion Q(a) = P(a) inclusion for every element a, so chi_Q = chi_P - chi_X."""
    rng = random.Random(29)
    pool = catalog_pool(c2, s3, v4)
    cases = [x for key in ("c2", "s3", "v4") for x in pool[key]]
    cases += [random_lattice(pool[key], rng, max_rank=4) for key in ("c2", "s3", "v4")]
    for g in (d4, a4):
        cases += [lat.norm_one_lattice(g), lat.dual(lat.norm_one_lattice(g))]
    for x in cases:
        res = coh.flasque_resolution(x)
        for a in range(x.group.order):
            assert res.inclusion @ res.q_lattice.action[a] == \
                res.p_lattice.action[a] @ res.inclusion, (x.group.name, a)
        chi_p, chi_q, chi_x = (lat.lattice_character(y)
                               for y in (res.p_lattice, res.q_lattice, x))
        assert chi_q == tuple(p - v for p, v in zip(chi_p, chi_x))


# ------------------------------- the resolution on orbits of vectors

def _coset_image_columns(x, kelems, cls, v):
    """The coset walk the orbit sums replace: K-orbits of the sorted coset
    tuples of H, each mapped to the sum of rho(min coset) v."""
    g = x.group
    orbit_of = {}
    for c in left_cosets(g, cls.elements):
        if c in orbit_of:
            continue
        orbit, stack = set(), [c]
        while stack:
            cc = stack.pop()
            if cc not in orbit:
                orbit.add(cc)
                stack.extend(tuple(sorted(g.op(k, a) for a in cc)) for k in kelems)
        for cc in orbit:
            orbit_of[cc] = frozenset(orbit)
    cols = []
    for orbit in sorted(set(orbit_of.values()), key=min):
        vec = [0] * x.rank
        for c in orbit:
            vec = [a + b for a, b in zip(vec, x.action[min(c)].apply(v))]
        cols.append(tuple(vec))
    return cols


def _coset_walk_resolution(x):
    """(p_spec, p_generators, surjection, inclusion, Q action) by the coset
    walk, a scan of every class against every conjugator and a separate
    stabilizer pass."""
    g = x.group
    classes = subgroup_classes(g)
    summands = []
    for cls in classes if x.rank else []:
        have = [c for cid, v in summands
                for c in _coset_image_columns(x, cls.elements, classes[cid], v)]
        basis = lat.invariant_basis(x, cls)
        for j in range(basis.cols):
            v = basis.col(j)
            if intmat.solve_exact(intmat.from_columns(have, x.rank),
                                  intmat.from_columns([v], x.rank)) is not None:
                continue
            stab = {a for a in range(g.order) if x.action[a].apply(v) == v}
            cid, u = next((c.class_id, u) for c in classes if c.order == len(stab)
                          for u in range(g.order)
                          if {g.conjugate(u, a) for a in c.elements} == stab)
            w = x.action[g.inv(u)].apply(v)
            summands.append((cid, w))
            have.extend(_coset_image_columns(x, cls.elements, classes[cid], w))
    surjection = intmat.from_columns(
        [x.action[min(c)].apply(w) for cid, w in summands
         for c in left_cosets(g, classes[cid].elements)], x.rank)
    inclusion = intmat.kernel_basis(surjection)
    parts = [lat.permutation_lattice(g, classes[cid]) for cid, _ in summands]
    p_lat = lat.direct_sum(*parts) if parts else lat.zero_lattice(g)
    q_action = tuple(intmat.solve_exact(inclusion, p_lat.action[a] @ inclusion)
                     for a in range(g.order))
    return (tuple(cid for cid, _ in summands), tuple(w for _, w in summands),
            surjection, inclusion, q_action)


def _resolution_cases(c2, s3, v4, d4, a4, draws):
    """Regular, norm-one and dual norm-one lattices of the small groups,
    then `draws` seeded random lattices per catalog_pool group."""
    for g in small_groups(s3, d4, a4, 12):
        norm_one = lat.norm_one_lattice(g)
        yield from (lat.permutation_lattice(g, (g.identity,)), norm_one, lat.dual(norm_one))
    rng = random.Random(41)
    for xs in catalog_pool(c2, s3, v4).values():
        for _ in range(draws):
            yield random_lattice(xs, rng)


def test_orbit_resolution_matches_the_coset_walk(c2, s3, v4, d4, a4):
    """Same summands, generators, surjection, inclusion and Q action as the
    coset walk, hence the same FlasqueResolution JSON."""
    count = 0
    for x in _resolution_cases(c2, s3, v4, d4, a4, 60):
        res = coh.flasque_resolution(x)
        got = (res.p_spec, res.p_generators, res.surjection, res.inclusion,
               res.q_lattice.action)
        assert got == _coset_walk_resolution(x), (x.group.name, x.rank)
        count += 1
    assert count == 3 * 19 + 3 * 60


def test_orbit_sums_span_the_image_of_the_coset_invariants(c2, s3, v4, d4, a4):
    """For each summand (Z[G/H], w) and class K, the K-orbit sums inside Gw
    span the image of Z[G/H]^K under xH -> x w."""
    checked = 0
    for x in _resolution_cases(c2, s3, v4, d4, a4, 5):
        g = x.group
        classes = subgroup_classes(g)
        res = coh.flasque_resolution(x)
        start = 0
        for cid in res.p_spec:
            perm = lat.permutation_lattice(g, classes[cid])
            block = intmat.IntMatrix(x.rank, perm.rank, tuple(
                row[start:start + perm.rank] for row in res.surjection.data))
            start += perm.rank
            orbit = tuple(block.col(j) for j in range(block.cols))
            for k in classes:
                sums = coh._orbit_sums(x, k.elements, orbit)
                image = block @ lat.invariant_basis(perm, k)
                assert intmat.hnf_columns(intmat.from_columns(sums, x.rank)) == \
                    intmat.hnf_columns(image), (g.name, cid, k.class_id)
                checked += 1
    assert checked > 400


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
    complements = [lat.trivial_lattice(c2), lat.sign_lattice(c2)]
    targets = [(0,), (1, 1)]                   # Z[C2] or Z (+) Z
    found = False
    for comp, tspec in itertools.product(complements, targets):
        for entries in itertools.product((-1, 0, 1), repeat=4):
            iso = intmat.from_rows([list(entries[:2]), list(entries[2:])])
            if not intmat.is_unimodular(iso):
                continue
            cert = coh.InvertibilityCertificate(comp, iso, tspec)
            if coh.verify_invertibility(zm, cert):
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
    """A certificate found on one resolution of X verifies on the Q of
    another run: the resolution is deterministic."""
    j = lat.dual(lat.norm_one_lattice(v4))
    cert = coh.search_invertibility_certificate(coh.flasque_resolution(j).q_lattice)
    res = coh.flasque_resolution(j)
    assert cert is not None
    assert coh.verify_invertibility(res.q_lattice, cert)


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


def _cayley_h1(h, x):
    """Reference H^1: cocycles on a generating set of H, constrained by the
    relators of a BFS spanning tree of its Cayley graph, modulo coboundaries."""
    g = x.group
    gens = generating_set(g, subgroup_elements(g, h))
    if not gens:
        return FinAbGroup()
    word, frontier, relators = {g.identity: []}, [g.identity], []
    while frontier:
        new = []
        for a in frontier:
            for si, s in enumerate(gens):
                t = g.op(a, s)
                if t not in word:
                    word[t] = word[a] + [(si, 1)]
                    new.append(t)
                else:
                    relators.append(word[a] + [(si, 1)]
                                    + [(sj, -e) for sj, e in reversed(word[t])])
        frontier = new
    n = x.rank
    blocks = []
    for rel in relators:
        coeff = [intmat.zeros(n, n) for _ in gens]
        prefix = g.identity
        for si, e in rel:
            if e == 1:
                coeff[si] = coeff[si] + x.action[prefix]
                prefix = g.op(prefix, gens[si])
            else:
                prefix = g.op(prefix, g.inv(gens[si]))
                coeff[si] = coeff[si] - x.action[prefix]
        blocks.append(intmat.hstack(coeff))
    cocycles = intmat.kernel_basis(intmat.vstack(blocks) if blocks
                                   else intmat.zeros(0, n * len(gens)))
    ident = intmat.identity(n)
    cobound = intmat.vstack([x.action[s] - ident for s in gens])
    return lattice_quotient(cocycles, cobound)


def test_h1_matches_cayley_relator_cocycles(c2, s3, v4, d4, a4):
    d6 = group_from_generators([[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]], name="D6")
    pool = catalog_pool(c2, s3, v4)
    cases = [x for key in ("c2", "s3", "v4") for x in pool[key]]
    for g in (d4, a4, d6):
        for x in (lat.norm_one_lattice(g), lat.dual(lat.norm_one_lattice(g))):
            cases += [x, coh.flasque_resolution(x).q_lattice]
    nontrivial = 0
    for x in cases:
        for cls in subgroup_classes(x.group):
            got = coh.h1(cls, x)
            assert got == _cayley_h1(cls, x), (x.group.name, x.rank, cls.elements)
            nontrivial += not got.is_trivial
    assert nontrivial >= 20


def test_certificate_search_on_d5_norm_one_q_is_fast():
    d5 = group_from_generators([[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]], name="D5")
    q = coh.flasque_resolution(lat.norm_one_lattice(d5)).q_lattice
    start = time.perf_counter()
    coh.search_invertibility_certificate(q)
    assert time.perf_counter() - start < 1.5


def test_h1_additive_over_direct_sum(c2, s3, v4):
    rng = random.Random(17)
    pool = catalog_pool(c2, s3, v4)
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        x = random_lattice(pool[key], rng, max_rank=3)
        y = random_lattice(pool[key], rng, max_rank=2)
        s = lat.direct_sum(x, y)
        for cls in subgroup_classes(g):
            merged = from_elementary_divisors(
                list(coh.h1(cls, x).invariant_factors) + list(coh.h1(cls, y).invariant_factors))
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


# ------------------------------ closed forms against the Hermite quotients

def _hermite_h1(h, x):
    """h1 as the quotient L / (X^H + nX), n = |H|, with L read off the
    Hermite kernel of [S | -nI]: the route of h1 before its closed form."""
    gens = subgroup_generators(x.group, h)
    if not gens:
        return FinAbGroup()
    n, r = len(subgroup_elements(x.group, h)), x.rank
    ident = intmat.identity(r)
    stacked = intmat.vstack([x.action[s] - ident for s in gens])
    big = intmat.kernel_basis(intmat.hstack([stacked, -n * intmat.identity(stacked.rows)]))
    lattice = intmat.IntMatrix(r, big.cols, big.data[:r])
    return lattice_quotient(
        lattice, intmat.hstack([intmat.kernel_basis(stacked), n * ident]))


def _hermite_real_decomposition(x, conj):
    """(a, b, c) with a = dim Tate H^0 and b = dim H^1 of {e, conj}, each a
    Hermite quotient, and c the rest of the rank."""
    sigma, ident = x.action[conj], intmat.identity(x.rank)
    h0 = lattice_quotient(intmat.kernel_basis(sigma - ident), sigma + ident)
    h1c = lattice_quotient(intmat.kernel_basis(sigma + ident), sigma - ident)
    assert set(h0.invariant_factors + h1c.invariant_factors) <= {2}
    a, b = len(h0.invariant_factors), len(h1c.invariant_factors)
    return a, b, (x.rank - a - b) // 2


@pytest.fixture(scope="module")
def closed_form_cases(c2, s3, v4, d4, a4):
    """catalog_pool with seeded random draws, and the norm-one and dual
    norm-one lattices of the small groups with their flasque Q and dual Q."""
    pool = catalog_pool(c2, s3, v4)
    rng = random.Random(53)
    cases = [x for xs in pool.values() for x in xs]
    cases += [random_lattice(xs, rng) for xs in pool.values() for _ in range(40)]
    for g in small_groups(s3, d4, a4, 12):
        for x in (lat.norm_one_lattice(g), lat.dual(lat.norm_one_lattice(g))):
            q = coh.flasque_resolution(x).q_lattice
            cases += [x, q, lat.dual(q)]
    return cases


def test_h1_closed_form_matches_the_hermite_quotient(closed_form_cases):
    pairs = nontrivial = 0
    for x in closed_form_cases:
        for cls in subgroup_classes(x.group):
            got = coh.h1(cls, x)
            assert got == _hermite_h1(cls, x), (x.group.name, x.rank, cls.elements)
            pairs += 1
            nontrivial += not got.is_trivial
    assert pairs > 1000 and nontrivial > 300


def test_real_decomposition_closed_form_matches_the_hermite_quotients(closed_form_cases):
    pairs = 0
    for x in closed_form_cases:
        g = x.group
        for conj in range(g.order):
            if g.op(conj, conj) == g.identity:
                a, b, c, torsion = coh.real_decomposition(x, conj)
                assert (a, b, c) == _hermite_real_decomposition(x, conj), \
                    (g.name, x.rank, conj)
                assert torsion == from_elementary_divisors([2] * a)
                pairs += 1
    assert pairs > 750


def _hermite_tate_h0(h, x):
    """Tate H^0 as the quotient X^H / N X with X^H the Hermite kernel basis
    of the stacked s - 1: the route of tate_h0 before its closed form."""
    out = lattice_quotient(lat.invariant_basis(x, h), lat.norm_element_matrix(x, h))
    assert out.free_rank == 0
    return out


def test_tate_h0_closed_form_matches_the_hermite_quotient(closed_form_cases, monkeypatch):
    """Same values as the Hermite route, with that route patched to raise:
    tate_h0 reads the Smith valuations of the norm alone, neither X^H nor
    an exact solve."""
    cases = [(cls, x) for x in closed_form_cases for cls in subgroup_classes(x.group)]
    expected = [_hermite_tate_h0(cls, x) for cls, x in cases]

    def hermite(*args):
        raise AssertionError("Hermite route taken")
    for module, name in ((intmat, "kernel_basis"), (intmat, "solve_exact"),
                         (coh, "invariant_basis")):
        monkeypatch.setattr(module, name, hermite)
    for (cls, x), want in zip(cases, expected):
        assert coh.tate_h0(cls, x) == want, (x.group.name, x.rank, cls.elements)
    assert len(cases) > 1000 and sum(not grp.is_trivial for grp in expected) > 450


def test_tate_h0_on_the_s4_norm_one_q_matches_the_hermite_quotient():
    """The rank-49 flasque Q of S4 norm-one, on all 11 classes."""
    s4 = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]], name="S4")
    q = coh.flasque_resolution(lat.norm_one_lattice(s4)).q_lattice
    assert q.rank == 49
    classes = subgroup_classes(s4)
    got = [coh.tate_h0(cls, q) for cls in classes]
    assert got == [_hermite_tate_h0(cls, q) for cls in classes]
    assert sum(not grp.is_trivial for grp in got) == 10


def test_tate_h0_is_self_dual(closed_form_cases):
    """Tate duality for lattices: Tate H^0(H, X^dual) is the Pontryagin
    dual of Tate H^0(H, X), so the two are isomorphic (Brown, VI.7)."""
    nontrivial = 0
    for x in closed_form_cases:
        y = lat.dual(x)
        for cls in subgroup_classes(x.group):
            got = coh.tate_h0(cls, x)
            assert coh.tate_h0(cls, y) == got, (x.group.name, x.rank, cls.elements)
            nontrivial += not got.is_trivial
    assert nontrivial > 450


S4_DUAL_Q_H1 = """
import time
from torusbt.cohomology import flasque_resolution, h1
from torusbt.groups import group_from_generators, subgroup_classes
from torusbt.lattices import dual, norm_one_lattice
g = group_from_generators([[1, 0, 2, 3], [1, 2, 3, 0]], name="S4")
q = dual(flasque_resolution(norm_one_lattice(g)).q_lattice)
start = time.perf_counter()
groups = [h1(cls, q) for cls in subgroup_classes(g)]
print(q.rank, sum(not grp.is_trivial for grp in groups), time.perf_counter() - start)
"""


def test_h1_on_every_class_of_the_s4_dual_q_is_fast():
    """The rank-49 dual of the flasque Q of S4 norm-one: the D4 class made
    one Hermite elimination of a 343x196 matrix run for minutes. Fresh
    process, the resolution built untimed."""
    rank, witnesses, seconds = run_fresh(S4_DUAL_Q_H1, timeout=60).split()[-3:]
    assert (rank, witnesses) == ("49", "5")
    assert float(seconds) < 1.0


def test_flasque_postconditions_are_typed_errors(c2, v4, monkeypatch):
    x = lat.permutation_lattice(c2, (c2.identity,))
    # P built with a trivial action: P -> X stops being equivariant.
    monkeypatch.setattr(coh, "permutation_lattice",
                        lambda g, h: lat.trivial_lattice(g, g.order // len(h.elements)))
    with pytest.raises(InvariantViolation, match="not equivariant"):
        coh.flasque_resolution(x)
    monkeypatch.undo()
    monkeypatch.setattr(coh, "is_flasque", lambda q: (False, "forced"))
    with pytest.raises(InvariantViolation, match="not flasque"):
        coh.flasque_resolution(x)
    monkeypatch.undo()
    # Q's action solved as identity blocks: Q -> P stops being equivariant.
    # The one-column solves pick the summands and stay exact.
    real_solve = intmat.solve_exact

    def identity_blocks(mat, rhs):
        if rhs.cols == 1:
            return real_solve(mat, rhs)
        return intmat.hstack([intmat.identity(mat.cols)] * (rhs.cols // mat.cols))
    monkeypatch.setattr(intmat, "solve_exact", identity_blocks)
    with pytest.raises(InvariantViolation, match="inclusion not equivariant"):
        coh.flasque_resolution(lat.norm_one_lattice(v4))


# ------------------------------------------- typed invariants under -O

def _no_full_valuations(mat, p, k):
    """smith_valuations as if every Smith entry were a unit."""
    return [0] * min(mat.rows, mat.cols)


@pytest.mark.parametrize("module, name, fake, call, error, message", [
    # Z over S3 has rank X^H = 1, so one valuation must be full.
    (intmat, "smith_valuations", _no_full_valuations,
     lambda s3: coh.h1(subgroup_classes(s3)[-1], lat.trivial_lattice(s3)),
     InvariantViolation, "1 zero Smith entries expected, 2-adic"),
    # The rank-5 norm-one lattice of S3 has X^S3 = 0, so N = 0 and all
    # five valuations must be full.
    pytest.param(
        intmat, "smith_valuations", _no_full_valuations,
        lambda s3: coh.tate_h0(subgroup_classes(s3)[-1], lat.norm_one_lattice(s3)),
        InvariantViolation, "5 zero Smith entries expected, 2-adic",
        id="tate_h0-norm_one_lattice"),
    # c = 1 on a rank-1 lattice leaves b = -1.
    (intmat, "smith_valuations", _no_full_valuations,
     lambda s3: coh.real_decomposition(lat.trivial_lattice(s3), 1),
     InconsistentRank, "rank 1 and trace 1 with c = 1"),
])
def test_cohomology_invariants_are_typed_errors(s3, monkeypatch, module, name, fake,
                                                call, error, message):
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(error, match=message):
        call(s3)


@pytest.mark.parametrize("elems", [(0, 1, 2), (1,), (0, 99)], ids=str)
@pytest.mark.parametrize("call", [
    lambda h, x: coh.h1(h, x), lambda h, x: coh.tate_h0(h, x),
    lambda h, x: lat.invariant_basis(x, h), lambda h, x: lat.coinvariants(x, h),
    lambda h, x: lat.permutation_lattice(x.group, h), lambda h, x: lat.restrict(x, h),
], ids=["h1", "tate_h0", "invariant_basis", "coinvariants", "permutation_lattice",
        "restrict"])
def test_non_subgroup_tuples_are_typed_errors(s3, call, elems):
    # (0, 1, 2) is not closed in S3, (1,) lacks the identity, 99 is out of range.
    with pytest.raises(NotSubgroup):
        call(elems, lat.trivial_lattice(s3))


@pytest.mark.parametrize("conj", [99, -1])
def test_real_decomposition_rejects_conj_out_of_range(c2, conj):
    with pytest.raises(ShapeMismatch, match="not an element"):
        coh.real_decomposition(lat.sign_lattice(c2), conj)


# ------------------------------------------------- certificate search

def _oracle_multisets(classes, total):
    """Reference enumeration, built as a list."""
    idx_rank = [(cls.class_id, cls.index) for cls in classes]

    def rec(pos, remaining):
        if remaining == 0:
            yield ()
            return
        if pos >= len(idx_rank):
            return
        cid, r = idx_rank[pos]
        for count in range(remaining // r, -1, -1):
            for rest in rec(pos + 1, remaining - count * r):
                yield (cid,) * count + rest
    return list(rec(0, total))


def _oracle_search(q, classes, rank_bound, pair_budget, seen, coeff_bound=2,
                   combo_budget=60000):
    """Pair-by-pair search: Fraction characters summed for every pair and
    both sum lattices built and profiled from scratch. Appends the
    (source, target) profiles of every pair examined to seen."""
    g = q.group
    chi_q = lat.lattice_character(q)
    perm = {cls.class_id: lat.permutation_lattice(g, cls) for cls in classes}
    chi_perm = {cid: lat.lattice_character(p) for cid, p in perm.items()}

    def spec_char(spec):
        return tuple(sum(chi_perm[cid][i] for cid in spec) for i in range(len(chi_q)))

    pairs_examined = 0
    for target_rank in range(q.rank, q.rank + rank_bound + 1):
        for target_spec in _oracle_multisets(classes, target_rank):
            chi_t = spec_char(target_spec)
            for comp_spec in _oracle_multisets(classes, target_rank - q.rank):
                chi_s = tuple(a + b for a, b in zip(chi_q, spec_char(comp_spec)))
                if chi_s != chi_t:
                    continue
                pairs_examined += 1
                if pairs_examined > pair_budget:
                    return None
                comp_parts = [perm[cid] for cid in comp_spec]
                complement = lat.direct_sum(*comp_parts) if comp_parts else None
                source = lat.direct_sum(q, *comp_parts)
                target = lat.direct_sum(*(perm[cid] for cid in target_spec))
                seen.append((coh._cohomology_profile(source, classes),
                             coh._cohomology_profile(target, classes)))
                if seen[-1][0] != seen[-1][1]:
                    continue
                basis = coh._hom_basis(source, target)
                d = len(basis)
                if d == 0 or (2 * coeff_bound + 1) ** d > combo_budget:
                    continue
                for coeffs in itertools.product(
                        range(-coeff_bound, coeff_bound + 1), repeat=d):
                    if all(c == 0 for c in coeffs):
                        continue
                    m = intmat.zeros(target.rank, source.rank)
                    for c, b in zip(coeffs, basis):
                        if c:
                            m = m + c * b
                    if intmat.is_unimodular(m):
                        cert = coh.InvertibilityCertificate(
                            complement, m, tuple(target_spec))
                        if coh.verify_invertibility(q, cert):
                            return cert
    return None


def test_multisets_with_rank_streams_the_same_sequence(s3, v4, d4, a4):
    for g in (s3, v4, d4, a4):
        classes = subgroup_classes(g)
        for total in range(0, 9):
            walk = coh._multisets_with_rank(classes, total)
            assert iter(walk) is walk                       # a generator
            assert list(walk) == _oracle_multisets(classes, total), (g.name, total)


def _spec_character(chi_perm, spec):
    return tuple(sum(chi_perm[cid][i] for cid in spec) for i in range(len(chi_perm[0])))


def _oracle_matched_targets(classes, chi_perm, total, keys):
    """The walk before pruning: every multiset of the rank, kept when its
    character is one of keys."""
    return [(spec, _spec_character(chi_perm, spec))
            for spec in _oracle_multisets(classes, total)
            if _spec_character(chi_perm, spec) in keys]


def test_matched_multisets_walk_only_the_character_matched_targets(s3, v4, d4, a4):
    """Same (multiset, key) list as the filtered enumeration, for key sets
    mixing characters that occur, characters one off in one entry (some
    negative) and random vectors."""
    c2_cubed = group_from_generators([[x ^ (1 << i) for x in range(8)] for i in range(3)],
                                     name="C2^3")
    rng = random.Random(12)
    matched = 0
    for g in (s3, v4, d4, a4, c2_cubed):
        classes = subgroup_classes(g)
        chi_perm = permutation_character_table(g)
        width = len(chi_perm[0])
        for total in range(0, 9):
            chars = sorted({_spec_character(chi_perm, spec)
                            for spec in _oracle_multisets(classes, total)})
            for _ in range(3):
                keys = set(rng.sample(chars, min(len(chars), rng.randint(0, 6))))
                for chi in rng.sample(chars, min(len(chars), 3)):
                    i = rng.randrange(width)
                    keys.add(chi[:i] + (chi[i] + rng.choice((-1, 1)),) + chi[i + 1:])
                keys.add(tuple(rng.randint(-1, total) for _ in range(width)))
                walk = coh._matched_multisets(classes, chi_perm, total, keys)
                assert iter(walk) is walk                   # a generator
                got = list(walk)
                assert got == _oracle_matched_targets(classes, chi_perm, total, keys), \
                    (g.name, total)
                matched += len(got)
    assert matched > 250


def test_profile_additive_over_direct_sums(c2, s3, v4, d4, a4):
    pool = catalog_pool(c2, s3, v4)
    for g, extra in ((v4, pool["v4"]), (s3, pool["s3"]), (d4, []), (a4, [])):
        classes = subgroup_classes(g)
        parts = list(extra) + [lat.permutation_lattice(g, cls) for cls in classes]
        for a, b in zip(parts, parts[1:] + parts[:1]):
            summed = coh._sum_profiles([coh._cohomology_profile(a, classes),
                                        coh._cohomology_profile(b, classes)])
            direct = coh._cohomology_profile(lat.direct_sum(a, b), classes)
            assert summed == direct, g.name


def _search_with_profiles(monkeypatch, search):
    """Run the search, recording the (source, target) profile sums it
    compares for every pair examined."""
    real = coh._sum_profiles
    sums = []

    def recording(profiles):
        sums.append(real(profiles))
        return sums[-1]
    monkeypatch.setattr(coh, "_sum_profiles", recording)
    cert = search()
    monkeypatch.setattr(coh, "_sum_profiles", real)
    return cert, list(zip(sums[::2], sums[1::2]))


def test_certificate_search_matches_pair_by_pair_oracle(c2, s3, v4, d4, a4, monkeypatch):
    """Same certificate, and the same pairs examined in the same order up
    to the same PAIR_BUDGET cut."""
    pool = catalog_pool(c2, s3, v4)
    cases = []
    for g in (s3, d4, a4, v4):
        classes = subgroup_classes(g)
        for x in (lat.norm_one_lattice(g), lat.dual(lat.norm_one_lattice(g))):
            q = coh.flasque_resolution(x).q_lattice
            cases += [(q, classes, 1, 200), (q, classes, 1, 1)]
    for key, g in (("s3", s3), ("v4", v4)):
        classes = subgroup_classes(g)
        for a, b in itertools.combinations_with_replacement(pool[key], 2):
            if a.rank + b.rank <= 4:                    # kept small for speed
                q = lat.direct_sum(a, b)
                cases += [(q, classes, 1, 200), (q, classes, 1, 1)]
    # Complements of rank 6 are the first with equal characters, e.g.
    # Z[V4] (+) Z^2 and the sum of the three Z[V4/C2].
    classes = subgroup_classes(v4)
    q = sign_lattice_v4(v4, -1, -1)
    cases.append((q, classes, 6, 30))               # cut among those pairs
    found = matched = 0
    for q, classes, rank_bound, pair_budget in cases:
        monkeypatch.setattr(coh, "RANK_BOUND", rank_bound)
        monkeypatch.setattr(coh, "PAIR_BUDGET", pair_budget)
        new, new_pairs = _search_with_profiles(
            monkeypatch, lambda: coh.search_invertibility_certificate(q))
        old_pairs = []
        old = _oracle_search(q, classes, rank_bound, pair_budget, old_pairs)
        assert (new and new.to_json()) == (old and old.to_json()), (q.group.name, q.rank)
        assert new_pairs == old_pairs, (q.group.name, q.rank, rank_bound, pair_budget)
        found += new is not None
        matched += sum(src == tgt for src, tgt in new_pairs)
    assert found >= 10 and matched > found          # both outcomes occur


def test_certificate_search_profiles_each_summand_once(d4, monkeypatch):
    """Q is profiled once, through tate_h0 alone; each Z[G/H] by Mackey's
    formula. The search makes no h1 call: Q is flasque."""
    classes = subgroup_classes(d4)
    q = coh.flasque_resolution(lat.norm_one_lattice(d4)).q_lattice
    profiled = {"_cohomology_profile": [], "_permutation_profile": []}
    for name in profiled:
        def recorded(*args, _name=name, _f=getattr(coh, name)):
            profiled[_name].append(args)
            return _f(*args)
        monkeypatch.setattr(coh, name, recorded)
    cohomology_of = {"h1": [], "tate_h0": []}
    for name in cohomology_of:
        def counted(h, x, _name=name, _f=getattr(coh, name)):
            cohomology_of[_name].append(x)
            return _f(h, x)
        monkeypatch.setattr(coh, name, counted)
    assert coh.search_invertibility_certificate(q) is None
    assert [args[0] for args in profiled["_cohomology_profile"]] == [q]
    summands = [args[1].class_id for args in profiled["_permutation_profile"]]
    assert 0 < len(summands) == len(set(summands)) <= len(classes), summands
    assert cohomology_of["h1"] == []
    lattices = cohomology_of["tate_h0"]
    assert len(lattices) == len(classes) and all(x is q for x in lattices)


def test_certificate_search_finds_nothing_for_non_flasque_lattices(c2, s3, v4):
    """The profile no longer compares H^1, and none is needed: H^1(K, Q) is
    a summand of H^1(K, T) = 0 for any Q (+) C ~ T, so a non-flasque
    lattice has no certificate and the search returns None."""
    pool = catalog_pool(c2, s3, v4)
    non_flasque = [x for xs in pool.values() for x in xs if not coh.is_flasque(x)[0]]
    assert len(non_flasque) >= 3
    for x in non_flasque:
        assert coh.search_invertibility_certificate(x) is None, x.group.name


def test_permutation_profile_matches_cohomology_profile(s3, d4, a4):
    """Mackey's closed form against h1 and tate_h0 of Z[G/H] itself, on
    every class of S3, D4, A4, Q8, D5, D6, C2^3 and C_1-C_12."""
    nontrivial = 0
    for g in small_groups(s3, d4, a4, 12):
        classes = subgroup_classes(g)
        for cls in classes:
            mackey = coh._permutation_profile(g, cls, classes)
            assert mackey == coh._cohomology_profile(lat.permutation_lattice(g, cls), classes), \
                (g.name, cls.class_id)
            nontrivial += bool(mackey)
    assert nontrivial > 50


C2_CUBED_NORM_ONE = """
import time
from torusbt.cohomology import check_motivic_interpretation
from torusbt.groups import group_from_generators
from torusbt.lattices import norm_one_lattice
g = group_from_generators([[x ^ (1 << i) for x in range(8)] for i in range(3)], name="C2^3")
x = norm_one_lattice(g)
start = time.perf_counter()
verdict = check_motivic_interpretation(x)[0]
print(verdict, time.perf_counter() - start)
"""


def test_c2_cubed_norm_one_motivic_check_is_fast():
    """Q(sqrt2, sqrt3, sqrt5): the certificate search on the C2^3 norm-one
    Q ends in Unknown within its default budgets. Run in a fresh process,
    so that no memo is warm, with the lattice built untimed."""
    verdict, seconds = run_fresh(C2_CUBED_NORM_ONE, timeout=120).split()[-2:]
    assert verdict == "Unknown"
    assert float(seconds) < 1.5
