
from math import gcd, prod

import pytest

from conftest import det, left_cosets, oracle_w2, snf_diagonal
from torusbt import intmat
from torusbt import lattices as lat
from torusbt import realization as realz
from torusbt.dirichlet import zeta_minus_one
from torusbt.errors import (BadReduction, InvariantViolation, NotHomomorphism,
                            NotSubgroup, NotSurjective, StabilizationBoundExceeded)
from torusbt.engine import btc_predict
from torusbt.groups import cyclic_group, group_from_table, subgroup_classes
from torusbt.realization import (WGroupResult, global_coinvariants_order, is_prime,
                                 local_point_count, realization_from_images,
                                 validate_realization, w2_of_subfield, w_group_order)
from torusbt.units import primitive_root_mod_prime, unit_group, units_mod


@pytest.fixture(scope="module")
def r5(c2):
    return realization_from_images(c2, 5, {2: 1})


@pytest.fixture(scope="module")
def r8(c2):
    return realization_from_images(c2, 8, {7: 0, 5: 1})


@pytest.fixture(scope="module")
def r40(v4):
    return realization_from_images(v4, 40, {31: 0, 21: 1, 17: 2})


@pytest.fixture(scope="module")
def r1():
    g1 = cyclic_group(1)
    return realization_from_images(g1, 1, {})


def test_realization_f5_totally_real(c2, r5):
    assert validate_realization(r5, c2) == {"ok": True, "totally_real": True}
    # pi(-1) = pi(4) = sigma^2 = e
    assert r5.pi(4) == c2.identity
    assert r5.pi(2) == 1


def test_realization_f8_totally_real(c2, r8):
    assert r8.totally_real
    assert r8.pi(7) == c2.identity and r8.pi(5) == 1


def test_realization_not_totally_real_flag():
    c4 = cyclic_group(4)
    r = realization_from_images(c4, 5, {2: 1})
    assert not r.totally_real           # pi(-1) = g^2 != e
    assert r.pi(4) == 2


def test_realization_not_surjective(c2):
    with pytest.raises(NotSurjective):
        realization_from_images(c2, 5, {2: 0})


def test_realization_inconsistent_images(c2):
    # 2 has order 4 mod 5; sending it to sigma and 4 to sigma conflicts
    with pytest.raises(NotHomomorphism):
        realization_from_images(c2, 5, {2: 1, 4: 1})


def test_realization_incomplete_generators():
    c2xc2 = cyclic_group(2)
    with pytest.raises(NotHomomorphism):
        # {1,7} is a proper subgroup of (Z/8)*: cannot extend
        realization_from_images(c2xc2, 8, {7: 1})


def _breakdown(res):
    return {p: {"part": part, "depth": depth} for p, part, depth in res.parts}


def test_w_group_gm(r1):
    res = w_group_order(lat.trivial_lattice(r1.group), r1)
    assert res.total == 24
    assert _breakdown(res)[2]["part"] == 8 and _breakdown(res)[3]["part"] == 3
    assert res.total == oracle_w2(1, [1])


def test_w_group_res5(c2, r5):
    res = w_group_order(lat.permutation_lattice(c2, (0,)), r5)
    assert res.total == 120
    assert _breakdown(res)[2]["part"] == 8
    assert _breakdown(res)[3]["part"] == 3
    assert _breakdown(res)[5]["part"] == 5
    # oracle: largest N with a^2 = 1 mod N over units with a = +-1 mod 5
    assert res.total == oracle_w2(5, [1, 4], search_cap=300)


def test_w_group_normone5(c2, r5):
    res = w_group_order(lat.sign_lattice(c2), r5)
    assert res.total == 10
    assert _breakdown(res)[2]["part"] == 2 and _breakdown(res)[5]["part"] == 5


def test_w_group_res2_oracle(c2, r8):
    res = w_group_order(lat.permutation_lattice(c2, (0,)), r8)
    assert res.total == 48
    assert res.total == oracle_w2(8, [1, 7], search_cap=200)


def test_w2_of_subfields_match_oracle(c2, r5, r8, r1):
    cls2 = subgroup_classes(c2)
    assert w2_of_subfield(cls2[0], r5) == oracle_w2(5, [1, 4], 300) == 120
    assert w2_of_subfield(cls2[1], r5) == oracle_w2(5, [1, 2, 3, 4], 100) == 24
    assert w2_of_subfield(cls2[0], r8) == oracle_w2(8, [1, 7], 200) == 48
    g1 = subgroup_classes(r1.group)[0]
    assert w2_of_subfield(g1, r1) == 24


def test_w_group_multiplicative(c2, r5):
    x = lat.sign_lattice(c2)
    y = lat.permutation_lattice(c2, (0,))
    wx = w_group_order(x, r5)
    wy = w_group_order(y, r5)
    wxy = w_group_order(lat.direct_sum(x, y), r5)
    for p, part, _ in wxy.parts:
        px = dict((q, v) for q, v, _ in wx.parts).get(p, 1)
        py = dict((q, v) for q, v, _ in wy.parts).get(p, 1)
        assert part == px * py


def test_w_group_shapiro_f40(v4, r40):
    """w of every coset lattice equals w2 of the fixed field computed with
    restricted Frobenii: all five subgroup classes of V4."""
    for cls in subgroup_classes(v4):
        lhs = w_group_order(lat.permutation_lattice(v4, cls), r40).total
        rhs = w2_of_subfield(cls, r40)
        assert lhs == rhs, cls


def test_w_group_debug_mode_runs(c2, r5):
    res = w_group_order(lat.sign_lattice(c2), r5, debug=True)
    assert res.total == 10


def test_stabilization_bound_error(c2, r5):
    with pytest.raises(StabilizationBoundExceeded):
        w_group_order(lat.trivial_lattice(c2), r5, cap=2)


@pytest.mark.parametrize("cap", [0, -1, 2.5])
def test_stabilization_cap_below_one_is_a_typed_error(c2, r5, cap):
    x = lat.trivial_lattice(c2)
    with pytest.raises(StabilizationBoundExceeded, match="not a positive integer"):
        w_group_order(x, r5, cap=cap)
    with pytest.raises(StabilizationBoundExceeded):
        global_coinvariants_order(x, r5, cap=cap)
    with pytest.raises(StabilizationBoundExceeded):
        btc_predict(x, r5, stab_cap=cap)


@pytest.mark.parametrize("h", [(0, 5), (5,), (0, 1, 2)], ids=str)
def test_raw_non_subgroup_tuples_are_typed_errors(r5, h):
    """Over C2, 5 and 2 are out of range: before, zeta_minus_one((0, 5), r5)
    returned 1/30 and w2_of_subfield((0, 5), r5) returned 120."""
    with pytest.raises(NotSubgroup):
        zeta_minus_one(h, r5)
    with pytest.raises(NotSubgroup):
        w2_of_subfield(h, r5)
    with pytest.raises(NotSubgroup):
        r5.unit_preimage(h)


def test_subgroup_class_of_another_group_is_a_typed_error():
    """H1 = (0, 2) is a class of C4, not a subgroup of the C2 of res_sqrt5:
    before, zeta_minus_one returned 1/30 and w2_of_subfield returned 120."""
    from torusbt.catalog import fixture
    r = fixture("res_sqrt5").realization
    h1 = subgroup_classes(cyclic_group(4))[1]
    assert h1.elements == (0, 2)
    with pytest.raises(NotSubgroup):
        zeta_minus_one(h1, r)
    with pytest.raises(NotSubgroup):
        w2_of_subfield(h1, r)


def test_global_coinvariants_examples(c2, r5, r1):
    assert global_coinvariants_order(lat.trivial_lattice(r1.group), r1) == 2
    assert global_coinvariants_order(lat.permutation_lattice(c2, (0,)), r5) == 2
    assert global_coinvariants_order(lat.zero_lattice(c2), r5) == 1


def test_w_group_rank0(c2, r5):
    assert w_group_order(lat.zero_lattice(c2), r5).total == 1


def test_local_point_counts(c2, r5, r1):
    assert local_point_count(lat.trivial_lattice(r1.group), r1, 7) == 6
    assert local_point_count(lat.sign_lattice(c2), r5, 7) == 8
    assert local_point_count(lat.permutation_lattice(c2, (0,)), r5, 3) == 8


def test_local_point_count_bad_reduction(c2, r5):
    with pytest.raises(BadReduction):
        local_point_count(lat.sign_lattice(c2), r5, 5)
    with pytest.raises(BadReduction):
        local_point_count(lat.sign_lattice(c2), r5, 6)


def test_local_count_charpoly_consistency(c2, v4, r5, r40):
    """|det(ell rho - 1)| equals |charpoly of rho^{-1} at ell| and is
    multiplicative over direct sums."""
    cases = [(c2, r5), (v4, r40)]
    for g, r in cases:
        lats = [lat.trivial_lattice(g), lat.permutation_lattice(g, (g.identity,))]
        if g.order == 2:
            lats.append(lat.sign_lattice(g))
        else:
            lats.append(lat.dual(lat.norm_one_lattice(g)))
        for x in lats:
            for ell in (3, 7, 11, 13):
                if r.modulus % ell == 0:
                    continue
                n1 = local_point_count(x, r, ell)
                frob = x.action[r.pi(ell)]
                frob_inv = x.action[g.inv(r.pi(ell))]
                n2 = abs(det(ell * intmat.identity(x.rank) - frob_inv))
                assert n1 == n2
                if g.element_order(r.pi(ell)) <= 2:
                    assert local_point_count(lat.dual(x), r, ell) == n1
        for ell in (3, 7):
            if r.modulus % ell == 0:
                continue
            a, b = lats[0], lats[2]
            assert local_point_count(lat.direct_sum(a, b), r, ell) == \
                local_point_count(a, r, ell) * local_point_count(b, r, ell)


def test_local_counts_permutation_orbit_oracle(v4, r40):
    """For coset lattices #T(F_ell) = prod over Frobenius orbits on cosets
    of (ell^{orbit size} - 1): independent of the determinant route."""
    for cls in subgroup_classes(v4):
        x = lat.permutation_lattice(v4, cls)
        for ell in (3, 7, 11):
            frob = r40.pi(ell)
            cosets = left_cosets(v4, cls.elements)
            seen = set()
            expected = 1
            for c in cosets:
                if c in seen:
                    continue
                orbit = set()
                cur = c
                while cur not in orbit:
                    orbit.add(cur)
                    cur = tuple(sorted(v4.op(frob, a) for a in cur))
                seen |= orbit
                expected *= ell ** len(orbit) - 1
            assert local_point_count(x, r40, ell) == expected


def test_candidate_prime_completeness_debug(c2, v4, r5, r40):
    """Debug mode asserts the three smallest primes outside the candidate
    set contribute trivially; run it on catalog W computations."""
    w_group_order(lat.permutation_lattice(c2, (0,)), r5, debug=True)
    w_group_order(lat.sign_lattice(c2), r5, debug=True)
    w_group_order(lat.dual(lat.norm_one_lattice(v4)), r40, debug=True)


def test_candidate_prime_debug_check_is_a_typed_error(c2, r5, monkeypatch):
    """Every prime, candidate or not, reports a part of p."""
    monkeypatch.setattr(intmat, "smith_valuations", lambda mat, p, k: [1] * mat.cols)
    with pytest.raises(InvariantViolation, match="candidate-prime completeness"):
        w_group_order(lat.permutation_lattice(c2, (0,)), r5, debug=True)


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * 498
    for n in range(2, 23):
        for m in range(n * n, 500, n):
            sieve[m] = False
    assert [n for n in range(-5, 500) if is_prime(n)] == \
        [n for n in range(500) if sieve[n]]


# ------------------------------------------------ one Smith form per prime

def _rung(p):
    """Res Q(zeta_p)^+: G = C_{(p-1)/2}, a primitive root going to 1."""
    g = cyclic_group((p - 1) // 2)
    return g, realization_from_images(g, p, {primitive_root_mod_prime(p): 1})


RUNG_PRIMES = [p for p in range(7, 98) if is_prime(p)]      # C3 .. C48


def _closed_form_w2(h, r):
    """w_2 of the fixed field K of h: 2^(n_2+1) * prod_{q odd} q^(n_q), n_q the
    largest n with Q(zeta_{q^n})^+ inside K, i.e. with the unit preimage of h
    inside {+-1 mod q^n}. Shares no code with the Smith forms."""
    f = r.modulus
    units = r.unit_preimage(h)

    def contains(m):
        if m in (2, 3, 4):                  # Q(zeta_m)^+ = Q
            return True
        return f % m == 0 and all(u % m in (1, m - 1) for u in units)

    w = 2
    for q in range(2, max(f, 3) + 1):
        if all(q % d for d in range(2, q)) and (q <= 3 or f % q == 0):
            n = 0
            while contains(q ** (n + 1)):
                n += 1
            w *= q ** n
    return w


FULL_UNIT_MODULI = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 28, 32, 36, 40, 48)


def _full_units(f):
    """G = (Z/f)* itself, pi the identity: L = Q(zeta_f), not totally real
    for f > 2, so every subfield of Q(zeta_f) is a fixed field."""
    units = units_mod(f)
    pos = {u % f: i for i, u in enumerate(units)}
    g = group_from_table([[pos[u * v % f] for v in units] for u in units], name=f"U{f}")
    return g, realization_from_images(g, f, {u: pos[u % f] for u in units})


def _w2_cases():
    """(group, realization) over which w_2 is checked on every subgroup
    class: the full (Z/f)* above and the rungs Q(zeta_p)^+, p <= 97."""
    return [_full_units(f) for f in FULL_UNIT_MODULI] + [_rung(p) for p in RUNG_PRIMES]


def test_w2_closed_form_on_every_subgroup_class(c2, v4, r5, r8, r40, r1):
    """Shapiro: w(Z[G/H]) = w_2 of the fixed field, for every subgroup class
    of every rung C3 .. C48, of the full (Z/f)* and of the small realizations."""
    cases = _w2_cases() + [(c2, r5), (c2, r8), (v4, r40), (r1.group, r1)]
    for g, r in cases:
        for h in subgroup_classes(g):
            expected = _closed_form_w2(h, r)
            assert w_group_order(lat.permutation_lattice(g, h), r).total == expected, \
                (r.modulus, h.elements)
            assert w2_of_subfield(h, r) == expected, (r.modulus, h.elements)


def _restricted_unit_generators(n, f, allowed):
    """Generators of {a in (Z/n)* : a mod f in allowed}, f | n: the kernel
    of (Z/n)* -> (Z/f)*/U, its exponent vectors the projection of the
    kernel of [V | Lambda-generators]."""
    ug_n = unit_group(n)
    if f == 1 or len(allowed) == len(units_mod(f)):
        return list(ug_n.generators)
    ug_f = unit_group(f)
    logs, k = ug_f.log_table(), len(ug_f.generators)
    vcols = [logs[a % f] for a in ug_n.generators]
    lam = [tuple(ug_f.orders[i] if i == j else 0 for i in range(k)) for j in range(k)]
    lam += [logs[u] for u in sorted(allowed)]
    kern = intmat.kernel_basis(intmat.hstack([intmat.from_columns(vcols, k),
                                              intmat.from_columns(lam, k)]))
    gens = set()
    for jc in range(kern.cols):
        a = 1
        for gen, e, order in zip(ug_n.generators, kern.col(jc), ug_n.orders):
            a = a * pow(gen, e % order, n) % n
        gens.add(a)
    return sorted(gens - {1})


def _restricted_smith_w2(h, r, cap=realz.STABILIZATION_CAP):
    """w_2 of the fixed field as the W-group computation run on the trivial
    rank-1 module, Frobenii restricted to the unit preimage of h."""
    out = 1
    for p in realz._candidate_primes(r.modulus, (2, 3)):
        n = r.modulus * (8 if p == 2 else p * p)
        gens = _restricted_unit_generators(n, r.modulus, r.unit_preimage(h))
        stacked = intmat.from_rows([[pow(a, 2, p ** cap) - 1] for a in gens], 1)
        vs = intmat.smith_valuations(stacked, p, cap) or [cap]
        assert max(vs) < cap, (r.modulus, p)
        out *= p ** sum(vs)
    return out


def test_w2_matches_the_restricted_smith_route_and_brute_force():
    """The closed form agrees with the restricted-generator Smith route on
    every class of _w2_cases, and with the congruence search of oracle_w2
    where that search is cheap."""
    for g, r in _w2_cases():
        for h in subgroup_classes(g):
            w2 = w2_of_subfield(h, r)
            assert w2 == _restricted_smith_w2(h, r), (r.modulus, h.elements)
            if w2 * r.modulus <= 3000:
                assert w2 == oracle_w2(r.modulus, r.unit_preimage(h), w2), \
                    (r.modulus, h.elements)


def _depth_loop_part(x, r, p, twist, side, cap=30, allowed=None):
    """The former depth loop, as an independent check: orders of the
    (co)invariants mod p^k over generators of (Z/f p^k)*, for k = 1, 2, ...
    until two consecutive depths give the same order."""
    f, rank = r.modulus, x.rank
    ident = intmat.identity(rank)
    prev = None
    for k in range(1, cap + 1):
        pk = p ** k
        n = f * pk
        gens = (_restricted_unit_generators(n, f, allowed)
                if allowed is not None else unit_group(n).generators)
        mats = [intmat.from_rows([[c % pk for c in row] for row in
                                  (pow(a, twist, pk) * x.action[r.pi(a)] - ident).data], rank)
                for a in gens]
        if side == "invariants":
            stacked = intmat.vstack(mats) if mats else intmat.zeros(0, rank)
        else:
            stacked = intmat.hstack(mats) if mats else intmat.zeros(rank, 0)
        ds = snf_diagonal(stacked)
        ds += [0] * (rank - len(ds))
        order = 1
        for d in ds[:rank]:
            order *= gcd(d, pk) if d else pk
        if order == prev:
            return order, k - 1
        prev = order
    raise StabilizationBoundExceeded(f"p = {p}")


def test_one_smith_form_matches_the_depth_loop():
    """Parts and depths of W and the coinvariants, and w_2 of every subgroup
    class, agree with the depth loop on the fixtures and on rungs C3 .. C30."""
    from torusbt.catalog import fixture
    cases = []
    for name in ("gm_q", "res_sqrt5", "normone_5", "res_sqrt2", "dual_normone_v4"):
        fx = fixture(name)
        cases.append((fx.lattice, fx.realization))
    for p in RUNG_PRIMES:
        if p > 61:
            break
        g, r = _rung(p)
        cases.append((lat.permutation_lattice(g, (g.identity,)), r))
        if g.order <= 12:               # the loop's Smith forms grow past this
            cases.append((lat.norm_one_lattice(g), r))
    for x, r in cases:
        cap = realz.STABILIZATION_CAP
        for p in realz._candidate_primes(r.modulus, (2, 3)):
            args = (x, r, p, 2, "invariants", cap)
            assert realz._stable_part(*args) == _depth_loop_part(*args), (r.modulus, p)
        for p in realz._candidate_primes(r.modulus, (2,)):
            args = (x, r, p, 1, "coinvariants", cap)
            assert realz._stable_part(*args) == _depth_loop_part(*args), (r.modulus, p)
        one = lat.trivial_lattice(r.group)
        for h in subgroup_classes(r.group):
            loop = prod(_depth_loop_part(one, r, p, 2, "invariants", cap, r.unit_preimage(h))[0]
                        for p in realz._candidate_primes(r.modulus, (2, 3)))
            assert w2_of_subfield(h, r) == loop, (r.modulus, h.elements)


def test_stabilization_cap_boundary(r1):
    """gm_q has depth 3 at p = 2 (w_2(Q) = 24): the cap is the first depth
    that is not allowed."""
    x = lat.trivial_lattice(r1.group)
    with pytest.raises(StabilizationBoundExceeded):
        w_group_order(x, r1, cap=3)
    res = w_group_order(x, r1, cap=4)
    assert _breakdown(res)[2] == {"part": 8, "depth": 3}


def test_norm_one_predictions_at_c20_and_c29():
    """The norm-one tori of Q(zeta_41)^+ and Q(zeta_59)^+, whose W-groups
    the depth loop took seconds to stabilize."""
    for p, w, parts in ((41, 164, ((2, 4, 2), (3, 1, 1), (41, 41, 1))),
                        (59, 59, ((2, 1, 1), (3, 1, 1), (59, 59, 1)))):
        g, r = _rung(p)
        report = btc_predict(lat.norm_one_lattice(g), r)
        assert report.w_order == w
        assert report.w_breakdown == WGroupResult(w, parts).to_json()["breakdown"]
        assert report.predicted_kt_order == report.l_value_abs * w
