"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; the
whole suite is expected to stay under ten seconds.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from conftest import (oracle_bernoulli_numbers, oracle_h1_cyclic, oracle_w2,
                      quaternion_generators, sign_lattice_v4)
from torusbt import cohomology as coh
from torusbt import lattices as lat
from torusbt.catalog import all_fixtures, fixture
from torusbt.dirichlet import bernoulli2_chi, characters_mod, conductor_primitive
from torusbt.engine import btc_predict, isogeny_invariance_check, ono_l_value, shapiro_suite
from torusbt.exact import odd_part
from torusbt.groups import (cyclic_group, group_from_generators, is_metacyclic,
                            subgroup_classes)
from torusbt.induction import ono_decomposition, permutation_character_table
from torusbt.realization import w_group_order
from torusbt.dirichlet import artin_L_minus_one

_t0 = time.perf_counter()


def _ok(n, label, detail=""):
    print(f"PASS  criterion {n:>2}  {label}" + (f"  [{detail}]" if detail else ""))


def criterion_guard(n, label):
    """Emit the FAIL line when a criterion raises; PASS lines come from
    _ok so they can carry per-case detail."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {n:>2}  {label}")
                raise
        return wrapper
    return deco


@pytest.fixture(scope="module", autouse=True)
def total_budget():
    yield
    elapsed = time.perf_counter() - _t0
    print(f"acceptance total: {elapsed:.2f}s")
    assert elapsed < 10.0, "acceptance suite exceeded the 10 s desk-scale budget"


@criterion_guard(1, "classical anchor gm_q")
def test_criterion_1_classical_birch_tate_anchor():
    t = time.perf_counter()
    f = fixture("gm_q")
    rep = btc_predict(f.lattice, f.realization)
    assert rep.l_value == Fraction(-1, 12)
    assert rep.w_order == 24
    assert rep.predicted_kt_order == Fraction(2)        # |K_2(Z)|
    dt = time.perf_counter() - t
    assert dt < 1.0
    _ok(1, "gm_q: L = -1/12, W = 24, predicted |K2(Z)| = 2", f"{dt:.3f}s")


@criterion_guard(2, "real quadratic anchors")
def test_criterion_2_real_quadratic_anchors():
    for name, zeta, w2, pred, f_mod, allowed in (
            ("res_sqrt5", Fraction(1, 30), 120, 4, 5, [1, 4]),
            ("res_sqrt2", Fraction(1, 12), 48, 4, 8, [1, 7])):
        t = time.perf_counter()
        f = fixture(name)
        rep = btc_predict(f.lattice, f.realization)
        assert rep.l_value == zeta
        assert rep.w_order == w2
        assert rep.predicted_kt_order == Fraction(pred)
        # independent oracles for both factors
        assert w2 == oracle_w2(f_mod, allowed, search_cap=200)
        dt = time.perf_counter() - t
        assert dt < 1.0
        _ok(2, f"{name}: zeta = {zeta}, w2 = {w2}, predicted {pred}", f"{dt:.3f}s")
    # Bernoulli-recurrence oracle pins the B2 inputs
    b2 = oracle_bernoulli_numbers(2)[2]
    assert bernoulli2_chi(characters_mod(1)[0]).to_rational() == b2 == Fraction(1, 6)
    quad5 = [c for c in characters_mod(5) if c.order == 2][0]
    assert bernoulli2_chi(quad5).to_rational() == Fraction(4, 5)
    quad8 = [c for c in characters_mod(8)
             if c.order == 2 and conductor_primitive(c)[0] == 8 and c.is_even()][0]
    assert bernoulli2_chi(quad8).to_rational() == Fraction(2)
    _ok(2, "B2 values validated against the Bernoulli recurrence oracle")


@criterion_guard(3, "norm-one torus")
def test_criterion_3_norm_one_torus():
    t = time.perf_counter()
    f = fixture("normone_5")
    rep = btc_predict(f.lattice, f.realization)
    assert rep.l_value == Fraction(-2, 5)
    assert rep.w_order == 10
    assert rep.w_breakdown["2"]["part"] == 2
    assert rep.w_breakdown["5"]["part"] == 5
    assert rep.predicted_kt_order == Fraction(4)
    dt = time.perf_counter() - t
    assert dt < 1.0
    _ok(3, "normone_5: L = -2/5, W = 10 (2-part 2, 5-part 5), predicted 4", f"{dt:.3f}s")


@criterion_guard(4, "isogeny invariance")
def test_criterion_4_isogeny_invariance():
    res5 = fixture("res_sqrt5")
    zm = fixture("normone_5").lattice
    z = lat.trivial_lattice(res5.group)
    out = isogeny_invariance_check(lat.direct_sum(zm, z), res5.lattice,
                                   res5.realization)
    assert out["ratio"] == "2" and out["two_power_exponent"] == 1
    assert out["odd_parts_equal"] and out["pass"]

    rng = random.Random(20240817)
    res2 = fixture("res_sqrt2")
    v4f = fixture("dual_normone_v4")
    v4 = v4f.group
    v4_cls = subgroup_classes(v4)
    chi_a = sign_lattice_v4(v4, 1, -1)      # kernel = class-1 subgroup <g1>
    pairs = 0
    # C2 pairs: exchange Z + Z^- <-> Z[C2] inside random sums
    for fx in (res5, res2):
        zf = lat.trivial_lattice(fx.group)
        zmf = lat.sign_lattice(fx.group)
        for _ in range(8 if fx is res5 else 6):
            base = [rng.choice([zf, zmf, fx.lattice])
                    for _ in range(rng.randint(0, 2))]
            k = rng.randint(1, 2)
            left, right = base + [zf, zmf] * k, base + [fx.lattice] * k
            rng.shuffle(left)
            rng.shuffle(right)
            x1, x2 = left[0], right[0]
            for p in left[1:]:
                x1 = lat.direct_sum(x1, p)
            for p in right[1:]:
                x2 = lat.direct_sum(x2, p)
            out = isogeny_invariance_check(x1, x2, fx.realization)
            assert out["odd_parts_equal"], out
            pairs += 1
    # V4 pairs: exchange Z + chi_A <-> Z[V4/A]
    perm_a = lat.permutation_lattice(v4, v4_cls[1])
    zv = lat.trivial_lattice(v4)
    for _ in range(6):
        base = [rng.choice([zv, chi_a])
                for _ in range(rng.randint(0, 1))]
        left, right = base + [zv, chi_a], base + [perm_a]
        rng.shuffle(left)
        x1, x2 = left[0], right[0]
        for p in left[1:]:
            x1 = lat.direct_sum(x1, p)
        for p in right[1:]:
            x2 = lat.direct_sum(x2, p)
        out = isogeny_invariance_check(x1, x2, v4f.realization)
        assert out["odd_parts_equal"], out
        pairs += 1
    assert pairs == 20
    _ok(4, f"isogeny: ratio 2 anchor + {pairs} random pairs, odd parts equal")


@criterion_guard(5, "weil restriction / shapiro")
def test_criterion_5_weil_restriction_shapiro():
    instances = 0
    for name in ("gm_q", "res_sqrt5", "res_sqrt2", "dual_normone_v4"):
        f = fixture(name)
        suite = shapiro_suite(f.realization)
        assert suite["pass"], (name, suite)
        instances += len(suite["instances"])
    assert instances >= 10
    _ok(5, f"weil restriction equals classical prediction on {instances} subgroups")


@criterion_guard(6, "cohomology oracle")
def test_criterion_6_cohomology_oracle():
    from conftest import catalog_pool, random_lattice
    c2 = fixture("res_sqrt5").group
    s3 = fixture("s3_standard").group
    v4 = fixture("dual_normone_v4").group
    pool = catalog_pool(c2, s3, v4)

    def cyclic_classes(g):
        out = []
        for cls in subgroup_classes(g):
            gens = [a for a in cls.elements if g.element_order(a) == cls.order]
            if gens:
                out.append((cls, gens[0]))
        return out

    checked = 0
    for key, g in (("c2", c2), ("s3", s3), ("v4", v4)):
        for x in pool[key]:
            for cls, sigma in cyclic_classes(g):
                assert coh.h1(cls, x) == oracle_h1_cyclic(x, sigma)
                checked += 1
    rng = random.Random(606)
    rand_count = 0
    plan = [("c2", c2, 20), ("s3", s3, 15), ("v4", v4, 15)]
    for key, g, n in plan:
        for _ in range(n):
            x = random_lattice(pool[key], rng, max_rank=5)
            for cls, sigma in cyclic_classes(g):
                assert coh.h1(cls, x) == oracle_h1_cyclic(x, sigma), (key, cls)
            rand_count += 1
    assert rand_count == 50
    _ok(6, f"h1 equals ker(N)/im(sigma-1) oracle: catalog ({checked}) + 50 random lattices")


@criterion_guard(7, "flasque resolution postcondition")
def test_criterion_7_flasque_resolution_postcondition():
    for f in all_fixtures():
        x = f.lattice
        assert x.rank <= 6 and x.group.order <= 24
        res = coh.flasque_resolution(x)      # postconditions asserted inside
        ok, wit = coh.is_flasque(res.q_lattice)
        assert ok, (f.name, wit)
        assert res.p_lattice.rank == res.q_lattice.rank + x.rank
    # normone_5: the resolution is 0 -> Z -> Z[C2] -> Z^- -> 0 up to an
    # equivariant basis change: check by character and h1 profile
    res = coh.flasque_resolution(fixture("normone_5").lattice)
    assert res.p_spec == (0,) and res.p_lattice.rank == 2
    assert lat.lattice_character(res.p_lattice) == (2, 0)          # Z[C2]
    assert lat.lattice_character(res.q_lattice) == (1, 1)          # trivial Z
    for cls in subgroup_classes(res.q_lattice.group):
        assert coh.h1(cls, res.q_lattice).is_trivial
    _ok(7, "flasque resolutions exact with flasque kernels; normone_5 shape pinned")


@criterion_guard(8, "meta-cyclic classifier")
def test_criterion_8_metacyclic_classifier():
    s3 = group_from_generators([[1, 2, 0], [1, 0, 2]])
    d5 = group_from_generators([[1, 2, 3, 4, 0], [0, 4, 3, 2, 1]])
    v4 = group_from_generators([[1, 0, 3, 2], [2, 3, 0, 1]])
    a4 = group_from_generators([[1, 2, 0, 3], [1, 0, 3, 2]])
    q8 = group_from_generators(quaternion_generators())
    assert is_metacyclic(s3) is True
    assert is_metacyclic(cyclic_group(6)) is True
    assert is_metacyclic(d5) is True
    assert is_metacyclic(v4) is False
    assert is_metacyclic(a4) is False
    assert is_metacyclic(q8) is False
    _ok(8, "meta-cyclic: S3 C6 D5 true; C2xC2 A4 Q8 false")


@criterion_guard(9, "artin/ono identities")
def test_criterion_9_artin_ono_identities():
    for f in all_fixtures():
        g = f.lattice.group
        cols = permutation_character_table(g)
        m, p_spec, q_spec, _ = ono_decomposition(f.lattice)
        chi = lat.lattice_character(f.lattice)
        for i in range(len(chi)):
            lhs = m * chi[i] + sum(mult * cols[j][i] for j, mult in p_spec.items())
            rhs = sum(mult * cols[j][i] for j, mult in q_spec.items())
            assert lhs == rhs, f.name
        if f.realization is not None and f.realization.totally_real:
            root, _, warn = ono_l_value(f.lattice, f.realization)
            assert not warn
            assert root == abs(artin_L_minus_one(f.lattice, f.realization)), f.name
    _ok(9, "m*chi_X + chi_P = chi_Q exact; ono m-th-root matches direct |L| on catalog")


@criterion_guard(10, "real place tables")
def test_criterion_10_real_place_tables():
    c2 = fixture("res_sqrt5").group
    z = lat.trivial_lattice(c2)
    zm = lat.sign_lattice(c2)
    zreg = lat.permutation_lattice(c2, (c2.identity,))
    a, b, c, tor = coh.real_decomposition(z, 1)
    assert (a, b, c) == (1, 0, 0) and tor.invariant_factors == (2,)
    a, b, c, tor = coh.real_decomposition(zm, 1)
    assert (a, b, c) == (0, 1, 0) and tor.is_trivial
    a, b, c, tor = coh.real_decomposition(zreg, 1)
    assert (a, b, c) == (0, 0, 1) and tor.is_trivial
    _ok(10, "real tables: Z -> (1,0,0) tor Z/2; Z^- -> (0,1,0) tor 0; Z[C2] -> (0,0,1) tor 0")


@criterion_guard(11, "candidate-prime completeness")
def test_criterion_11_candidate_prime_completeness():
    count = 0
    for f in all_fixtures():
        if f.realization is None:
            continue
        w_group_order(f.lattice, f.realization, debug=True)   # asserts internally
        count += 1
    assert count == 5
    _ok(11, f"debug mode: 3 primes beyond the candidate set trivial on {count} fixtures")
