
import os
import time
import tracemalloc
from math import gcd, prod

import pytest

from conftest import det, hstack, left_cosets, oracle_w2, snf_diagonal, vstack
from torusbt import intmat
from torusbt import lattices as lat
from torusbt import realization as realz
from torusbt.catalog import fixture
from torusbt.cohomology import (InvertibilityCertificate, check_motivic_interpretation,
                                 flasque_resolution, h1, is_flasque, real_decomposition,
                                 search_invertibility_certificate, tate_h0, verify_invertibility)
from torusbt.cyclotomic import cyclotomic_polynomial
from torusbt.dirichlet import (DirichletCharacter, L_minus_one, artin_L_minus_one,
                               bernoulli2_chi, character_multiplicities, characters_mod,
                               conductor_primitive, zeta_minus_one)
from torusbt.errors import (BadReduction, GroupMismatch, GroupTooLarge, InvariantViolation,
                            ManifestError, NotHomomorphism, NotSubgroup, NotSurjective,
                            NotTotallyReal, ShapeMismatch, UnknownFixture)
from torusbt.engine import (PRIME_CAP_BOUND, btc_predict, isogeny_invariance_check, lattice_id,
                            local_table, ono_l_value, shapiro_suite, weil_restriction_check)
from torusbt.exact import FinAbGroup, integer_nth_root, odd_part, rational_nth_root
from torusbt.groups import (conjugacy_classes, cyclic_group, group_from_table, is_metacyclic,
                            subgroup_classes)
from torusbt.induction import artin_induction, ono_decomposition
from torusbt.manifest import load_manifest, parse_manifest, run_manifest
from torusbt.realization import (WGroupResult, global_coinvariants_order, is_prime,
                                 local_point_count, realization_from_images,
                                 w2_of_subfield, w_group_order)
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
    assert realization_from_images(c2, 5, dict(r5.images)) == r5 and r5.totally_real
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


@pytest.mark.parametrize("h", [(0, 5), (5,), (0, 1, 2), None], ids=str)
def test_raw_non_subgroup_tuples_are_typed_errors(r5, h):
    """Over C2, 5 and 2 are out of range: before, zeta_minus_one((0, 5), r5)
    returned 1/30 and w2_of_subfield((0, 5), r5) returned 120. None was a
    raw TypeError."""
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


def test_stabilization_bound_error(c2, r5, monkeypatch):
    """The coinvariants side of the bound: (Z_2(1))_{G_Q} = Z/2 is read at
    2^(v_2(w_2) + 1), so an odd w_2 makes its valuation 1 a bug."""
    x = lat.trivial_lattice(c2)
    assert global_coinvariants_order(x, r5) == 2
    monkeypatch.setattr(realz, "_w2_of_splitting_field", lambda r: 15)
    with pytest.raises(InvariantViolation, match="p = 2: .* reaches the w_2 bound 1"):
        global_coinvariants_order(x, r5)


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


def test_lattice_and_realization_over_different_groups(v4, r40):
    """A C4 lattice under the V4 realization of conductor 40: each entry
    point read the C4 table with V4's element numbers (btc_predict gave
    112/5). The manifest refuses the pair too."""
    x = lat.permutation_lattice(cyclic_group(4), (0,))
    for call in (lambda: btc_predict(x, r40), lambda: w_group_order(x, r40),
                 lambda: global_coinvariants_order(x, r40),
                 lambda: local_point_count(x, r40, 3), lambda: artin_L_minus_one(x, r40)):
        with pytest.raises(GroupMismatch, match="lattice over C4, realization over V4"):
            call()


@pytest.mark.parametrize("call", [
    lambda g, r: lat.from_generator_matrices(g, 1, [[[1]], [[1]]]),
    lambda g, r: lat.from_generator_matrices(g, 1, {"a": intmat.identity(1)}),
    lambda g, r: lat.from_generator_matrices(g, "1", [intmat.identity(1)] * 2),
    lambda g, r: realization_from_images(g, 5, {"2": 1}),
    lambda g, r: realization_from_images(g, "5", {2: 1}),
    lambda g, r: realization_from_images(g, 5, {2: True}),
    lambda g, r: realization_from_images(g, 5, [(2, 1)]),
    lambda g, r: real_decomposition(lat.trivial_lattice(g), "a"),
    lambda g, r: local_table(lat.trivial_lattice(r.group), r, prime_cap="x"),
    lambda g, r: w_group_order(lat.trivial_lattice(g), None),
    lambda g, r: w_group_order("x", r),
    lambda g, r: artin_L_minus_one(lat.trivial_lattice(g), None),
    lambda g, r: artin_L_minus_one("x", r),
    lambda g, r: local_point_count(lat.trivial_lattice(g), r, "3"),
    lambda g, r: local_point_count(lat.trivial_lattice(g), r, 3.0),
    lambda g, r: unit_group("5"),
    lambda g, r: characters_mod("5"),
    lambda g, r: cyclotomic_polynomial(2.0),
    lambda g, r: cyclotomic_polynomial("a"),
    lambda g, r: zeta_minus_one((0,), None),
    lambda g, r: character_multiplicities("x", r),
    lambda g, r: realz.w2_of_subfield((0,), None),
    lambda g, r: weil_restriction_check((0,), None),
    lambda g, r: local_table(lat.trivial_lattice(g), None),
    lambda g, r: DirichletCharacter(5, (True,)),
    lambda g, r: btc_predict("x", None),
    lambda g, r: flasque_resolution("x"),
    lambda g, r: check_motivic_interpretation("x"),
    lambda g, r: real_decomposition("x", 0),
    lambda g, r: isogeny_invariance_check(lat.trivial_lattice(g), "y", r),
    lambda g, r: shapiro_suite(None),
    lambda g, r: ono_l_value(lat.trivial_lattice(g), None),
    lambda g, r: local_table(lat.trivial_lattice(g), r, -5),
    lambda g, r: intmat.from_rows(None),
    lambda g, r: intmat.kernel_basis("x"),
    lambda g, r: intmat.identity("2"),
    lambda g, r: rational_nth_root("x", 2),
    lambda g, r: odd_part(None),
    lambda g, r: integer_nth_root(4, "2"),
    lambda g, r: h1((0,), "x"),
    lambda g, r: lat.dual("x"),
    lambda g, r: lat.permutation_lattice(None, (0,)),
    lambda g, r: ono_decomposition("x"),
    lambda g, r: lattice_id("x"),
], ids=["matrix-lists", "str-element", "str-rank", "str-unit", "str-modulus",
        "bool-image", "image-pairs", "str-conj", "str-prime-cap",
        "wgroup-none-realization", "wgroup-str-lattice", "lvalue-none-realization",
        "lvalue-str-lattice", "str-ell", "float-ell", "str-unit-group-modulus",
        "str-character-modulus", "float-cyclotomic-order", "str-cyclotomic-order",
        "zeta-none-realization", "multiplicities-str-lattice", "w2-none-realization",
        "weil-none-realization", "local-table-none-realization", "bool-exponent",
        "predict-str-lattice", "flasque-str-lattice", "motivic-str-lattice",
        "real-decomposition-str-lattice", "isogeny-str-lattice", "shapiro-none-realization",
        "ono-none-realization", "negative-prime-cap", "from-rows-none", "kernel-str-matrix",
        "str-identity-size", "str-root-radicand", "none-odd-part", "str-root-degree",
        "h1-str-lattice", "dual-str-lattice", "permutation-none-group",
        "ono-decomposition-str-lattice", "lattice-id-str-lattice"])
def test_badly_typed_api_arguments_are_shape_mismatch(v4, r40, call):
    """Each was a raw AttributeError, TypeError or ValueError, or (True as an image or
    exponent) accepted and written to JSON as true, or (a negative prime
    cap, which the manifest refuses) an empty table. unit_group and
    cyclotomic_polynomial are cached, so 2.0 or "5" must not reach a
    cached 2 or 5."""
    unit_group(5)
    cyclotomic_polynomial(2)
    with pytest.raises(ShapeMismatch):
        call(v4, r40)


_EMPTY_CERT = InvertibilityCertificate(None, intmat.zeros(0, 0), ())


@pytest.mark.parametrize("call, error", [
    (lambda: conjugacy_classes(None), ShapeMismatch),
    (lambda: subgroup_classes(None), ShapeMismatch),
    (lambda: is_metacyclic(None), ShapeMismatch),
    (lambda: artin_induction(None, (1,)), ShapeMismatch),
    (lambda: lat.traces(None), ShapeMismatch),
    (lambda: lat.lattice_character(None), ShapeMismatch),
    (lambda: tate_h0((0,), None), ShapeMismatch),
    (lambda: is_flasque(None), ShapeMismatch),
    (lambda: search_invertibility_certificate(None), ShapeMismatch),
    (lambda: verify_invertibility(None, _EMPTY_CERT), ShapeMismatch),
    (lambda: lat.validate(None), ShapeMismatch),
    (lambda: lat.trivial_lattice(None), ShapeMismatch),
    (lambda: lat.sign_lattice(None), ShapeMismatch),
    (lambda: lat.norm_one_lattice(None), ShapeMismatch),
    (lambda: lat.from_generator_matrices(None, None, ()), ShapeMismatch),
    (lambda: L_minus_one(None), ShapeMismatch),
    (lambda: L_minus_one([]), ShapeMismatch),
    (lambda: bernoulli2_chi(None), ShapeMismatch),
    (lambda: bernoulli2_chi([]), ShapeMismatch),
    (lambda: conductor_primitive(None), ShapeMismatch),
    (lambda: conductor_primitive([]), ShapeMismatch),
    (lambda: characters_mod([]), ShapeMismatch),
    (lambda: unit_group([]), ShapeMismatch),
    (lambda: fixture([]), UnknownFixture),
    (lambda: run_manifest(None), ManifestError),
    (lambda: load_manifest(2), ManifestError),
], ids=["conjugacy-classes-none", "subgroup-classes-none", "metacyclic-none",
        "artin-induction-none", "traces-none", "lattice-character-none", "tate-h0-none",
        "flasque-none", "certificate-search-none", "verify-invertibility-none",
        "validate-none", "trivial-lattice-none", "sign-lattice-none", "norm-one-none",
        "generator-matrices-none", "l-minus-one-none", "l-minus-one-list",
        "bernoulli-none", "bernoulli-list", "conductor-none", "conductor-list",
        "characters-mod-list", "unit-group-list", "fixture-list", "run-manifest-none",
        "load-manifest-fd"])
def test_none_and_list_arguments_are_typed_errors(call, error):
    """Each was a raw AttributeError, TypeError or OSError; load_manifest(2)
    also closed the caller's stderr. unit_group is still the lru_cache's."""
    with pytest.raises(error):
        call()
    os.fstat(2)
    assert unit_group.cache_info().maxsize is None


@pytest.mark.parametrize("call, error", [
    (lambda g: lat.direct_sum(lat.trivial_lattice(g), None), ShapeMismatch),
    (lambda g: verify_invertibility(lat.trivial_lattice(g), None), ShapeMismatch),
    (lambda g: lat.sign_lattice(g, 0), ShapeMismatch),
    (lambda g: DirichletCharacter(5, None), ShapeMismatch),
    (lambda g: FinAbGroup(None), ShapeMismatch),
    (lambda g: FinAbGroup((2,), "x"), ShapeMismatch),
    (lambda g: intmat.IntMatrix(1, 1, None), ShapeMismatch),
    (lambda g: intmat.IntMatrix((0,), 0, ()), ShapeMismatch),
    (lambda g: intmat.from_rows([[1]], "x"), ShapeMismatch),
    (lambda g: run_manifest(parse_manifest("[fixture]\nname = gm_q\n"), cache_dir=1.5),
     ManifestError),
], ids=["direct-sum-none", "verify-invertibility-none", "sign-lattice-int-signs",
        "character-none-exponents", "fin-ab-none", "fin-ab-str-free-rank",
        "int-matrix-none-data", "int-matrix-tuple-rows", "from-rows-str-cols",
        "run-manifest-float-cache-dir"])
def test_public_calls_raise_typed_errors_not_raw_python_ones(c2, call, error):
    """Each raised a raw AttributeError or TypeError; run_manifest's came
    from os.makedirs, and is a ManifestError on options.cache_dir."""
    with pytest.raises(error) as err:
        call(c2)
    if error is ManifestError:
        assert err.value.field == "options.cache_dir"


@pytest.mark.parametrize("call, error", [
    (lambda x, r: characters_mod(2 ** 70), GroupTooLarge),
    (lambda x, r: characters_mod(10 ** 30), GroupTooLarge),
    (lambda x, r: cyclotomic_polynomial(2 ** 70), GroupTooLarge),
    (lambda x, r: local_table(x, r, 10 ** 7), ShapeMismatch),
    (lambda x, r: parse_manifest("[fixture]\nname = res_sqrt5\n[options]\n"
                                 "prime_cap = 10000000\n"), ManifestError),
    (lambda x, r: rational_nth_root(8, 2 ** 40), None),
    (lambda x, r: integer_nth_root(3 ** 100, 2 ** 40), None),
], ids=["characters-mod-2^70", "characters-mod-10^30", "cyclotomic-2^70",
        "local-table-10^7", "manifest-prime-cap-10^7", "rational-root-2^40",
        "integer-root-2^40"])
def test_huge_integer_arguments_end_at_once(call, error):
    """characters_mod and cyclotomic_polynomial raised a raw OverflowError
    at 2^70 (characters_mod kept growing at 10^30), and the other calls
    ran for seconds: each now ends in under a second without a large
    allocation, in a budget's typed error or (no n-th root) None."""
    f = fixture("res_sqrt5")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        if error is None:
            assert call(f.lattice, f.realization) is None
        else:
            with pytest.raises(error):
                call(f.lattice, f.realization)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 4 * 2 ** 20, (elapsed, peak)


def test_the_prime_cap_bound_is_inclusive():
    f = fixture("res_sqrt5")
    table = local_table(f.lattice, f.realization, PRIME_CAP_BOUND)
    assert [row["ell"] for row in table[:3]] == [2, 3, 7]
    assert table[-1]["ell"] == max(n for n in range(PRIME_CAP_BOUND + 1) if is_prime(n))
    base = "[fixture]\nname = res_sqrt5\n[options]\nprime_cap = "
    assert parse_manifest(f"{base}{PRIME_CAP_BOUND}\n").options["prime_cap"] == PRIME_CAP_BOUND
    with pytest.raises(ShapeMismatch, match="at most"):
        local_table(f.lattice, f.realization, PRIME_CAP_BOUND + 1)
    with pytest.raises(ManifestError, match="must be a positive integer at most") as err:
        parse_manifest(f"{base}{PRIME_CAP_BOUND + 1}\n")
    assert err.value.field == "options.prime_cap"


def test_isogeny_check_needs_a_totally_real_realization(c2):
    """Z^- (+) Z and Z[C2] under Q(sqrt -3): the check divided the two
    missing predictions (None / None), and the TypeError escaped
    run_manifest. It is NotTotallyReal, in the API and in the report."""
    r3 = realization_from_images(c2, 3, {2: 1})
    x1 = lat.direct_sum(lat.sign_lattice(c2), lat.trivial_lattice(c2))
    x2 = lat.permutation_lattice(c2, (c2.identity,))
    with pytest.raises(NotTotallyReal):
        isogeny_invariance_check(x1, x2, r3)
    man = parse_manifest("[group]\ngenerators = [[1,0]]\n[lattice]\nrank = 2\n"
                         "action.g0 = [[-1,0],[0,1]]\n[lattice2]\nrank = 2\n"
                         "action.g0 = [[0,1],[1,0]]\n[realization]\nmodulus = 3\n"
                         "images = {2: 1}\n[commands]\nrun = check-isogeny\n")
    report, _ = run_manifest(man)
    assert report["commands"]["check-isogeny"]["error"]["type"] == "NotTotallyReal"


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
    kern = intmat.kernel_basis(hstack([intmat.from_columns(vcols, k),
                                              intmat.from_columns(lam, k)]))
    gens = set()
    for jc in range(kern.cols):
        a = 1
        for gen, e, order in zip(ug_n.generators, kern.col(jc), ug_n.orders):
            a = a * pow(gen, e % order, n) % n
        gens.add(a)
    return sorted(gens - {1})


def _restricted_smith_w2(h, r, cap=30):
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
            stacked = vstack(mats) if mats else intmat.zeros(0, rank)
        else:
            stacked = hstack(mats) if mats else intmat.zeros(rank, 0)
        ds = snf_diagonal(stacked)
        ds += [0] * (rank - len(ds))
        order = 1
        for d in ds[:rank]:
            order *= gcd(d, pk) if d else pk
        if order == prev:
            return order, k - 1
        prev = order
    raise AssertionError(f"p = {p} did not stabilize within depth {cap}")


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
        for p in realz._candidate_primes(r.modulus, (2, 3)):
            args = (x, r, p, 2, "invariants")
            assert realz._stable_part(*args) == _depth_loop_part(*args), (r.modulus, p)
        for p in realz._candidate_primes(r.modulus, (2,)):
            args = (x, r, p, 1, "coinvariants")
            assert realz._stable_part(*args) == _depth_loop_part(*args), (r.modulus, p)
        one = lat.trivial_lattice(r.group)
        for h in subgroup_classes(r.group):
            loop = prod(_depth_loop_part(one, r, p, 2, "invariants", 30, r.unit_preimage(h))[0]
                        for p in realz._candidate_primes(r.modulus, (2, 3)))
            assert w2_of_subfield(h, r) == loop, (r.modulus, h.elements)


def test_stabilization_cap_boundary(r1, monkeypatch):
    """gm_q has depth 3 at p = 2 (w_2(Q) = 24), read at 2^4. A w_2 of 12
    would put the bound at 2^3, which that depth reaches: a bug, not a
    user error. Every prime is tame over Q, so w_group_order reads the
    closed form and the Smith route is called directly."""
    x = lat.trivial_lattice(r1.group)
    assert _breakdown(w_group_order(x, r1))[2] == {"part": 8, "depth": 3}
    assert realz._stable_part(x, r1, 2, 2, "invariants") == (8, 3)
    monkeypatch.setattr(realz, "_w2_of_splitting_field", lambda r: 12)
    with pytest.raises(InvariantViolation, match="reaches the w_2 bound 3"):
        realz._stable_part(x, r1, 2, 2, "invariants")


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
