"""Independent oracles for the table-driven Dirichlet path.

Real quadratic zeta values against the Cohen-Zagier class-number sum,
discrete logs against their defining products, and B_{2,chi} against
the per-residue Fraction formula with character values enumerated from
the generators. Orbit products and character multiplicities against
copies of the Fraction-vector arithmetic they replaced, and Ramanujan
sums against reduced orbit sums. These also run under ``python -O``
(tests/test_optimized_mode.py), so every check here must be a pytest
assertion or a typed exception, never a bare library ``assert``.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, prod

import pytest

from test_realization import RUNG_PRIMES, _rung
from torusbt import intmat
from torusbt import lattices as lat
from torusbt.catalog import all_fixtures
from torusbt.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, reduce_mod_phi
from torusbt.dirichlet import (L_minus_one, _orbit_L_product, _ramanujan_sum,
                               bernoulli2_chi, character_multiplicities, characters_mod,
                               characters_trivial_on, conductor_primitive, galois_orbits,
                               zeta_minus_one)
from torusbt.errors import InvariantViolation
from torusbt.realization import realization_from_images
from torusbt.units import UnitGroupStructure, euler_phi, unit_group, units_mod


# ---------------------------------------------------------------- oracles

def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


def fundamental_discriminants(bound: int) -> list[int]:
    out = []
    for d in range(2, bound):
        if d % 4 == 1 and squarefree(d):
            out.append(d)
        elif d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree(d // 4):
            out.append(d)
    return out


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for n > 0."""
    out = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            out = -out
    a = d % n
    while a:                                # Jacobi symbol (a/n), n odd
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def sigma1(n: int) -> int:
    return sum(k for k in range(1, n + 1) if n % k == 0)


def cohen_zagier_zeta(d: int) -> Fraction:
    """zeta_K(-1) of Q(sqrt d): (1/60) sum over b^2 < d, b = d mod 2 of sigma_1((d - b^2)/4)."""
    r = isqrt(d)
    return Fraction(sum(sigma1((d - b * b) // 4) for b in range(-r, r + 1)
                        if b * b < d and (d - b) % 2 == 0), 60)


def brute_exponents(chi) -> dict[int, int]:
    """Residue -> e with chi(a) = zeta_order^e, from the products of the generators.

    chi(prod g_i^x_i) = exp(2 pi i sum_i x_i k_i / n_i), and the turn
    sum_i x_i k_i / n_i is taken over the exponent E of the unit group.
    """
    u = unit_group(chi.modulus)
    big = lcm(*u.orders)
    out = {}
    for xs in product(*(range(n) for n in u.orders)):
        a = prod(pow(g, x, chi.modulus) for g, x in zip(u.generators, xs)) % chi.modulus
        turn = sum(x * k * (big // n) for x, k, n in zip(xs, chi.exponents, u.orders)) % big
        assert turn * chi.order % big == 0
        out[a] = turn * chi.order // big
    return out


def equal_in_cyclotomic_field(value: CyclotomicNumber, sums: dict[int, Fraction]) -> bool:
    """value == sum_e sums[e] zeta^e, by exact integer division by Phi_order."""
    diff = [Fraction(0)] * max(value.order, len(value.coeffs))
    for e, c in sums.items():
        diff[e] += c
    for i, c in enumerate(value.coeffs):
        diff[i] -= c
    den = lcm(*(c.denominator for c in diff))
    poly = [int(c * den) for c in diff]
    phi = cyclotomic_polynomial(value.order)        # monic
    deg = len(phi) - 1
    for i in range(len(poly) - 1, deg - 1, -1):
        c = poly[i]
        if c:
            for j, y in enumerate(phi):
                poly[i - deg + j] -= c * y
    return not any(poly)


# ---------------------------------------------------------------- tests

def test_cohen_zagier_anchors():
    assert cohen_zagier_zeta(5) == Fraction(1, 30)
    assert cohen_zagier_zeta(8) == Fraction(1, 12)


def test_zeta_matches_cohen_zagier(c2):
    discs = fundamental_discriminants(1000)
    assert len(discs) == 302
    for d in discs:
        images = {g: 0 if kronecker(d, g) == 1 else 1 for g in unit_group(d).generators}
        r = realization_from_images(c2, d, images)
        assert zeta_minus_one((c2.identity,), r) == cohen_zagier_zeta(d), d


def test_dlog_round_trip():
    for n in list(range(1, 201)) + [2 ** e for e in range(8, 14)]:
        u = unit_group(n)
        logs = u.log_table()
        seen = set()
        for a in range(n):
            if gcd(a, n) != 1:
                assert a not in logs, (n, a)
                continue
            xs = logs[a]
            assert all(0 <= x < order for x, order in zip(xs, u.orders)), (n, a)
            assert prod(pow(g, x, n) for g, x in zip(u.generators, xs)) % n == a % n, (n, a)
            seen.add(xs)
        assert len(seen) == euler_phi(n), n


def test_bernoulli_matches_per_residue_formula():
    """B_{2,chi} = f * sum_{a=1}^{f} chi(a) B_2(a/f), one Fraction per residue."""
    checked = 0
    for f in range(1, 61):
        b2 = {a % f: f * (Fraction(a, f) ** 2 - Fraction(a, f) + Fraction(1, 6))
              for a in range(1, f + 1)}
        for chi in characters_mod(f):
            if conductor_primitive(chi)[0] != f:
                continue
            sums: dict[int, Fraction] = {}
            for a, e in brute_exponents(chi).items():
                sums[e] = sums.get(e, Fraction(0)) + b2[a]
            assert equal_in_cyclotomic_field(bernoulli2_chi(chi), sums), (f, chi.exponents)
            checked += 1
    assert checked == 662            # sum over f <= 60 of sum_{d | f} mu(f/d) phi(d)


def test_characters_trivial_on_matches_filter():
    """Against the direct filter of characters_mod, on subgroups spanned by
    one or two units."""
    for f in range(1, 41):
        units = [a for a in range(1, f + 1) if gcd(a, f) == 1]
        chars = characters_mod(f)
        for gens in [(a,) for a in units] + [(a, b) for a in units[:3] for b in units[-3:]]:
            sub = {1 % f}
            for g in gens:
                sub = {x * pow(g, i, f) % f for x in sub for i in range(len(units))}
            expected = [chi.exponents for chi in chars
                        if all(chi.value_exponent(u) == 0 for u in sub)]
            got = [chi.exponents for chi in characters_trivial_on(f, sub)]
            assert got == expected, (f, gens)


def test_huge_auxiliary_modulus_builds_no_log_table():
    u = unit_group(97 * 2 ** 40)
    assert u.generators and prod(u.orders) == euler_phi(97 * 2 ** 40)
    assert u._logs is None


def test_unit_group_invariants_are_typed_errors():
    with pytest.raises(InvariantViolation):
        UnitGroupStructure(5, (2,), (2,))           # orders miss phi(5) = 4
    with pytest.raises(InvariantViolation):
        UnitGroupStructure(8, (3, 3), (2, 2)).log_table()   # 3 does not split (Z/8)*


# ------------------------- the Fraction arithmetic the integer path replaced

def fraction_reduce(order: int, exp_coeffs: dict[int, Fraction]) -> list[Fraction]:
    """exponent -> Fraction coefficient, reduced mod Phi_order through every
    coefficient of Phi_order, zeros included."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    vec = [Fraction(0)] * max(max(exp_coeffs, default=0) + 1, deg)
    for e, c in exp_coeffs.items():
        vec[e] += c
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            for j, y in enumerate(phi[:-1]):
                vec[i - deg + j] -= c * y
    return vec[:deg]


def fraction_orbit_product(orbit) -> Fraction:
    """Product of L(chi*, -1) over the orbit, multiplied in Fraction vectors."""
    m = orbit[0].order
    out = fraction_reduce(m, {0: Fraction(1)})
    for chi in orbit:
        val = L_minus_one(conductor_primitive(chi)[1]).coeffs
        prod_coeffs: dict[int, Fraction] = {}
        for i, x in enumerate(out):
            for j, y in enumerate(val):
                prod_coeffs[i + j] = prod_coeffs.get(i + j, Fraction(0)) + x * y
        out = fraction_reduce(m, prod_coeffs)
    if any(out[1:]):
        raise AssertionError(f"orbit product not rational: {out}")
    return out[0]


def per_character_multiplicities(x, r) -> dict:
    """m_chi = (1/|G|) sum_g conj(chi)(g) tr rho(g), one character at a time."""
    g = x.group
    f = r.modulus
    reps: dict[int, int] = {}
    for u in units_mod(f):
        reps.setdefault(r.pi(u), u)
    kernel = {u for u in units_mod(f) if r.pi(u) == g.identity}
    out = {}
    for chi in characters_trivial_on(f, kernel):
        m = chi.order
        sums: dict[int, Fraction] = {}
        for a in range(g.order):
            e = (-chi.value_exponent(reps[a])) % m
            trace = sum(x.action[a].data[i][i] for i in range(x.rank))
            sums[e] = sums.get(e, Fraction(0)) + Fraction(trace, g.order)
        total = fraction_reduce(m, sums)
        if any(total[1:]) or total[0].denominator != 1 or total[0] < 0:
            raise AssertionError(f"multiplicity of {chi} is {total}")
        out[chi] = int(total[0])
    return out


def test_orbit_products_match_fraction_arithmetic():
    checked = 0
    for f in range(1, 61):
        for orbit in galois_orbits(characters_mod(f)):
            assert _orbit_L_product(orbit) == fraction_orbit_product(orbit), \
                (f, orbit[0].exponents)
            checked += len(orbit)
    assert checked == sum(euler_phi(f) for f in range(1, 61))


def test_ramanujan_sum_is_the_orbit_sum_of_a_root_of_unity():
    for m in range(1, 61):
        for e in range(m):
            vec = [0] * m
            for k in units_mod(m):
                vec[k * e % m] += 1
            reduced = reduce_mod_phi(m, vec)
            assert not any(reduced[1:]), (m, e)
            assert _ramanujan_sum(m, e) == reduced[0], (m, e)


def test_multiplicities_match_per_character_sums():
    """On the abelian fixtures and the regular, norm-one, dual norm-one and
    sum-d lattices of the rungs Res Q(zeta_p)^+ up to C30."""
    cases = [(fx.lattice, fx.realization) for fx in all_fixtures()
             if fx.realization is not None]
    for p in RUNG_PRIMES:
        if p > 61:
            break
        g, r = _rung(p)
        n = g.order
        norm_one = lat.norm_one_lattice(g)
        cases += [(lat.permutation_lattice(g, (g.identity,)), r), (norm_one, r),
                  (lat.dual(norm_one), r)]
        for d in range(1, n):
            if n % d == 0:
                summand = lat.permutation_lattice(g, tuple(range(0, n, d)))
                cases.append((lat.GLattice(g, n, tuple(
                    intmat.block_diag([mat] * (n // d)) for mat in summand.action)), r))
    for x, r in cases:
        expected = per_character_multiplicities(x, r)
        got = character_multiplicities(x, r)
        assert [orbit for orbit, _ in got] == galois_orbits(list(expected))
        for orbit, mult in got:
            for chi in orbit:
                assert expected[chi] == mult, (r.modulus, x.rank, str(chi))
