import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import oracle_bernoulli_numbers
from torusbt import lattices as lat
from torusbt.cyclotomic import cyclotomic_polynomial
from torusbt.dirichlet import (DirichletCharacter, L_minus_one, artin_L_minus_one,
                               bernoulli2_chi, characters_mod, conductor_primitive,
                               zeta_minus_one)
from torusbt.errors import NotTotallyReal, ShapeMismatch
from torusbt.groups import subgroup_classes
from torusbt.realization import realization_from_images
from torusbt.units import euler_phi, unit_group


def test_character_with_wrong_exponent_count_is_typed_error():
    # (Z/5)* is cyclic: one canonical generator, so one exponent.
    with pytest.raises(ShapeMismatch, match="one exponent per canonical generator"):
        DirichletCharacter(5, (1, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: characters_mod(0), "modulus must be positive"),
    (lambda: DirichletCharacter(0, ()), "modulus must be positive"),
    (lambda: unit_group(-3), "modulus must be positive"),
    (lambda: cyclotomic_polynomial(0), "order must be >= 1"),
    (lambda: DirichletCharacter(5, (1.5,)), "exponents must be integers"),
], ids=["characters_mod(0)", "DirichletCharacter(0)", "unit_group(-3)",
        "cyclotomic_polynomial(0)", "float exponent"])
def test_bad_api_arguments_are_typed_errors(call, message):
    """Each was a raw ValueError or TypeError."""
    with pytest.raises(ShapeMismatch, match=message):
        call()
    assert unit_group.cache_info().maxsize is None      # still the lru_cache


def test_characters_mod_1():
    chars = characters_mod(1)
    assert len(chars) == 1 and chars[0].order == 1


def test_characters_mod_5_orders():
    assert [c.order for c in characters_mod(5)] == [1, 4, 2, 4]


def test_characters_mod_8_orders():
    chars = characters_mod(8)
    assert len(chars) == 4
    assert all(c.order <= 2 for c in chars)


@pytest.mark.parametrize("f", [1, 3, 4, 5, 8, 12, 15, 40])
def test_character_count_and_multiplicativity(f):
    chars = characters_mod(f)
    assert len(chars) == euler_phi(f)
    for chi in chars[:6]:
        for a in (2, 3, 7):
            for b in (3, 11):
                ea, eb = chi.value_exponent(a), chi.value_exponent(b)
                eab = chi.value_exponent(a * b)
                if ea is None or eb is None:
                    assert eab is None
                else:
                    assert eab == (ea + eb) % max(chi.order, 1)


def test_conductor_trivial_mod_12():
    triv = characters_mod(12)[0]
    cond, prim = conductor_primitive(triv)
    assert cond == 1 and prim.modulus == 1


def test_conductor_primitive_quadratic_mod_5():
    quad = [c for c in characters_mod(5) if c.order == 2][0]
    cond, prim = conductor_primitive(quad)
    assert cond == 5 and prim.exponents == quad.exponents


def test_conductor_of_induced_character_mod_15():
    # the quadratic character mod 15 induced from mod 5
    quads = [c for c in characters_mod(15) if c.order == 2]
    conds = sorted(conductor_primitive(c)[0] for c in quads)
    assert conds == [3, 5, 15]
    five = [c for c in quads if conductor_primitive(c)[0] == 5][0]
    cond, prim = conductor_primitive(five)
    assert prim.modulus == 5 and prim.order == 2
    # same values on units congruent mod 5
    for a in (1, 2, 4, 7, 8):
        if five.value_exponent(a) is not None:
            assert five.value_exponent(a) == prim.value_exponent(a % 5)


def test_bernoulli2_trivial_from_recurrence_oracle():
    b = oracle_bernoulli_numbers(2)
    assert b[2] == Fraction(1, 6)
    triv = characters_mod(1)[0]
    assert bernoulli2_chi(triv).to_rational() == b[2]


def test_bernoulli2_quadratic_5():
    quad = [c for c in characters_mod(5) if c.order == 2][0]
    assert bernoulli2_chi(quad).to_rational() == Fraction(4, 5)


def test_bernoulli2_quadratic_8():
    quad = [c for c in characters_mod(8)
            if c.order == 2 and conductor_primitive(c)[0] == 8 and c.is_even()][0]
    assert bernoulli2_chi(quad).to_rational() == Fraction(2)


def test_L_values():
    triv = characters_mod(1)[0]
    assert L_minus_one(triv).to_rational() == Fraction(-1, 12)
    quad5 = [c for c in characters_mod(5) if c.order == 2][0]
    assert L_minus_one(quad5).to_rational() == Fraction(-2, 5)
    quad8 = [c for c in characters_mod(8)
             if c.order == 2 and conductor_primitive(c)[0] == 8 and c.is_even()][0]
    assert L_minus_one(quad8).to_rational() == Fraction(-1)


@pytest.mark.parametrize("f", range(1, 41))
def test_L_vanishes_iff_odd_nontrivial(f):
    for chi in characters_mod(f):
        cond, prim = conductor_primitive(chi)
        val = L_minus_one(prim)
        if prim.is_even():
            assert any(val.coeffs), (f, chi.exponents)
        else:
            assert not any(val.coeffs), (f, chi.exponents)


def test_zeta_values_c2_f5(c2):
    r5 = realization_from_images(c2, 5, {2: 1})
    cls = subgroup_classes(c2)
    assert zeta_minus_one(cls[1], r5) == Fraction(-1, 12)      # H = G: zeta_Q
    assert zeta_minus_one(cls[0], r5) == Fraction(1, 30)       # H = 1: Q(sqrt5)


def test_zeta_values_c2_f8(c2):
    r8 = realization_from_images(c2, 8, {7: 0, 5: 1})
    cls = subgroup_classes(c2)
    assert zeta_minus_one(cls[0], r8) == Fraction(1, 12)       # Q(sqrt2)


def test_zeta_real_quartic_field():
    # Gal(Q(zeta_16)^+/Q) = C4: exercises honest quartic characters,
    # whose conjugate pair must multiply out to an exact rational
    from torusbt.groups import cyclic_group
    c4 = cyclic_group(4)
    r16 = realization_from_images(c4, 16, {15: 0, 3: 1})
    assert r16.totally_real
    cls = subgroup_classes(c4)
    z = zeta_minus_one(cls[0], r16)
    assert z != 0
    assert zeta_minus_one(cls[-1], r16) == Fraction(-1, 12)
    # Shapiro route through the regular lattice gives the same value
    reg = lat.permutation_lattice(c4, (c4.identity,))
    assert artin_L_minus_one(reg, r16) == z


def test_artin_L_examples(c2):
    r5 = realization_from_images(c2, 5, {2: 1})
    assert artin_L_minus_one(lat.trivial_lattice(c2), r5) == Fraction(-1, 12)
    assert artin_L_minus_one(lat.permutation_lattice(c2, (0,)), r5) == Fraction(1, 30)
    assert artin_L_minus_one(lat.sign_lattice(c2), r5) == Fraction(-2, 5)


def test_artin_L_multiplicative(c2):
    r5 = realization_from_images(c2, 5, {2: 1})
    x, y = lat.sign_lattice(c2), lat.permutation_lattice(c2, (0,))
    assert artin_L_minus_one(lat.direct_sum(x, y), r5) == \
        artin_L_minus_one(x, r5) * artin_L_minus_one(y, r5)


def test_artin_L_shapiro(c2, v4):
    r5 = realization_from_images(c2, 5, {2: 1})
    for cls in subgroup_classes(c2):
        assert artin_L_minus_one(lat.permutation_lattice(c2, cls), r5) == \
            zeta_minus_one(cls, r5)
    r40 = realization_from_images(v4, 40, {31: 0, 21: 1, 17: 2})
    for cls in subgroup_classes(v4):
        assert artin_L_minus_one(lat.permutation_lattice(v4, cls), r40) == \
            zeta_minus_one(cls, r40)


def test_artin_L_requires_totally_real(c2):
    from torusbt.groups import cyclic_group
    c4 = cyclic_group(4)
    # f = 5, generator 2 -> generator of C4: pi(-1) = pi(4) = g^2 != e
    r = realization_from_images(c4, 5, {2: 1})
    assert not r.totally_real
    with pytest.raises(NotTotallyReal):
        artin_L_minus_one(lat.trivial_lattice(c4), r)


def test_character_table_multiplicities_sum_to_rank(c2):
    from torusbt.dirichlet import artin_L_minus_one as L
    r5 = realization_from_images(c2, 5, {2: 1})
    x = lat.direct_sum(lat.permutation_lattice(c2, (0,)), lat.sign_lattice(c2))
    lv, table = L(x, r5, with_table=True)
    assert sum(row["multiplicity"] for row in table) == x.rank
    assert lv == Fraction(1, 30) * Fraction(-2, 5)


def test_unit_group_canonical_generators():
    u40 = unit_group(40)
    assert u40.generators == (31, 21, 17)
    assert u40.orders == (2, 2, 4)
    u8 = unit_group(8)
    assert u8.generators == (7, 5)


def test_c48_regular_predict_is_fast():
    """btc_predict on the regular lattice of Q(zeta_97)^+ (G = C48), in a
    fresh process so that no memo is warm."""
    code = """
import time
from torusbt import lattices
from torusbt.engine import btc_predict
from torusbt.groups import cyclic_group
from torusbt.realization import realization_from_images
from torusbt.units import primitive_root_mod_prime
g = cyclic_group(48)
r = realization_from_images(g, 97, {primitive_root_mod_prime(97): 1})
x = lattices.permutation_lattice(g, (g.identity,))
start = time.perf_counter()
btc_predict(x, r)
print(time.perf_counter() - start)
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert float(proc.stdout.split()[-1]) < 0.3
