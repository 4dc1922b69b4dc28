import pytest
from fractions import Fraction

from torusbt import cyclotomic as cyc
from torusbt.cyclotomic import CyclotomicNumber, cyclotomic_polynomial, phi_degree
from torusbt.errors import InvariantViolation, NotRational
from torusbt.units import euler_phi, units_mod


@pytest.mark.parametrize("n", range(1, 31))
def test_phi_degree_is_euler_phi(n):
    assert phi_degree(n) == euler_phi(n)


def test_low_cyclotomics():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 15])
def test_zeta_to_the_n_is_one(n):
    z = CyclotomicNumber.zeta_power(n, 1)
    assert (z ** n).to_rational() == 1
    if n > 1:
        assert not (z ** 1).is_rational() or n <= 2


def test_trace_of_rational_is_degree_times_value():
    for n in (1, 4, 5, 12):
        x = CyclotomicNumber.rational(Fraction(7, 3), n)
        trace = CyclotomicNumber.rational(0, n)
        for k in units_mod(n):
            trace = trace + x.conjugate(k)
        assert trace.to_rational() == phi_degree(n) * Fraction(7, 3)


def test_product_of_all_conjugates_is_rational():
    # Norm of 1 + zeta_5 down to Q.
    z = CyclotomicNumber.zeta_power(5, 1)
    x = z + 1
    prod = CyclotomicNumber.rational(1, 5)
    for k in units_mod(5):
        prod = prod * x.conjugate(k)
    assert prod.is_rational()
    assert prod.to_rational() == 1      # Phi_5(-1) = 1


def test_rationality_certificate_is_exact():
    z = CyclotomicNumber.zeta_power(4, 1)      # i
    assert not z.is_rational()
    with pytest.raises(NotRational):
        z.to_rational()
    assert (z * z).to_rational() == -1


def test_arithmetic_relations():
    z = CyclotomicNumber.zeta_power(8, 1)
    assert (z ** 4).to_rational() == -1
    assert ((z + z.conjugate(7)) ** 2).to_rational() == 2     # (2 cos pi/4)^2
    assert (z - z) .is_zero()
    assert (z * Fraction(3, 2) / Fraction(3, 2)) == z


def test_sum_of_all_roots_is_mobius():
    # sum of primitive n-th roots = mu(n); check a couple of cases
    for n, mu in ((5, -1), (6, 1), (8, 0), (12, 0)):
        total = CyclotomicNumber.rational(0, n)
        for k in units_mod(n):
            total = total + CyclotomicNumber.zeta_power(n, k)
        assert total.to_rational() == mu


def test_mixed_order_arithmetic_is_rejected():
    a = CyclotomicNumber.zeta_power(3, 1)
    b = CyclotomicNumber.zeta_power(4, 1)
    with pytest.raises(Exception):
        _ = a + b


def test_phi_remainder_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(cyc, "_PHI_CACHE", {})
    monkeypatch.setattr(cyc, "_poly_divmod_int", lambda num, den: ((1,), (1,)))
    with pytest.raises(InvariantViolation, match="remainder"):
        cyclotomic_polynomial(1)
