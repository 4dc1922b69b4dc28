import pytest
from fractions import Fraction

from torusbt import cyclotomic as cyc
from torusbt.cyclotomic import (CyclotomicNumber, cyclotomic_polynomial, mul_mod_phi,
                                phi_degree, reduce_mod_phi)
from torusbt.errors import InvariantViolation, NotRational, ShapeMismatch
from torusbt.units import euler_phi, units_mod


def zeta(n, k=1):
    """zeta_n^k as a reduced integer vector."""
    vec = [0] * n
    vec[k % n] = 1
    return reduce_mod_phi(n, vec)


def one(n):
    return [1] + [0] * (phi_degree(n) - 1)


def conjugate(n, vec, k):
    """Image of vec under zeta_n -> zeta_n^k."""
    out = [0] * n
    for i, c in enumerate(vec):
        out[i * k % n] += c
    return reduce_mod_phi(n, out)


def power(n, a, k):
    out = one(n)
    for _ in range(k):
        out = mul_mod_phi(n, out, a)
    return out


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
    z = zeta(n)
    assert power(n, z, n) == one(n)
    assert (z == one(n)) == (n == 1)


def test_reduced_vectors_have_degree_length():
    for n in (1, 2, 6, 12, 30):
        assert len(reduce_mod_phi(n, [3] * (3 * n))) == phi_degree(n)
        assert len(reduce_mod_phi(n, [])) == phi_degree(n)


def test_trace_of_rational_is_degree_times_value():
    for n in (1, 4, 5, 12):
        x = [7] + [0] * (phi_degree(n) - 1)        # 7/3 over the denominator 3
        trace = [0] * phi_degree(n)
        for k in units_mod(n):
            trace = [a + b for a, b in zip(trace, conjugate(n, x, k))]
        assert CyclotomicNumber.from_integers(n, trace, 3).to_rational() == \
            phi_degree(n) * Fraction(7, 3)


def test_i_squared_is_minus_one():
    i = zeta(4)
    assert i == [0, 1]
    assert mul_mod_phi(4, i, i) == [-1, 0]


def test_arithmetic_relations():
    z = zeta(8)
    assert power(8, z, 4) == [-1, 0, 0, 0]
    s = [a + b for a, b in zip(z, conjugate(8, z, 7))]     # 2 cos(pi/4)
    assert mul_mod_phi(8, s, s) == [2, 0, 0, 0]


def test_product_of_all_conjugates_is_rational():
    # Norm of 1 + zeta_5 down to Q.
    prod = one(5)
    for k in units_mod(5):
        prod = mul_mod_phi(5, prod, conjugate(5, [a + b for a, b in zip(zeta(5), one(5))], k))
    assert prod == [1, 0, 0, 0]        # Phi_5(-1) = 1


def test_sum_of_all_roots_is_mobius():
    # sum of primitive n-th roots = mu(n); check a couple of cases
    for n, mu in ((5, -1), (6, 1), (8, 0), (12, 0)):
        vec = [0] * n
        for k in units_mod(n):
            vec[k] += 1
        assert reduce_mod_phi(n, vec) == [mu] + [0] * (phi_degree(n) - 1)


def test_from_integers_round_trip():
    v = CyclotomicNumber.from_integers(12, [3, -6, 0, 9], 6)
    assert v.coeffs == (Fraction(1, 2), Fraction(-1), Fraction(0), Fraction(3, 2))
    assert [c * 6 for c in v.coeffs] == [3, -6, 0, 9]
    assert str(v) == "(1/2 + -1*z^1 + 3/2*z^3 : z = zeta_12)"
    assert CyclotomicNumber.from_integers(5, [4, 0, 0, 0], -12).to_rational() == \
        Fraction(-1, 3)
    assert not any(CyclotomicNumber.from_integers(3, [0, 0], 7).coeffs)
    with pytest.raises(ShapeMismatch):
        CyclotomicNumber.from_integers(5, [1, 2, 3], 1)


def test_rationality_certificate_is_exact():
    i = CyclotomicNumber.from_integers(4, zeta(4), 1)
    assert not i.is_rational()
    with pytest.raises(NotRational):
        i.to_rational()
    assert CyclotomicNumber.from_integers(4, mul_mod_phi(4, zeta(4), zeta(4)), 1) \
        .to_rational() == -1


def test_phi_remainder_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(cyc, "_PHI_CACHE", {})
    monkeypatch.setattr(cyc, "_poly_divmod_int", lambda num, den: ((1,), (1,)))
    with pytest.raises(InvariantViolation, match="remainder"):
        cyclotomic_polynomial(1)
