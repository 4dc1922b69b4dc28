import pytest
from fractions import Fraction

from torusbt.errors import ShapeMismatch
from torusbt.exact import (FinAbGroup, from_elementary_divisors, integer_nth_root,
                           odd_part, rational_nth_root, two_power_ratio)


def test_nth_root_perfect_square():
    assert rational_nth_root(Fraction(1, 900), 2) == Fraction(1, 30)


def test_nth_root_cube():
    assert rational_nth_root(Fraction(8), 3) == Fraction(2)


def test_nth_root_irrational_is_none():
    assert rational_nth_root(Fraction(2), 2) is None


def test_nth_root_rejects_nonpositive():
    with pytest.raises(ShapeMismatch):
        rational_nth_root(Fraction(-4), 2)


@pytest.mark.parametrize("num,den,n", [(27, 64, 3), (16, 81, 4), (1, 1, 7)])
def test_nth_root_roundtrip(num, den, n):
    x = Fraction(num, den)
    r = rational_nth_root(x, n)
    assert r is not None and r ** n == x


def test_finab_invariant_chain_enforced():
    with pytest.raises(ShapeMismatch):
        FinAbGroup((4, 2))
    with pytest.raises(ShapeMismatch):
        FinAbGroup((1,))


@pytest.mark.parametrize("call", [
    lambda: integer_nth_root(-1, 2), lambda: integer_nth_root(4, 0),
    lambda: rational_nth_root(Fraction(0), 2), lambda: rational_nth_root(Fraction(4), 0),
    lambda: FinAbGroup((2,), -1), lambda: FinAbGroup((), 1).order(),
], ids=["negative-m", "zero-n", "zero-x", "rational-zero-n", "negative-free-rank",
        "infinite-order"])
def test_bad_arguments_are_typed_errors(call):
    """Each was a raw ValueError."""
    with pytest.raises(ShapeMismatch):
        call()


def test_finab_order_and_exponent():
    g = FinAbGroup((2, 4))
    assert g.order() == 8 and g.invariant_factors[-1] == 4
    assert FinAbGroup().order() == 1


def test_from_elementary_divisors_canonicalizes():
    # Z/2 x Z/6 x Z/3 = Z/6 x Z/6
    assert from_elementary_divisors([2, 6, 3]) == FinAbGroup((6, 6))
    assert from_elementary_divisors([1, 1, 0, 5]) == FinAbGroup((5,), 1)


def test_serialization_wire_form():
    assert str(Fraction(-1, 12)) == "-1/12"
    assert str(Fraction(3)) == "3"


def test_odd_part_and_two_power():
    assert odd_part(Fraction(48, 5)) == Fraction(3, 5)
    assert odd_part(Fraction(-12)) == Fraction(-3)
    assert two_power_ratio(Fraction(8)) == 3
    assert two_power_ratio(Fraction(1, 4)) == -2
    assert two_power_ratio(Fraction(3, 4)) is None


def test_integer_nth_root_beyond_float_range():
    assert integer_nth_root(10 ** 400, 2) == 10 ** 200
    assert integer_nth_root(10 ** 400 + 1, 2) is None
    assert integer_nth_root(10 ** 400 - 1, 2) is None


@pytest.mark.parametrize("n", [2, 3, 5, 7, 48, 97])
def test_integer_nth_root_large_powers(n):
    for base in (2, 3 ** 50 + 1, 10 ** 30 - 7, 2 ** 521 - 1):
        m = base ** n
        assert integer_nth_root(m, n) == base
        assert integer_nth_root(m - 1, n) is None
        assert integer_nth_root(m + 1, n) is None


def test_integer_nth_root_small_cases():
    for n in range(1, 8):
        powers = {k ** n: k for k in range(300)}
        for m in range(300):
            assert integer_nth_root(m, n) == powers.get(m), (m, n)
    assert integer_nth_root(5, 10) is None
