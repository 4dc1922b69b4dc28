"""Exact arithmetic in cyclotomic fields Q(zeta_n) = Q[x]/(Phi_n).

Arithmetic is on integer coefficient vectors of length deg Phi_n =
phi(n): reduce_mod_phi reduces a polynomial in zeta_n and mul_mod_phi
multiplies two reduced ones. A CyclotomicNumber is a reduced value with
rational coefficients, built once from an integer vector and a common
denominator; it carries no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation, NotRational, ShapeMismatch

# Phi_n as integer coefficient tuples (ascending degree), computed by
# exact division of x^n - 1 by the product of all lower-order Phi_d.
_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def _poly_mul_int(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    q = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c, r = divmod(num[i], lead)
        if r:
            raise ArithmeticError("non-exact integer polynomial division")
        if c:
            q[i - dn] = c
            for j, y in enumerate(den):
                num[i - dn + j] -= c * y
    while num and num[-1] == 0:
        num.pop()
    return tuple(q), tuple(num)


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending, cached."""
    if n < 1:
        raise ShapeMismatch(f"order must be >= 1, got {n}")
    phi = _PHI_CACHE.get(n)
    if phi is not None:
        return phi
    num = tuple([-1] + [0] * (n - 1) + [1])        # x^n - 1
    den = (1,)
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul_int(den, cyclotomic_polynomial(d))
    q, r = _poly_divmod_int(num, den)
    if r:
        raise InvariantViolation(f"Phi_{n} division left a remainder")
    _PHI_CACHE[n] = q
    return q


def phi_degree(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


def reduce_mod_phi(order: int, vec) -> list[int]:
    """Integer coefficient vector reduced mod Phi_order, of length deg Phi_order.

    Phi_order is monic, so each leading term is cleared by subtracting a
    multiple of it; only its nonzero coefficients are visited.
    """
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:-1]) if c]
    vec = list(vec) + [0] * (deg - len(vec))
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            for j, y in terms:
                vec[i - deg + j] -= c * y
    return vec[:deg]


def mul_mod_phi(order: int, a, b) -> list[int]:
    """Product of two integer coefficient vectors in Z[zeta_order]."""
    return reduce_mod_phi(order, _poly_mul_int(a, b))


@dataclass(frozen=True)
class CyclotomicNumber:
    """A reduced element of Q(zeta_order), kept as a value for reports."""
    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != phi_degree(self.order):
            raise ShapeMismatch(
                f"need {phi_degree(self.order)} coefficients for order {self.order}")

    @staticmethod
    def from_integers(order: int, vec, den: int) -> "CyclotomicNumber":
        """sum_k (vec[k] / den) zeta^k for a reduced integer vector vec."""
        return CyclotomicNumber(order, tuple(Fraction(c, den) for c in vec))

    def is_rational(self) -> bool:
        """True iff every coefficient beyond degree 0 vanishes exactly."""
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"{self} is not rational")
        return self.coeffs[0]

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z^{i}" if i else f"{c}")
        return f"({' + '.join(terms)} : z = zeta_{self.order})"
