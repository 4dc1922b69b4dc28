"""Exact arithmetic in cyclotomic fields Q(zeta_n) = Q[x]/(Phi_n).

Elements carry their order n and a coefficient vector of length
deg Phi_n = phi(n), fully reduced. Orders stay tiny here (they divide
the exponent of some (Z/f)*), so dense Fraction vectors are plenty.
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
        raise ValueError("order must be >= 1")
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


@dataclass(frozen=True)
class CyclotomicNumber:
    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != phi_degree(self.order):
            raise ShapeMismatch(
                f"need {phi_degree(self.order)} coefficients for order {self.order}")

    @staticmethod
    def rational(x, order: int = 1) -> "CyclotomicNumber":
        deg = phi_degree(order)
        return CyclotomicNumber(order, (Fraction(x),) + (Fraction(0),) * (deg - 1))

    @staticmethod
    def zeta_power(order: int, k: int) -> "CyclotomicNumber":
        """zeta_order^k, reduced mod Phi_order."""
        k %= order
        return _reduce(order, {k: Fraction(1)})

    @staticmethod
    def from_exponent_sums(order: int, sums: dict[int, Fraction]) -> "CyclotomicNumber":
        """Sum of c_k * zeta^k for an exponent->coefficient dict."""
        return _reduce(order, {k % order: Fraction(c) for k, c in sums.items()})

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        """True iff every coefficient beyond degree 0 vanishes exactly."""
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(f"{self} is not rational")
        return self.coeffs[0]

    def _binop(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(other, CyclotomicNumber):
            if other.order != self.order:
                raise ShapeMismatch("mixed cyclotomic orders; lift explicitly")
            return self, other
        return self, CyclotomicNumber.rational(other, self.order)

    def __add__(self, other):
        a, b = self._binop(other)
        return CyclotomicNumber(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._binop(other)
        return CyclotomicNumber(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CyclotomicNumber(self.order, tuple(x * c for x in self.coeffs))
        a, b = self._binop(other)
        prod: dict[int, Fraction] = {}
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] = prod.get(i + j, Fraction(0)) + x * y
        return _reduce(a.order, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CyclotomicNumber(self.order, tuple(x / c for x in self.coeffs))
        raise TypeError("division only by rationals")

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        out = CyclotomicNumber.rational(1, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self, k: int) -> "CyclotomicNumber":
        """Galois conjugate zeta -> zeta^k (k coprime to the order)."""
        out: dict[int, Fraction] = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = (i * k) % self.order
                out[e] = out.get(e, Fraction(0)) + c
        return _reduce(self.order, out)

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z^{i}" if i else f"{c}")
        return f"({' + '.join(terms)} : z = zeta_{self.order})"


def _reduce(order: int, exp_coeffs: dict[int, Fraction]) -> CyclotomicNumber:
    """Reduce a sparse polynomial in zeta (exponent -> coefficient) mod Phi_order."""
    deg = phi_degree(order)
    maxe = max(exp_coeffs, default=0)
    vec = [Fraction(0)] * (max(maxe + 1, deg))
    for e, c in exp_coeffs.items():
        vec[e % order if e >= order else e] += c
    phi = cyclotomic_polynomial(order)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            for j, y in enumerate(phi[:-1]):
                vec[i - deg + j] -= c * y
    return CyclotomicNumber(order, tuple(vec[:deg]))
