"""Exact rational arithmetic and finite abelian group descriptors.

Rationals are stdlib ``fractions.Fraction`` (always reduced, positive
denominator, str() gives the "num/den" wire form with the denominator
omitted when it is 1). This module adds the few exact helpers the rest
of the package needs on top of that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod  # noqa: F401  (lcm re-exported: character orders, induction)

from .errors import ShapeMismatch
from .units import factorize


def integer_nth_root(m: int, n: int) -> int | None:
    """Exact n-th root of a nonnegative integer, or None if not a perfect power."""
    if type(m) is not int or type(n) is not int:
        raise ShapeMismatch(f"need integers, got {m!r} and {n!r}")
    if m < 0 or n < 1:
        raise ShapeMismatch("need m >= 0 and n >= 1")
    if n == 1:
        return m
    if n >= m.bit_length():             # 1 < root < 2 for every m >= 2
        return m if m <= 1 else None
    # Integer Newton iteration from 2^ceil(bits/n) >= m^(1/n): the iterates
    # fall strictly until they reach floor(m^(1/n)), then stop falling.
    r = 1 << -(-m.bit_length() // n)
    while True:
        s = ((n - 1) * r + m // r ** (n - 1)) // n
        if s >= r:
            break
        r = s
    return r if r ** n == m else None


def rational_nth_root(x: Fraction, n: int) -> Fraction | None:
    """Exact positive n-th root of a positive rational, or None when irrational.

    A None result (the NotExact outcome) means an m-th-power identity
    cannot be certified to have a rational root; callers report it and
    carry on.
    """
    if not isinstance(x, (int, Fraction)):
        raise ShapeMismatch(f"rational_nth_root needs an int or a Fraction, got {x!r:.80}")
    x = Fraction(x)
    if x <= 0:
        raise ShapeMismatch("rational_nth_root needs x > 0")
    if type(n) is not int or n < 1:
        raise ShapeMismatch("rational_nth_root needs an integer n >= 1")
    num = integer_nth_root(x.numerator, n)
    if num is None:
        return None
    den = integer_nth_root(x.denominator, n)
    if den is None:
        return None
    return Fraction(num, den)


def odd_part(x: Fraction) -> Fraction:
    """Strip all factors of 2 from numerator and denominator."""
    if not isinstance(x, (int, Fraction)):
        raise ShapeMismatch(f"odd_part needs an int or a Fraction, got {x!r:.80}")
    num, den = x.numerator, x.denominator
    sign = -1 if num < 0 else 1
    num = abs(num)
    while num and num % 2 == 0:
        num //= 2
    while den % 2 == 0:
        den //= 2
    return Fraction(sign * num, den)


def two_power_ratio(x: Fraction) -> int | None:
    """If x = +-2^k, return k; otherwise None."""
    num, den = abs(x.numerator), x.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0 and num and den:
        return num.bit_length() - den.bit_length()
    return None


@dataclass(frozen=True)
class FinAbGroup:
    """Isomorphism type of a finitely generated abelian group.

    invariant_factors is the chain d_1 | d_2 | ... with every d_i >= 2;
    free_rank counts Z summands. The trivial group is ((), 0).
    """

    invariant_factors: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if not (isinstance(self.invariant_factors, tuple) and type(self.free_rank) is int
                and all(type(d) is int for d in self.invariant_factors)):
            raise ShapeMismatch(f"need a tuple of int invariant factors and an int free rank, "
                                f"got {self.invariant_factors!r:.40}, {self.free_rank!r:.20}")
        for d in self.invariant_factors:
            if d < 2:
                raise ShapeMismatch(f"invariant factor {d} < 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ShapeMismatch(f"broken divisibility chain {self.invariant_factors}")
        if self.free_rank < 0:
            raise ShapeMismatch("negative free rank")

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors and self.free_rank == 0

    def order(self) -> int:
        if self.free_rank:
            raise ShapeMismatch("infinite group has no order")
        return prod(self.invariant_factors)

    def to_json(self) -> dict:
        return {"invariant_factors": list(self.invariant_factors),
                "free_rank": self.free_rank}

    def __str__(self) -> str:
        parts = [f"Z/{d}" for d in self.invariant_factors]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def from_elementary_divisors(divisors: list[int]) -> FinAbGroup:
    """Canonicalize an arbitrary list of cyclic orders into invariant factors.

    Accepts any multiset of moduli >= 1 (1s are dropped), e.g. the
    p-parts of a Smith diagonal or a merge of two invariant-factor lists.
    """
    primary: dict[int, list[int]] = {}
    for d in divisors:
        for p, e in factorize(d):
            primary.setdefault(p, []).append(p ** e)
    # The i-th invariant factor from the top multiplies the i-th largest power of each p.
    chains = [sorted(powers, reverse=True) for powers in primary.values()]
    width = max(map(len, chains), default=0)
    return FinAbGroup(tuple(prod(c[i] for c in chains if i < len(c))
                            for i in reversed(range(width))))

