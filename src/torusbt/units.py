"""Structure of (Z/N)* : canonical generators, orders, discrete logs.

Canonical generators come from the CRT factorization, primes ascending:
an odd prime power contributes one lifted primitive root; 2^e (e >= 3)
contributes -1 then 5; 4 contributes 3. Discrete logs are read from a
table of all phi(N) units, built in one pass over the products of the
generators the first time a log mod N is asked for and kept on the
structure. The auxiliary moduli f*p^2 (8f for p = 2) of the W-group
computations only ever need generators, so they never build a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, prod

from .errors import InvariantViolation, ShapeMismatch


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in factorize(n):
        out *= (p - 1) * p ** (e - 1)
    return out


def primitive_root_mod_prime(p: int) -> int:
    if p == 2:
        return 1
    qs = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ArithmeticError(f"no primitive root mod {p}?")


def primitive_root_mod_prime_power(p: int, e: int) -> int:
    """Generator of (Z/p^e)* for odd p (a root mod p^2 works for all e)."""
    g = primitive_root_mod_prime(p)
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def crt_pair(a1: int, n1: int, a2: int, n2: int) -> int:
    """x with x = a1 (mod n1), x = a2 (mod n2) for coprime moduli."""
    m1 = pow(n1, -1, n2)
    return (a1 + n1 * ((a2 - a1) * m1 % n2)) % (n1 * n2)


@dataclass(frozen=True)
class UnitGroupStructure:
    modulus: int
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    _logs: dict[int, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if prod(self.orders) != euler_phi(self.modulus):
            raise InvariantViolation(
                f"generator orders {self.orders} miss phi({self.modulus})")

    def log_table(self) -> dict[int, tuple[int, ...]]:
        """Residue -> exponent vector on the canonical generators, every unit."""
        if self._logs is None:
            n = self.modulus
            logs = {1 % n: ()}
            for g, order in zip(self.generators, self.orders):
                grown = {}
                for a, vec in logs.items():
                    for e in range(order):
                        grown[a] = vec + (e,)
                        a = a * g % n
                logs = grown
            if len(logs) != euler_phi(n):
                raise InvariantViolation(f"generators of (Z/{n})* are not independent")
            object.__setattr__(self, "_logs", logs)
        return self._logs


@lru_cache(maxsize=None)
def unit_group(n: int) -> UnitGroupStructure:
    if n < 1:
        raise ShapeMismatch(f"modulus must be positive, got {n}")
    if n == 1:
        return UnitGroupStructure(1, (), ())
    parts: list[tuple[int, int, int]] = []    # (generator mod p^e, order, p^e)
    for p, e in factorize(n):
        q = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                parts.append((3, 2, q))
            else:
                parts.append((q - 1, 2, q))
                parts.append((5, 2 ** (e - 2), q))
        else:
            parts.append((primitive_root_mod_prime_power(p, e), (p - 1) * p ** (e - 1), q))
    gens, orders = [], []
    for g, order, q in parts:
        lifted = g % q
        rest = n // q
        if rest > 1:
            lifted = crt_pair(g % q, q, 1, rest)
        gens.append(lifted)
        orders.append(order)
    return UnitGroupStructure(n, tuple(gens), tuple(orders))


def units_mod(n: int) -> list[int]:
    if n == 1:
        return [1]
    return [a for a in range(1, n) if gcd(a, n) == 1]
