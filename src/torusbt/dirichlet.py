"""Dirichlet characters and exact L-values at s = -1.

Character values are tracked as exponents of a root of unity of the
character's order: a character keeps its order and one integer scale per
canonical generator, so chi(a) is a dot product with the discrete log of
a. L(chi, -1) = -B_{2,chi}/2 with
B_{2,chi} = f * sum_{a=1}^{f} chi(a) B_2(a/f), B_2(t) = t^2 - t + 1/6,
evaluated for the primitive character inducing chi. The sum is taken in
integers: for each value exponent e, S_j,e = sum of a^j over the a with
chi(a) = zeta^e, and 6f B_{2,chi} = sum_e zeta^e (6 S2_e - 6f S1_e + f^2 S0_e)
is an integer vector reduced mod Phi_order. That vector is memoised per
primitive character, so the zeta values of the fixed fields reuse what
the Artin L-value computed.

Dedekind zeta values of the abelian fixed fields and the Artin L-value
of a lattice are assembled from these, with conjugate characters
grouped into Galois orbits. An orbit's product is taken in
Z[zeta_order] over one integer denominator and certified rational
before anything is multiplied together; it is memoised for the life of
the process under the orbit's least member (modulus and exponent
tuple), so the lattices of one realization, the fixed fields and the
induction cross-check evaluate each orbit once. The traces of a
lattice are rational, so conjugate characters share one multiplicity;
it is read off once per orbit from the Ramanujan sums of the character
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .cyclotomic import CyclotomicNumber, mul_mod_phi, phi_degree, reduce_mod_phi
from .errors import (InvariantViolation, MultiplicityNotInteger,
                     NonAbelianRealization, NotRational, NotTotallyReal, ShapeMismatch)
from .exact import lcm
from .units import UnitGroupStructure, euler_phi, factorize, unit_group, units_mod


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod f, stored as exponents on the canonical generators.

    exponents[i] = k_i means chi(g_i) = zeta_{n_i}^{k_i} where n_i is the
    order of the i-th canonical generator of (Z/f)*.
    """
    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        units = unit_group(self.modulus)
        if len(self.exponents) != len(units.generators):
            raise ShapeMismatch("one exponent per canonical generator required")
        if not all(isinstance(k, int) for k in self.exponents):
            raise ShapeMismatch(f"exponents must be integers, got {self.exponents!r}")
        m = 1
        for k, n in zip(self.exponents, units.orders):
            m = lcm(m, n // gcd(n, k))
        object.__setattr__(self, "_units", units)
        object.__setattr__(self, "_order", m)
        # chi(g_i) = zeta_{n}^{k} = zeta_m^{km/n}; n | km by the order formula
        object.__setattr__(self, "_scale", tuple(
            (k * m) // n for k, n in zip(self.exponents, units.orders)))

    @property
    def units(self) -> UnitGroupStructure:
        return self._units

    @property
    def order(self) -> int:
        return self._order

    def _log_exponent(self, dl: tuple[int, ...]) -> int:
        """e with chi(a) = zeta_order^e, for a with discrete log dl."""
        return sum(x * s for x, s in zip(dl, self._scale)) % self._order

    def value_exponent(self, a: int) -> int | None:
        """e with chi(a) = zeta_order^e, or None when gcd(a, f) > 1."""
        dl = self._units.log_table().get(a % self.modulus)
        return None if dl is None else self._log_exponent(dl)

    def is_trivial(self) -> bool:
        return all(k % n == 0 for k, n in zip(self.exponents, self._units.orders))

    def is_even(self) -> bool:
        return self.value_exponent(-1 % self.modulus if self.modulus > 1 else 1) == 0

    def power(self, k: int) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(
            (e * k) % n for e, n in zip(self.exponents, self._units.orders)))

    def __str__(self) -> str:
        return f"chi_mod{self.modulus}{self.exponents}"


def characters_mod(f: int) -> list[DirichletCharacter]:
    """All phi(f) characters mod f in lexicographic exponent order."""
    return [DirichletCharacter(f, ks)
            for ks in product(*(range(n) for n in unit_group(f).orders))]


def conductor_primitive(chi: DirichletCharacter) -> tuple[int, DirichletCharacter]:
    """Minimal f' | f through which chi factors, and the inducing primitive character."""
    f = chi.modulus
    if chi.is_trivial():
        cond = 1
    else:                                   # d = f always qualifies
        cond = next(d for d in range(2, f + 1) if f % d == 0 and all(
            chi.value_exponent(a) == 0
            for a in range(1, f + 1, d) if gcd(a, f) == 1))   # the units = 1 mod d
    if cond == f:
        return f, chi
    m = chi.order
    sub = unit_group(cond)
    exps = []
    for g, n in zip(sub.generators, sub.orders):
        a = g
        while f > 1 and gcd(a, f) != 1:
            a += cond
        e = chi.value_exponent(a)
        if e is None or (e * n) % m:
            raise InvariantViolation(f"primitivization of {chi} failed")
        exps.append((e * n // m) % n)
    prim = DirichletCharacter(cond, tuple(exps))
    if prim.order != m:
        raise InvariantViolation(f"conductor reduction changed the order of {chi}")
    return cond, prim


@lru_cache(maxsize=4096)
def _bernoulli2_integers(chi: DirichletCharacter) -> tuple[tuple[int, ...], int]:
    """(v, 6f) with B_{2,chi} = sum_k v[k] zeta^k / (6f), memoised per
    primitive character; v is reduced mod Phi_order."""
    f = chi.modulus
    m = chi.order
    s0 = [0] * m
    s1 = [0] * m
    s2 = [0] * m
    # Residue 0 stands for a = f when f = 1, and B_2(0) = B_2(1).
    for a, dl in chi.units.log_table().items():
        e = chi._log_exponent(dl)
        s0[e] += 1
        s1[e] += a
        s2[e] += a * a
    # f * (S2/f^2 - S1/f + S0/6) = (6 S2 - 6 f S1 + f^2 S0) / (6 f)
    v = reduce_mod_phi(m, [6 * s2[e] - 6 * f * s1[e] + f * f * s0[e] for e in range(m)])
    return tuple(v), 6 * f


def bernoulli2_chi(chi: DirichletCharacter) -> CyclotomicNumber:
    """Generalized Bernoulli number B_{2,chi} for a primitive character."""
    v, den = _bernoulli2_integers(chi)
    return CyclotomicNumber.from_integers(chi.order, v, den)


def L_minus_one(chi: DirichletCharacter) -> CyclotomicNumber:
    """L(chi, -1) = -B_{2,chi}/2 for a primitive character."""
    v, den = _bernoulli2_integers(chi)
    return CyclotomicNumber.from_integers(chi.order, v, -2 * den)


def galois_orbits(chars: list[DirichletCharacter]) -> list[list[DirichletCharacter]]:
    """Partition into orbits under chi -> chi^k, k coprime to the order."""
    seen: set[tuple[int, ...]] = set()
    orbits = []
    for chi in chars:
        if chi.exponents in seen:
            continue
        m = chi.order
        orbit = []
        for k in units_mod(m):
            conj = chi.power(k)
            if conj.exponents not in seen:
                seen.add(conj.exponents)
                orbit.append(conj)
        orbits.append(orbit)
    return orbits


def _orbit_L_product(orbit: list[DirichletCharacter]) -> Fraction:
    """Rational product of L(chi*, -1) over one Galois orbit, read from
    the memo of its least member."""
    return _orbit_norm(min(orbit, key=lambda chi: chi.exponents))


@lru_cache(maxsize=4096)
def _orbit_norm(chi: DirichletCharacter) -> Fraction:
    """Rational product of L(chi^k, -1) over k coprime to the order m.

    Each conjugate is primitivized and evaluated on its own;
    conductor_primitive keeps the order, so every value lies in
    Z[zeta_m] over its own denominator -12f.
    """
    m = chi.order
    num = [1] + [0] * (phi_degree(m) - 1)
    den = 1
    for k in units_mod(m):
        v, d = _bernoulli2_integers(conductor_primitive(chi.power(k))[1])
        num = mul_mod_phi(m, num, v)
        den *= -2 * d
    if any(num[1:]):
        prod = CyclotomicNumber.from_integers(m, num, den)
        raise NotRational(f"orbit product of conjugate L-values not rational: {prod}")
    return Fraction(num[0], den)


def characters_trivial_on(f: int, kernel_units: set[int]) -> list[DirichletCharacter]:
    """Characters mod f that kill the given unit subgroup, in the order of
    characters_mod.

    Only a generating set of the subgroup is tested: units already in the
    span of those picked so far are skipped. chi with exponents k kills
    the unit with discrete log x iff sum_i x_i k_i / n_i is an integer,
    i.e. sum_i k_i * (x_i E / n_i) = 0 mod the exponent E of (Z/f)*, so
    exponent vectors are filtered before any character is built.
    """
    u = unit_group(f)
    logs = u.log_table()
    exponent = lcm(*u.orders)
    span = {1 % f}
    weights = []
    for a in kernel_units:
        a %= f
        if a in span:
            continue
        dl = logs.get(a)
        if dl is None:                      # a non-unit: no character is 0 on it
            return []
        weights.append([x * (exponent // n) for x, n in zip(dl, u.orders)])
        grown, power = set(span), a
        while power not in span:            # span * <a>, coset by coset
            grown.update(b * power % f for b in span)
            power = power * a % f
        span = grown
    return [DirichletCharacter(f, ks)
            for ks in product(*(range(n) for n in u.orders))
            if all(sum(k * w for k, w in zip(ks, ws)) % exponent == 0 for ws in weights)]


def zeta_minus_one(h, realization) -> Fraction:
    """zeta_M(-1) for the fixed field M of the subgroup H <= G = Gal(L/Q).

    The product runs over all characters of G trivial on H, i.e. the
    characters mod f trivial on the unit preimage of H; each one is
    primitivized before evaluation so every Euler factor is right.
    """
    chars = characters_trivial_on(realization.modulus, realization.unit_preimage(h))
    total = Fraction(1)
    for orbit in galois_orbits(chars):
        total *= _orbit_L_product(orbit)
    return total


def _ramanujan_sum(m: int, e: int) -> int:
    """c_m(e), the sum of zeta_m^(k e) over k coprime to m:
    mu(q) phi(m) / phi(q) with q = m / gcd(e, m)."""
    q = m // gcd(e, m)
    ps = factorize(q)
    if any(k > 1 for _, k in ps):           # mu(q) = 0
        return 0
    return (-1) ** len(ps) * (euler_phi(m) // euler_phi(q))


def character_multiplicities(x, realization) -> list[tuple[list[DirichletCharacter], int]]:
    """Multiplicity of the characters of each Galois orbit of G inside the
    lattice representation, as (orbit, multiplicity) pairs.

    m_chi = (1/|G|) sum_g conj(chi)(g) tr rho(g). The traces are rational,
    so the phi(m) conjugates of chi (order m) share m_chi, and summing
    over the orbit turns each zeta_m^e into the Ramanujan sum
    c_m(e) = mu(q) phi(m) / phi(q), q = m / gcd(e, m):
    phi(m) |G| m_chi = sum_g tr rho(g) c_m(e_g). The quotient is certified
    to be a nonnegative integer.
    """
    g = x.group
    if not g.is_abelian():
        raise NonAbelianRealization("character multiplicities need an abelian group")
    f = realization.modulus
    kernel = {u for u in units_mod(f) if realization.pi(u) == g.identity}
    chars = characters_trivial_on(f, kernel)
    # One unit representative per group element.
    reps: dict[int, int] = {}
    for u in units_mod(f):
        reps.setdefault(realization.pi(u), u)
    if len(reps) != g.order:
        raise NonAbelianRealization("realization does not cover the group")
    traces = {a: sum(x.action[a].data[i][i] for i in range(x.rank))
              for a in range(g.order)}
    out = []
    for orbit in galois_orbits(chars):
        chi, m = orbit[0], orbit[0].order
        total = sum(traces[a] * _ramanujan_sum(m, chi.value_exponent(reps[a]))
                    for a in range(g.order))
        mult, rem = divmod(total, euler_phi(m) * g.order)
        if rem or mult < 0:
            raise MultiplicityNotInteger(
                f"multiplicity {Fraction(total, euler_phi(m) * g.order)} of {chi}")
        out.append((orbit, mult))
    return out


def artin_L_minus_one(x, realization, with_table: bool = False):
    """L(X, -1) (with sign) for a lattice split through an abelian,
    totally real realization; the product of L(chi*,-1)^{m_chi} grouped
    by Galois orbit. Raises if a hypothesis fails; never returns 0.
    """
    if not realization.totally_real:
        raise NotTotallyReal("Artin L-value at -1 needs pi(-1) = identity")
    mults = character_multiplicities(x, realization)
    if sum(len(orbit) * m for orbit, m in mults) != x.rank:
        raise MultiplicityNotInteger("multiplicities do not add up to the rank")
    total = Fraction(1)
    table = []
    for orbit, mult in mults:
        if with_table:
            for chi in orbit:
                cond, prim = conductor_primitive(chi)
                table.append({"conductor": cond, "order": chi.order,
                              "multiplicity": mult,
                              "value": _value_json(L_minus_one(prim))})
        if mult == 0:
            continue
        total *= _orbit_L_product(orbit) ** mult
    if total == 0:
        raise InvariantViolation("L-value vanished despite a totally real splitting")
    return (total, table) if with_table else total


def _value_json(v: CyclotomicNumber):
    if v.is_rational():
        return str(v.to_rational())
    return {"order": v.order, "coeffs": [str(c) for c in v.coeffs]}
