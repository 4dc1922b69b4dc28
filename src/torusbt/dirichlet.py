"""Abelian realizations, their Dirichlet characters, and exact L-values at s = -1.

A realization presents the splitting field L inside Q(mu_f) as a
surjection pi: (Z/f)* -> G, so the characters of G are the Dirichlet
characters mod f trivial on ker pi. Character values are tracked as
exponents of a root of unity of the character's order: a character
keeps its order and one integer scale per canonical generator, so
chi(a) is a dot product with the discrete log of a.
L(chi, -1) = -B_{2,chi}/2 with
B_{2,chi} = f * sum_{a=1}^{f} chi(a) B_2(a/f), B_2(t) = t^2 - t + 1/6,
evaluated for the primitive character inducing chi. The sum is taken in
integers: for each value exponent e, S_j,e = sum of a^j over the a with
chi(a) = zeta^e, and 6f B_{2,chi} = sum_e zeta^e (6 S2_e - 6f S1_e + f^2 S0_e)
is an integer vector reduced mod Phi_order. That vector is memoised per
primitive character.

Dedekind zeta values of the abelian fixed fields, the Artin L-value of
a lattice and its per-character report rows are assembled from these,
with conjugate characters grouped into Galois orbits. An orbit
evaluates B_{2,chi} once, and B_{2,chi^k} = sigma_k(B_{2,chi})
(Washington, Introduction to Cyclotomic Fields, 4.1) gives the other
members by moving exponents. Their product, the norm from
Q(zeta_order), is taken in Z[zeta_order] over one integer denominator
by doubling along each cyclic factor of (Z/order)*, so it costs
O(log order) products rather than phi(order), and certified rational;
it is memoised for the life of the process under the orbit's least
member, its first. Each realization builds one character table (the
orbits, with the Ramanujan sums of their values on each element), and
it is the only place that enumerates characters. The traces of a
lattice are rational, so conjugate characters share one multiplicity:
the traces dotted with the orbit's row of that table. zeta_M(-1) of a
fixed field M = L^H is the product of the orbit norms whose row reads
phi(order) on all of H.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mul

from .cyclotomic import CyclotomicNumber, mul_mod_phi, reduce_mod_phi
from .errors import (GroupMismatch, GroupTooLarge, InvariantViolation, MultiplicityNotInteger,
                     NonAbelianRealization, NotHomomorphism, NotRational, NotSurjective,
                     NotTotallyReal, ShapeMismatch, check_instance)
from .exact import lcm
from .groups import (MODULUS_BOUND, FiniteGroup, memoised, same_table, subgroup_elements,
                     walk_generators)
from .lattices import GLattice, check_lattices, traces
from .units import UnitGroupStructure, euler_phi, factorize, unit_group, units_mod


@dataclass(frozen=True)
class AbelianRealization:
    group: FiniteGroup
    modulus: int
    images: tuple[tuple[int, int], ...]       # the (unit, element) pairs supplied
    pi_table: tuple[tuple[int, int], ...]     # unit -> element, all units mod f
    totally_real: bool
    # Values of dirichlet's @memoised tables, set on first use.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_table", dict(self.pi_table))

    def pi(self, a: int) -> int:
        if self.modulus == 1:
            return self.group.identity
        return self._table[a % self.modulus]

    def unit_preimage(self, h) -> set[int]:
        elems = set(subgroup_elements(self.group, h))
        return {u for u, e in self.pi_table if e in elems}

    def to_json(self) -> dict:
        return {"modulus": self.modulus,
                "images": {str(u): e for u, e in self.images},
                "totally_real": self.totally_real}


def realization_from_images(group: FiniteGroup, modulus: int,
                            images: dict[int, int]) -> AbelianRealization:
    """Extend images of some generating units to all of (Z/f)* and validate.

    Propagation is groups.walk_generators, so any relation violation
    surfaces as a conflict; the supplied units must generate the whole
    unit group and their images must generate G. A modulus past
    groups.MODULUS_BOUND raises GroupTooLarge before any walk, a non-int
    ShapeMismatch.
    """
    if not (type(modulus) is int and isinstance(images, dict) and all(
            type(u) is int and type(e) is int for u, e in images.items())):
        raise ShapeMismatch(f"need an int modulus and int unit -> int element images, "
                            f"got {modulus!r}, {images!r:.80}")
    if modulus < 1:
        raise NotHomomorphism("modulus must be >= 1")
    if modulus > MODULUS_BOUND:
        raise GroupTooLarge(f"modulus {modulus} past {MODULUS_BOUND}")
    if not group.is_abelian():
        raise NotHomomorphism("abelian realization needs an abelian group")
    norm_images = {}
    for u, e in images.items():
        u %= modulus
        if modulus > 1 and gcd(u, modulus) != 1:
            raise NotHomomorphism(f"{u} is not a unit mod {modulus}")
        if not (0 <= e < group.order):
            raise NotHomomorphism(f"image {e} is not a group element index")
        if norm_images.get(u, e) != e:
            raise NotHomomorphism(f"conflicting images for unit {u}")
        norm_images[u] = e
    table = walk_generators(1, group.identity, norm_images,
                            lambda u, a: a * u % modulus if modulus > 1 else 1, group.op)
    units = units_mod(modulus)
    if len(table) != len(units):
        raise NotHomomorphism("supplied units do not generate (Z/f)*")
    if set(table.values()) != set(range(group.order)):
        raise NotSurjective("images do not generate the whole group")
    minus_one = modulus - 1 if modulus > 2 else 1
    totally_real = table[minus_one] == group.identity
    return AbelianRealization(
        group, modulus, tuple(sorted(norm_images.items())),
        tuple(sorted(table.items())), totally_real)


def check_types(r, *lattices) -> None:
    """ShapeMismatch unless r is an AbelianRealization and lattices GLattices."""
    check_instance(r, AbelianRealization)
    check_lattices(*lattices)


def check_same_group(x: GLattice, r: AbelianRealization) -> None:
    """GroupMismatch unless x and r share one multiplication table, as
    r's element numbers index x.action; ShapeMismatch unless x is a
    GLattice and r an AbelianRealization (check_types)."""
    check_types(r, x)
    if not same_table(x.group, r.group):
        raise GroupMismatch(f"lattice over {x.group.name}, realization over {r.group.name}")


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
        if not (isinstance(self.exponents, tuple) and all(type(k) is int for k in self.exponents)):
            raise ShapeMismatch(f"exponents must be integers in a tuple, got {self.exponents!r}")
        if len(self.exponents) != len(units.generators):
            raise ShapeMismatch("one exponent per canonical generator required")
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
    """All phi(f) characters mod f in lexicographic exponent order; an f
    past groups.MODULUS_BOUND raises GroupTooLarge before any is built."""
    if type(f) is int and f > MODULUS_BOUND:
        raise GroupTooLarge(f"modulus {f} past {MODULUS_BOUND}")
    return [DirichletCharacter(f, ks)
            for ks in product(*(range(n) for n in unit_group(f).orders))]


def conductor_primitive(chi: DirichletCharacter) -> tuple[int, DirichletCharacter]:
    """Minimal f' | f through which chi factors, and the inducing primitive character."""
    check_instance(chi, DirichletCharacter)
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
    check_instance(chi, DirichletCharacter)
    v, den = _bernoulli2_integers(chi)
    return CyclotomicNumber.from_integers(chi.order, v, den)


def L_minus_one(chi: DirichletCharacter) -> CyclotomicNumber:
    """L(chi, -1) = -B_{2,chi}/2 for a primitive character."""
    check_instance(chi, DirichletCharacter)
    v, den = _bernoulli2_integers(chi)
    return CyclotomicNumber.from_integers(chi.order, v, -2 * den)


def galois_orbits(chars: list[DirichletCharacter]) -> list[list[DirichletCharacter]]:
    """Partition into orbits under chi -> chi^k, k coprime to the order.
    Each orbit opens at its first member in chars: on a Galois-closed list in
    lexicographic exponent order (characters_mod, characters_trivial_on) its
    least member, the key of _orbit_norm's memo. An orbit lists orbit[0]^k
    for k in units_mod(order), in that order (L_value_rows reads it so)."""
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


def _conjugate(m: int, v: list[int], k: int) -> list[int]:
    """sigma_k(v), zeta_m -> zeta_m^k, on a reduced vector of Z[zeta_m]."""
    out = [0] * m
    for j, c in enumerate(v):
        out[j * k % m] += c
    return reduce_mod_phi(m, out)


@lru_cache(maxsize=4096)
def _orbit_norm(chi: DirichletCharacter) -> Fraction:
    """Rational product of L(chi^k, -1) over k coprime to the order m.

    B_{2,chi} is evaluated once, for the primitive character inducing
    chi; B_{2,chi^k} = sigma_k(B_{2,chi}) with sigma_k: zeta_m -> zeta_m^k
    (powers of chi share its conductor and order), and every value lies
    in Z[zeta_m] over the one denominator -12f. The norm is taken along
    the cyclic factors <g> (order n) of (Z/m)*, one after the other: with
    T(j) = prod_{i<j} sigma_{g^i}(B), T(2j) = T(j) sigma_{g^j}(T(j)) and
    T(j+1) = B sigma_g(T(j)) reach T(n) in at most 2 log2(n) products.
    """
    m = chi.order
    v, d = _bernoulli2_integers(conductor_primitive(chi)[1])
    num = list(v)
    units = unit_group(m)
    for g, n in zip(units.generators, units.orders):
        base, j = num, 1
        for bit in bin(n)[3:]:
            num = mul_mod_phi(m, num, _conjugate(m, num, pow(g, j, m)))
            j *= 2
            if bit == "1":
                num = mul_mod_phi(m, base, _conjugate(m, num, g))
                j += 1
    den = (-2 * d) ** euler_phi(m)
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

    zeta_M is the product of L(s, chi) over the characters of G trivial on
    H (Washington, Thm 4.3), each primitivized so every Euler factor is
    right. chi of order m is 1 at a iff c_m(e_chi(a)) = phi(m), i.e. m | e_chi(a):
    the orbits trivial on H are the rows of _character_table that repeat
    their identity entry phi(m) on all of H.
    """
    check_types(realization)
    elems = subgroup_elements(realization.group, h)
    e = realization.group.identity
    total = Fraction(1)
    for orbit, _, row in _character_table(realization):
        if all(row[a] == row[e] for a in elems):
            total *= _orbit_norm(orbit[0])
    return total


def _ramanujan_sum(m: int, e: int) -> int:
    """c_m(e), the sum of zeta_m^(k e) over k coprime to m:
    mu(q) phi(m) / phi(q) with q = m / gcd(e, m)."""
    q = m // gcd(e, m)
    ps = factorize(q)
    if any(k > 1 for _, k in ps):           # mu(q) = 0
        return 0
    return (-1) ** len(ps) * (euler_phi(m) // euler_phi(q))


@memoised
def _character_table(realization) -> list[tuple[list[DirichletCharacter], int, tuple]]:
    """(orbit, phi(m)|G|, (c_m(e_chi(a)) for a in G)) per Galois orbit of
    the characters of G, chi = orbit[0] its least member (galois_orbits)."""
    g = realization.group
    reps = {a: u for u, a in realization.pi_table}      # chi(u) depends on pi(u) only
    if len(reps) != g.order:
        raise NonAbelianRealization("realization does not cover the group")
    table = []
    for orbit in galois_orbits(characters_trivial_on(
            realization.modulus, realization.unit_preimage((g.identity,)))):
        chi, m = orbit[0], orbit[0].order
        table.append((orbit, euler_phi(m) * g.order, tuple(
            _ramanujan_sum(m, chi.value_exponent(reps[a])) for a in range(g.order))))
    return table


def character_multiplicities(x, realization) -> list[tuple[list[DirichletCharacter], int]]:
    """Multiplicity of the characters of each Galois orbit of G inside the
    lattice representation, as (orbit, multiplicity) pairs.

    m_chi = (1/|G|) sum_g conj(chi)(g) tr rho(g). The traces are rational,
    so the phi(m) conjugates of chi (order m) share m_chi, and summing
    over the orbit turns each zeta_m^e into the Ramanujan sum
    c_m(e) = mu(q) phi(m) / phi(q), q = m / gcd(e, m):
    phi(m) |G| m_chi = sum_g tr rho(g) c_m(e_g), the traces dotted with a
    row of _character_table. The quotient is certified to be a nonnegative integer.
    """
    check_types(realization, x)
    if not x.group.is_abelian():
        raise NonAbelianRealization("character multiplicities need an abelian group")
    if x.group.order != realization.group.order:
        raise NonAbelianRealization("realization does not cover the group")
    check_same_group(x, realization)
    t = traces(x)
    out = []
    for orbit, den, row in _character_table(realization):
        total = sum(map(mul, t, row))
        mult, rem = divmod(total, den)
        if rem or mult < 0:
            raise MultiplicityNotInteger(f"multiplicity {Fraction(total, den)} of {orbit[0]}")
        out.append((orbit, mult))
    return out


def artin_L_minus_one(x, realization) -> Fraction:
    """L(X, -1) (with sign) for a lattice split through an abelian,
    totally real realization; the product of L(chi*,-1)^{m_chi} grouped
    by Galois orbit. Raises if a hypothesis fails; never returns 0.
    """
    check_same_group(x, realization)
    if not realization.totally_real:
        raise NotTotallyReal("Artin L-value at -1 needs pi(-1) = identity")
    mults = character_multiplicities(x, realization)
    if sum(len(orbit) * m for orbit, m in mults) != x.rank:
        raise MultiplicityNotInteger("multiplicities do not add up to the rank")
    total = Fraction(1)
    for orbit, mult in mults:
        if mult:
            total *= _orbit_norm(orbit[0]) ** mult
    if total == 0:
        raise InvariantViolation("L-value vanished despite a totally real splitting")
    return total


def L_value_rows(x, realization) -> list[dict]:
    """One row per character chi of G: the conductor and order of chi, its
    multiplicity in X and L(chi*, -1) of the primitive chi*. Orbit by orbit,
    as _orbit_norm: the member orbit[0]^k takes sigma_k of the one B_{2,chi*}
    vector of orbit[0] (galois_orbits lists k in units_mod order)."""
    rows = []
    for orbit, mult in character_multiplicities(x, realization):
        m = orbit[0].order
        cond, prim = conductor_primitive(orbit[0])
        v, d = _bernoulli2_integers(prim)
        for k in units_mod(m):
            value = CyclotomicNumber.from_integers(m, _conjugate(m, v, k), -2 * d)
            rows.append({"conductor": cond, "order": m, "multiplicity": mult, "value":
                         str(value.to_rational()) if value.is_rational() else
                         {"order": m, "coeffs": list(map(str, value.coeffs))}})
    return rows
