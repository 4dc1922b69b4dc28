"""Abelian arithmetic realizations and twisted (co)invariant orders.

A realization presents the splitting field L inside Q(mu_f) as a
surjection pi: (Z/f)* -> G. The absolute Galois group then acts on
X (x) Z_p(j) through sigma_a |-> a^j * rho(pi(a mod f)). For each
candidate prime p, one Smith form over Z/p^cap of the stacked
a^j rho(a) - 1, a running over generators of (Z/f p^2)* (of (Z/8f)*
for p = 2), gives the p-part of the W-group / coinvariant orders; w_2 of
a subfield M = L^H is its classical closed form (w2_of_subfield) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from . import intmat
from .errors import (BadReduction, InvariantViolation, NotHomomorphism,
                     NotSurjective, StabilizationBoundExceeded)
from .groups import FiniteGroup, subgroup_elements
from .lattices import GLattice
from .units import factorize, unit_group, units_mod

STABILIZATION_CAP = 30


@dataclass(frozen=True)
class AbelianRealization:
    group: FiniteGroup
    modulus: int
    images: tuple[tuple[int, int], ...]       # the (unit, element) pairs supplied
    pi_table: tuple[tuple[int, int], ...]     # unit -> element, all units mod f
    totally_real: bool

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

    Propagation is breadth-first multiplication, so any relation
    violation surfaces as a conflict; the supplied units must generate
    the whole unit group and their images must generate G.
    """
    if modulus < 1:
        raise NotHomomorphism("modulus must be >= 1")
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
    table = {1: group.identity}
    frontier = [1]
    while frontier:
        new = []
        for a in frontier:
            for u, e in norm_images.items():
                b = (a * u) % modulus if modulus > 1 else 1
                img = group.op(table[a], e)
                if b in table:
                    if table[b] != img:
                        raise NotHomomorphism(
                            f"images are inconsistent at unit {b}")
                else:
                    table[b] = img
                    new.append(b)
        frontier = new
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


def validate_realization(r: AbelianRealization, group: FiniteGroup) -> dict:
    """Re-run the construction checks; returns {'ok': True, 'totally_real': ...}.

    NotTotallyReal is deliberately not an exception here: the engine
    proceeds and marks the conjecture's hypothesis unmet.
    """
    rebuilt = realization_from_images(group, r.modulus, dict(r.images))
    if rebuilt.pi_table != r.pi_table:
        raise NotHomomorphism("realization table inconsistent with images")
    return {"ok": True, "totally_real": r.totally_real}


@dataclass(frozen=True)
class WGroupResult:
    total: int
    parts: tuple[tuple[int, int, int], ...]    # (p, part, depth)

    def to_json(self) -> dict:
        return {"total": self.total,
                "breakdown": {str(p): {"part": part, "depth": depth}
                              for p, part, depth in self.parts}}


def _stable_part(x: GLattice, r: AbelianRealization, p: int, twist: int,
                 side: str, cap: int) -> tuple[int, int]:
    """(p-part, depth) of the twisted invariants or coinvariants.

    The action factors through Gal(Q(mu_{f p^inf})/Q), and the kernel of
    its reduction to (Z/n)*, n = f p^2 (8f for p = 2), lies in its
    Frattini subgroup. So integers whose residues generate (Z/n)*
    generate it topologically, and the part is p^(sum v_i) for the
    p-adic valuations v_i of the Smith diagonal of the stacked
    a^twist rho(a) - 1 (its transposed blocks on the coinvariants
    side); the depth is max(1, max v_i). Valuations are read at
    precision p^cap, so one that reaches cap, a zero d_i (an infinite
    group) included, raises; so does a cap below 1, which no depth
    meets.
    """
    if type(cap) is not int or cap < 1:
        raise StabilizationBoundExceeded(f"cap = {cap!r} is not a positive integer depth")
    pk = p ** cap
    n = r.modulus * (8 if p == 2 else p * p)
    ident = intmat.identity(x.rank)
    blocks = [pow(a, twist, pk) * x.action[r.pi(a)] - ident
              for a in unit_group(n).generators]
    if side == "coinvariants":
        blocks = [b.transpose() for b in blocks]
    stacked = intmat.vstack(blocks)
    vs = intmat.smith_valuations(stacked, p, cap)
    vs += [cap] * (x.rank - len(vs))
    depth = max(1, max(vs, default=0))
    if depth >= cap:
        raise StabilizationBoundExceeded(
            f"p = {p} did not stabilize within depth {cap}")
    return p ** sum(vs), depth


def _candidate_primes(f: int, extra: tuple[int, ...]) -> list[int]:
    ps = set(extra)
    ps.update(p for p, _ in factorize(f))
    return sorted(ps)


def _next_primes_outside(candidates: list[int], count: int = 3) -> list[int]:
    out = []
    n = 2
    while len(out) < count:
        if is_prime(n) and n not in candidates:
            out.append(n)
        n += 1
    return out


def w_group_order(x: GLattice, r: AbelianRealization,
                  cap: int = STABILIZATION_CAP, debug: bool = False) -> WGroupResult:
    """|W^T(Q)| = |H^0(Q, X (x) Q/Z(2))| with per-prime breakdown.

    Candidate primes are {2, 3} and the divisors of f: away from the
    conductor the twist acts by the full square scalar, which fixes
    anything mod p only for p <= 3. With debug, the three smallest
    primes outside that set are checked to contribute nothing.
    """
    ps = _candidate_primes(r.modulus, (2, 3))
    parts = tuple((p, *_stable_part(x, r, p, 2, "invariants", cap)) for p in ps)
    if debug:
        for p in _next_primes_outside(ps):
            if _stable_part(x, r, p, 2, "invariants", cap)[0] != 1:
                raise InvariantViolation(f"candidate-prime completeness fails at p = {p}")
    return WGroupResult(prod(part for _, part, _ in parts), parts)


def global_coinvariants_order(x: GLattice, r: AbelianRealization,
                              cap: int = STABILIZATION_CAP) -> int:
    """Order m of the twist-1 Tate-module coinvariants (the global term
    of the localization sequence); candidate primes {2} and divisors of f."""
    return prod(_stable_part(x, r, p, 1, "coinvariants", cap)[0]
                for p in _candidate_primes(r.modulus, (2,)))


def w2_of_subfield(h, r: AbelianRealization) -> int:
    """w_2(M), M = L^H: the largest m with Gal(M(mu_m)/M) of exponent 2,
    2^(n_2+1) * prod_{q odd} q^(n_q), n_q the largest n with
    Q(zeta_{q^n})^+ in M (Tate, Symbols in arithmetic, 1970), as
    Gal(Q(mu_{q^n})/Q) is cyclic for odd q and {a : a^2 = 1 mod 2^m}
    fixes Q(zeta_{2^(m-1)})^+. Q(zeta_m)^+ = Q for m = 2, 3, 4; past
    those, M in Q(mu_f) holds Q(zeta_m)^+ exactly when m | f and the
    unit preimage of H is +-1 mod m."""
    units, out = r.unit_preimage(h), 2
    for q in _candidate_primes(r.modulus, (2, 3)):
        m = {2: 4, 3: 3}.get(q, 1)
        while r.modulus % (m * q) == 0 and all(u % (m * q) in (1, m * q - 1) for u in units):
            m *= q
        out *= m
    return out


def is_prime(n: int) -> bool:
    return factorize(n) == [(n, 1)]


def local_point_count(x: GLattice, r: AbelianRealization, ell: int) -> int:
    """#T_v(F_ell) = |det(ell * rho(Frob_ell) - 1)| at a good prime ell."""
    if not is_prime(ell):
        raise BadReduction(f"{ell} is not prime")
    if r.modulus % ell == 0 and r.modulus > 1:
        raise BadReduction(f"{ell} divides the conductor {r.modulus}")
    frob = x.action[r.pi(ell)]
    return intmat.abs_det(ell * frob - intmat.identity(x.rank))
