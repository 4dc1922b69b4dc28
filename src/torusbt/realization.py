"""Abelian arithmetic realizations and twisted (co)invariant orders.

A realization presents the splitting field L inside Q(mu_f) as a
surjection pi: (Z/f)* -> G. The absolute Galois group then acts on
X (x) Z_p(j) through sigma_a |-> a^j * rho(pi(a mod f)). For each
candidate prime p, one Smith form of the stacked a^j rho(a) - 1, a
running over generators of (Z/f p^2)* (of (Z/8f)* for p = 2), gives the
p-part of the W-group / coinvariant orders. It is read mod p^cap with
cap = v_p(w_2(L)) + 1, which no valuation reaches, lowered to p^t by
each generator that acts as a scalar c with t = v_p(c - 1); w_2 of a
subfield M = L^H is its classical closed form (w2_of_subfield).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

from . import intmat
from .errors import (BadReduction, GroupMismatch, GroupTooLarge, InvariantViolation,
                     NotHomomorphism, NotSurjective, ShapeMismatch)
from .groups import MODULUS_BOUND, FiniteGroup, subgroup_elements, walk_generators
from .lattices import GLattice, check_lattices
from .units import factorize, unit_group, units_mod


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
    if not isinstance(r, AbelianRealization):
        raise ShapeMismatch(f"need an AbelianRealization, got {type(r).__name__}")
    check_lattices(*lattices)


def check_same_group(x: GLattice, r: AbelianRealization) -> None:
    """GroupMismatch unless x and r share one multiplication table, as
    r's element numbers index x.action; ShapeMismatch unless x is a
    GLattice and r an AbelianRealization (check_types)."""
    check_types(r, x)
    if x.group.mul != r.group.mul:
        raise GroupMismatch(f"lattice over {x.group.name}, realization over {r.group.name}")


@dataclass(frozen=True)
class WGroupResult:
    total: int
    parts: tuple[tuple[int, int, int], ...]    # (p, part, depth)

    def to_json(self) -> dict:
        return {"total": self.total,
                "breakdown": {str(p): {"part": part, "depth": depth}
                              for p, part, depth in self.parts}}


def _stable_part(x: GLattice, r: AbelianRealization, p: int, twist: int,
                 side: str, oracle: bool = False) -> tuple[int, int]:
    """(p-part, depth) of the twisted invariants or coinvariants.

    The action factors through Gal(Q(mu_{f p^inf})/Q), and the kernel of
    its reduction to (Z/n)*, n = f p^2 (8f for p = 2), lies in its
    Frattini subgroup. So integers whose residues generate (Z/n)*
    generate it topologically, and the part is p^(sum v_i) for the
    p-adic valuations v_i of the Smith diagonal of the stacked
    a^twist rho(a) - 1 (its transposed blocks on the coinvariants
    side); the depth is max(1, max v_i).

    Over G_L the lattice is trivial, so the invariants lie in
    (Z/p^v)^rank, v = v_p(w_2(L)), and the twist-1 coinvariants are a
    quotient of (Z/p^v_p(w_1(L)))^rank with w_1(L) | w_2(L). No d_i is 0
    (each block is nonsingular: a >= 2 and rho(a) has finite order). So
    every v_i is below cap = v + 1, and a valuation that reaches cap is
    a bug.

    A generator with rho(a) = I gives the scalar block (c - 1) I,
    c = a^twist, and over Z_p the rows of [A; (c - 1) I] span
    rowspace(A) + p^t Z_p^rank, t = v_p(c - 1): the valuations are
    min(v_i(A), t). So scalar blocks are dropped and the rest is read at
    p^k, k = min(cap, t) (the CRT generators of the p-part for p = 2, 3
    are such blocks); k = 0 leaves nothing to eliminate. With oracle the
    full stack is read at p^max(cap, 2), so a nontrivial part fails the
    candidate-prime completeness check rather than the cap.
    """
    w2, cap = w2_of_subfield((r.group.identity,), r), 1
    while w2 % p ** cap == 0:
        cap += 1
    if oracle:
        cap = max(cap, 2)
    pk, k = p ** cap, cap
    rows = []
    for a in unit_group(r.modulus * (8 if p == 2 else p * p)).generators:
        c, m = pow(a, twist, pk), x.action[r.pi(a)]
        if not oracle and m.is_identity():
            t = 0
            while t < k and (c - 1) % p ** (t + 1) == 0:
                t += 1
            k = t
            continue
        m = m.data if side == "invariants" else zip(*m.data)
        for i, row in enumerate(m):
            row = [c * e for e in row]
            row[i] -= 1
            rows.append(tuple(row))
    if k == 0:
        return 1, 1
    vs = intmat.smith_valuations(intmat.IntMatrix(len(rows), x.rank, tuple(rows)), p, k)
    vs += [k] * (x.rank - len(vs))
    if cap in vs:
        raise InvariantViolation(f"p = {p}: a Smith valuation reaches the w_2 bound {cap}")
    return p ** sum(vs), max(1, max(vs, default=0))


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


def w_group_order(x: GLattice, r: AbelianRealization, debug: bool = False) -> WGroupResult:
    """|W^T(Q)| = |H^0(Q, X (x) Q/Z(2))| with per-prime breakdown.

    Candidate primes are {2, 3} and the divisors of f: away from the
    conductor the twist acts by the full square scalar, which fixes
    anything mod p only for p <= 3. With debug, the three smallest
    primes outside that set are checked to contribute nothing.
    """
    check_same_group(x, r)
    ps = _candidate_primes(r.modulus, (2, 3))
    parts = tuple((p, *_stable_part(x, r, p, 2, "invariants")) for p in ps)
    if debug:                   # the unfolded stack at p^2: a nontrivial part fails here
        for p in _next_primes_outside(ps):
            if _stable_part(x, r, p, 2, "invariants", oracle=True)[0] != 1:
                raise InvariantViolation(f"candidate-prime completeness fails at p = {p}")
    return WGroupResult(prod(part for _, part, _ in parts), parts)


def global_coinvariants_order(x: GLattice, r: AbelianRealization) -> int:
    """Order m of the twist-1 Tate-module coinvariants (the global term
    of the localization sequence); candidate primes {2} and divisors of f."""
    check_same_group(x, r)
    return prod(_stable_part(x, r, p, 1, "coinvariants")[0]
                for p in _candidate_primes(r.modulus, (2,)))


def w2_of_subfield(h, r: AbelianRealization) -> int:
    """w_2(M), M = L^H: the largest m with Gal(M(mu_m)/M) of exponent 2,
    2^(n_2+1) * prod_{q odd} q^(n_q), n_q the largest n with
    Q(zeta_{q^n})^+ in M (Tate, Symbols in arithmetic, 1970), as
    Gal(Q(mu_{q^n})/Q) is cyclic for odd q and {a : a^2 = 1 mod 2^m}
    fixes Q(zeta_{2^(m-1)})^+. Q(zeta_m)^+ = Q for m = 2, 3, 4; past
    those, M in Q(mu_f) holds Q(zeta_m)^+ exactly when m | f and the
    unit preimage of H is +-1 mod m."""
    check_types(r)
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
    check_same_group(x, r)
    if type(ell) is not int:
        raise ShapeMismatch(f"ell = {ell!r} is not an integer")
    if not is_prime(ell):
        raise BadReduction(f"{ell} is not prime")
    if r.modulus % ell == 0 and r.modulus > 1:
        raise BadReduction(f"{ell} divides the conductor {r.modulus}")
    frob = x.action[r.pi(ell)]
    return intmat.abs_det(ell * frob - intmat.identity(x.rank))
