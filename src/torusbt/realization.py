"""Twisted (co)invariant orders and local point counts of a realization.

A realization (dirichlet.AbelianRealization) presents the splitting
field L inside Q(mu_f) as a surjection pi: (Z/f)* -> G. The absolute
Galois group then acts on X (x) Z_p(j) through
sigma_a |-> a^j * rho(pi(a mod f)). At a candidate prime p that divides
|G|, one Smith form of the stacked a^j rho(a) - 1, a running over
generators of (Z/f p^2)* (of (Z/8f)* for p = 2), gives the p-part of
the W-group / coinvariant orders. It is read mod p^cap with
cap = v_p(w_2(L)) + 1, which no valuation reaches, lowered to p^t by
each generator that acts as a scalar c with t = v_p(c - 1); w_2 of a
subfield M = L^H is its classical closed form (w2_of_subfield). At a
prime p that does not divide |G| the part is a closed form in the
character multiplicities of X (_tame_part), and so is every local point
count (point_count): neither runs an elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from . import intmat
from .cyclotomic import cyclotomic_polynomial
from .dirichlet import AbelianRealization, character_multiplicities, check_same_group, check_types
from .dirichlet import realization_from_images  # noqa: F401  (re-exported: the public API)
from .errors import BadReduction, InvariantViolation, ShapeMismatch
from .groups import memoised
from .lattices import GLattice
from .units import euler_phi, factorize, unit_group


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
    w2, cap = _w2_of_splitting_field(r), 1
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
    return sorted({*extra, *(p for p, _ in factorize(f))})


def _next_primes_outside(candidates: list[int], count: int = 3) -> list[int]:
    out = []
    n = 2
    while len(out) < count:
        if is_prime(n) and n not in candidates:
            out.append(n)
        n += 1
    return out


def _tame_part(mults: list, r: AbelianRealization, p: int, twist: int) -> tuple[int, int]:
    """(p-part, depth) of the twist-j (co)invariants at a prime p prime to
    |G|, from the multiplicities of character_multiplicities (Washington,
    Introduction to Cyclotomic Fields, 5.1). There 1 + pZ_p (all of Z_2*
    for p = 2) acts by scalars, so the part lies in X/p^t (x) Z/p^t(j),
    t = 3 for (p, j) = (2, 2) and 1 otherwise, where only the
    psi = omega_p^(-j)-isotypic part of X is fixed (psi = 1 for p = 2). For
    psi trivial (p = 2, or p = 3 and j = 2) that is p^(t z), z = rank X^G,
    the multiplicity of the trivial orbit. Else psi has order
    k = (p - 1) / gcd(p - 1, j) and kernel {a : a^j = 1 mod p}, and the part
    is p^m, m the multiplicity of the orbit with that kernel (0 when G has
    none, as when p does not divide f).
    """
    z = next(m for orbit, m in mults if orbit[0].order == 1)
    if p == 2 and twist == 2:
        return 8 ** z, 3 if z else 1
    k = (p - 1) // gcd(p - 1, twist)
    if k == 1:
        return p ** z, 1
    if r.modulus % p:
        return 1, 1
    # ker chi and {a^j = 1 mod p} both have index k, so one holding the other is equal.
    kernel = [u for u, _ in r.pi_table if pow(u, twist, p) == 1]
    m = next((m for orbit, m in mults if orbit[0].order == k
              and all(orbit[0].value_exponent(u) == 0 for u in kernel)), 0)
    return p ** m, 1


def _twisted_parts(x: GLattice, r: AbelianRealization, ps: list[int], twist: int,
                   side: str, debug: bool) -> tuple[tuple[int, int, int], ...]:
    """(p, part, depth) at each p of ps: _stable_part where p divides |G|,
    else _tame_part. With debug each tame part is read by _stable_part
    too, and a disagreement raises InvariantViolation."""
    tame = [p for p in ps if r.group.order % p]
    mults = character_multiplicities(x, r) if tame else []
    parts = []
    for p in ps:
        part = _tame_part(mults, r, p, twist) if p in tame else _stable_part(x, r, p, twist, side)
        if debug and p in tame and part != (smith := _stable_part(x, r, p, twist, side)):
            raise InvariantViolation(f"p = {p}: the tame part {part} of twist {twist} "
                                     f"disagrees with the Smith route {smith}")
        parts.append((p, *part))
    return tuple(parts)


def w_group_order(x: GLattice, r: AbelianRealization, debug: bool = False) -> WGroupResult:
    """|W^T(Q)| = |H^0(Q, X (x) Q/Z(2))| with per-prime breakdown.

    Candidate primes are {2, 3} and the divisors of f: away from the
    conductor the twist acts by the full square scalar, which fixes
    anything mod p only for p <= 3. With debug, the three smallest
    primes outside that set are checked to contribute nothing, and each
    tame part is checked against the Smith route.
    """
    check_same_group(x, r)
    ps = _candidate_primes(r.modulus, (2, 3))
    if debug:                   # the unfolded stack at p^2: a nontrivial part fails here
        for p in _next_primes_outside(ps):
            if _stable_part(x, r, p, 2, "invariants", oracle=True)[0] != 1:
                raise InvariantViolation(f"candidate-prime completeness fails at p = {p}")
    parts = _twisted_parts(x, r, ps, 2, "invariants", debug)
    return WGroupResult(prod(part for _, part, _ in parts), parts)


def global_coinvariants_order(x: GLattice, r: AbelianRealization, debug: bool = False) -> int:
    """Order m of the twist-1 Tate-module coinvariants (the global term
    of the localization sequence); candidate primes {2} and divisors of f.
    With debug each tame part is checked against the Smith route."""
    check_same_group(x, r)
    parts = _twisted_parts(x, r, _candidate_primes(r.modulus, (2,)), 1, "coinvariants", debug)
    return prod(part for _, part, _ in parts)


@memoised
def _w2_of_splitting_field(r: AbelianRealization) -> int:
    return w2_of_subfield((r.group.identity,), r)


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
    """#T_v(F_ell) = |det(ell * rho(Frob_ell) - 1)| at a good prime ell (point_count)."""
    check_same_group(x, r)
    if type(ell) is not int:
        raise ShapeMismatch(f"ell = {ell!r} is not an integer")
    if not is_prime(ell):
        raise BadReduction(f"{ell} is not prime")
    if r.modulus % ell == 0 and r.modulus > 1:
        raise BadReduction(f"{ell} divides the conductor {r.modulus}")
    return point_count(character_multiplicities(x, r), ell)


def point_count(mults: list, ell: int) -> int:
    """|det(ell * rho(Frob_ell) - 1)| at a prime ell prime to f, from the
    multiplicities of character_multiplicities. The eigenvalues of
    rho(Frob_ell) are the chi(ell): an orbit of order k and multiplicity m
    with chi(ell) = zeta_k^e, chi = orbit[0], gives each primitive d-th
    root zeta, d = k / gcd(e, k), m phi(k) / phi(d) times, and the product
    of ell zeta - 1 over those roots is Phi_d(ell) up to sign.
    """
    out = 1
    for orbit, m in mults:
        if m:
            k = orbit[0].order
            d = k // gcd(orbit[0].value_exponent(ell), k)
            phi_d = 0
            for c in reversed(cyclotomic_polynomial(d)):
                phi_d = phi_d * ell + c
            out *= phi_d ** (m * euler_phi(k) // euler_phi(d))
    return out
