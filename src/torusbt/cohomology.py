"""Group cohomology of finite groups acting on lattices.

H^1, Tate H^0 and the real place are closed forms in smith_valuations,
the elimination mod p^e the W-group uses: |H| kills H^1 and Tate H^0,
and an involution is determined by its trace and rank_F2(sigma - 1).
Only the invariant lattices X^H come from the integer Hermite form.

The same module hosts the flasque/invertible classification and the
constructive flasque resolution 0 -> Q -> P -> X -> 0 with P a direct
sum of coset lattices Z[G/H]. The resolution works on orbits of
vectors: a summand (Z[G/H], w) has Stab(w) = H, so G/H is the orbit Gw
and the images of its K-invariants are the sums of the K-orbits in Gw.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from . import intmat
from .exact import FinAbGroup, from_elementary_divisors
from .errors import InconsistentRank, InvariantViolation, ShapeMismatch
from .groups import (FiniteGroup, SubgroupClass, coset_action, is_metacyclic,
                     spanning_generators, subgroup_classes, subgroup_elements,
                     subgroup_generators)
from .induction import permutation_character_table
from .intmat import IntMatrix
from .lattices import (GLattice, direct_sum, invariant_basis, lattice_character,
                       norm_element_matrix, permutation_lattice, validate, zero_lattice)
from .units import factorize


def _smith_torsion(mat: IntMatrix, n: int, drop: int) -> FinAbGroup:
    """(+)_{p^e || n} (+)_i Z/p^min(v_p(d_i), e) over the Smith entries d_i
    of mat but `drop` zero ones, which read as valuation e: the p-part is
    smith_valuations(mat, p, e) with `drop` entries e dropped, and fewer
    than `drop` raises InvariantViolation."""
    divisors = []
    for p, e in factorize(n):
        vals = intmat.smith_valuations(mat, p, e)
        if vals.count(e) < drop:
            raise InvariantViolation(f"{drop} zero Smith entries expected, {p}-adic {vals}")
        divisors += [p ** v for v in vals[:len(vals) - drop]]
    return from_elementary_divisors(divisors)


def h1(h, x: GLattice) -> FinAbGroup:
    """H^1(H, X) = _smith_torsion(S, n, z), n = |H|, z = rank X^H, S the
    stacked s - 1 over generators s of H.

    Proof: n kills H^1 (Brown, Cohomology of Groups, III.10), so the long
    exact sequence of 0 -> X -n-> X -> X/nX -> 0 gives
    H^1 = ker(S mod n) / image(X^H). With S = U D V, ker(S mod n) is the
    sum of the annihilators Z/gcd(d_i, n) in Z/n over the Smith entries
    d_i of S, and X^H fills the Z/n of the z = sum_{h in H} tr rho(h) / n
    zero d_i.
    """
    elems = subgroup_elements(x.group, h)
    z = sum(x.action[a][i, i] for a in elems for i in range(x.rank)) // len(elems)
    ident = intmat.identity(x.rank)
    stacked = intmat.vstack([x.action[s] - ident for s in subgroup_generators(x.group, h)])
    return _smith_torsion(stacked, len(elems), z)


def tate_h0(h, x: GLattice) -> FinAbGroup:
    """Tate H^0(H, X) = X^H / NX = _smith_torsion(N, n, r - z), n = |H|,
    r = rank X, z = rank X^H, N = N_H = sum_{a in H} rho(a).

    Proof: N^2 = nN, so N/n projects onto X^H (x) Q and rank N = z =
    tr N / n. X^H is saturated in X and holds NX with full rank, so
    X^H / NX is exactly the torsion of coker N, (+) Z/d_i over the
    nonzero Smith entries d_i of N. n kills Tate cohomology (Brown, VI.5),
    so each such d_i divides n; the r - z zero d_i are dropped. X^H itself
    is never built.
    """
    norm = norm_element_matrix(x, h)
    n = len(subgroup_elements(x.group, h))
    z = sum(norm[i, i] for i in range(x.rank)) // n
    return _smith_torsion(norm, n, x.rank - z)


def is_flasque(x: GLattice):
    """True iff H^1(H, X) = 0 for every subgroup class; else the witnesses."""
    witnesses = []
    for cls in subgroup_classes(x.group):
        grp = h1(cls, x)
        if not grp.is_trivial:
            witnesses.append((cls, grp))
    return (not witnesses), witnesses


@dataclass(frozen=True)
class FlasqueResolution:
    """0 -> Q -> P -> X -> 0 with P = (+) Z[G/H_i] and Q flasque."""
    p_spec: tuple[int, ...]               # class id per summand
    p_generators: tuple[tuple[int, ...], ...]  # chosen H-fixed vector per summand
    p_lattice: GLattice
    surjection: IntMatrix                 # rank(X) x rank(P)
    q_lattice: GLattice
    inclusion: IntMatrix                  # rank(P) x rank(Q), kernel basis

    def to_json(self) -> dict:
        return {
            "p_spec": list(self.p_spec),
            "p_generators": [list(v) for v in self.p_generators],
            "p_rank": self.p_lattice.rank,
            "surjection": self.surjection.tolist(),
            "q_rank": self.q_lattice.rank,
            "inclusion": self.inclusion.tolist(),
        }


def _orbit_sums(x: GLattice, kelems: tuple[int, ...], orbit) -> list[tuple[int, ...]]:
    """Sums of the K-orbits inside the G-orbit `orbit`, a tuple of vectors,
    in the order of each K-orbit's first vector."""
    seen, cols = set(), []
    for vec in orbit:
        if vec not in seen:
            korbit = {x.action[k].apply(vec) for k in kelems}
            seen |= korbit
            cols.append(tuple(map(sum, zip(*korbit))))
    return cols


def flasque_resolution(x: GLattice) -> FlasqueResolution:
    """Constructive flasque resolution 0 -> Q -> P -> X -> 0.

    For every subgroup class H (ascending canonical order) each HNF
    generator v of X^H that is not yet hit by the H-invariants of the
    accumulated map gets its own coset-lattice summand. The summand uses
    the full stabilizer of v (a subgroup containing H), which keeps
    rank(P) small and still feeds v into P^H -> X^H, so that map is onto
    for every H; that in turn forces H^1(H, Q) = 0 for the kernel Q. On
    a literal permutation lattice this reproduces P = X, Q = 0.

    Each summand works on an orbit of vectors. With Stab(v) = u H u^-1
    for the least such u and H its class representative, the summand is
    (Z[G/H], w) with w = u^-1 v, so Stab(w) = H exactly and xH -> x w is
    a G-bijection from G/H onto Gw, listed in coset_action order (least
    element first). The K-invariants of Z[G/H] are K-orbit sums of
    cosets, so their images in X^K are the sums of the K-orbits inside
    Gw (_orbit_sums).

    X must be a G-lattice. The postconditions (exactness over Z,
    equivariance of P -> X and of Q -> P, flasqueness of Q) raise
    InvariantViolation. Equivariance is checked on spanning_generators(G)
    only: P, Q and X are G-actions, so f P(s) = X(s) f for the generators
    s gives f P(a) = X(a) f for every product a of them, and likewise for
    the inclusion.
    """
    g = x.group
    classes = subgroup_classes(g)
    class_of = {cls.elements: cls.class_id for cls in classes}

    summands: list[tuple[int, tuple[int, ...], tuple]] = []     # (class id, w, Gw)
    for cls in classes if x.rank else []:
        kelems = cls.elements
        have = [c for _, _, orbit in summands for c in _orbit_sums(x, kelems, orbit)]
        basis = invariant_basis(x, cls)
        for j in range(basis.cols):
            v = basis.col(j)
            mat = intmat.from_columns(have, x.rank)
            if intmat.solve_exact(mat, intmat.from_columns([v], x.rank)) is None:
                images = [m.apply(v) for m in x.action]
                stab = [a for a in range(g.order) if images[a] == v]
                for u in range(g.order):
                    cid = class_of.get(tuple(sorted(g.conjugate(g.inv(u), a) for a in stab)))
                    if cid is not None:
                        break
                else:
                    raise ShapeMismatch("subgroup not matched to any class")
                uinv = g.inv(u)
                orbit = tuple(dict.fromkeys(images[g.op(a, uinv)] for a in range(g.order)))
                summands.append((cid, images[uinv], orbit))
                have.extend(_orbit_sums(x, kelems, orbit))

    p_parts = [permutation_lattice(g, classes[cid]) for cid, _, _ in summands]
    p_lat = direct_sum(*p_parts) if p_parts else zero_lattice(g)
    surjection = intmat.from_columns(
        [vec for _, _, orbit in summands for vec in orbit], x.rank)

    inclusion = intmat.kernel_basis(surjection)
    q_rank = inclusion.cols
    # One solve for all elements: inclusion has full column rank, so each
    # q_rank-column block of the solution is that element's unique action.
    sol = intmat.solve_exact(inclusion, intmat.hstack(
        [p_lat.action[a] @ inclusion for a in range(g.order)]))
    if sol is None:
        raise InvariantViolation("kernel not preserved by the action")
    q_lat = GLattice(g, q_rank, tuple(
        IntMatrix(q_rank, q_rank, tuple(row[a * q_rank:(a + 1) * q_rank]
                                        for row in sol.data))
        for a in range(g.order)))
    validate(q_lat)

    res = FlasqueResolution(
        p_spec=tuple(cid for cid, _, _ in summands),
        p_generators=tuple(w for _, w, _ in summands),
        p_lattice=p_lat, surjection=surjection,
        q_lattice=q_lat, inclusion=inclusion)

    # Postconditions: exactness over Z, equivariance, and flasqueness of Q.
    if not intmat.cokernel_structure(surjection).is_trivial:
        raise InvariantViolation("surjection not onto")
    if p_lat.rank != q_rank + x.rank:
        raise InvariantViolation("rank additivity broken")
    if not (surjection @ inclusion).is_zero():
        raise InvariantViolation("composite not zero")
    for s in spanning_generators(g):
        if surjection @ p_lat.action[s] != x.action[s] @ surjection:
            raise InvariantViolation(f"surjection not equivariant at element {s}")
        if p_lat.action[s] @ inclusion != inclusion @ q_lat.action[s]:
            raise InvariantViolation(f"inclusion not equivariant at element {s}")
    ok, wit = is_flasque(q_lat)
    if not ok:
        raise InvariantViolation(f"kernel is not flasque: {wit}")
    return res


@dataclass(frozen=True)
class InvertibilityCertificate:
    """Witness that Q (+) complement is a permutation lattice."""
    complement: GLattice | None           # None means rank 0
    iso: IntMatrix                        # (Q + complement) -> target, unimodular
    target_spec: tuple[int, ...]          # class ids of the target (+) Z[G/H]

    def to_json(self) -> dict:
        return {
            "complement_rank": 0 if self.complement is None else self.complement.rank,
            "complement_action": None if self.complement is None else
                {str(a): m.tolist() for a, m in enumerate(self.complement.action)},
            "iso": self.iso.tolist(),
            "target_spec": list(self.target_spec),
        }


def verify_invertibility(q: GLattice, cert: InvertibilityCertificate) -> bool:
    """Soundness check: iso is unimodular and intertwines Q (+) I' with the target."""
    g = q.group
    classes = subgroup_classes(g)
    parts = [q]
    if cert.complement is not None and cert.complement.rank > 0:
        if cert.complement.group != g:
            raise ShapeMismatch("complement over a different group")
        parts.append(cert.complement)
    source = direct_sum(*parts)
    targets = [permutation_lattice(g, classes[cid]) for cid in cert.target_spec]
    target = direct_sum(*targets) if targets else zero_lattice(g)
    if cert.iso.rows != target.rank or cert.iso.cols != source.rank:
        raise ShapeMismatch(
            f"iso is {cert.iso.rows}x{cert.iso.cols}, need {target.rank}x{source.rank}")
    if target.rank != source.rank:
        return False
    if not intmat.is_unimodular(cert.iso):
        return False
    return all(cert.iso @ source.action[a] == target.action[a] @ cert.iso
               for a in range(g.order))


def _hom_basis(source: GLattice, target: GLattice) -> list[IntMatrix]:
    """Z-basis of Hom_G(source, target) = {M : M rho_s(g) = rho_t(g) M}."""
    g = source.group
    s, t = source.rank, target.rank
    if s == 0 or t == 0:
        return []
    gens = list(g.generators) or []
    rows = []
    for a in gens:
        ms, mt = source.action[a], target.action[a]
        for i in range(t):
            for j in range(s):
                row = [0] * (t * s)
                for k in range(s):
                    row[i * s + k] += ms.data[k][j]
                for k in range(t):
                    row[k * s + j] -= mt.data[i][k]
                rows.append(row)
    mat = intmat.from_rows(rows, t * s) if rows else intmat.zeros(0, t * s)
    basis = intmat.kernel_basis(mat)
    out = []
    for jc in range(basis.cols):
        flat = basis.col(jc)
        out.append(intmat.from_rows(
            [list(flat[i * s:(i + 1) * s]) for i in range(t)], s))
    return out


def _multisets_with_rank(classes, total: int):
    """Multisets of class ids whose coset ranks [G:H] sum to total, yielded
    lazily in a fixed order (higher counts of earlier classes first)."""
    idx_rank = [(cls.class_id, cls.index) for cls in classes]

    def rec(pos: int, remaining: int):
        if remaining == 0:
            yield ()
            return
        if pos >= len(idx_rank):
            return
        cid, r = idx_rank[pos]
        max_count = remaining // r
        for count in range(max_count, -1, -1):
            for rest in rec(pos + 1, remaining - count * r):
                yield (cid,) * count + rest
    yield from rec(0, total)


def _matched_multisets(classes, chi_perm, total: int, keys):
    """(multiset, key) for each multiset of _multisets_with_rank(classes,
    total), in its order, whose character sum(chi_perm[cid]) is in keys.

    The walk goes depth-first along the classes carrying key - partial
    character for every key still live. A permutation character counts
    fixed cosets, so it is never negative: a key whose residual has a
    negative entry can never be matched and is dropped, and a branch with
    no key left is cut.
    """
    steps = [(cls.class_id, cls.index, chi_perm[cls.class_id]) for cls in classes]

    def rec(pos: int, remaining: int, live):
        if remaining == 0:
            for key, residual in live:
                if not any(residual):
                    yield (), key
            return
        if pos >= len(steps):
            return
        cid, r, chi = steps[pos]
        # The most copies of this class each key's residual can take.
        caps = [min(a // c for a, c in zip(res, chi) if c) for _, res in live]
        for count in range(min(max(caps), remaining // r), -1, -1):
            kept = live if count == 0 else [
                (key, tuple(a - count * c for a, c in zip(res, chi)))
                for (key, res), cap in zip(live, caps) if cap >= count]
            for rest, key in rec(pos + 1, remaining - count * r, kept):
                yield (cid,) * count + rest, key
    live = [(key, key) for key in keys if min(key) >= 0]
    if live:
        yield from rec(0, total, live)


def _profile_add(out: Counter, pos: int, order: int) -> None:
    """Count the primary parts of Z/order at class position pos."""
    out.update((pos, p ** e) for p, e in factorize(order))


def _cohomology_profile(x: GLattice, classes) -> Counter:
    """Tate H^0 of x on every class, as the multiset (class position,
    prime power) of its primary parts.

    H^1 is left out: H^1(K, Z[G/H]) = 0 (Shapiro), so Q (+) C ~ T with
    C and T permutation lattices forces H^1(K, Q) = 0, and comparing H^1
    never changes which certificate is found. On the motivic path
    flasque_resolution has already checked H^1(K, Q) = 0 on every class.
    """
    out = Counter()
    for pos, cls in enumerate(classes):
        for d in tate_h0(cls, x).invariant_factors:
            _profile_add(out, pos, d)
    return out


def _permutation_profile(g: FiniteGroup, h: SubgroupClass, classes) -> Counter:
    """_cohomology_profile of Z[G/H] by Mackey's formula: restricted to K,
    Z[G/H] is the sum over double cosets KgH of Z[K/(K n gHg^-1)], so
    Tate H^0 = (+) Z/|K n gHg^-1|, one summand per K-orbit on G/H, of
    order |K| / orbit size (Brown, III.5-III.8)."""
    perms = coset_action(g, h)
    out = Counter()
    for pos, k in enumerate(classes):
        orbits = {frozenset(perms[a][i] for a in k.elements) for i in range(len(perms[0]))}
        for orbit in orbits:
            _profile_add(out, pos, k.order // len(orbit))
    return out


def _sum_profiles(profiles) -> Counter:
    """Profile of a direct sum from the profiles of its summands."""
    out = Counter()
    for prof in profiles:
        out.update(prof)
    return out


# Iso coefficients on a Hom_G basis, and the most combinations per pair;
# the most complement rank, and the most character-matched pairs.
COEFF_BOUND = 2
COMBO_BUDGET = 60000
RANK_BOUND = 4
PAIR_BUDGET = 200


def search_invertibility_certificate(q: GLattice) -> InvertibilityCertificate | None:
    """Bounded search for a stably-permutation witness of Q.

    Complements are themselves drawn from permutation lattices (which is
    what the in-scope examples need); candidate isos are small integer
    combinations of a Hom_G basis. Candidate pairs are pruned by the
    cheap necessary conditions first (equal characters, equal Tate-H^0
    profiles on every subgroup class). Sound but incomplete: None just
    means 'not found within budget'.

    Tate H^0 is additive over direct sums (Brown, III.8), so a side's
    profile is the sum of one memoised profile per summand: Q's from
    tate_h0, each Z[G/H]'s from Mackey's formula.

    For each target rank the complements are bucketed by chi_Q + chi(comp).
    Targets are walked in enumeration order, but only those whose
    character is a bucket key: _matched_multisets cuts a branch as soon as
    its partial character exceeds each key in some entry. Each target is
    paired with its bucket's complements in enumeration order; PAIR_BUDGET
    counts these character-matched pairs, and complements reach rank
    RANK_BOUND.
    """
    g = q.group
    classes = subgroup_classes(g)
    if q.rank == 0:
        cert = InvertibilityCertificate(None, intmat.zeros(0, 0), ())
        return cert if verify_invertibility(q, cert) else None

    chi_q = lattice_character(q)
    perm = {cls.class_id: permutation_lattice(g, cls) for cls in classes}
    chi_perm = permutation_character_table(g)
    profiles = {}

    def profile(cid):                     # cid None stands for Q itself
        if cid not in profiles:
            profiles[cid] = (_cohomology_profile(q, classes) if cid is None
                             else _permutation_profile(g, classes[cid], classes))
        return profiles[cid]

    pairs_examined = 0
    for target_rank in range(q.rank, q.rank + RANK_BOUND + 1):
        buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for comp_spec in _multisets_with_rank(classes, target_rank - q.rank):
            key = tuple(map(sum, zip(chi_q, *(chi_perm[cid] for cid in comp_spec))))
            buckets.setdefault(key, []).append(comp_spec)
        for target_spec, chi_t in _matched_multisets(classes, chi_perm, target_rank,
                                                     buckets):
            for comp_spec in buckets[chi_t]:
                pairs_examined += 1
                if pairs_examined > PAIR_BUDGET:
                    return None
                if _sum_profiles(map(profile, (None,) + comp_spec)) != \
                        _sum_profiles(map(profile, target_spec)):
                    continue
                comp_parts = [perm[cid] for cid in comp_spec]
                complement = direct_sum(*comp_parts) if comp_parts else None
                source = direct_sum(q, *comp_parts)
                target = direct_sum(*(perm[cid] for cid in target_spec))
                basis = _hom_basis(source, target)
                d = len(basis)
                if d == 0 or (2 * COEFF_BOUND + 1) ** d > COMBO_BUDGET:
                    continue
                for coeffs in itertools.product(
                        range(-COEFF_BOUND, COEFF_BOUND + 1), repeat=d):
                    if all(c == 0 for c in coeffs):
                        continue
                    m = intmat.zeros(target.rank, source.rank)
                    for c, b in zip(coeffs, basis):
                        if c:
                            m = m + c * b
                    if intmat.is_unimodular(m):
                        cert = InvertibilityCertificate(complement, m, tuple(target_spec))
                        if verify_invertibility(q, cert):
                            return cert
    return None


def check_motivic_interpretation(x: GLattice):
    """Sufficient-condition check: 'YesMetaCyclic', 'YesInvertibleCertificate',
    or 'Unknown' (never a 'no'; only sufficient conditions are known).

    Returns (verdict, certificate or None, resolution or None).
    """
    if is_metacyclic(x.group):
        return "YesMetaCyclic", None, None
    res = flasque_resolution(x)
    found = search_invertibility_certificate(res.q_lattice)
    if found is not None:
        return "YesInvertibleCertificate", found, res
    return "Unknown", None, res


def real_decomposition(x: GLattice, conj: int):
    """Multiplicities (a, b, c) of Z, Z^-, Z[C2] under the involution conj,
    and the real-place torsion (Z/2)^a.

    Every C2-lattice is Z^a (+) Z_-^b (+) Z[C2]^c (Diederichsen-Reiner), and
    sigma - 1 is 0, -2 and [[-1, 1], [1, -1]] on the three, so
    c = rank_F2(sigma - 1), the number of zeros in
    smith_valuations(sigma - 1, 2, 1); then a - b = tr sigma and
    a + b + 2c = rank. A c that leaves a or b negative or fractional
    raises InconsistentRank.
    """
    g = x.group
    if not 0 <= conj < g.order:
        raise ShapeMismatch(f"conj = {conj} is not an element of a group of order {g.order}")
    if g.op(conj, conj) != g.identity:
        raise ShapeMismatch("conj must square to the identity")
    sigma = x.action[conj]
    c = intmat.smith_valuations(sigma - intmat.identity(x.rank), 2, 1).count(0)
    trace = sum(sigma[i, i] for i in range(x.rank))
    twice_a, twice_b = x.rank - 2 * c + trace, x.rank - 2 * c - trace
    if twice_a % 2 or min(twice_a, twice_b) < 0:
        raise InconsistentRank(f"rank {x.rank} and trace {trace} with c = {c}")
    a, b = twice_a // 2, twice_b // 2
    return a, b, c, FinAbGroup((2,) * a)
