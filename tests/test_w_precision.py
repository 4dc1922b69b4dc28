"""The W-group's precision read off w_2(L) against the fixed precision p^30.

realization._stable_part reads its Smith valuations mod p^cap with
cap = v_p(w_2(L)) + 1. Over G_L the lattice is trivial, so the twist-2
invariants lie in (Z/p^v_p(w_2(L)))^rank and the twist-1 coinvariants
are a quotient of (Z/p^v_p(w_1(L)))^rank: no valuation reaches cap. A
generator acting as the scalar c lowers that precision to p^v_p(c - 1)
and drops out of the stack. The pool below checks that the parts and
depths are those of the unfolded p^30 route of conftest.cap30_stable_part,
on both sides, at every candidate prime and at the three smallest primes
outside the candidate set.

At a prime that does not divide |G|, w_group_order and
global_coinvariants_order read the part off the character
multiplicities (realization._tame_part) and local point counts come
from them too (realization.point_count). The same pool checks those
closed forms against the Smith route and the Hermite determinant they
replaced.
"""

import random
from functools import lru_cache

import pytest

from conftest import abs_det, cap30_stable_part
from test_dirichlet_oracles import multiquadratic_realization
from test_realization import RUNG_PRIMES, _rung
from torusbt import intmat
from torusbt import lattices as lat
from torusbt import realization as realz
from torusbt.catalog import FIXTURE_NAMES, fixture
from torusbt.dirichlet import character_multiplicities
from torusbt.errors import InvariantViolation
from torusbt.engine import local_table
from torusbt.groups import cyclic_group, subgroup_classes
from torusbt.realization import realization_from_images
from torusbt.units import primitive_root_mod_prime_power

# Rungs Res Q(zeta_p)^+ past C48, up to C96 (p = 193).
LONG_RUNG_PRIMES = (101, 109, 127, 139, 157, 181, 193)
# (twist, side, extra candidate primes) of w_group_order and global_coinvariants_order.
TWISTS = ((2, "invariants", (2, 3)), (1, "coinvariants", (2,)))
# Real and imaginary multiquadratic fields, by discriminants.
MULTIQUADRATIC = ((8, 5), (8, 12), (5, 13), (8, 12, 5), (8, 12, 5, 28),
                  (-4, 5), (-3, 8), (-4, 12, 5), (-8, -3, 5))


def _lattices(g, rng):
    """Regular, norm-one, dual norm-one, a drawn sum of two coset lattices,
    the rank-2 trivial lattice and Z[G/H] with [G:H] = 2 where G has such
    an H. On the last two some a != e has rho(a) = I, so its unit
    generators are folded whatever the draw."""
    norm_one = lat.norm_one_lattice(g)
    classes = subgroup_classes(g)
    drawn = lat.direct_sum(*(lat.permutation_lattice(g, rng.choice(classes))
                             for _ in range(2)))
    halves = [h for h in classes if h.index == 2][:1]
    return [lat.permutation_lattice(g, (g.identity,)), norm_one, lat.dual(norm_one), drawn,
            lat.trivial_lattice(g, 2)] + [lat.permutation_lattice(g, h) for h in halves]


def _cyclic_subfields(m):
    """Every cyclic subfield of Q(zeta_m): C_d for each d | phi(m), a primitive
    root going to 1; the odd-order ones are totally real, the others are not."""
    p = 13 if m == 13 else {5: 5, 7: 7, 9: 3}[m]
    root = primitive_root_mod_prime_power(p, 2 if m == 9 else 1)
    phi = 6 if m == 9 else m - 1
    return [realization_from_images(cyclic_group(d), m, {root: 1 % d})
            for d in range(1, phi + 1) if phi % d == 0]


@lru_cache(maxsize=1)
def _pool():
    rng = random.Random(24)
    pairs = [(fx.lattice, fx.realization) for fx in map(fixture, FIXTURE_NAMES)
             if fx.realization is not None]
    realizations = [_rung(p)[1] for p in RUNG_PRIMES + list(LONG_RUNG_PRIMES)]
    realizations += [multiquadratic_realization(discs) for discs in MULTIQUADRATIC]
    realizations += [r for m in (5, 7, 9, 13) for r in _cyclic_subfields(m)]
    for r in realizations:
        pairs += [(x, r) for x in _lattices(r.group, rng)]
    return pairs


def test_w2_precision_matches_the_fixed_precision_on_the_pool():
    pairs = _pool()
    assert len(pairs) > 150
    assert sum(not r.totally_real for _, r in pairs) >= 40
    for x, r in pairs:
        for twist, side, extra in TWISTS:
            ps = realz._candidate_primes(r.modulus, extra)
            for p in ps + realz._next_primes_outside(ps):
                assert realz._stable_part(x, r, p, twist, side) == \
                    cap30_stable_part(x, r, p, twist, side), (r.modulus, x.rank, p, side)


def test_tame_closed_form_matches_the_smith_route_on_the_pool():
    """Twist-2 parts and depths and twist-1 parts at every candidate prime
    prime to |G|, imaginary fields included."""
    checked = 0
    for x, r in _pool():
        mults = character_multiplicities(x, r)
        for twist, side, extra in TWISTS:
            for p in realz._candidate_primes(r.modulus, extra):
                if r.group.order % p:
                    assert realz._tame_part(mults, r, p, twist) == \
                        realz._stable_part(x, r, p, twist, side), (r.modulus, x.rank, p, side)
                    checked += 1
    assert checked == 1020


def test_no_smith_form_runs_at_a_tame_prime(monkeypatch):
    """Every smith_valuations call of w_group_order and
    global_coinvariants_order is at a prime dividing |G|; their debug
    re-read of the tame parts passes."""
    fed = []
    sparse = intmat.smith_valuations
    monkeypatch.setattr(intmat, "smith_valuations",
                        lambda m, p, k: fed.append(p) or sparse(m, p, k))
    tame = 0
    for x, r in _pool():
        fed.clear()
        realz.w_group_order(x, r)
        realz.global_coinvariants_order(x, r)
        assert all(r.group.order % p == 0 for p in fed), (r.modulus, fed)
        tame += any(r.group.order % p for p in realz._candidate_primes(r.modulus, (2, 3)))
    assert tame > 250
    for x, r in _pool()[::10]:
        realz.w_group_order(x, r, debug=True)
        realz.global_coinvariants_order(x, r, debug=True)


@pytest.mark.parametrize("twist", [2, 1])
def test_a_tame_part_off_the_smith_route_fails_the_debug_read(monkeypatch, twist):
    x, r = _pool()[0]
    monkeypatch.setattr(realz, "_tame_part", lambda mults, r, p, twist: (p ** 9, 1))
    call = realz.w_group_order if twist == 2 else realz.global_coinvariants_order
    call(x, r)
    with pytest.raises(InvariantViolation, match=f"tame part .* of twist {twist} disagrees"):
        call(x, r, debug=True)


def test_point_counts_match_the_determinant_on_the_pool():
    """local_table and local_point_count against |det(ell rho(Frob_ell) - 1)|
    for every good prime ell <= 50."""
    checked = 0
    for x, r in _pool():
        for row in local_table(x, r):
            ell = row["ell"]
            expected = abs_det(ell * x.action[r.pi(ell)] - intmat.identity(x.rank))
            assert row["count"] == expected, (r.modulus, x.rank, ell)
            if checked % 7 == 0:
                assert realz.local_point_count(x, r, ell) == expected
            checked += 1
    assert checked == 4407
