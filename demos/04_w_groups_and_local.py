"""Twisted Galois invariants: the W-group, global coinvariants, and
good-reduction point counts.

|W^T(Q)| is computed prime by prime: generators a of (Z/f p^2)* (of
(Z/8f)* for p = 2) act on X (x) Q_p/Z_p(2) by a^2 * rho(pi(a)), and the
p-part and its depth are read off the p-adic valuations of one Smith
form of the stacked a^2 rho(a) - 1. The same form with twist a^1 and
cokernels gives the global coinvariants order m of the localization
sequence. Local components at good primes are plain
determinants |det(ell * rho(Frob_ell) - 1)|.
"""

from torusbt import (fixture, global_coinvariants_order, local_point_count,
                     local_table, w_group_order)

for name in ("gm_q", "res_sqrt5", "normone_5", "dual_normone_v4"):
    f = fixture(name)
    res = w_group_order(f.lattice, f.realization)
    m = global_coinvariants_order(f.lattice, f.realization)
    print(f"== {name}")
    print(f"   |W| = {res.total}")
    for p, part, depth in res.parts:
        print(f"     p = {p}: part {part} (depth {depth})")
    print(f"   global coinvariants order m = {m}")
    table = local_table(f.lattice, f.realization, prime_cap=20)
    pretty = ", ".join(f"#T(F_{row['ell']}) = {row['count']}" for row in table)
    print(f"   local points: {pretty}")
    print()

# The norm-one torus of Q(sqrt5) at an inert prime has q + 1 points.
f = fixture("normone_5")
for ell in (7, 13, 17):
    n = local_point_count(f.lattice, f.realization, ell)
    frob_nontrivial = f.realization.pi(ell) != f.group.identity
    expected = ell + 1 if frob_nontrivial else ell - 1
    print(f"ell = {ell}: {n} points; Frobenius "
          f"{'inert' if frob_nontrivial else 'split'}, classical {expected}")
