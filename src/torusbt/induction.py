"""Permutation characters and induction from coset lattices.

A class function is a tuple of ints, one value per conjugacy class.
Any lattice character is a Q-combination of the permutation characters
of Z[G/H] over the subgroup classes (Artin induction with the cyclic
columns already included among them). Clearing denominators gives the
identity m*chi_X + chi_P = chi_Q which the L-value engine exponentiates
into a product of Dedekind zeta values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import intmat
from .errors import NoSolution
from .groups import FiniteGroup, conjugacy_classes, memoised, subgroup_classes
from .lattices import GLattice, lattice_character


@dataclass(frozen=True)
class InductionDecomposition:
    """m * chi = sum over subgroup classes of a_H * chi_{Z[G/H]} (exactly)."""
    m: int
    coefficients: dict[int, int]          # class id -> a_H, zero entries omitted

    def to_json(self) -> dict:
        return {"m": self.m,
                "factors": [{"subgroup_id": cid, "exponent": a}
                            for cid, a in sorted(self.coefficients.items())]}


@memoised
def permutation_character_table(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Matrix column per subgroup class: the character of Z[G/H] on each class.

    Its value at an element a is the number of cosets xH that a fixes,
    |{x : x^-1 a x in H}| / |H|, counted on one element per class; for
    abelian G every conjugate of a is a, so it is [G:H] if a in H, else 0.
    Kept on the group (groups.memoised): callers must not mutate it.
    """
    reps = [cls[0] for cls in conjugacy_classes(g)]
    table = []
    for cls in subgroup_classes(g):
        h = set(cls.elements)
        if g.is_abelian():
            table.append(tuple(cls.index if a in h else 0 for a in reps))
        else:
            table.append(tuple(sum(g.conjugate(x, a) in h for x in range(g.order))
                               // cls.order for a in reps))
    return table


def artin_induction(g: FiniteGroup, chi: tuple[int, ...]) -> InductionDecomposition:
    """Express the integer class function chi exactly through permutation characters.

    The linear system is often underdetermined; the support is the greedy
    set of independent characters taken from the largest subgroup down
    (the pivot rows of the Hermite form of the reversed table), and the
    other coefficients are zero. That concentrates support on large
    subgroups and reproduces textbook decompositions. On that support the
    solution is unique, so (a, m) is the primitive kernel vector of
    [T_support | -chi] with m > 0.
    """
    cols = permutation_character_table(g)
    nrows = len(conjugacy_classes(g))
    if not (isinstance(chi, (tuple, list)) and len(chi) == nrows
            and all(type(v) is int for v in chi)):
        raise NoSolution(f"a character of {g.name} is {nrows} integers, got {chi!r}")
    if not any(chi):
        return InductionDecomposition(1, {})
    # A singleton support is the lexicographically smallest possible one;
    # it also pins chi of Z[G/H] to the single coefficient a_H = 1.
    for j, col in enumerate(cols):
        if all(v * col[0] == chi[0] * c for v, c in zip(chi, col)):
            d = gcd(chi[0], col[0])
            return InductionDecomposition(col[0] // d, {j: chi[0] // d})

    h = intmat.hnf_columns(intmat.from_rows(cols[::-1]))
    support = sorted(len(cols) - 1 - next(i for i in range(h.rows) if h[i, k])
                     for k in range(h.cols))
    kern = intmat.kernel_basis(intmat.from_columns(
        [cols[j] for j in support] + [tuple(-v for v in chi)], nrows))
    if kern.cols != 1 or kern[len(support), 0] == 0:
        raise NoSolution("character outside the permutation-character span")
    sign = 1 if kern[len(support), 0] > 0 else -1
    *sol, m = (sign * v for v in kern.col(0))
    coeffs = {j: a for j, a in zip(support, sol) if a}

    # Exact verification of m*chi = sum a_H chi_H before returning.
    for i in range(nrows):
        if sum(a * cols[j][i] for j, a in coeffs.items()) != m * chi[i]:
            raise NoSolution("internal: solution fails verification")
    return InductionDecomposition(m, coeffs)


def ono_decomposition(x: GLattice):
    """Split the induction identity into m*chi_X + chi_P = chi_Q.

    Returns (m, p_spec, q_spec, decomposition) where the specs map class
    id -> multiplicity; symbolically this is L(X,-1)^m = prod_H
    zeta_{M_H}(-1)^{a_H} over the fixed fields M_H.
    """
    dec = artin_induction(x.group, lattice_character(x))
    p_spec = {cid: -a for cid, a in dec.coefficients.items() if a < 0}
    q_spec = {cid: a for cid, a in dec.coefficients.items() if a > 0}
    return dec.m, p_spec, q_spec, dec
