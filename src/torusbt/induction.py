"""Rational class functions and induction from coset lattices.

Any lattice character is a Q-combination of the permutation characters
of Z[G/H] over the subgroup classes (Artin induction with the cyclic
columns already included among them). Clearing denominators gives the
identity m*chi_X + chi_P = chi_Q which the L-value engine exponentiates
into a product of Dedekind zeta values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NoSolution
from .exact import lcm
from .groups import FiniteGroup, conjugacy_classes, subgroup_classes
from .lattices import GLattice, lattice_character


@dataclass(frozen=True)
class ClassFunction:
    group: FiniteGroup
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(conjugacy_classes(self.group)):
            raise ValueError("one value per conjugacy class required")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return ClassFunction(self.group,
                             tuple(a + b for a, b in zip(self.values, other.values)))

    def scale(self, c) -> "ClassFunction":
        c = Fraction(c)
        return ClassFunction(self.group, tuple(c * v for v in self.values))

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)


def character_of(x: GLattice) -> ClassFunction:
    return ClassFunction(x.group, lattice_character(x))


@dataclass(frozen=True)
class InductionDecomposition:
    """m * chi = sum over subgroup classes of a_H * chi_{Z[G/H]} (exactly)."""
    m: int
    coefficients: dict[int, int]          # class id -> a_H, zero entries omitted

    def to_json(self) -> dict:
        return {"m": self.m,
                "factors": [{"subgroup_id": cid, "exponent": a}
                            for cid, a in sorted(self.coefficients.items())]}


def permutation_character_table(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Matrix column per subgroup class: the character of Z[G/H] on each class.

    Its value at an element a is the number of cosets xH that a fixes,
    |{x : x^-1 a x in H}| / |H|, counted on one element per class.
    """
    reps = [cls[0] for cls in conjugacy_classes(g)]
    table = []
    for cls in subgroup_classes(g):
        h = set(cls.elements)
        table.append(tuple(sum(g.conjugate(x, a) in h for x in range(g.order)) // cls.order
                           for a in reps))
    return table


def artin_induction(chi: ClassFunction) -> InductionDecomposition:
    """Express chi exactly through permutation characters.

    The linear system is often underdetermined; the solution is pinned
    down by eliminating with pivots on the largest subgroups first and
    zeroing the remaining free coefficients, which concentrates support
    on large subgroups and reproduces textbook decompositions.
    """
    g = chi.group
    if not chi.is_integral():
        raise NoSolution("lattice characters are integer-valued")
    cols = permutation_character_table(g)
    nrows, ncols = len(conjugacy_classes(g)), len(cols)

    if all(v == 0 for v in chi.values):
        return InductionDecomposition(1, {})
    # A singleton support is the lexicographically smallest possible one;
    # it also pins chi of Z[G/H] to the single coefficient a_H = 1.
    for j in range(ncols):
        c = Fraction(chi.values[0], cols[j][0])
        if all(chi.values[i] == c * cols[j][i] for i in range(nrows)):
            m = c.denominator
            return InductionDecomposition(m, {j: int(c * m)})

    # Augmented Gaussian elimination over Q, pivot columns scanned from
    # the last (largest subgroup) to the first.
    a = [[Fraction(cols[j][i]) for j in range(ncols)] + [chi.values[i]]
         for i in range(nrows)]
    pivots: list[tuple[int, int]] = []
    used_rows: set[int] = set()
    for j in range(ncols - 1, -1, -1):
        pr = next((i for i in range(nrows)
                   if i not in used_rows and a[i][j] != 0), None)
        if pr is None:
            continue
        used_rows.add(pr)
        pivots.append((pr, j))
        pv = a[pr][j]
        a[pr] = [v / pv for v in a[pr]]
        for i in range(nrows):
            if i != pr and a[i][j] != 0:
                f = a[i][j]
                a[i] = [v - f * w for v, w in zip(a[i], a[pr])]
    for i in range(nrows):
        if i not in used_rows and a[i][ncols] != 0:
            raise NoSolution("character outside the permutation-character span")
    x = [Fraction(0)] * ncols
    for pr, j in pivots:
        x[j] = a[pr][ncols] - sum(a[pr][k] * x[k] for k in range(ncols) if k != j)

    m = 1
    for v in x:
        m = lcm(m, v.denominator) if v else m
    coeffs = {j: int(v * m) for j, v in enumerate(x) if v != 0}

    # Exact verification of m*chi = sum a_H chi_H before returning.
    for i in range(nrows):
        total = sum(coeffs.get(j, 0) * cols[j][i] for j in range(ncols))
        if total != m * chi.values[i]:
            raise NoSolution("internal: solution fails verification")
    return InductionDecomposition(m, coeffs)


def ono_decomposition(x: GLattice):
    """Split the induction identity into m*chi_X + chi_P = chi_Q.

    Returns (m, p_spec, q_spec) where the specs map class id ->
    multiplicity; symbolically this is L(X,-1)^m = prod_H
    zeta_{M_H}(-1)^{a_H} over the fixed fields M_H.
    """
    dec = artin_induction(character_of(x))
    p_spec = {cid: -a for cid, a in dec.coefficients.items() if a < 0}
    q_spec = {cid: a for cid, a in dec.coefficients.items() if a > 0}
    return dec.m, p_spec, q_spec, dec
