"""G-lattices: free Z-modules with a unimodular action of a finite group.

The action is stored for every group element (groups here are tiny), as
a tuple element-index -> IntMatrix acting on column vectors.

An action table M is checked on a generating set S of G, not on all
|G|^2 pairs: if M(e) = I and M(s*b) = M(s)M(b) for every s in S and b in
G, induction on word length gives M(a*b) = M(a)M(b) for all a, b, and
then M(a)^ord(a) = I forces det M(a) = +-1. from_generator_matrices
runs that walk, and validate compares a table with the walk from it on
S. A failed check raises NotUnimodular (wrong shape or not unimodular)
or NotHomomorphism (table size, or a table that is not its walk).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intmat
from .intmat import IntMatrix
from .errors import GroupMismatch, NotHomomorphism, NotUnimodular, ShapeMismatch, check_instance
from .groups import (FiniteGroup, conjugacy_classes, coset_action, memoised, same_table,
                     spanning_generators, subgroup_elements, subgroup_generators,
                     walk_generators)


@dataclass(frozen=True)
class GLattice:
    group: FiniteGroup
    rank: int
    action: tuple[IntMatrix, ...]      # one matrix per element index
    # Values of the @memoised functions of this lattice, set on first use.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __repr__(self) -> str:
        return f"GLattice(rank={self.rank} over {self.group.name})"


def check_lattices(*lattices) -> None:
    """ShapeMismatch unless every argument is a GLattice."""
    if not all(isinstance(x, GLattice) for x in lattices):
        raise ShapeMismatch(f"need GLattices, got {[type(x).__name__ for x in lattices]}")


def validate(x: GLattice) -> None:
    """Check that x.action is a unimodular action of x.group.

    Every matrix must be rank x rank and unimodular (NotUnimodular);
    the table needs one matrix per element and must be what
    from_generator_matrices expands from it on spanning_generators(G)
    (NotHomomorphism): by the module docstring the whole homomorphism
    property, at |S|*|G| <= |G|*log2|G| products.
    """
    check_lattices(x)
    g = x.group
    if len(x.action) != g.order:
        raise NotHomomorphism("action table size != group order")
    for a, m in enumerate(x.action):
        if (m.rows, m.cols) != (x.rank, x.rank):
            raise NotUnimodular(f"action({a}) has wrong shape")
        if not intmat.is_unimodular(m):
            raise NotUnimodular(f"action({a}) is not unimodular")
    gens = {s: x.action[s] for s in spanning_generators(g)}
    if from_generator_matrices(g, x.rank, gens).action != tuple(x.action):
        raise NotHomomorphism("action table is not the G-action of its generator matrices")


def from_generator_matrices(group: FiniteGroup, rank: int,
                            gen_mats: dict[int, IntMatrix] | list[IntMatrix]) -> GLattice:
    """Expand matrices given on group.generators to the whole group.

    The walk (groups.walk_generators) starts from M(e) = I, checks
    M(s*a) == M(s)M(a) for every given s and every element a it reaches,
    and fails unless the given elements reach all of G, so by the module
    docstring the expanded table is a G-action. Anything but IntMatrix
    values on int keys, and wrong-sized matrices, raise ShapeMismatch, a
    failed check NotHomomorphism.
    """
    check_instance(group, FiniteGroup)
    if isinstance(gen_mats, (list, tuple)):
        if len(gen_mats) != len(group.generators):
            raise NotHomomorphism("need one matrix per group generator")
        gen_mats = dict(zip(group.generators, gen_mats))
    if not (type(rank) is int and isinstance(gen_mats, dict) and all(
            type(s) is int and isinstance(ms, IntMatrix) for s, ms in gen_mats.items())):
        raise ShapeMismatch(f"need an int rank and IntMatrix values on element indices, "
                            f"got {rank!r}, {gen_mats!r:.80}")
    for s, ms in gen_mats.items():
        if not (0 <= s < group.order):
            raise NotHomomorphism(f"no element {s} in the group")
        if (ms.rows, ms.cols) != (rank, rank):
            raise ShapeMismatch(f"matrix of element {s} is {ms.rows}x{ms.cols}, "
                                f"need {rank}x{rank}")
    known = walk_generators(group.identity, intmat.identity(rank), gen_mats, group.op,
                            IntMatrix.__matmul__)
    if len(known) != group.order:
        raise NotHomomorphism("generator matrices do not reach the whole group "
                              "(generators do not generate G?)")
    return GLattice(group, rank, tuple(known[a] for a in range(group.order)))


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    check_instance(group, FiniteGroup)
    return GLattice(group, rank, (intmat.identity(rank),) * group.order)


def zero_lattice(group: FiniteGroup) -> GLattice:
    return trivial_lattice(group, 0)


def permutation_lattice(group: FiniteGroup, h) -> GLattice:
    """Z[G/H], rank [G:H], G permuting the cosets in coset_action order."""
    check_instance(group, FiniteGroup)
    perms = coset_action(group, h)
    n = len(perms[0])
    unit = intmat.identity(n).data
    mats = tuple(intmat.from_columns([unit[j] for j in p], n) for p in perms)
    return GLattice(group, n, mats)


def sign_lattice(group: FiniteGroup, signs: dict[int, int] | None = None) -> GLattice:
    """Rank-1 lattice with action +-1; signs maps each element to its sign.

    With signs omitted this needs |G| <= 2: the nonidentity element acts
    by -1. A signs that is no dict or misses an element raises ShapeMismatch.
    """
    check_instance(group, FiniteGroup)
    if signs is None:
        if group.order > 2:
            raise NotHomomorphism("default sign lattice needs |G| <= 2")
        signs = {a: (1 if a == group.identity else -1) for a in range(group.order)}
    if not isinstance(signs, dict) or any(a not in signs for a in range(group.order)):
        raise ShapeMismatch(f"signs must give a sign for each of the {group.order} elements")
    mats = tuple(intmat.from_rows([[signs[a]]]) for a in range(group.order))
    lat = GLattice(group, 1, mats)
    validate(lat)
    return lat


def direct_sum(*lats: GLattice) -> GLattice:
    """lats[0] (+) ... (+) lats[-1], one block_diag per group element.

    The groups must share one multiplication table (groups.same_table)."""
    if not lats:
        raise ShapeMismatch("empty direct sum needs an explicit group")
    check_lattices(*lats)
    g = lats[0].group
    if not all(same_table(x.group, g) for x in lats):
        raise GroupMismatch("direct_sum over different groups")
    mats = tuple(intmat.block_diag([x.action[a] for x in lats]) for a in range(g.order))
    return GLattice(g, sum(x.rank for x in lats), mats)


def action_json(x: GLattice) -> dict[str, list[list[int]]]:
    """The action table for a JSON report: element index (a string) -> rows."""
    return {str(a): m.tolist() for a, m in enumerate(x.action)}


def dual(x: GLattice) -> GLattice:
    """Dual lattice: g acts by transpose(action(g^{-1}))."""
    check_lattices(x)
    g = x.group
    mats = tuple(x.action[g.inv(a)].transpose() for a in range(g.order))
    return GLattice(g, x.rank, mats)


def minus_identity_stack(x: GLattice, elems) -> IntMatrix:
    """rho(s) - I stacked over s in elems: the rows, 1 off each diagonal entry."""
    rows = tuple((*row[:i], row[i] - 1, *row[i + 1:]) for s in elems
                 for i, row in enumerate(x.action[s].data))
    return IntMatrix(len(rows), x.rank, rows)


def invariant_basis(x: GLattice, h) -> IntMatrix:
    """HNF basis (columns) of X^H, the kernel of minus_identity_stack."""
    return intmat.kernel_basis(minus_identity_stack(x, subgroup_generators(x.group, h)))


def norm_element_matrix(x: GLattice, h) -> IntMatrix:
    """N_H = sum of action(a) over a in H."""
    mats = [x.action[a].data for a in subgroup_elements(x.group, h)]
    return IntMatrix(x.rank, x.rank, tuple(tuple(map(sum, zip(*rows))) for rows in zip(*mats)))


@memoised
def traces(x: GLattice) -> tuple[int, ...]:
    """tr rho(a) for each element a, once per lattice: every trace the package reads."""
    return tuple(sum(row[i] for i, row in enumerate(m.data)) for m in x.action)


def lattice_character(x: GLattice) -> tuple[int, ...]:
    """Trace of the action on each conjugacy class (checked constant on classes)."""
    t, classes = traces(x), conjugacy_classes(x.group)
    for cls in classes:
        if len({t[a] for a in cls}) != 1:
            raise NotHomomorphism(f"trace not constant on class {cls}")
    return tuple(t[cls[0]] for cls in classes)


def norm_one_lattice(group: FiniteGroup) -> GLattice:
    """Cocharacter lattice of the norm-one torus ker[Res Gm -> Gm]: the
    augmentation sublattice of Z[G], basis [a]-[e] for a != e, on which s in
    spanning_generators(G) acts by [sa]-[s]; from_generator_matrices expands it."""
    check_instance(group, FiniteGroup)
    nonid = [a for a in range(group.order) if a != group.identity]
    pos = {a: i for i, a in enumerate(nonid)}
    n = len(nonid)
    mats = {}
    for s in spanning_generators(group):
        cols = []
        for a in nonid:
            col = [0] * n
            if (sa := group.op(s, a)) != group.identity:
                col[pos[sa]] = 1
            col[pos[s]] -= 1
            cols.append(col)
        mats[s] = intmat.from_columns(cols, n)
    return from_generator_matrices(group, n, mats)
