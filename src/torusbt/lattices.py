"""G-lattices: free Z-modules with a unimodular action of a finite group.

The action is stored for every group element (groups here are tiny), as
a tuple element-index -> IntMatrix acting on column vectors.

An action table M is checked on a generating set S of G, not on all
|G|^2 pairs: if M(e) = I and M(s*b) = M(s)M(b) for every s in S and b in
G, induction on word length gives M(a*b) = M(a)M(b) for all a, b, and
then M(a)^ord(a) = I forces det M(a) = +-1. A failed check raises
NotUnimodular (wrong shape or not unimodular) or NotHomomorphism (table
size, identity, or a product).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat
from .intmat import IntMatrix
from .errors import GroupMismatch, NotHomomorphism, NotUnimodular, ShapeMismatch
from .groups import (FiniteGroup, conjugacy_classes, coset_action, spanning_generators,
                     subgroup_as_group, subgroup_elements, subgroup_generators)


@dataclass(frozen=True)
class GLattice:
    group: FiniteGroup
    rank: int
    action: tuple[IntMatrix, ...]      # one matrix per element index

    def __repr__(self) -> str:
        return f"GLattice(rank={self.rank} over {self.group.name})"


def validate(x: GLattice) -> None:
    """Check that x.action is a unimodular action of x.group.

    Every matrix must be rank x rank and unimodular (NotUnimodular);
    the table needs one matrix per element, identity acting as I, and
    action(s)action(b) == action(s*b) for s in spanning_generators(G) and
    every b (NotHomomorphism). By the module docstring that is the whole
    homomorphism property, at |S|*|G| <= |G|*log2|G| products.
    """
    g = x.group
    if len(x.action) != g.order:
        raise NotHomomorphism("action table size != group order")
    for a, m in enumerate(x.action):
        if (m.rows, m.cols) != (x.rank, x.rank):
            raise NotUnimodular(f"action({a}) has wrong shape")
        if not intmat.is_unimodular(m):
            raise NotUnimodular(f"action({a}) is not unimodular")
    if not x.action[g.identity].is_identity():
        raise NotHomomorphism("action(identity) is not the identity matrix")
    for s in spanning_generators(g):
        for b in range(g.order):
            if x.action[s] @ x.action[b] != x.action[g.op(s, b)]:
                raise NotHomomorphism(f"action({s})action({b}) != action({s}*{b})")


def from_generator_matrices(group: FiniteGroup, rank: int,
                            gen_mats: dict[int, IntMatrix] | list[IntMatrix]) -> GLattice:
    """Expand matrices given on group.generators to the whole group by BFS.

    The BFS starts from M(e) = I, checks M(s*a) == M(s)M(a) for every
    given s and every element a it reaches, and fails unless the given
    elements reach all of G. That is the generating-set check of
    validate, so the expanded table is a G-action without a second pass.
    Wrong-sized matrices raise ShapeMismatch, a failed check
    NotHomomorphism.
    """
    if isinstance(gen_mats, (list, tuple)):
        if len(gen_mats) != len(group.generators):
            raise NotHomomorphism("need one matrix per group generator")
        gen_mats = dict(zip(group.generators, gen_mats))
    for s, ms in gen_mats.items():
        if not (0 <= s < group.order):
            raise NotHomomorphism(f"no element {s} in the group")
        if (ms.rows, ms.cols) != (rank, rank):
            raise ShapeMismatch(f"matrix of element {s} is {ms.rows}x{ms.cols}, "
                                f"need {rank}x{rank}")
    known: dict[int, IntMatrix] = {group.identity: intmat.identity(rank)}
    frontier = [group.identity]
    while frontier:
        new = []
        for a in frontier:
            for s, ms in gen_mats.items():
                b = group.op(s, a)
                mb = ms @ known[a]
                if b not in known:
                    known[b] = mb
                    new.append(b)
                elif known[b] != mb:
                    raise NotHomomorphism(f"inconsistent action at element {b}")
        frontier = new
    if len(known) != group.order:
        raise NotHomomorphism("generator matrices do not reach the whole group "
                              "(generators do not generate G?)")
    return GLattice(group, rank, tuple(known[a] for a in range(group.order)))


def trivial_lattice(group: FiniteGroup, rank: int = 1) -> GLattice:
    ident = intmat.identity(rank)
    return GLattice(group, rank, tuple(ident for _ in range(group.order)))


def zero_lattice(group: FiniteGroup) -> GLattice:
    return trivial_lattice(group, 0)


def permutation_lattice(group: FiniteGroup, h) -> GLattice:
    """Z[G/H], rank [G:H], G permuting the cosets in coset_action order."""
    perms = coset_action(group, h)
    n = len(perms[0])
    unit = intmat.identity(n).data
    mats = tuple(intmat.from_columns([unit[j] for j in p], n) for p in perms)
    return GLattice(group, n, mats)


def sign_lattice(group: FiniteGroup, signs: dict[int, int] | None = None) -> GLattice:
    """Rank-1 lattice with action +-1; signs maps each element to its sign.

    With signs omitted this needs |G| <= 2: the nonidentity element acts
    by -1. A signs that misses an element raises ShapeMismatch.
    """
    if signs is None:
        if group.order > 2:
            raise NotHomomorphism("default sign lattice needs |G| <= 2")
        signs = {a: (1 if a == group.identity else -1) for a in range(group.order)}
    if any(a not in signs for a in range(group.order)):
        raise ShapeMismatch(f"signs must give a sign for each of the {group.order} elements")
    mats = tuple(intmat.from_rows([[signs[a]]]) for a in range(group.order))
    lat = GLattice(group, 1, mats)
    validate(lat)
    return lat


def direct_sum(*lats: GLattice) -> GLattice:
    """lats[0] (+) ... (+) lats[-1], one block_diag per group element."""
    if not lats:
        raise ShapeMismatch("empty direct sum needs an explicit group")
    g = lats[0].group
    if any(x.group is not g and x.group != g for x in lats):
        raise GroupMismatch("direct_sum over different groups")
    mats = tuple(intmat.block_diag([x.action[a] for x in lats]) for a in range(g.order))
    return GLattice(g, sum(x.rank for x in lats), mats)


def dual(x: GLattice) -> GLattice:
    """Dual lattice: g acts by transpose(action(g^{-1}))."""
    g = x.group
    mats = tuple(x.action[g.inv(a)].transpose() for a in range(g.order))
    return GLattice(g, x.rank, mats)


def restrict(x: GLattice, h) -> tuple[GLattice, list[int]]:
    """The same module over the subgroup H, as a lattice over H's own group.

    Returns (lattice over H, embedding of H's indices into G's).
    """
    sub, embed = subgroup_as_group(x.group, h)
    mats = tuple(x.action[embed[a]] for a in range(sub.order))
    return GLattice(sub, x.rank, mats), embed


def invariant_basis(x: GLattice, h) -> IntMatrix:
    """HNF basis (columns) of the fixed sublattice X^H."""
    gens = subgroup_generators(x.group, h)
    if not gens:
        return intmat.identity(x.rank)
    stacked = intmat.vstack([x.action[s] - intmat.identity(x.rank) for s in gens])
    return intmat.kernel_basis(stacked)


def coinvariants(x: GLattice, h):
    """X_H = X / span{(g-1)X : g in H} as a FinAbGroup."""
    gens = subgroup_generators(x.group, h)
    if not gens:
        return intmat.cokernel_structure(intmat.zeros(x.rank, 0))
    stacked = intmat.hstack([x.action[s] - intmat.identity(x.rank) for s in gens])
    return intmat.cokernel_structure(stacked)


def norm_element_matrix(x: GLattice, h) -> IntMatrix:
    """N_H = sum of action(a) over a in H."""
    elems = subgroup_elements(x.group, h)
    out = intmat.zeros(x.rank, x.rank)
    for a in elems:
        out = out + x.action[a]
    return out


def lattice_character(x: GLattice) -> tuple[int, ...]:
    """Trace of the action on each conjugacy class (checked constant on classes)."""
    values = []
    for cls in conjugacy_classes(x.group):
        traces = {sum(x.action[a].data[i][i] for i in range(x.rank)) for a in cls}
        if len(traces) != 1:
            raise NotHomomorphism(f"trace not constant on class {cls}")
        values.append(traces.pop())
    return tuple(values)


def norm_one_lattice(group: FiniteGroup) -> GLattice:
    """Cocharacter lattice of the norm-one torus ker[Res Gm -> Gm]:
    the augmentation sublattice of Z[G], basis [g]-[e] for g != e."""
    nonid = [a for a in range(group.order) if a != group.identity]
    pos = {a: i for i, a in enumerate(nonid)}
    n = len(nonid)

    def basis_vec(a: int) -> list[int]:
        # [a] - [e] in coordinates; [e] contributes nothing, identity -> 0
        v = [0] * n
        if a != group.identity:
            v[pos[a]] = 1
        return v

    mats = []
    for g in range(group.order):
        cols = []
        for a in nonid:
            # g.([a]-[e]) = [ga]-[g] = ([ga]-[e]) - ([g]-[e])
            v = basis_vec(group.op(g, a))
            w = basis_vec(g)
            cols.append(tuple(vi - wi for vi, wi in zip(v, w)))
        mats.append(intmat.from_columns(cols, n))
    lat = GLattice(group, n, tuple(mats))
    validate(lat)
    return lat
