"""Finite groups as multiplication tables, with subgroup machinery.

Everything is table-driven: elements are indices 0..n-1, and subgroups
are found by extending known subgroups by cyclic ones. Abelian groups
(e.g. C_{(p-1)/2} or C2^k) take closed forms: the join of H and <a> is
the set product H<a>, and every subgroup and element is its own class.
Only non-abelian groups need closures and conjugation over all of G.

Functions decorated with @memoised run once per FiniteGroup instance;
every later call returns the same object, which callers must not mutate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from .errors import GroupTooLarge, NonPermutation, NotHomomorphism, NotSubgroup, ShapeMismatch
from .intmat import int_rows
from .units import factorize

SUBGROUP_ENUM_BOUND = 48
# Budget of group_from_generators and cyclic_group: a multiplication table has n^2 entries.
GROUP_ORDER_BOUND = 256
# Budget of realization_from_images: it walks every unit mod f, and the
# character table of the realization runs over all phi(f) characters.
MODULUS_BOUND = 10_000
# Budget of the enumeration itself: C2^6 has 2825 subgroups, C2^8 417199.
SUBGROUP_COUNT_BOUND = 5000


def memoised(build):
    """build(g), computed on the first call for each group, realization or
    lattice g and kept in its _memo; an argument without one raises ShapeMismatch."""
    @wraps(build)
    def cached(g):
        try:
            memo = g._memo
        except AttributeError:
            raise ShapeMismatch(f"{build.__name__} got a {type(g).__name__}") from None
        if build.__qualname__ not in memo:
            memo[build.__qualname__] = build(g)
        return memo[build.__qualname__]
    return cached


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    # Indices of a distinguished generating set (may be empty for the
    # trivial group); manifests attach one lattice matrix per entry.
    generators: tuple[int, ...] = ()
    name: str = "G"
    # Values of the @memoised functions of this group, set on first use.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, g: int, x: int) -> int:
        return self.op(self.op(g, x), self.inv(g))

    def powers(self, a: int) -> frozenset:
        """The cyclic subgroup <a>."""
        out, x = {self.identity}, a
        while x != self.identity:
            out.add(x)
            x = self.op(x, a)
        return frozenset(out)

    def element_order(self, a: int) -> int:
        return len(self.powers(a))

    @memoised
    def is_abelian(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.order) for b in range(a))

    def validate(self) -> None:
        """Identity, inverses, and associativity by Light's test: the s with
        (xs)y = x(sy) for all x, y are closed under products, as (x(st))y =
        (xs)(ty) = x((st)y), so the s in spanning_generators cover all triples."""
        n, e, mul = self.order, self.identity, self.mul
        for a in range(n):
            if mul[e][a] != a or mul[a][e] != a:
                raise NotHomomorphism(f"identity fails at {a}")
            if mul[a][self.inverse[a]] != e:
                raise NotHomomorphism(f"inverse fails at {a}")
        for s in spanning_generators(self):
            for x in range(n):
                xs_row, x_row = mul[mul[x][s]], mul[x]
                for y in range(n):
                    if xs_row[y] != x_row[mul[s][y]]:
                        raise NotHomomorphism(f"associativity fails at {(x, s, y)}")

    def __repr__(self) -> str:
        return f"{self.name}(order={self.order})"


def same_table(g: FiniteGroup, h: FiniteGroup) -> bool:
    """True iff g and h share one multiplication table (names and
    generator tuples may differ), so element numbers mean the same in both."""
    return g is h or g.mul == h.mul


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups, identified by a canonical representative."""
    class_id: int
    elements: tuple[int, ...]     # sorted representative
    order: int
    index: int
    normalizer_size: int
    n_conjugates: int

    def __str__(self) -> str:
        return f"H{self.class_id}(order={self.order}, index={self.index})"


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


def group_from_table(table, name: str = "G", generators=None) -> FiniteGroup:
    """Group with this multiplication table. A malformed table raises
    NotHomomorphism; generators that are not element indices raise
    NotSubgroup."""
    if not int_rows(table):
        raise NotHomomorphism(f"multiplication table must be rows of integers, got {table!r}")
    n = len(table)
    mul = tuple(tuple(row) for row in table)
    for row in mul:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotHomomorphism("malformed multiplication table")
    identity = None
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            identity = e
            break
    if identity is None:
        raise NotHomomorphism("table has no identity")
    inverse = []
    for a in range(n):
        inv = [b for b in range(n) if mul[a][b] == identity and mul[b][a] == identity]
        if len(inv) != 1:
            raise NotHomomorphism(f"element {a} lacks a unique inverse")
        inverse.append(inv[0])
    if generators is None:
        generators = tuple(a for a in range(n) if a != identity)
    elif not (isinstance(generators, (list, tuple))
              and all(type(s) is int and 0 <= s < n for s in generators)):
        raise NotSubgroup(f"generators {generators!r} are not element indices below {n}")
    g = FiniteGroup(n, mul, identity, tuple(inverse), tuple(generators), name)
    g.validate()
    return g


def walk_generators(start, start_image, gens: dict, step, image_step) -> dict:
    """Breadth-first extension from generators: {key: image} over the keys
    reached from start, b = step(s, a) getting image_step(gens[s], image of a).
    Two images of one key raise NotHomomorphism; whether it reached all it
    should is the caller's check."""
    table = {start: start_image}
    frontier = [start]
    while frontier:
        new = []
        for a in frontier:
            image = table[a]
            for s, image_s in gens.items():
                b, image_b = step(s, a), image_step(image_s, image)
                if b not in table:
                    table[b] = image_b
                    new.append(b)
                elif table[b] != image_b:
                    raise NotHomomorphism(f"inconsistent images at {b!r}")
        frontier = new
    return table


def group_from_generators(perms: list, name: str = "G") -> FiniteGroup:
    """Close a list of permutations (images form) under composition.

    Each permutation is a sequence p with p[i] = image of point i. The
    empty list yields the trivial group. Anything but a list of integer
    sequences raises NonPermutation, a closure past GROUP_ORDER_BOUND
    elements GroupTooLarge.
    """
    if not int_rows(perms):
        raise NonPermutation(f"generators must be lists of point indices, got {perms!r}")
    gens = []
    npoints = None
    for p in perms:
        p = tuple(p)
        if npoints is None:
            npoints = len(p)
        if len(p) != npoints or sorted(p) != list(range(npoints)):
            raise NonPermutation(f"{p} is not a permutation of 0..{ (npoints or 1) - 1}")
        gens.append(p)
    if npoints is None:
        npoints = 1
    ident = tuple(range(npoints))
    # Breadth-first over right products a o s: rights[i][a] = a o gens[i], and
    # parent[b] = (a, i) with b = a o gens[i] spans the group from the identity.
    rights = [{} for _ in gens]
    parent, reached = {ident: None}, [ident]
    for a in reached:
        for i, s in enumerate(gens):
            b = rights[i][a] = _compose(a, s)
            if b not in parent:
                if len(parent) == GROUP_ORDER_BOUND:
                    raise GroupTooLarge(f"closure past {GROUP_ORDER_BOUND} elements")
                parent[b] = (a, i)
                reached.append(b)
    ordered = sorted(parent)
    index = {p: i for i, p in enumerate(ordered)}
    right = [[index[rs[a]] for a in ordered] for rs in rights]
    # Column b of the table: x o b = (x o a) o gens[i] for b = a o gens[i].
    cols = {ident: range(len(ordered))}
    for b in reached[1:]:
        a, i = parent[b]
        cols[b] = [right[i][y] for y in cols[a]]
    mul = list(zip(*(cols[b] for b in ordered)))
    return group_from_table(mul, name=name, generators=tuple(index[p] for p in gens))


@memoised
def conjugacy_classes(g: FiniteGroup) -> list[list[int]]:
    """Partition of element indices into conjugacy classes, identity class
    first; in an abelian group, singletons."""
    abelian = g.is_abelian()
    seen = [False] * g.order
    classes = []
    for a in range(g.order):
        if seen[a]:
            continue
        orbit = [a] if abelian else sorted({g.conjugate(x, a) for x in range(g.order)})
        for b in orbit:
            seen[b] = True
        classes.append(orbit)
    classes.sort(key=lambda c: (c[0] != g.identity, c[0]))
    return classes


def _closure(g: FiniteGroup, seed) -> frozenset:
    """The subgroup generated by seed: the walk from the identity over it."""
    return frozenset(walk_generators(g.identity, None, dict.fromkeys(seed), g.op,
                                     lambda s, a: None))


def all_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup as a sorted element tuple (not just up to conjugacy).

    The join of H and a cyclic <a> is the set product H<a> when G is
    abelian, else the closure of H | <a>. A non-abelian G of order past
    SUBGROUP_ENUM_BOUND, or a G with more than SUBGROUP_COUNT_BOUND
    subgroups, raises GroupTooLarge.
    """
    abelian = g.is_abelian()
    if not abelian and g.order > SUBGROUP_ENUM_BOUND:
        raise GroupTooLarge(f"non-abelian |G| = {g.order} exceeds the enumeration "
                            f"bound {SUBGROUP_ENUM_BOUND}")
    cyclics = {g.powers(a) for a in range(g.order)}
    found = set(cyclics)                    # <identity> = {identity} among them
    frontier = set(found)
    # Extend by cyclic subgroups until nothing new appears.
    while frontier:
        new = set()
        for h in frontier:
            for c in cyclics:
                if c <= h:
                    continue
                j = (frozenset(g.op(x, y) for x in h for y in c) if abelian
                     else _closure(g, h | c))
                if j not in found:
                    found.add(j)
                    new.add(j)
                    if len(found) > SUBGROUP_COUNT_BOUND:
                        raise GroupTooLarge(f"{g.name} has more than "
                                            f"{SUBGROUP_COUNT_BOUND} subgroups")
        frontier = new
    return sorted((tuple(sorted(h)) for h in found), key=lambda t: (len(t), t))


@memoised
def subgroup_classes(g: FiniteGroup) -> list[SubgroupClass]:
    """Subgroups up to conjugacy in a canonical order (by order, then
    elements); in an abelian group each subgroup is its own class."""
    abelian = g.is_abelian()
    subs = all_subgroups(g)
    remaining = set(subs)
    classes = []
    for h in subs:                          # already canonically sorted
        if h not in remaining:
            continue
        if abelian:
            conjugates, normalizer = {h}, g.order
        else:
            hset = set(h)
            conjugates = {tuple(sorted(g.conjugate(x, a) for a in h))
                          for x in range(g.order)}
            normalizer = sum(1 for x in range(g.order)
                             if {g.conjugate(x, a) for a in h} == hset)
        remaining.difference_update(conjugates)
        classes.append(SubgroupClass(
            class_id=len(classes), elements=h, order=len(h),
            index=g.order // len(h), normalizer_size=normalizer,
            n_conjugates=len(conjugates)))
    return classes


def subgroup_elements(g: FiniteGroup, h) -> tuple[int, ...]:
    """Elements of a SubgroupClass, or of a raw element tuple of g.

    Either must be a subgroup of g, a class of another group too:
    generating_set raises NotSubgroup when the elements are out of range
    or not closed, and so does an h that is no set of elements (None, or
    a mix of types). Each element set passes that check once per group.
    """
    try:
        elems = h.elements if isinstance(h, SubgroupClass) else tuple(sorted(set(h)))
    except TypeError:
        raise NotSubgroup(f"{h!r:.80} is not a tuple of element indices") from None
    if elems not in _checked_subgroups(g) or any(type(a) is not int for a in elems):
        _checked_subgroups(g)[elems] = generating_set(g, elems)
    return elems


def subgroup_generators(g: FiniteGroup, h) -> list[int]:
    """generating_set of the subgroup h of g, kept from its subgroup_elements check."""
    return _checked_subgroups(g)[subgroup_elements(g, h)]


@memoised
def _checked_subgroups(g: FiniteGroup) -> dict:
    """Element tuples found to be subgroups of g, each mapped to its
    generating_set (a memo that grows)."""
    return {}


def generating_set(g: FiniteGroup, elements: tuple[int, ...]) -> list[int]:
    """Small deterministic generating set of the subgroup with these elements.

    Raises NotSubgroup when the elements are out of range or not closed.
    """
    target = set(elements)
    if not all(type(a) is int and 0 <= a < g.order for a in target):
        raise NotSubgroup(f"elements {sorted(target)} out of range for |G| = {g.order}")
    gens: list[int] = []
    span = {g.identity}
    for a in elements:
        if a in span:
            continue
        gens.append(a)
        span = set(_closure(g, gens))
        if span == target:
            break
    if span != target:
        raise NotSubgroup(f"elements {sorted(target)} do not form a subgroup")
    return gens


@memoised
def spanning_generators(g: FiniteGroup) -> list[int]:
    """Greedy generating set of the whole group, g.generators tried first.

    Each element is kept only if it is outside the span so far, so every
    kept one at least doubles the span: at most log2|G| entries. The
    walk ends on all of range(order), so the result generates G even when
    g.generators does not.
    """
    return generating_set(g, g.generators + tuple(range(g.order)))


@memoised
def is_metacyclic(g: FiniteGroup) -> bool:
    """True iff every Sylow subgroup is cyclic.

    A Sylow p-subgroup is cyclic exactly when the group contains an
    element of order p^{v_p(|G|)}, so a pass over element orders decides
    it without enumerating subgroups.
    """
    orders = {g.element_order(a) for a in range(g.order)}
    return all(any(o % p ** e == 0 for o in orders) for p, e in factorize(g.order))


def coset_action(g: FiniteGroup, h) -> tuple[tuple[int, ...], ...]:
    """G permuting G/H: entry [a][i] is the number of a * x_i H, cosets
    numbered by their least element. A non-subgroup h raises NotSubgroup."""
    elements = subgroup_elements(g, h)
    coset_of, reps = {}, []
    for x in range(g.order):
        if x not in coset_of:
            coset_of.update((g.op(x, a), len(reps)) for a in elements)
            reps.append(x)
    return tuple(tuple(coset_of[g.op(a, x)] for x in reps) for a in range(g.order))


def cyclic_group(n: int) -> FiniteGroup:
    """C_n, element k the k-fold rotation. A non-int n raises ShapeMismatch,
    and an n past GROUP_ORDER_BOUND GroupTooLarge before its n^2 table is built."""
    if type(n) is not int:
        raise ShapeMismatch(f"n = {n!r} is not an integer")
    if n > GROUP_ORDER_BOUND:
        raise GroupTooLarge(f"C{n} past {GROUP_ORDER_BOUND} elements")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_from_table(table, name=f"C{n}", generators=(() if n == 1 else (1,)))
