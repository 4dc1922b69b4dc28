"""Built-in fixtures: the classical anchors plus the structural examples.

gm_q            G_m over Q (trivial group, f = 1)
res_sqrt5       Res_{Q(sqrt5)/Q} G_m      (C2, f = 5)
normone_5       norm-one torus of Q(sqrt5) (sign lattice, f = 5)
res_sqrt2       Res_{Q(sqrt2)/Q} G_m      (C2, f = 8)
dual_normone_v4 dual of the norm-one torus of Q(sqrt2, sqrt5)/Q
                (rank 3 over C2 x C2, f = 40)
s3_standard     rank-2 standard lattice over S3; no abelian realization
                exists, so only symbolic output is available
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intmat, lattices
from .errors import UnknownFixture
from .groups import FiniteGroup, cyclic_group, group_from_generators
from .lattices import GLattice
from .dirichlet import AbelianRealization, realization_from_images


@dataclass(frozen=True)
class Fixture:
    name: str
    group: FiniteGroup
    lattice: GLattice
    realization: AbelianRealization | None
    description: str


def _gm_q() -> Fixture:
    g = cyclic_group(1)
    return Fixture("gm_q", g, lattices.trivial_lattice(g),
                   realization_from_images(g, 1, {}),
                   "multiplicative group over Q")


def _c2_5() -> tuple[FiniteGroup, AbelianRealization]:
    g = group_from_generators([[1, 0]], name="C2")
    return g, realization_from_images(g, 5, {2: 1})


def _res_sqrt5() -> Fixture:
    g, r = _c2_5()
    return Fixture("res_sqrt5", g, lattices.permutation_lattice(g, (g.identity,)), r,
                   "Weil restriction of G_m from Q(sqrt5)")


def _normone_5() -> Fixture:
    g, r = _c2_5()
    return Fixture("normone_5", g, lattices.sign_lattice(g), r,
                   "norm-one torus of Q(sqrt5)/Q")


def _res_sqrt2() -> Fixture:
    g = group_from_generators([[1, 0]], name="C2")
    r = realization_from_images(g, 8, {7: 0, 5: 1})
    return Fixture("res_sqrt2", g, lattices.permutation_lattice(g, (g.identity,)), r,
                   "Weil restriction of G_m from Q(sqrt2)")


def _dual_normone_v4() -> Fixture:
    g = group_from_generators([[1, 0, 3, 2], [2, 3, 0, 1]], name="V4")
    # Splitting field Q(sqrt2, sqrt5) inside Q(mu_40): canonical units
    # 31 = (-1 mod 8), 21 = (5 mod 8), 17 = (2 mod 5); element 1 flips
    # sqrt2, element 2 flips sqrt5.
    r = realization_from_images(g, 40, {31: 0, 21: 1, 17: 2})
    lat = lattices.dual(lattices.norm_one_lattice(g))
    return Fixture("dual_normone_v4", g, lat, r,
                   "dual norm-one torus of Q(sqrt2, sqrt5)/Q")


def _s3_standard() -> Fixture:
    g = group_from_generators([[1, 2, 0], [1, 0, 2]], name="S3")
    lat = lattices.from_generator_matrices(g, 2, [
        intmat.from_rows([[0, -1], [1, -1]]),
        intmat.from_rows([[-1, 1], [0, 1]])])
    return Fixture("s3_standard", g, lat, None,
                   "standard rank-2 lattice over S3 (symbolic only)")


_BUILDERS = {
    "gm_q": _gm_q,
    "res_sqrt5": _res_sqrt5,
    "normone_5": _normone_5,
    "res_sqrt2": _res_sqrt2,
    "dual_normone_v4": _dual_normone_v4,
    "s3_standard": _s3_standard,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def fixture(name: str) -> Fixture:
    if not isinstance(name, str) or name not in _BUILDERS:
        raise UnknownFixture(f"unknown fixture {name!r}; have {', '.join(FIXTURE_NAMES)}")
    return _BUILDERS[name]()
