"""torusbt: exact Birch-Tate predictions for algebraic tori over Q.

A torus is encoded by its cocharacter lattice (a G-lattice over the
splitting Galois group) plus an abelian arithmetic realization
(Z/f)* ->> G. The package computes, in exact arithmetic, the Artin
L-value |L(X, -1)|, the twisted-invariant order |W|, their product (the
predicted tame-kernel order), and the structural toolkit around them:
flasque resolutions, invertibility certificates, induction identities,
real-place decompositions, and good-reduction local point counts.
"""

from .exact import FinAbGroup, odd_part, rational_nth_root
from .cyclotomic import CyclotomicNumber, cyclotomic_polynomial
from .intmat import IntMatrix, cokernel_structure, kernel_basis, solve_exact
from .groups import (FiniteGroup, SubgroupClass, conjugacy_classes, cyclic_group,
                     group_from_generators, group_from_table, is_metacyclic,
                     subgroup_classes)
from .lattices import (GLattice, coinvariants, direct_sum, dual, from_generator_matrices,
                       lattice_character, norm_one_lattice, permutation_lattice,
                       restrict, sign_lattice, trivial_lattice, validate)
from .cohomology import (FlasqueResolution, InvertibilityCertificate,
                         check_motivic_interpretation, flasque_resolution, h1,
                         is_flasque, real_decomposition,
                         search_invertibility_certificate, tate_h0,
                         verify_invertibility)
from .induction import InductionDecomposition, artin_induction, ono_decomposition
from .dirichlet import (DirichletCharacter, L_minus_one, artin_L_minus_one,
                        bernoulli2_chi, characters_mod, conductor_primitive,
                        zeta_minus_one)
from .units import UnitGroupStructure, unit_group
from .realization import (AbelianRealization, WGroupResult,
                          global_coinvariants_order, local_point_count,
                          realization_from_images, validate_realization,
                          w2_of_subfield, w_group_order)
from .engine import (BTCReport, btc_predict, isogeny_invariance_check,
                     local_table, ono_l_value, shapiro_suite,
                     weil_restriction_check)
from .catalog import FIXTURE_NAMES, Fixture, all_fixtures, fixture
from .manifest import Manifest, load_manifest, parse_manifest, run_manifest

__version__ = "0.1.0"
