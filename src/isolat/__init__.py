"""Isotropy lattices of lifted proper group actions.

The package computes, for an action of SO(3), the circle, or a finite
rotation group with a known isotropy lattice, the lattice of the tangent or
cotangent lifted action, together with symplectic corollaries: lattices of
momentum level sets and the classes realized by relative equilibria.  A
brute-force oracle over concrete actions cross-checks the predictions.
"""

from .adjoint import isotropy_on_ann
from .catalog import (
    CIRCLE,
    FULL,
    ICOSA,
    N_CAP,
    OCTA,
    ORTH_CIRCLE,
    TETRA,
    TRIVIAL,
    CircleSub,
    ClassTag,
    ConcreteSubgroup,
    FullSub,
    OrthCircleSub,
    canonical_rep,
    classify_finite,
    cyclic,
    cyclic_group,
    dihedral,
    dihedral_group,
    embeddings_of_class_in,
    g_class_of,
    intersect,
    is_subconjugate,
    parse_tag,
    subgroup_contains,
    subgroup_equal,
    subgroups_of,
    tag_sort_key,
    trivial_group,
)
from .errors import (
    ClassNotInLattice,
    GroupTooLarge,
    IsolatError,
    NoUniqueMinimum,
    NotRealizableInG,
    NotSubconjugate,
    NotTangent,
    NotTotallyIsotropic,
    SchemaError,
    UnclassifiableGroup,
    ValidationError,
)
from .lift import (
    LiftResult,
    LiftWitness,
    ambient_class,
    lift_witness_check,
    lifted_classes,
    lifted_lattice,
)
from .momentum import (
    is_totally_isotropic,
    mu_lattice,
    relative_equilibria_lattice,
    zero_level_lattice,
)
from .oracle import (
    ConcreteAction,
    empirical_lattices,
    empirical_requilibria_lattice,
    make_action,
    stabilizer_of_point,
    stabilizer_of_tangent,
    strata_seeds,
)
from .poset import IsotropyLattice, build_lattice, compute_depths, up_set
from .rotation import (
    TOLERANCE,
    FiniteRotationGroup,
    Rotation,
    apply,
    axis_angle_of,
    close_group,
    compose,
    eq,
    rotation_from_json,
    rotation_to_json,
)

__version__ = "0.1.0"
