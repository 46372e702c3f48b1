"""Exact linear algebra over division algebras, Grassmannian actions of
finite groups on products of matrix algebras, and field-of-definition
reports for abelian subvarieties."""

from .algebra import (
    AlgebraAutomorphism,
    AlgebraElement,
    CenterDescription,
    DivisionAlgebra,
    LiftTable,
    algebra_from_table,
    build_algebra,
    center,
    center_values,
    field_algebra,
    identity_automorphism,
    quaternion_algebra,
    rational_algebra,
    validate_automorphism,
)
from .autos import (
    Block,
    MatrixAlgebraAutomorphism,
    action_key,
    act_on_subspace,
    acts_as_identity,
    compose_autos,
    decompose,
    find_moved_subspace,
    from_pair,
    inner_conjugator,
    is_trivial_on_grassmannian,
    validate_matrix_algebra_automorphism,
)
from .datasets import DEMO_NAMES, demo_document
from .errors import (
    AlgebraDataError,
    IncompleteLiftTableError,
    SearchExhausted,
    SingularMatrixError,
    SkewgrassError,
    ValidationError,
)
from .frontend import (
    EndoStructure,
    SubvarietyReport,
    check_bound,
    field_of_definition,
    load_endo_structure,
    remond_bound,
    subvariety_survey,
)
from .groups import (
    FreeCertificate,
    GaloisAction,
    GroupElement,
    ProductAlgebra,
    act_on_ideal,
    acts_trivially_on_type,
    orbit,
    search_free,
    stabilizer,
    type_kernel,
    validate_group,
)
from .ideals import ProductIdeal, ideal_type, idempotent_generator, subspace_of_ideal
from .linalg import (
    MatrixOverD,
    RightSubspace,
    apply_matrix,
    apply_sigma,
    column_echelon,
    matrix_inv,
    random_invertible,
    random_subspace,
    right_kernel,
    subseed,
    subspace_intersect,
    subspace_sum,
    try_inverse,
)

__version__ = "0.1.0"
