"""Exact Hopf-algebra integrals, cointegrals and chromatic maps in H-mod.

Structure-constant Hopf algebras over Q, GF(p) or cyclotomic fields; exact
dense linear algebra; integrals, distinguished grouplikes and pivots; the
left/right/spherical chromatic maps of the module category, with their
defining identities verified as exact matrix equalities.
"""

from .fields import (
    CyclotomicField,
    Field,
    FieldError,
    FieldMismatchError,
    FieldSpec,
    PrimeField,
    RationalField,
    field_make,
    primitive_root_of_unity,
)
from .linalg import (
    LinAlgError,
    Matrix,
    NoSolutionError,
    ShapeError,
    SingularMatrixError,
)
from .hopf import (
    HopfAlgebra,
    HopfAxiomError,
    HopfDataError,
    hopf_make,
)
from .integrals import (
    IntegralData,
    PivotData,
    PivotSearchInconclusive,
    alpha_left_ideal,
    cointegral_space,
    integral_space,
    is_spherical_hmod,
    is_unimodular,
    normalized_pair,
    pivot_candidates,
)
from .hmod import (
    HModule,
    ModuleAxiomError,
    Morphism,
    MorphismTypeError,
    alpha_module,
    dual_module,
    evaluation_morphisms,
    hom_basis,
    hom_space,
    is_h_linear,
    lambda_transform,
    module_make,
    pivotal_evaluation_morphisms,
    regular_module,
    tensor_module,
    trivial_module,
    word_action,
    word_element_action,
)
from .calculus import (
    Compose,
    ExprEnv,
    ExprSyntaxError,
    Ident,
    MorphismExpr,
    Prim,
    Tensor,
    compose,
    evaluate,
    identity,
    morphisms_equal,
    parse_expr,
    tensor,
)
from .chromatic import (
    ChromaticMap,
    ChromaticReport,
    NotSphericalError,
    RetractFamily,
    chromatic_left_hopf,
    chromatic_retract,
    chromatic_right_hopf,
    chromatic_spherical,
    split_idempotent,
    verify_chromatic_identity,
)
from .algebras import (
    GroupTable,
    dual_group_algebra,
    find_nontrivial_idempotent,
    group_algebra,
    small_quantum_sl2,
    sweedler_h4,
    taft,
)
from .fileformat import (
    FileFormatError,
    algebra_from_dict,
    algebra_to_dict,
    load_algebra,
    load_module,
    module_from_dict,
    module_to_dict,
    save_algebra,
    save_module,
)

__version__ = "0.1.0"
