"""Exact isotropy and u-invariant engine over towers of valued fields.

Square classes, diagonal quadratic and hermitian forms, period-two Brauer
classes and their residue data, an exact u-invariant recursion with
auditable derivation trees, rational bound formulas, and a concrete
quaternion lab that re-verifies the constructions on real elements.
"""

from .errors import (
    EngineError,
    FieldMismatchError,
    GapError,
    HermlabError,
    InvalidExtensionError,
    NeedsAssertionError,
    NotDivisionError,
    ParseError,
    UnsupportedClassError,
    UnsupportedFieldError,
    UnsupportedShapeError,
)
from .fields import (
    CDVField,
    FiniteField,
    GlobalFunctionField,
    SquareClass,
    TransitionMap,
    class_to_str,
    minus_one,
    nonsquare_unit,
    one,
    parse_class,
    parse_field,
    quadratic_extension,
    sqcl_group,
    sqcl_mul,
    transport,
    uniformizer,
)
from .quadform import (
    QuadForm,
    albert_form,
    norm_form,
    qf_is_isotropic,
    qf_is_isotropic_oracle,
    qf_isotropy_path,
    u_quadratic,
)
from .brauer import (
    BrauerClass,
    DivisionKind,
    RamificationData,
    UnitaryCase,
    bc_base_change,
    bc_is_division,
    bc_is_trivial,
    bc_key,
    bc_ramification,
    bc_single_symbol_rep,
    classify_unitary_case,
    morita_reduce,
    parse_brauer,
    trivial_class,
)
from .hermitian import (
    HermFormDesc,
    UKind,
    canonical_involution,
    herm_is_isotropic,
    jacobson_quadratic,
    transfer_quadratic,
    u_search,
    unitary_involution,
)
from .derivation import Derivation
from .uinv import (
    ABCSequence,
    DescentResult,
    TensorBounds,
    UResult,
    Witness,
    bounds_ai,
    bounds_tensor,
    expected_table,
    semi_global_combine,
    sequence_abc,
    sequence_abc_recursive,
    tensor_comparison_bound,
    u_exact,
    witness,
)
from .lab import (
    LabAlgebra,
    LarmourResult,
    QuaternionElt,
    choose_pid,
    choose_sigma,
    gamma_involution,
    larmour_decompose,
    residue_elt,
    standard_algebra,
    w_value,
)
from .cli import main, verify_paper

__version__ = "0.1.0"
