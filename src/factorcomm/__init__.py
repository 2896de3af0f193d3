"""factorcomm: commutation up to a factor, AB = lambda * BA, made executable.

Construct finite-dimensional operator pairs with known factors, detect
and classify the factor of arbitrary pairs, build the unitary
intertwiner for self-adjoint pairs, and verify the spectral machinery
(resolvents, projections, quadrature limits) behind the classification
rules.
"""

from .commutation import (
    ANY,
    NONE,
    UNIQUE,
    ClassificationReport,
    FactorReport,
    LambdaConstraint,
    OperatorPair,
    SpectrumMatchReport,
    classify_pair,
    detect_factor,
    measurement_map_check,
    solve_lambda_commutant,
    spectrum_rotation_check,
    spectrum_swap_check,
    trace_det_constraints,
)
from .errors import (
    ConditionFailed,
    ConvergenceFailure,
    DimensionMismatch,
    EndpointOnSpectrum,
    FactorCommError,
    InvalidParameter,
    NotHermitian,
    NotNormal,
    SpectrumHit,
    VerificationFailed,
)
from .intertwiner import (
    GudderNagyReport,
    UnitaryIntertwiner,
    check_norm_condition,
    construct_intertwiner,
    gudder_nagy_check,
    verify_intertwiner,
)
from .linalg import (
    DEFAULT_TOL,
    PolarParts,
    StructureFlags,
    adjoint,
    classify_structure,
    eigenvalues,
    hermitian_eig,
    matmul,
    matrix_from_json,
    matrix_to_json,
    polar,
    svd,
)
from .realizations import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    RealizationSpec,
    RelationResiduals,
    UqSl2Module,
    build_realization,
    builtin_pairs,
    clock_shift_pair,
    cyclic_shift_diag_pair,
    jordan_pair,
    nilpotent_diag_pair,
    pauli_pair,
    q_bracket,
    uq_sl2_module,
    uq_sl2_pair,
    verify_uq_relations,
)
from .resolvent import (
    ProjectionResult,
    StoneQuadratureSpec,
    TransportedBoundReport,
    default_node_count,
    exact_projection,
    resolvent_norm_check,
    stone_projection,
    transported_integrand_bound,
)
from .suite import SuiteConfig, SuiteOutcome, run_suite

__version__ = "0.1.0"
