"""Exact lattice-theoretic certificates for rational-curve configurations
on polarized K3 surfaces."""

from .exact import Signature, SingularMatrixError, kernel_basis, signature
from .graph import (
    CurveConfig,
    CurveVertex,
    LatticeClass,
    SpanKind,
    Violation,
    classify,
    config_from_data,
    hodge_filter,
    quotient_by_kernel,
    validate_pairings,
)
from .roots import (
    Decomposition,
    NotNegativeSemidefiniteError,
    RootComponent,
    decompose,
    max_rank_check,
    standard_diagram,
)
from .kodaira import (
    KodairaDivisor,
    KodairaType,
    divisor_degree,
    exclusion_6d,
    find_kodaira_divisors,
    type_table,
)
from .bounds import (
    AdmissibleHRange,
    BoundCertificate,
    BoxWitness,
    DegenerateLatticeError,
    ExclusionStatus,
    ExclusionVerdict,
    IntrinsicPolarization,
    NoDecompositionFoundError,
    admissible_h_range,
    box_certificate,
    exclude,
    exclude_all,
    intrinsic_polarization,
    rough_bound,
    sweep_records,
    verify_certificate,
)
from .fibration import (
    DeclaredCurve,
    DeclaredModel,
    FiberInstance,
    FibrationProfile,
    SdBound,
    SurfaceContext,
    UnsupportedContextError,
    budget_check,
    enumerate_uniform,
    fiber,
    profile,
    rational_component_bound,
    sd_bound,
    shioda_tate_rank,
    very_ample_check,
)
from .formats import (
    ConfigDocument,
    ParseError,
    ValidationError,
    parse_config,
    parse_model,
    parse_profile,
    serialize_config,
    serialize_model,
    serialize_profile,
)

__version__ = "0.1.0"
