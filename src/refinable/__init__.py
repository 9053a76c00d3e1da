"""Exact refinability analysis for (box-)splines under non-integer
dilations, with certified avoidance of residues by geometric orbits."""

from .errors import (
    ConstructionFailure,
    CycleInconsistency,
    DescriptorMismatch,
    Divergence,
    DivisionByZero,
    GridTooCoarse,
    InvalidLambda,
    IrreducibilityError,
    NonIntegerMatrix,
    NonRationalTranslations,
    ProbeExhaustion,
    RankDeficient,
    RefinabilityError,
    RefinableError,
    RootIsolationFailure,
    ZeroPolynomial,
)
from .exactreal import (
    QQ,
    FieldDescriptor,
    FieldElement,
    field_make,
    int_ratio,
    parse_element,
)
from .qtrig import ComplexBall, ExponentVector, QTrigPoly, geometric
from .powermod import (
    ErdosCertificate,
    VerifyReport,
    check_admissibility,
    dist_to_int,
    erdos_construct,
    erdos_params,
    erdos_verify,
    orbit_distance_scan,
)
from .splinecore import (
    BoxSplineSpec,
    FactorizationReport,
    GridFunction,
    MaskSpec,
    MultivariateMask,
    boxspline_ft_f64,
    bspline_mask,
    cascade_solve,
    convolution_factorization_check,
    fourier_product_f64,
    integer_dilation_box_mask,
)
from .refinery import (
    ChainStructure,
    CoverageReport,
    DecayReport,
    IndecompWitness,
    LawtonResult,
    MultivariateMaskSpec,
    RefinabilityReport,
    chain_structure,
    condition_B,
    counterexample_instance,
    coverage_oracle,
    decay_probe,
    decide_univariate,
    indecomposability_witness,
    lawton_check,
    mask_construct,
    mask_construct_detailed,
    minimal_integer_power,
    multivariate_decide,
    verify_mask_identity,
)

__version__ = "0.1.0"
