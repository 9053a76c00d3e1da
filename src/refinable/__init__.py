"""Exact refinability analysis for (box-)splines under non-integer
dilations, with certified avoidance of residues by geometric orbits.

The names here are exact and load no numpy.  The float kernels (the
cascade, the Fourier products and the factorization check) are imported
from ``refinable.splinecore``."""

from .errors import (
    ConstructionFailure,
    CycleInconsistency,
    DescriptorMismatch,
    Divergence,
    DivisionByZero,
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
    parse_element,
)
from .enclosure import ComplexBall
from .qtrig import ExponentVector, QTrigPoly, geometric
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
from .refinery import (
    BoxSplineSpec,
    ChainStructure,
    CoverageReport,
    DecayReport,
    IndecompWitness,
    LawtonResult,
    MaskSpec,
    MultivariateMask,
    MultivariateMaskSpec,
    RefinabilityReport,
    bspline_mask,
    chain_structure,
    condition_B,
    counterexample_instance,
    coverage_oracle,
    decay_probe,
    decide_univariate,
    indecomposability_witness,
    integer_dilation_box_mask,
    lawton_check,
    mask_construct,
    mask_construct_detailed,
    minimal_integer_power,
    multivariate_decide,
    verify_mask_identity,
)

__version__ = "0.1.0"
