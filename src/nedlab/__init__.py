"""Nonuniform exponential dichotomy laboratory.

Construct nonautonomous evolution processes, fit and validate
nonuniform exponential dichotomy certificates of both kinds, evaluate
perturbation-robustness constants, and simulate/verify pullback and
forward attractors, including a discretized 1-d parabolic pipeline.
"""

from .process import (
    DomainError,
    EvolutionProcess,
    FiniteEscapeError,
    FULL_LINE,
    GridSpec,
    HALF_LINE_MINUS,
    HALF_LINE_PLUS,
    IntegratedLinearProcess,
    MatrixClosedFormProcess,
    NormGrid,
    ProjectionFamily,
    ScalarCoefficientProcess,
    ScalarExponentProcess,
    TimeDomain,
    dual_process,
    load_process_config,
    operator_norm,
    sample_norm_grid,
    spectral_norm,
)
from .dichotomy import (
    DataError,
    DichotomyCertificate,
    ExponentPair,
    InapplicableError,
    ParetoFrontier,
    RejectionEvidence,
    check_certificate,
    classify,
    convert_halfline,
    dual_certificate,
    fit_bounds,
    nedi_rejection_evidence,
    unify_exponents,
)
from .gallery import GalleryEntry, entry_names, make_entry
from .robustness import (
    PipelineResult,
    RobustnessReport,
    growth_constant,
    perturbation_distance,
    robust_nedii_pipeline,
    robustness_constants,
)
from .attractor import (
    CooperativeSpec,
    DissipativitySpec,
    MarginReport,
    OmegaCloud,
    RadiusEnvelope,
    SetFamily,
    TrajectoryEscapeError,
    WeightedFunction,
    attractor_coincidence,
    comparison_bound,
    forward_attractor_radius,
    forward_bound,
    hausdorff_semidistance,
    make_linear_envelope,
    make_pullback_envelope,
    simulate_forward_omega,
    simulate_pullback_omega,
    universe_membership,
    verify_containment,
    weighted_norm,
)
from .parabolic import (
    BoundaryCondition,
    DiscreteLaplacian,
    Grid1D,
    PDEProcess,
    PrincipalBundle,
    adjoint_process,
    discretize,
    parabolic_attractor_demo,
    pde_process,
    principal_bundle,
    scalar_to_pde_transfer,
    variation_of_constants_check,
)

__version__ = "0.1.0"
