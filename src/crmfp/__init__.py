"""Circumcentered reflections and averaged projections for common fixed
point problems.

The package provides firmly nonexpansive operators (projections onto
halfspaces, affine subspaces, balls, and ellipsoids, plus convex
combinations and compositions), the product-space lifting that turns a
many-operator problem into a two-set one, four solvers (crm, map, ppm,
spm) with runtime-checkable geometric invariants, a random ellipsoidal
instance generator, and a reproducible benchmark grid with aggregation
and performance-profile export.
"""
from .bench import (
    GridConfig,
    ProfileCurve,
    RunResult,
    SummaryStats,
    derive_seed,
    export,
    performance_profile,
    read_results_csv,
    run_experiment,
    summarize,
)
from .ellipsoid import (
    AdmmConfig,
    AdmmResult,
    Ellipsoid,
    project_admm,
    project_kkt,
)
from .errors import (
    BlockCountMismatch,
    CannotExitSets,
    CollinearNoCircumcenter,
    DiagnosticFailure,
    DimensionMismatch,
    EmptyGroup,
    EmptyOperatorList,
    InsufficientHistory,
    InvalidWeight,
    NotDiagonal,
    NotInSubspace,
    RootNotBracketed,
)
from .geometry import CircumcenterOutcome, circumcenter3, reflect
from .instance_gen import (
    FppInstance,
    InstanceSpec,
    gen_ellipsoid,
    gen_instance,
    gen_operator,
    initial_point,
    load_instance,
    save_instance,
)
from .operators import (
    AffineSubspace,
    AffineSubspaceProjection,
    BallProjection,
    Composition,
    ConvexCombination,
    EllipsoidProjection,
    HalfspaceProjection,
    Identity,
    apply_each,
    firm_nonexpansiveness_slack,
    fixed_point_residual,
    fixed_set_witness_check,
    gradient_check,
    idempotence_violation_search,
    images,
    translate,
    translated_projection_deviation,
)
from .product_space import (
    BlockOperator,
    DiagonalSubspace,
    diag_project,
    embed,
    extract,
    lift_apply,
)
from .solvers import (
    IterationTrace,
    RateEstimate,
    SolverConfig,
    crm_step,
    estimate_rate,
    map_step,
    ppm_step,
    run,
    spm_step,
)

__version__ = "0.1.0"

__all__ = [
    "AdmmConfig", "AdmmResult", "AffineSubspace", "AffineSubspaceProjection",
    "BallProjection", "BlockCountMismatch", "BlockOperator", "CannotExitSets",
    "CircumcenterOutcome", "CollinearNoCircumcenter", "Composition",
    "ConvexCombination", "DiagnosticFailure", "DiagonalSubspace",
    "DimensionMismatch", "Ellipsoid", "EllipsoidProjection", "EmptyGroup",
    "EmptyOperatorList", "FppInstance", "GridConfig", "HalfspaceProjection",
    "Identity", "InstanceSpec", "InsufficientHistory", "InvalidWeight",
    "IterationTrace", "NotDiagonal", "NotInSubspace", "ProfileCurve",
    "RateEstimate", "RootNotBracketed", "RunResult", "SolverConfig",
    "SummaryStats", "apply_each", "circumcenter3", "crm_step", "derive_seed",
    "diag_project", "embed", "estimate_rate", "export",
    "extract", "firm_nonexpansiveness_slack", "fixed_point_residual",
    "fixed_set_witness_check", "gen_ellipsoid", "gen_instance", "gen_operator",
    "gradient_check", "idempotence_violation_search", "images", "initial_point",
    "lift_apply", "load_instance", "map_step", "performance_profile", "ppm_step",
    "project_admm", "project_kkt", "read_results_csv", "reflect",
    "run", "run_experiment", "save_instance",
    "spm_step", "summarize", "translate", "translated_projection_deviation",
]
