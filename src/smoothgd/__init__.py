"""Laplacian-smoothed gradient descent and saddle-point escape analysis.

The package bundles four pieces that work together:

* ``smoothing`` -- the periodic smoothing operator I - sigma*L and three
  interchangeable solvers for it (FFT, cyclic Thomas, dense elimination).
* ``optimizers`` -- plain and smoothed descent with pluggable sigma
  schedules and a nonconvex stationarity bound.
* ``saddle`` -- eigenstructure of the smoothed iteration on quadratic
  saddles, attraction-region bases, and the escape-mode diagnostics.
* ``experiments`` -- polar-grid distance-field sweeps, the two-scale
  search, the convergence-rate check, and CSV/JSON emission.

``cli`` exposes all of it as the ``smoothgd`` command.
"""

from .smoothing import CirculantSmoother
from .linalg import (
    ConvergenceError,
    EigenPair,
    SingularMatrixError,
    dense_solve,
    eig_preconditioned_hessian,
    sym_eigendecompose,
)
from .optimizers import (
    ConstantSigma,
    GradientFunction,
    NumericError,
    PlateauSigma,
    RatioSigma,
    RunConfig,
    RunResult,
    RunStatus,
    run,
    stationarity_iteration_bound,
)
from .saddle import (
    ClassificationError,
    EigenStructure,
    ModeClass,
    QuadraticObjective,
    SubspaceBasis,
    canonical_attraction_basis,
    canonical_objective,
    eigen_structure,
    general_attraction_basis,
    kernel_direction_fixed,
    negative_mode_overlap,
    positive_eigvec_ratio,
    principal_angle,
)
from .experiments import (
    DistanceField,
    FieldSummary,
    PolarGrid,
    TrialReport,
    emit_csv,
    load_csv,
    rate_check,
    sweep,
    two_scale_search,
    write_summary_json,
)

__version__ = "0.1.0"

__all__ = [
    "CirculantSmoother",
    "ConvergenceError",
    "EigenPair",
    "SingularMatrixError",
    "dense_solve",
    "eig_preconditioned_hessian",
    "sym_eigendecompose",
    "ConstantSigma",
    "GradientFunction",
    "NumericError",
    "PlateauSigma",
    "RatioSigma",
    "RunConfig",
    "RunResult",
    "RunStatus",
    "run",
    "stationarity_iteration_bound",
    "ClassificationError",
    "EigenStructure",
    "ModeClass",
    "QuadraticObjective",
    "SubspaceBasis",
    "canonical_attraction_basis",
    "canonical_objective",
    "eigen_structure",
    "general_attraction_basis",
    "kernel_direction_fixed",
    "negative_mode_overlap",
    "positive_eigvec_ratio",
    "principal_angle",
    "DistanceField",
    "FieldSummary",
    "PolarGrid",
    "TrialReport",
    "emit_csv",
    "load_csv",
    "rate_check",
    "sweep",
    "two_scale_search",
    "write_summary_json",
    "__version__",
]
