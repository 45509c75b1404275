"""Proximal-gradient solvers for sparse logistic regression.

Convex (l1) and nonconvex (SCAD, MCP, capped-l1) penalties, line searches
with Barzilai-Borwein seeding or reverse step enlargement, FISTA momentum,
regularization paths with warm starts, and k-fold cross-validation.
"""

from .data import (
    DataError,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_libsvm,
)
from .logistic import (
    lipschitz_constant,
    loss_gradient,
    loss_value,
    sigmoid,
    softplus,
)
from .path import (
    DEFAULT_FRACTIONS,
    CvCell,
    CvReport,
    PathPoint,
    PathSpec,
    accuracy,
    cross_validate,
    kfold_split,
    lambda_max,
    predict,
    run_path,
)
from .penalties import (
    CAPPED_L1,
    KINDS,
    L1,
    MCP,
    SCAD,
    Penalty,
    penalty_value,
    prox_vector,
)
from .solver import (
    VARIANTS,
    FitResult,
    LineSearchError,
    SolverOptions,
    Trace,
    fit,
    objective,
)

__version__ = "0.1.0"
