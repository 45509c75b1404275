"""Regularization paths, lambda-max, k-fold cross-validation, and scoring.

Path weights are quoted as fractions of lambda_max, the smallest l1 weight at
which the zero vector is already optimal.  Paths run in decreasing-lambda
order so warm starts move from sparse to dense solutions.  Folds and
cold-start path points are independent; warm-started points within one path
are sequential.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .data import Dataset
from .logistic import margins
from .penalties import Penalty
from .solver import FitResult, SolverOptions, fit

__all__ = [
    "CvCell",
    "CvReport",
    "DEFAULT_FRACTIONS",
    "PathPoint",
    "PathSpec",
    "accuracy",
    "cross_validate",
    "kfold_split",
    "lambda_max",
    "predict",
    "run_path",
]

DEFAULT_FRACTIONS = (0.01, 0.02, 0.05, 0.07, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8)


def lambda_max(data: Dataset) -> float:
    """Max-norm of the loss gradient at the origin, ||X (1/2 - y)||_inf.

    This is the smallest l1 weight for which beta = 0 satisfies the
    first-order optimality condition; the same scale anchors the nonconvex
    paths.  Raises on datasets whose origin gradient vanishes.
    """
    g0 = data.features @ (0.5 - data.labels)
    lam = float(np.max(np.abs(g0)))
    if lam == 0.0:
        raise ValueError("gradient at the origin is zero; lambda_max is undefined")
    return lam


@dataclasses.dataclass(frozen=True)
class PathSpec:
    """A lambda path: penalty template (lambda overwritten per point), solver
    options, fractions of lambda_max, and whether to warm-start."""

    pen_template: Penalty
    opts: SolverOptions = SolverOptions()
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    warm_start: bool = True

    def __post_init__(self):
        fr = tuple(float(f) for f in self.fractions)
        if not fr:
            raise ValueError("fractions must be nonempty")
        if any(not 0.0 < f <= 1.0 for f in fr):
            raise ValueError(f"fractions must lie in (0, 1], got {fr}")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("fractions must be strictly increasing")
        object.__setattr__(self, "fractions", fr)


@dataclasses.dataclass
class PathPoint:
    fraction: float
    lam: float
    result: FitResult


def run_path(data: Dataset, spec: PathSpec) -> list[PathPoint]:
    """Solve at lambda = fraction * lambda_max for every fraction, largest first.

    With ``warm_start`` each point starts from the previous solution.  Every
    point reads ``data.lipschitz``, so a dataset makes at most one estimate
    however many paths run on it.  Solver failures are re-raised with the
    offending fraction named.
    """
    lam_top = lambda_max(data)
    points: list[PathPoint] = []
    beta_prev: np.ndarray | None = None
    for frac in sorted(spec.fractions, reverse=True):
        lam = frac * lam_top
        pen = dataclasses.replace(spec.pen_template, lam=lam)
        opts = spec.opts
        if spec.warm_start and beta_prev is not None:
            opts = dataclasses.replace(spec.opts, beta0=beta_prev)
        try:
            result = fit(data, pen, opts)
        except Exception as exc:
            raise RuntimeError(f"path point at fraction {frac:g} failed: {exc}") from exc
        beta_prev = result.beta
        points.append(PathPoint(fraction=frac, lam=lam, result=result))
    return points


def kfold_split(n: int, k: int, seed: int = 0) -> list[np.ndarray]:
    """Seeded shuffle of range(n), then contiguous partition into k folds.

    Fold sizes differ by at most one; folds are disjoint and cover range(n).
    """
    if k < 2 or k > n:
        raise ValueError(f"k must lie in [2, {n}], got {k}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(perm, k)]


def predict(beta, data: Dataset) -> np.ndarray:
    """Predicted labels: 1 where the margin x' beta is nonnegative, else 0."""
    return np.where(margins(beta, data) >= 0.0, 1.0, 0.0)


def accuracy(beta, data: Dataset) -> float:
    return float(np.mean(predict(beta, data) == data.labels))


@dataclasses.dataclass
class CvCell:
    """One (fraction, fold) evaluation; ``reason`` is set when skipped, and
    ``converged`` tells whether a fitted cell's fit converged."""

    fraction: float
    fold: int
    accuracy: float | None
    nnz: int | None
    iterations: int | None
    reason: str | None = None
    converged: bool | None = None


@dataclasses.dataclass
class CvReport:
    cells: list[CvCell]

    def mean_accuracy(self) -> dict[float, float]:
        """Per-fraction mean over folds that were not skipped."""
        sums: dict[float, list[float]] = {}
        for cell in self.cells:
            if cell.accuracy is not None:
                sums.setdefault(cell.fraction, []).append(cell.accuracy)
        return {frac: float(np.mean(vals)) for frac, vals in sums.items()}


def cross_validate(data: Dataset, spec: PathSpec, k: int, seed: int = 0) -> CvReport:
    """k-fold cross-validation of the whole path.

    For each fold the path (including lambda_max) is computed on the training
    complement and accuracy is scored on the held-out fold, so each fold
    makes its own exact Lipschitz estimate, once for its whole path.  Folds
    whose training labels are single-class are recorded as skipped cells.
    """
    folds = kfold_split(data.n_samples, k, seed)
    fracs_desc = sorted(spec.fractions, reverse=True)
    cells: list[CvCell] = []
    for j, fold in enumerate(folds):
        mask = np.ones(data.n_samples, dtype=bool)
        mask[fold] = False
        train = Dataset(data.features[:, mask], data.labels[mask])
        test = Dataset(data.features[:, fold], data.labels[fold])
        if np.all(train.labels == train.labels[0]):
            for frac in fracs_desc:
                cells.append(CvCell(frac, j, None, None, None,
                                    reason="single-class training labels"))
            continue
        try:
            points = run_path(train, spec)
        except ValueError as exc:  # degenerate lambda_max
            for frac in fracs_desc:
                cells.append(CvCell(frac, j, None, None, None, reason=str(exc)))
            continue
        for pt in points:
            cells.append(CvCell(pt.fraction, j, accuracy(pt.result.beta, test),
                                pt.result.nnz, pt.result.n_iterations,
                                converged=pt.result.converged))
    return CvReport(cells)
