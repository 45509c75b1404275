"""References for the penalty tests: one-coordinate and grid-search proximal maps,
and the region-branch form of the SCAD and MCP values."""

import numpy as np

from proxlogit import MCP, SCAD, Penalty, penalty_value, prox_vector


def prox_scalar(t: float, pen: Penalty, L: float) -> float:
    """Proximal map of a single coordinate; sign-symmetric in t."""
    return float(prox_vector(np.array([t]), pen, L)[0])


def prox_oracle(t: float, pen: Penalty, L: float, grid_step: float = 1e-4) -> float:
    """Exhaustive grid minimization of the prox objective over [-|t|-1, |t|+1].

    Accurate to roughly the grid step.
    """
    if not L > 0:
        raise ValueError(f"prox scale L must be positive, got {L}")
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    hi = abs(float(t)) + 1.0
    grid = np.arange(-hi, hi + grid_step, grid_step)
    # One grid point per row: the row totals are the penalties g(w).
    obj = 0.5 * L * (grid - t) ** 2 + penalty_value(grid[:, np.newaxis], pen)
    return float(grid[int(np.argmin(obj))])


def branch_value(a: np.ndarray, pen: Penalty) -> np.ndarray:
    """The SCAD or MCP penalty of magnitudes a >= 0, one formula per region.

    Every formula is evaluated over the whole array, so a magnitude above
    about 1.3e154 overflows in ``a ** 2`` even where that branch does not apply.
    """
    lam, th = pen.lam, pen.theta
    if pen.kind == SCAD:
        return np.where(
            a <= lam,
            lam * a,
            np.where(
                a <= th * lam,
                (-(a ** 2) + 2.0 * th * lam * a - lam ** 2) / (2.0 * (th - 1.0)),
                (th + 1.0) * lam ** 2 / 2.0,
            ),
        )
    if pen.kind == MCP:
        return np.where(a <= th * lam, lam * a - a ** 2 / (2.0 * th), th * lam ** 2 / 2.0)
    raise ValueError(f"no branch form for {pen.kind!r}")
