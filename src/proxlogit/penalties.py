"""Sparsity penalties and their scaled proximal operators.

Four separable regularizers: the l1 norm, SCAD, MCP, and the capped l1 norm.
Each provides a value g(beta) = sum_i g(beta_i) and the proximal map

    prox(t) = argmin_w  (L/2) (w - t)^2 + g(w).

The l1 prox is the soft-threshold.  The nonconvex penalties have closed
forms too (Breheny & Huang, AoAS 2011; Gong et al., ICML 2013).  g is
piecewise quadratic, and the prox objective is convex when L exceeds the
penalty's concavity, 1/theta for MCP and 1/(theta - 1) for SCAD: the prox is
then the firm threshold (MCP) or the three-region SCAD threshold.  Below that
scale, and always for capped l1, the minimizer is one of two candidates: the
best point of the convex inner region (0, or the soft value clipped to the
region) and the best point of the flat outer region, max(t, boundary).  The
candidate of smaller prox objective wins; a tie goes to the smaller
magnitude.  Every formula repeats the arithmetic of an exhaustive enumeration
of branch stationary points and region boundaries, so the result equals it
bitwise away from region boundaries.  A brute-force grid oracle is included
for verification.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "CAPPED_L1",
    "KINDS",
    "L1",
    "MCP",
    "Penalty",
    "SCAD",
    "penalty_value",
    "prox_oracle",
    "prox_scalar",
    "prox_vector",
]

L1 = "l1"
SCAD = "scad"
MCP = "mcp"
CAPPED_L1 = "capped_l1"
KINDS = (L1, SCAD, MCP, CAPPED_L1)

# The prox objective counts as convex when L - 1/theta (MCP) or
# L (theta - 1) - 1 (SCAD) exceeds this; otherwise its concave region is
# minimized on a boundary.
_DEGENERATE = 1e-12


@dataclasses.dataclass(frozen=True)
class Penalty:
    """A tagged regularizer with weight ``lam`` and shape parameters.

    ``theta`` is the SCAD (> 2) or MCP (> 1) shape; ``epsilon`` is the capped
    l1 cap (> 0).  Unused parameters are left at 0.
    """

    kind: str
    lam: float
    theta: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}; expected one of {KINDS}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.kind == SCAD and not self.theta > 2:
            raise ValueError(f"SCAD requires theta > 2, got {self.theta}")
        if self.kind == MCP and not self.theta > 1:
            raise ValueError(f"MCP requires theta > 1, got {self.theta}")
        if self.kind == CAPPED_L1 and not self.epsilon > 0:
            raise ValueError(f"capped l1 requires epsilon > 0, got {self.epsilon}")

    @staticmethod
    def l1(lam: float) -> "Penalty":
        return Penalty(L1, lam)

    @staticmethod
    def scad(lam: float, theta: float = 3.7) -> "Penalty":
        return Penalty(SCAD, lam, theta=theta)

    @staticmethod
    def mcp(lam: float, theta: float = 3.0) -> "Penalty":
        return Penalty(MCP, lam, theta=theta)

    @staticmethod
    def capped_l1(lam: float, epsilon: float | None = None) -> "Penalty":
        return Penalty(CAPPED_L1, lam, epsilon=0.5 * lam if epsilon is None else epsilon)


def _g_abs(a: np.ndarray, pen: Penalty) -> np.ndarray:
    """Elementwise penalty of magnitudes a >= 0."""
    lam = pen.lam
    if pen.kind == L1:
        return lam * a
    if pen.kind == CAPPED_L1:
        return lam * np.minimum(a, pen.epsilon)
    th = pen.theta
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
    # MCP
    return np.where(a <= th * lam, lam * a - a ** 2 / (2.0 * th), th * lam ** 2 / 2.0)


def penalty_value(beta, pen: Penalty) -> float:
    """Total penalty sum_i g(beta_i); nonnegative, zero at the origin."""
    a = np.abs(np.asarray(beta, dtype=np.float64))
    return float(np.sum(_g_abs(a, pen)))


def _check_L(L: float) -> float:
    L = float(L)
    if not L > 0:
        raise ValueError(f"prox scale L must be positive, got {L}")
    return L


def _pick(a: np.ndarray, b: np.ndarray, t: np.ndarray, pen: Penalty, L: float) -> np.ndarray:
    """The candidate a <= b of smaller prox objective at t; a wins a tie.

    Written as ``fa <= fb`` so that the NaN objective of an infinite t
    selects the unbounded candidate b.
    """
    fa = 0.5 * L * (a - t) ** 2 + _g_abs(a, pen)
    fb = 0.5 * L * (b - t) ** 2 + _g_abs(b, pen)
    return np.where(fa <= fb, a, b)


def _prox_magnitudes(t: np.ndarray, pen: Penalty, L: float) -> np.ndarray:
    """Prox of nonnegative magnitudes t; the result is also nonnegative."""
    lam = pen.lam
    if pen.kind == L1:
        return np.maximum(t - lam / L, 0.0)
    if pen.kind == CAPPED_L1:
        eps = pen.epsilon
        return _pick(np.minimum(np.maximum(t - lam / L, 0.0), eps), np.maximum(t, eps),
                     t, pen, L)
    th = pen.theta
    if pen.kind == MCP:
        denom = L - 1.0 / th
        if denom > _DEGENERATE:
            # Firm threshold: the stationary point exceeds t exactly when
            # t > theta lam, so clipping it to [0, t] also keeps t there.
            return np.minimum(np.maximum((L * t - lam) / denom, 0.0), t)
        return _pick(np.zeros_like(t), np.maximum(t, th * lam), t, pen, L)
    # SCAD
    soft = np.minimum(np.maximum(t - lam / L, 0.0), lam)
    denom = L * (th - 1.0) - 1.0
    if denom > _DEGENERATE:
        # As for MCP, the middle stationary point clipped to [lam, t] is
        # also t beyond theta lam.
        mid = np.minimum(np.maximum((L * (th - 1.0) * t - th * lam) / denom, lam), t)
        return np.where(t <= lam + lam / L, soft, mid)
    return _pick(soft, np.maximum(t, th * lam), t, pen, L)


def prox_vector(u, pen: Penalty, L: float) -> np.ndarray:
    """Coordinatewise proximal map of u at scale L."""
    L = _check_L(L)
    u = np.asarray(u, dtype=np.float64)
    w = _prox_magnitudes(np.abs(u), pen, L)
    # Adding +0.0 turns -0.0 into +0.0 and leaves every other value alone.
    return np.copysign(w, u) + 0.0


def prox_scalar(t: float, pen: Penalty, L: float) -> float:
    """Proximal map of a single coordinate; sign-symmetric in t."""
    return float(prox_vector(np.array([t]), pen, L)[0])


def prox_oracle(t: float, pen: Penalty, L: float, grid_step: float = 1e-4) -> float:
    """Exhaustive grid minimization of the prox objective over [-|t|-1, |t|+1].

    Verification-only; accurate to roughly the grid step.
    """
    L = _check_L(L)
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    hi = abs(float(t)) + 1.0
    grid = np.arange(-hi, hi + grid_step, grid_step)
    obj = 0.5 * L * (grid - t) ** 2 + _g_abs(np.abs(grid), pen)
    return float(grid[int(np.argmin(obj))])
