"""Sparsity penalties and their scaled proximal operators.

Four separable regularizers: the l1 norm, SCAD, MCP, and the capped l1 norm.
Each provides a value g(beta) = sum_i g(beta_i) and the proximal map

    prox(t) = argmin_w  (L/2) (w - t)^2 + g(w).

Every map is one clamp expression per penalty (Breheny & Huang, AoAS 2011;
Gong et al., ICML 2013).  With m = min(|b|, theta lam), MCP is
m (lam - m / (2 theta)) and SCAD is lam m - c^2 / (2 (theta - 1)) with
c = max(m - lam, 0).  The l1 prox is soft = max(t - lam / L, 0).  For MCP
and SCAD, when L exceeds the concavity, 1/theta or 1/(theta - 1), the prox
objective is convex and the prox is the stationary point of g's quadratic
region clipped to [soft, t]: for MCP the firm threshold.  Otherwise, and
always for capped l1, the prox is the candidate min(soft, inner) or
max(t, outer) of smaller prox objective, a tie going to the smaller, with
(inner, outer) = (0, theta lam) for MCP, (lam, theta lam) for SCAD and
(epsilon, epsilon) for capped l1.  The arithmetic repeats that of an
exhaustive enumeration of branch stationary points and region boundaries,
so the result equals it bitwise away from region boundaries.

Both maps also take a leading block axis: ``prox_vector(U, pen, Ls)`` with U
of shape (K, d) and a (K, 1) column of scales Ls, and ``penalty_value(B,
pen)`` with B of shape (K, d), which returns the K row totals.  Row i of a
block result equals the one-row call on U[i] and Ls[i] bit for bit; the
branch between the convex and the concave prox regime is taken per row,
because a block of scales can cross 1/theta or 1/(theta - 1).  A reverse
line search evaluates a ladder of step scales this way in one call.
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
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        for name in ("theta", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    m = np.minimum(a, th * lam)  # g is flat beyond theta lam
    if pen.kind == MCP:
        return m * (lam - m / (2.0 * th))
    return lam * m - np.maximum(m - lam, 0.0) ** 2 / (2.0 * (th - 1.0))


def penalty_value(beta, pen: Penalty) -> float | np.ndarray:
    """Total penalty sum_i g(beta_i); nonnegative, zero at the origin.

    A (K, d) block gives the array of its K row totals.
    """
    a = np.abs(np.asarray(beta, dtype=np.float64))
    total = _g_abs(a, pen).sum(axis=-1)
    return total if a.ndim > 1 else float(total)


def _check_L(L):
    """A positive float scale, or a block's column of positive scales."""
    if isinstance(L, np.ndarray) and L.ndim:
        if not (L > 0).all():
            raise ValueError(f"prox scales L must be positive, got {L.ravel()}")
        return L
    L = float(L)
    if not L > 0:
        raise ValueError(f"prox scale L must be positive, got {L}")
    return L


def _pick(a: np.ndarray, b: np.ndarray, t: np.ndarray, pen: Penalty, L: float) -> np.ndarray:
    """The candidate a <= b of smaller prox objective at t; a wins a tie.

    Written as ``fa <= fb`` so that the NaN objective of an infinite t
    selects the unbounded candidate b.  At extreme feature scales the
    objective of a candidate far from t overflows to inf, which loses the
    comparison as its true value would, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        fa = 0.5 * L * (a - t) ** 2 + _g_abs(a, pen)
        fb = 0.5 * L * (b - t) ** 2 + _g_abs(b, pen)
    return np.where(fa <= fb, a, b)


def _by_regime(convex, t: np.ndarray, L, convex_map, concave_map) -> np.ndarray:
    """``convex_map(t, L)`` where ``convex`` holds, ``concave_map(t, L)`` elsewhere.

    ``convex`` is one flag for a float L, or a (K, 1) column of flags for a
    block, which is then split by rows.
    """
    if isinstance(convex, bool):
        return convex_map(t, L) if convex else concave_map(t, L)
    rows = convex[:, 0]
    if rows.all():
        return convex_map(t, L)
    if not rows.any():
        return concave_map(t, L)
    out = np.empty_like(t)
    out[rows] = convex_map(t[rows], L[rows])
    out[~rows] = concave_map(t[~rows], L[~rows])
    return out


def _prox_magnitudes(t: np.ndarray, pen: Penalty, L) -> np.ndarray:
    """Prox of nonnegative magnitudes t; the result is also nonnegative.

    In the convex regime the stationary point is below soft exactly where
    soft is the minimizer, and above t exactly when t > theta lam.
    """
    lam, th = pen.lam, pen.theta
    if pen.kind == L1:
        return np.maximum(t - lam / L, 0.0)
    if pen.kind == MCP:
        inner, outer, convex = 0.0, th * lam, L - 1.0 / th > _DEGENERATE

        def stationary(t, L):
            return (L * t - lam) / (L - 1.0 / th)
    elif pen.kind == SCAD:
        inner, outer, convex = lam, th * lam, L * (th - 1.0) - 1.0 > _DEGENERATE

        def stationary(t, L):
            return (L * (th - 1.0) * t - th * lam) / (L * (th - 1.0) - 1.0)
    else:
        inner = outer = pen.epsilon
        convex = False  # the cap makes the prox objective nonconvex at every L

    def clipped(t, L):
        return np.minimum(np.maximum(stationary(t, L), np.maximum(t - lam / L, 0.0)), t)

    def better_candidate(t, L):
        return _pick(np.minimum(np.maximum(t - lam / L, 0.0), inner), np.maximum(t, outer),
                     t, pen, L)

    return _by_regime(convex, t, L, clipped, better_candidate)


def prox_vector(u, pen: Penalty, L) -> np.ndarray:
    """Coordinatewise proximal map of u at scale L.

    ``L`` is a positive float, or a (K, 1) column of scales for a (K, d)
    block u, whose row i is mapped at scale L[i].
    """
    L = _check_L(L)
    u = np.asarray(u, dtype=np.float64)
    w = _prox_magnitudes(np.abs(u), pen, L)
    # Adding +0.0 turns -0.0 into +0.0 and leaves every other value alone.
    return np.copysign(w, u) + 0.0
