"""Numerically stable logistic loss, gradient, and Lipschitz constant.

All functions are pure given immutable inputs and safe for concurrent use.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .data import Dataset

__all__ = [
    "lipschitz_constant",
    "loss_gradient",
    "loss_value",
    "sigmoid",
    "softplus",
]

_FLOAT_TINY = float(np.finfo(np.float64).tiny)


def sigmoid(z):
    """Elementwise 1 / (1 + exp(-z)) without overflow."""
    return 0.5 * (np.tanh(0.5 * np.asarray(z, dtype=np.float64)) + 1.0)


def softplus(z):
    """Elementwise ln(1 + exp(z)), stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _margins(beta, data: Dataset) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.n_features,):
        raise ValueError(
            f"coefficient vector has shape {beta.shape}, expected ({data.n_features},)")
    return beta @ data.features


def loss_value(beta, data: Dataset) -> float:
    """Negative log-likelihood sum_i [softplus(x_i' beta) - y_i x_i' beta]; always >= 0."""
    z = _margins(beta, data)
    return float(np.sum(softplus(z) - data.labels * z))


def loss_gradient(beta, data: Dataset) -> np.ndarray:
    """Gradient X (p - y) of the negative log-likelihood."""
    z = _margins(beta, data)
    return data.features @ (sigmoid(z) - data.labels)


def _unrepresentable(peak: float) -> ValueError:
    return ValueError(f"the Lipschitz constant is not representable in float64 at "
                      f"feature scale max|x| = {peak:g}; rescale the features")


def _power_iteration(X: np.ndarray, tol: float, max_iters: int):
    """Largest eigenvalue of X X' via products X (X' v); never forms X X'.

    The products run on X scaled by s = 2**-e, where e is the binary exponent
    of max |x_ij|, so they stay finite at any feature scale; X itself is not
    copied.  Scaling by a power of two is exact away from the subnormal range,
    so the quotients equal the unscaled ones bit for bit.  Returns the final Rayleigh quotient and the
    full quotient history, both unscaled (the history is nondecreasing on
    this positive semidefinite operator).  A zero operator yields 0.0 after
    one random restart.  Raises ``ValueError`` when a nonzero X has a top
    eigenvalue outside the normal float64 range.
    """
    peak = max(float(np.max(X)), -float(np.min(X)))
    # The top eigenvalue is at least peak**2, so an overflow here is final.
    if math.isinf(peak * peak):
        raise _unrepresentable(peak)
    s = math.ldexp(1.0, -max(math.frexp(peak)[1], -1021))
    d = X.shape[0]
    v = np.ones(d) / np.sqrt(d)
    history: list[float] = []
    restarted = False
    rayleigh = 0.0
    for _ in range(max_iters):
        w = (X @ ((v @ X) * s)) * s
        rayleigh = float(v @ w)
        if rayleigh <= 0.0:
            if not restarted:
                restarted = True
                rng = np.random.default_rng(0)
                v = rng.standard_normal(d)
                v /= np.linalg.norm(v)
                continue
            history.append(0.0)
            return 0.0, history
        history.append(rayleigh)
        if len(history) >= 2 and abs(history[-1] - history[-2]) < tol * abs(history[-1]):
            break
        v = w / np.linalg.norm(w)
    top = rayleigh / s / s
    if peak > 0.0 and not _FLOAT_TINY <= top < math.inf:
        raise _unrepresentable(peak)
    return top, [h / s / s for h in history]


def lipschitz_constant(data: Dataset, tol: float = 1e-8, max_iters: int = 1000) -> float:
    """Gradient Lipschitz constant, a quarter of the top eigenvalue of X X'.

    Estimated by power iteration until successive Rayleigh quotients agree to
    ``tol`` relative.  A zero feature matrix returns 0.0 with a warning (no
    step size can be derived from it); features so large or so small that
    the constant over- or underflows float64 raise ``ValueError``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    top, _ = _power_iteration(data.features, tol, max_iters)
    if top == 0.0:
        warnings.warn("feature matrix has no positive spectrum; returning 0", stacklevel=2)
    return 0.25 * top
