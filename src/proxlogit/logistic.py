"""Numerically stable logistic loss, gradient, and Lipschitz constant.

The loss and its gradient are built from three margin-level kernels, so a
solver that already holds the margins z = X' beta of a point pays for no
second product:

* ``margins(beta, data)``            - z = X' beta, one matrix-vector product;
* ``loss_from_margins(z, data)``     - the loss at z, no product;
* ``gradient_from_margins(z, data)`` - X (sigmoid(z) - y), one product.

``loss_value`` and ``loss_gradient`` compose them and are bitwise equal to
composing them by hand.  All functions are pure given immutable inputs and
safe for concurrent use.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .data import Dataset

__all__ = [
    "gradient_from_margins",
    "lipschitz_constant",
    "loss_from_margins",
    "loss_gradient",
    "loss_value",
    "margins",
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


def margins(beta, data: Dataset) -> np.ndarray:
    """Margins z_i = x_i' beta of every sample: one product X' beta."""
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (data.n_features,):
        raise ValueError(
            f"coefficient vector has shape {beta.shape}, expected ({data.n_features},)")
    return beta @ data.features


def loss_from_margins(z, data: Dataset) -> float:
    """Negative log-likelihood sum_i [softplus(z_i) - y_i z_i] at margins z; always >= 0."""
    return float(np.sum(softplus(z) - data.labels * z))


def gradient_from_margins(z, data: Dataset) -> np.ndarray:
    """Gradient X (sigmoid(z) - y) of the negative log-likelihood at margins z."""
    return data.features @ (sigmoid(z) - data.labels)


def loss_value(beta, data: Dataset) -> float:
    """Negative log-likelihood sum_i [softplus(x_i' beta) - y_i x_i' beta]; always >= 0."""
    return loss_from_margins(margins(beta, data), data)


def loss_gradient(beta, data: Dataset) -> np.ndarray:
    """Gradient X (p - y) of the negative log-likelihood."""
    return gradient_from_margins(margins(beta, data), data)


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
