"""Numerically stable logistic loss, gradient, and Lipschitz constant.

The loss and its gradient are built from three margin-level kernels, so a
solver that already holds the margins z = X' beta of a point pays for no
second product:

* ``margins(beta, data)``            - z = X' beta, one matrix-vector product;
* ``loss_from_margins(z, data)``     - the loss at z, no product;
* ``gradient_from_margins(z, data)`` - X (sigmoid(z) - y), one product.

A ``Products`` holder passed to ``margins`` or ``gradient_from_margins``
counts the products made through it and the feature rows they read;
``Products`` states the rule.  Work is cut by making the problem smaller,
not the product: a warm-started l1 fit solves on a working set of feature
rows (see ``solver``).

``margins`` and ``loss_from_margins`` also take a leading block axis: a
(K, d) block of coefficient rows gives (K, n) margins from one product, and
(K, n) margins give the K row losses, each equal bitwise to the one-row call
on the same margins.  The product of a block rounds differently from K
one-row products, by rounding only.

``loss_value`` and ``loss_gradient`` compose them and are bitwise equal to
composing them by hand.  All functions are pure given immutable inputs and
safe for concurrent use; a ``Products`` holder belongs to one caller.
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

_FLOAT_EPS = float(np.finfo(np.float64).eps)
_FLOAT_TINY = float(np.finfo(np.float64).tiny)

# ``lipschitz_constant`` stops when its estimate has settled to this relative
# tolerance, or after this many Lanczos steps.
_LANCZOS_TOL = 1e-8
_LANCZOS_MAX_ITERS = 1000


def sigmoid(z):
    """Elementwise 1 / (1 + exp(-z)) without overflow."""
    return 0.5 * (np.tanh(0.5 * np.asarray(z, dtype=np.float64)) + 1.0)


def softplus(z):
    """Elementwise ln(1 + exp(z)), stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class Products:
    """One caller's products with the feature matrix X, counted as they are made.

    A product is one matrix-vector product with X: a margin product X' b
    (``margins``) or a gradient product X r (``gradient_from_margins``).  A
    (K, d) block of coefficient rows makes K margin products.  ``products``
    counts them and ``read`` counts the feature rows they read, a
    machine-independent measure of their cost: every product reads all d
    rows of the dataset it is made on.  A working-set fit makes most of its
    products on a dataset of fewer rows (see ``solver``).  A holder belongs
    to one sequence of products: ``fit`` makes its own and drops it on
    return.
    """

    def __init__(self):
        self.products = 0
        self.read = 0


def margins(beta, data: Dataset, holder: Products | None = None) -> np.ndarray:
    """Margins z_i = x_i' beta of every sample: one product X' beta.

    A (K, d) block of coefficient rows gives the (K, n) margins of every row
    from one product.  ``holder`` counts the products and the rows they read
    (see ``Products``).
    """
    beta = np.asarray(beta, dtype=np.float64)
    d = data.n_features
    if beta.ndim not in (1, 2) or beta.shape[-1] != d:
        raise ValueError(
            f"coefficient vector has shape {beta.shape}, expected ({d},) or (K, {d})")
    if holder is not None:
        holder.products += len(beta) if beta.ndim == 2 else 1
        holder.read += beta.size
    return beta @ data.features


def loss_from_margins(z, data: Dataset) -> float | np.ndarray:
    """Negative log-likelihood sum_i [softplus(z_i) - y_i z_i] at margins z; always >= 0.

    (K, n) margins give the array of the K row losses.
    """
    terms = softplus(z) - data.labels * z
    total = terms.sum(axis=-1)
    return total if terms.ndim > 1 else float(total)


def gradient_from_margins(z, data: Dataset, holder: Products | None = None) -> np.ndarray:
    """Gradient X (sigmoid(z) - y) of the negative log-likelihood at margins z.

    ``holder`` counts the product and the rows it read (see ``Products``).
    """
    r = sigmoid(z) - data.labels
    if holder is not None:
        holder.products += 1
        holder.read += data.n_features
    return data.features @ r


def loss_value(beta, data: Dataset) -> float:
    """Negative log-likelihood sum_i [softplus(x_i' beta) - y_i x_i' beta]; always >= 0."""
    return loss_from_margins(margins(beta, data), data)


def loss_gradient(beta, data: Dataset) -> np.ndarray:
    """Gradient X (p - y) of the negative log-likelihood."""
    return gradient_from_margins(margins(beta, data), data)


def _unrepresentable(peak: float) -> ValueError:
    return ValueError(f"the Lipschitz constant is not representable in float64 at "
                      f"feature scale max|x| = {peak:g}; rescale the features")


def _top_eigenvalue(X: np.ndarray, tol: float, max_iters: int):
    """Largest eigenvalue of X X' by Lanczos from a random start; never forms X X'.

    X X' and X' X share their nonzero eigenvalues, so the Krylov basis lives
    in the smaller of the two dimensions and grows by one vector per step;
    each new vector is reorthogonalised against the whole basis.  Step j
    costs one product pair, X (X' v) or X' (X v), and extends the
    tridiagonal T_j, whose top eigenvalue theta (the top Ritz value) is a
    lower bound on the top eigenvalue.  The loop stops when theta has
    settled: it matches the previous step's to ``tol`` relative, and the
    Kato-Temple bound r**2 / (theta - theta_2) is at most ``tol`` relative
    too, where r = beta_j |y_j| is the residual norm of the top Ritz pair and
    theta_2 the next Ritz value.  It also stops when beta_j falls to rounding
    level (the basis spans an invariant subspace and theta is exact), or
    after min(``max_iters``, dimension) steps.  The start is random but
    seeded, so the result is reproducible, no eigenvector is missed for lying
    orthogonal to a fixed start, and reordering the features changes the
    result by rounding only.

    The products run on X scaled by s = 2**-e, where e is the binary exponent
    of max |x_ij|, so they stay finite at any feature scale; X itself is not
    copied.  Scaling by a power of two is exact away from the subnormal range,
    so the results equal the unscaled ones bit for bit.  Returns the final
    theta and the history of theta, one per step, both unscaled; up to
    rounding the history is nondecreasing and bounded by the top eigenvalue.
    A zero X returns 0.0 with an empty history.  Raises ``ValueError`` when a
    nonzero X has a top eigenvalue outside the normal float64 range.
    """
    peak = max(float(np.max(X)), -float(np.min(X)))
    if peak == 0.0:
        return 0.0, []
    # The top eigenvalue is at least peak**2, so an overflow here is final.
    if math.isinf(peak * peak):
        raise _unrepresentable(peak)
    s = math.ldexp(1.0, -max(math.frexp(peak)[1], -1021))
    # The start is drawn over the samples, g for a basis in n and X g for one
    # in d, so reordering the features reorders the start with them.
    d, n = X.shape
    v = np.random.default_rng(0).standard_normal(n)
    if d <= n:
        v = (X @ v) * s

        def product(v):
            return (X @ ((v @ X) * s)) * s
    else:
        def product(v):
            return (((X @ v) * s) @ X) * s
    dim = v.size
    basis = (v / np.linalg.norm(v))[np.newaxis]
    alphas: list[float] = []
    betas: list[float] = []
    history: list[float] = []
    for _ in range(min(max_iters, dim)):
        v = basis[-1]
        w = product(v)
        alphas.append(float(v @ w))
        w -= alphas[-1] * v
        if betas:
            w -= betas[-1] * basis[-2]
        w -= (basis @ w) @ basis
        beta = float(np.linalg.norm(w))
        ritz, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        history.append(float(ritz[-1]))
        if beta <= dim * _FLOAT_EPS * ritz[-1]:
            break
        residual = beta * abs(vectors[-1, -1])
        if (len(history) >= 2 and abs(ritz[-1] - history[-2]) < tol * ritz[-1]
                and residual ** 2 <= tol * ritz[-1] * (ritz[-1] - ritz[-2])):
            break
        betas.append(beta)
        basis = np.vstack((basis, w / beta))
    top = history[-1] / s / s
    if not _FLOAT_TINY <= top < math.inf:
        raise _unrepresentable(peak)
    return top, [h / s / s for h in history]


def lipschitz_constant(data: Dataset) -> float:
    """Gradient Lipschitz constant, a quarter of the top eigenvalue of X X'.

    Estimated by Lanczos from a seeded random start, at most
    ``_LANCZOS_MAX_ITERS`` product pairs, until the estimate has settled to
    ``_LANCZOS_TOL`` relative.  A zero feature matrix returns 0.0 with a
    warning (no step size can be derived from it); features so large or so
    small that the constant over- or underflows float64 raise ``ValueError``.
    """
    top, _ = _top_eigenvalue(data.features, _LANCZOS_TOL, _LANCZOS_MAX_ITERS)
    if top == 0.0:
        warnings.warn("feature matrix has no positive spectrum; returning 0", stacklevel=2)
    return 0.25 * top
