"""Numerically stable logistic loss, gradient, and Lipschitz constant.

The loss and its gradient are built from three margin-level kernels, so a
solver that already holds the margins z = X' beta of a point pays for no
second product:

* ``margins(beta, data)``            - z = X' beta, one matrix-vector product;
* ``loss_from_margins(z, data)``     - the loss at z, no product;
* ``gradient_from_margins(z, data)`` - X (sigmoid(z) - y), one product.

Sparse coefficients make the margin product cheaper: when at most a quarter
of beta is nonzero, ``margins`` reads only the feature rows of its support s,
z = beta[s]' X[s], which differs from the full product by rounding only.  A
``Products`` holder passed to ``margins`` keeps the gathered rows X[s] and
reuses them while the support stays the same, with the same bits as a fresh
gather.

An l1 fit makes the gradient product cheaper too.  A ``GradientScreen`` in
the holder passed to ``gradient_from_margins`` proves, from the last full
product, which coordinates of the gradient are below the l1 weight and so
leave a zero coordinate zero after the soft-threshold; it computes only the
other rows, one prefix of at most d/4 rows held in slack order.  The
screened coordinates keep their stale values, which are below the weight
too; every computed one differs from the full product by rounding only.

A holder also counts the products made through it and the feature rows they
read; ``Products`` states the rule.

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
    "GradientScreen",
    "Products",
    "gradient_from_margins",
    "lipschitz_constant",
    "loss_from_margins",
    "loss_gradient",
    "loss_value",
    "margins",
    "sigmoid",
    "softplus",
]

_FLOAT_EPS = float(np.finfo(np.float64).eps)
_FLOAT_TINY = float(np.finfo(np.float64).tiny)

# A product counts as sparse when at most 1/_SPARSE_SHARE of the rows take
# part: ``margins`` gathers up to d/4 support rows and a ``GradientScreen``
# holds d/4 rows.
_SPARSE_SHARE = 4

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
    machine-independent measure of their cost:

    * a full product reads all d rows;
    * a margin product gathered on a support s reads |s| rows, and a block
      reads K |s| on the union support s of its rows (all-zero coefficients
      read none);
    * a gradient product screened by ``screen`` reads its k computed rows.

    Gathering rows into a copy is not counted.  ``support`` and ``rows`` hold
    the last gathered rows X[s]; ``margins`` reuses them only for an
    identical support, so a product through a holder has the same bits as
    one without.  ``screen`` is the ``GradientScreen`` of an l1 fit, or
    ``None``.  A holder belongs to one sequence of products on one dataset:
    ``fit`` makes its own and drops it on return, because concurrent fits may
    share a dataset.  The held rows take at most d/4 rows of X.
    """

    def __init__(self, screen: GradientScreen | None = None):
        self.products = 0
        self.read = 0
        self.support: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.screen = screen


class GradientScreen:
    """Safe screening of the l1 gradient X r: read only rows that can matter.

    An l1 fit with weight ``lam`` keeps one screen in its ``Products``
    holder, and every ``gradient_from_margins`` call names the anchor, the
    point whose gradient it computes.  At a full product
    g_ref = X r_ref the holder keeps r_ref, g_ref and the slack
    s_j = (lam - |g_ref_j|) / ||x_j|| of every row.  At a later residual r,
    Cauchy-Schwarz gives |g_j - g_ref_j| <= ||x_j|| ||r - r_ref||, so a row
    with s_j > delta = ||r - r_ref|| has |g_j| < lam, and at a zero anchor
    coordinate the soft-threshold returns exactly 0 whatever g_j is.  Such
    a row is not read: it keeps its stale g_ref_j, also below lam, which the
    line search only ever multiplies by an exact zero.

    At each full product the holder gathers the d/4 rows of smallest slack,
    sorted by slack, into one contiguous copy, so the rows a step must
    compute are a prefix of them and cost one small product.  Every
    coordinate nonzero in an anchor since that product must be computed
    exactly: the prox reads those of the current anchor, and ISTA-BB's
    curvature estimate <delta, v> those of the previous one.  So the prefix
    is widened to cover every such coordinate.  When the prefix would take
    every held row the call makes the full product and takes a new reference
    there.  No reference is taken while the anchor alone has d/4 nonzeros or
    more, nor from a non-finite gradient; each call then makes a full
    product.

    delta is inflated by gamma (||r|| + ||r_ref||) with gamma = 2 (n + 4) eps,
    which bounds the rounding of the two n-term dot products behind g_ref_j
    and behind the g_j a full product would compute, and that of delta and
    the slack.  A zero row has infinite slack and is never read.  ``norms``
    are the row norms ||x_j|| of X, which ``Dataset.feature_norms`` computes
    once per dataset.  A screen belongs to one fit on one dataset; the held
    rows take at most d/4 rows of X.
    """

    def __init__(self, lam: float, norms: np.ndarray):
        self.lam = float(lam)
        self.rows: np.ndarray | None = None  # held rows, by ascending slack
        self._norms = norms

    def product(self, X: np.ndarray, r: np.ndarray, anchor) -> tuple[np.ndarray, int]:
        """X r at ``anchor``, screened when a reference allows, and the rows read."""
        support = np.flatnonzero(anchor)
        if self.rows is not None:
            if support.size:
                self._cover = max(self._cover, int(self._position[support].max()) + 1)
            gamma = 2 * (r.size + 4) * _FLOAT_EPS
            delta = (float(np.linalg.norm(r - self._r_ref))
                     + gamma * (float(np.linalg.norm(r)) + self._r_ref_norm))
            if math.isfinite(delta):
                k = max(self._cover, int(np.searchsorted(self._slack, delta, side="right")))
                if k < len(self.rows):
                    g = self._g_ref.copy()
                    g[self._index[:k]] = self.rows[:k] @ r
                    return g, k
        g = X @ r
        self._rebase(X, r, g, support)
        return g, X.shape[0]

    def _rebase(self, X: np.ndarray, r: np.ndarray, g: np.ndarray,
                support: np.ndarray) -> None:
        d = X.shape[0]
        held = d // _SPARSE_SHARE
        self.rows = None  # drop the old rows before gathering the new ones
        if support.size >= held or not np.all(np.isfinite(g)):
            return
        with np.errstate(divide="ignore"):
            slack = (self.lam - np.abs(g)) / self._norms
        slack[support] = -np.inf
        index = np.argpartition(slack, held - 1)[:held]
        index = index[np.argsort(slack[index], kind="stable")]
        self._position = np.full(d, held)
        self._position[index] = np.arange(held)
        self._index, self._slack = index, slack[index]
        self._g_ref, self._r_ref = g.copy(), r
        self._r_ref_norm = float(np.linalg.norm(r))
        self._cover = support.size
        self.rows = X[index]


def _row_norms(X: np.ndarray) -> np.ndarray:
    """||x_j|| of every row, or inf where the sum of squares may have underflowed.

    Below 2**-900 a sum of squares may have lost terms to underflow, so such
    a row gets an infinite norm (zero slack, always read) unless it is
    exactly zero.
    """
    sq = np.einsum("ij,ij->i", X, X)
    norms = np.sqrt(sq)
    small = np.flatnonzero(sq < 2.0 ** -900)
    norms[small] = np.where(np.any(X[small], axis=1), np.inf, 0.0)
    return norms


def margins(beta, data: Dataset, holder: Products | None = None) -> np.ndarray:
    """Margins z_i = x_i' beta of every sample: one product X' beta.

    When at most a quarter of beta is nonzero (-0.0 counts as zero), the
    product reads only the rows of the support s = flatnonzero(beta),
    z = beta[s] @ X[s]; it then differs from the full product by rounding,
    and an all-zero beta gives exact +0.0.  Below a quarter the gather and
    the smaller product cost less than the full product.  ``holder`` keeps
    the gathered rows for reuse by the next product on the same support, and
    counts the products and rows read (see ``Products``).

    A (K, d) block of coefficient rows gives the (K, n) margins of every row
    from one product, on the union support of the rows when it is at most a
    quarter of d.
    """
    beta = np.asarray(beta, dtype=np.float64)
    d = data.n_features
    if beta.ndim not in (1, 2) or beta.shape[-1] != d:
        raise ValueError(
            f"coefficient vector has shape {beta.shape}, expected ({d},) or (K, {d})")
    X = data.features
    block = beta.ndim == 2
    nonzero = beta.any(axis=0) if block else beta
    if _SPARSE_SHARE * np.count_nonzero(nonzero) > d:
        coefficients, rows = beta, X
    else:
        s = np.flatnonzero(nonzero)
        coefficients = beta[:, s] if block else beta[s]
        if holder is None:
            rows = X[s]
        else:
            if holder.support is None or not np.array_equal(s, holder.support):
                holder.rows = None  # drop the old rows before gathering the new ones
                holder.support, holder.rows = s, X[s]
            rows = holder.rows
    if holder is not None:
        holder.products += len(beta) if block else 1
        holder.read += coefficients.size
    return coefficients @ rows


def loss_from_margins(z, data: Dataset) -> float | np.ndarray:
    """Negative log-likelihood sum_i [softplus(z_i) - y_i z_i] at margins z; always >= 0.

    (K, n) margins give the array of the K row losses.
    """
    terms = softplus(z) - data.labels * z
    total = terms.sum(axis=-1)
    return total if terms.ndim > 1 else float(total)


def gradient_from_margins(z, data: Dataset, holder: Products | None = None,
                          anchor=None) -> np.ndarray:
    """Gradient X (sigmoid(z) - y) of the negative log-likelihood at margins z.

    ``holder`` counts the product and the rows it read (see ``Products``).
    When it holds a screen (l1 fits only), the product reads only the rows
    whose coordinates can enter the support of the soft-threshold step from
    ``anchor``, the point at margins z; the others keep the values of the
    screen's last full product (see ``GradientScreen``).
    """
    r = sigmoid(z) - data.labels
    X = data.features
    if holder is None or holder.screen is None:
        g, read = X @ r, X.shape[0]
    else:
        g, read = holder.screen.product(X, r, anchor)
    if holder is not None:
        holder.products += 1
        holder.read += read
    return g


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
