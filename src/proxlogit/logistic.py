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
``SupportRows`` holder passed to ``margins`` keeps the gathered rows X[s] and
reuses them while the support stays the same, with the same bits as a fresh
gather.

An l1 fit makes the gradient product cheaper too.  A ``GradientScreen``
holder passed to ``gradient_from_margins`` proves, from the last full
product, which coordinates of the gradient are below the l1 weight and so
leave a zero coordinate zero after the soft-threshold; it computes only the
other rows, one prefix of at most d/4 rows held in slack order.  The
screened coordinates keep their stale values, which are below the weight
too; every computed one differs from the full product by rounding only.

``margins`` and ``loss_from_margins`` also take a leading block axis: a
(K, d) block of coefficient rows gives (K, n) margins from one product, and
(K, n) margins give the K row losses, each equal bitwise to the one-row call
on the same margins.  The product of a block rounds differently from K
one-row products, by rounding only.

``loss_value`` and ``loss_gradient`` compose them and are bitwise equal to
composing them by hand.  All functions are pure given immutable inputs and
safe for concurrent use; a ``SupportRows`` or ``GradientScreen`` holder
belongs to one caller.
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
    "SupportRows",
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


def sigmoid(z):
    """Elementwise 1 / (1 + exp(-z)) without overflow."""
    return 0.5 * (np.tanh(0.5 * np.asarray(z, dtype=np.float64)) + 1.0)


def softplus(z):
    """Elementwise ln(1 + exp(z)), stable for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class SupportRows:
    """The feature rows X[s] of the last support s that ``margins`` gathered.

    ``margins`` reuses the rows only for an identical support, so a product
    through a holder has the same bits as one without.  A holder belongs to
    one sequence of products on one dataset: ``fit`` makes its own and drops
    it on return, because concurrent fits may share a dataset.  ``read``
    counts the feature rows the products through the holder read: d for a
    full product, |s| for a gathered one.  The held rows take at most d/4
    rows of X.
    """

    def __init__(self):
        self.support: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.read = 0


class GradientScreen:
    """Safe screening of the l1 gradient X r: read only rows that can matter.

    An l1 fit with weight ``lam`` passes one holder to every
    ``gradient_from_margins`` call, after ``at`` has named the anchor, the
    point whose gradient the call computes.  At a full product
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
    the slack.  A zero row has infinite slack and is never read.  ``read``
    counts the feature rows the products read: d for a full product and k
    for a screened one of k rows.  The gather is not counted, as the gather
    of ``SupportRows`` is not.  ``norms`` are the row norms ||x_j|| of X,
    which ``Dataset.feature_norms`` computes once per dataset.  A holder
    belongs to one fit on one dataset; the held rows take at most d/4 rows
    of X.
    """

    def __init__(self, lam: float, norms: np.ndarray):
        self.lam = float(lam)
        self.read = 0
        self.support = np.empty(0, dtype=np.intp)  # the anchor's nonzeros
        self.rows: np.ndarray | None = None        # held rows, by ascending slack
        self._norms = norms

    def at(self, anchor) -> GradientScreen:
        """Name the anchor of the next gradient; returns the holder."""
        self.support = np.flatnonzero(anchor)
        return self

    def product(self, X: np.ndarray, r: np.ndarray) -> np.ndarray:
        """X r at the anchor named by ``at``, screened when a reference allows."""
        if self.rows is not None:
            if self.support.size:
                self._cover = max(self._cover, int(self._position[self.support].max()) + 1)
            gamma = 2 * (r.size + 4) * _FLOAT_EPS
            delta = (float(np.linalg.norm(r - self._r_ref))
                     + gamma * (float(np.linalg.norm(r)) + self._r_ref_norm))
            if math.isfinite(delta):
                k = max(self._cover, int(np.searchsorted(self._slack, delta, side="right")))
                if k < len(self.rows):
                    g = self._g_ref.copy()
                    g[self._index[:k]] = self.rows[:k] @ r
                    self.read += k
                    return g
        g = X @ r
        self.read += X.shape[0]
        self._rebase(X, r, g)
        return g

    def _rebase(self, X: np.ndarray, r: np.ndarray, g: np.ndarray) -> None:
        d = X.shape[0]
        held = d // _SPARSE_SHARE
        self.rows = None  # drop the old rows before gathering the new ones
        if self.support.size >= held or not np.all(np.isfinite(g)):
            return
        with np.errstate(divide="ignore"):
            slack = (self.lam - np.abs(g)) / self._norms
        slack[self.support] = -np.inf
        index = np.argpartition(slack, held - 1)[:held]
        index = index[np.argsort(slack[index], kind="stable")]
        self._position = np.full(d, held)
        self._position[index] = np.arange(held)
        self._index, self._slack = index, slack[index]
        self._g_ref, self._r_ref = g.copy(), r
        self._r_ref_norm = float(np.linalg.norm(r))
        self._cover = self.support.size
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


def margins(beta, data: Dataset, rows: SupportRows | None = None) -> np.ndarray:
    """Margins z_i = x_i' beta of every sample: one product X' beta.

    When at most a quarter of beta is nonzero (-0.0 counts as zero), the
    product reads only the rows of the support s = flatnonzero(beta),
    z = beta[s] @ X[s]; it then differs from the full product by rounding,
    and an all-zero beta gives exact +0.0.  Below a quarter the gather and
    the smaller product cost less than the full product.  ``rows`` holds the
    gathered rows for reuse by the next product on the same support.

    A (K, d) block of coefficient rows gives the (K, n) margins of every row
    from one product, on the union support of the rows when it is at most a
    quarter of d; it reads K rows of X for each one it takes part in.
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
        if rows is not None:
            rows.read += beta.size
        return beta @ X
    s = np.flatnonzero(nonzero)
    coefficients = beta[:, s] if block else beta[s]
    if rows is None:
        return coefficients @ X[s]
    rows.read += coefficients.size
    if rows.support is None or not np.array_equal(s, rows.support):
        rows.rows = None  # drop the old rows before gathering the new ones
        rows.support, rows.rows = s, X[s]
    return coefficients @ rows.rows


def loss_from_margins(z, data: Dataset) -> float | np.ndarray:
    """Negative log-likelihood sum_i [softplus(z_i) - y_i z_i] at margins z; always >= 0.

    (K, n) margins give the array of the K row losses.
    """
    terms = softplus(z) - data.labels * z
    total = terms.sum(axis=-1)
    return total if terms.ndim > 1 else float(total)


def gradient_from_margins(z, data: Dataset,
                          screen: GradientScreen | None = None) -> np.ndarray:
    """Gradient X (sigmoid(z) - y) of the negative log-likelihood at margins z.

    With a ``screen`` (l1 fits only) the product reads only the rows whose
    coordinates can enter the support of the next soft-threshold step; the
    others keep the values of the screen's last full product (see
    ``GradientScreen``).  Either way it is one product.
    """
    r = sigmoid(z) - data.labels
    if screen is None:
        return data.features @ r
    return screen.product(data.features, r)


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


def lipschitz_constant(data: Dataset, tol: float = 1e-8, max_iters: int = 1000) -> float:
    """Gradient Lipschitz constant, a quarter of the top eigenvalue of X X'.

    Estimated by Lanczos from a seeded random start, at most ``max_iters``
    product pairs, until the estimate has settled to ``tol`` relative.  A
    zero feature matrix returns 0.0 with a warning (no step size can be
    derived from it); features so large or so small that the constant over-
    or underflows float64 raise ``ValueError``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    top, _ = _top_eigenvalue(data.features, tol, max_iters)
    if top == 0.0:
        warnings.warn("feature matrix has no positive spectrum; returning 0", stacklevel=2)
    return 0.25 * top
