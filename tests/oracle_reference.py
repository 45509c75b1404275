"""An l1 optimum from scipy's L-BFGS-B, sharing no code with proxlogit.

The l1 problem min_b loss(b) + lam ||b||_1, with the logistic loss
sum_i [log(1 + exp(z_i)) - y_i z_i] at margins z = X' b, is solved in its
split form b = u - v with u, v >= 0.  There the objective
loss(u - v) + lam 1'(u + v) is smooth, and the only constraints are bounds,
which L-BFGS-B handles exactly.
"""

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit


def l1_objective(beta, X, y, lam) -> float:
    """loss(beta) + lam ||beta||_1 for features X (d, n) and labels y in {0, 1}."""
    z = beta @ X
    return float(np.sum(np.logaddexp(0.0, z) - y * z) + lam * np.sum(np.abs(beta)))


def l1_oracle(X, y, lam) -> tuple[np.ndarray, float]:
    """The l1 minimizer and its objective, by L-BFGS-B on the split form."""
    d = X.shape[0]

    def split(w):
        b = w[:d] - w[d:]
        z = b @ X
        g = X @ (expit(z) - y)
        f = np.sum(np.logaddexp(0.0, z) - y * z) + lam * np.sum(w)
        return f, np.concatenate([g + lam, lam - g])

    res = minimize(split, np.zeros(2 * d), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * (2 * d),
                   options={"maxiter": 20_000, "maxcor": 30, "ftol": 1e-15, "gtol": 1e-11})
    beta = res.x[:d] - res.x[d:]
    return beta, l1_objective(beta, X, y, lam)
