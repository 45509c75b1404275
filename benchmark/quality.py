"""Post-hoc quality certificates of fitted coefficients, from public functions.

They run after the measured passes, with the wrappers removed, and are
reported, not gated.
"""

from __future__ import annotations

import numpy as np

from proxlogit import logistic, penalties


def _entropy(q: np.ndarray) -> float:
    inner = (q > 0.0) & (q < 1.0)
    q = q[inner]
    return float(-np.sum(q * np.log(q) + (1.0 - q) * np.log1p(-q)))


def l1_relative_gap(data, pen, beta) -> float:
    """Relative duality gap (P(b) - sum_i H(q_i)) / max(1, |P(b)|) of an l1 fit.

    The dual point is q = y - s (y - p) with s = min(1, lam / ||X (y - p)||_inf),
    which scales y - p into the dual feasible set; H is the binary entropy.
    """
    primal = logistic.loss_value(beta, data) + penalties.penalty_value(beta, pen)
    residual = data.labels - logistic.sigmoid(beta @ data.features)
    top = float(np.max(np.abs(logistic.loss_gradient(beta, data))))
    scale = 1.0 if top <= pen.lam else pen.lam / top
    gap = primal - _entropy(data.labels - scale * residual)
    return gap / max(1.0, abs(primal))


def prox_residual(data, pen, beta, lipschitz: float) -> float:
    """L * ||prox(b - grad / L) - b|| at L = the loss gradient's Lipschitz constant."""
    step = penalties.prox_vector(beta - logistic.loss_gradient(beta, data) / lipschitz,
                                 pen, lipschitz)
    return lipschitz * float(np.linalg.norm(step - beta))


def certificates(kept) -> dict:
    """Largest l1 gap and nonconvex residual over ``(data, pen, beta)`` triples.

    A kind with no fits reports 0.0 and is named in ``absent``.
    """
    gaps, residuals, lipschitz = [], [], {}
    for data, pen, beta in kept:
        if pen.kind == penalties.L1:
            gaps.append(l1_relative_gap(data, pen, beta))
        else:
            if id(data) not in lipschitz:
                lipschitz[id(data)] = logistic.lipschitz_constant(data)
            residuals.append(prox_residual(data, pen, beta, lipschitz[id(data)]))
    absent = [name for name, values in (("quality.l1_gap_max", gaps),
                                        ("quality.residual_max", residuals)) if not values]
    return {"quality.l1_gap_max": max(gaps, default=0.0),
            "quality.residual_max": max(residuals, default=0.0),
            "absent": absent}
