"""Reference formulas for the solver tests: the penalized objective, one
proximal-gradient step, the quadratic upper model, the anchor state the line
searches start from, and the trial they call."""

import functools

import numpy as np

from proxlogit import loss_gradient, loss_value, penalty_value, prox_vector, solver
from proxlogit.logistic import gradient_from_margins, loss_from_margins, margins


def objective(beta, data, pen):
    """Penalized objective: logistic loss plus penalty."""
    return loss_value(beta, data) + penalty_value(beta, pen)


def prox_step(beta, data, pen, L):
    """One proximal-gradient step from beta at scale L."""
    beta = np.asarray(beta, dtype=np.float64)
    return prox_vector(beta - loss_gradient(beta, data) / L, pen, L)


def q_upper(candidate, anchor, data, pen, L):
    """Quadratic upper model of the objective at ``candidate`` around ``anchor``.

    l(anchor) + <candidate - anchor, grad l(anchor)> + (L/2) ||candidate - anchor||^2
    + g(candidate).  For L at least the gradient's Lipschitz constant this
    bounds the true objective at any proximal candidate.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    diff = candidate - anchor
    return (loss_value(anchor, data)
            + float(diff @ loss_gradient(anchor, data))
            + 0.5 * L * float(diff @ diff)
            + penalty_value(candidate, pen))


def anchor_state(anchor, data, pen):
    """(anchor, loss, objective, gradient) at ``anchor`` from one margin product."""
    anchor = np.asarray(anchor, dtype=np.float64)
    z = margins(anchor, data)
    l_anchor = loss_from_margins(z, data)
    return anchor, l_anchor, l_anchor + penalty_value(anchor, pen), gradient_from_margins(z, data)


def bound_trial(anchor, data, pen, sufficient_decrease, holder=None):
    """The trial ``solver._descend`` binds at ``anchor`` for ``solver._forward_search``
    and ``solver._reverse_search``: a scale L, or a column of them, to (ok, outcome)."""
    return functools.partial(solver._try_candidate, *anchor_state(anchor, data, pen), data, pen,
                             sufficient_decrease=sufficient_decrease, holder=holder)
