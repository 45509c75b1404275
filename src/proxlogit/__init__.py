"""Proximal-gradient solvers for sparse logistic regression.

Convex (l1) and nonconvex (SCAD, MCP, capped-l1) penalties, line searches
with Barzilai-Borwein seeding or reverse step enlargement, FISTA momentum,
regularization paths with warm starts, and k-fold cross-validation.
"""

from .data import *  # noqa: F401,F403
from .logistic import *  # noqa: F401,F403
from .path import *  # noqa: F401,F403
from .penalties import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"
