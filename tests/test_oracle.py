"""Every l1 variant's path against an independent optimizer (scipy L-BFGS-B).

The other tests compare the variants with each other, so all of them could
be off in the same way; ``oracle_reference`` shares no code with proxlogit.
Today's stop is a relative objective change, so a path point is pinned at
1e-5 relative above the oracle's objective (the worst measured is about
2.2e-6, for ``fista_lip``); the oracle must itself be no worse than any
variant beyond 1e-9 relative, so the bound is not met by a weak oracle.

The nonconvex penalties have no oracle; their path points are held to a
stationarity residual instead (see ``test_nonconvex_path_is_stationary``).
"""

import dataclasses
import functools

import numpy as np
import pytest

pytest.importorskip("scipy")

from proxlogit import (VARIANTS, PathSpec, Penalty, SolverOptions, lambda_max, loss_gradient,
                       prox_vector, run_path)

from conftest import make_dataset
from oracle_reference import l1_objective, l1_oracle

CASES = [(1, 200, 60), (2, 120, 80), (3, 40, 100)]  # (seed, d, n)
FRACTIONS = (0.05, 0.1, 0.3, 0.6)


@functools.lru_cache(maxsize=None)
def oracle_objectives(seed: int, d: int, n: int) -> dict:
    data = make_dataset(seed, d, n)
    lam_top = lambda_max(data)
    return {frac: l1_oracle(data.features, data.labels, frac * lam_top)[1]
            for frac in FRACTIONS}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed, d, n", CASES)
def test_l1_path_reaches_the_oracle(seed, d, n, variant):
    data = make_dataset(seed, d, n)
    X, y = data.features, data.labels
    spec = PathSpec(Penalty.l1(1.0), SolverOptions(variant=variant), fractions=FRACTIONS)
    oracle = oracle_objectives(seed, d, n)
    for pt in run_path(data, spec):
        res = pt.result
        assert res.converged
        f = l1_objective(res.beta, X, y, pt.lam)
        assert res.final_objective == pytest.approx(f, rel=1e-12)
        f_star = oracle[pt.fraction]
        assert f_star - 1e-9 * abs(f_star) <= f <= f_star + 1e-5 * abs(f_star)


# Below 0.3 of lambda_max the nonconvex objectives of the d > n cases have no
# minimizer: their training data are separable, and SCAD, MCP and capped l1
# are flat beyond theta lam (epsilon for capped l1), so the loss keeps falling
# as |b| grows and the paths run into the 10000-iteration cap.  The residual
# is pinned on the fractions where a minimizer exists.
NONCONVEX_FRACTIONS = (0.3, 0.6)


@pytest.mark.parametrize("variant", ["ista_bb", "ista_reverse", "ista_vanilla"])
@pytest.mark.parametrize("pen", [Penalty.scad(1.0, 3.7), Penalty.mcp(1.0, 3.0),
                                 Penalty.capped_l1(1.0)], ids=lambda pen: pen.kind)
@pytest.mark.parametrize("seed, d, n", CASES)
def test_nonconvex_path_is_stationary(seed, d, n, pen, variant):
    """Every point b has L ||prox(b - grad f(b) / L) - b|| <= 5e-3, L = ``data.lipschitz``.

    The residual is zero exactly at a fixed point of the prox-gradient map.
    The worst measured is 2.02e-3 (MCP, ``ista_vanilla``; 1.22e-3 for the
    seeded searches), so the bound leaves a margin of about 2.5.
    """
    data = make_dataset(seed, d, n)
    L = data.lipschitz
    spec = PathSpec(pen, SolverOptions(variant=variant), fractions=NONCONVEX_FRACTIONS)
    for pt in run_path(data, spec):
        b = pt.result.beta
        assert pt.result.converged
        step = prox_vector(b - loss_gradient(b, data) / L, dataclasses.replace(pen, lam=pt.lam), L)
        assert L * np.linalg.norm(step - b) <= 5e-3
