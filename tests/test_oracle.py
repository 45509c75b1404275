"""Every l1 variant's path against an independent optimizer (scipy L-BFGS-B).

The other tests compare the variants with each other, so all of them could
be off in the same way; ``oracle_reference`` shares no code with proxlogit.
Today's stop is a relative objective change, so a path point is pinned at
1e-5 relative above the oracle's objective (the worst measured is about
2.2e-6, for ``fista_lip``); the oracle must itself be no worse than any
variant beyond 1e-9 relative, so the bound is not met by a weak oracle.
"""

import functools

import pytest

pytest.importorskip("scipy")

from proxlogit import VARIANTS, PathSpec, Penalty, SolverOptions, lambda_max, run_path

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
