"""Fuzzed problems: extreme feature scales, lopsided shapes and lopsided labels.

Every fit ends with a finite result or a documented error (``ValueError``,
which ``DataError`` extends, or ``LineSearchError``), and every
``proxlogit train`` on such a CSV file exits 0, 1 or 2, an error being one
``error:`` line on stderr and no traceback.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from proxlogit import (VARIANTS, Dataset, LineSearchError, Penalty, SolverOptions, fit,
                       lambda_max)
from proxlogit.cli import EXIT_ERROR, EXIT_MAXITERS, EXIT_OK, main

# (d, n): d >> n, n >> d, a single entry, and a small square.
SHAPES = [(60, 3), (2, 60), (1, 1), (1, 2), (5, 5)]
PENALTIES = {
    "l1": Penalty.l1,
    "scad": lambda lam: Penalty.scad(lam, 3.7),
    "mcp": lambda lam: Penalty.mcp(lam, 3.0),
    "capped_l1": Penalty.capped_l1,
}


@st.composite
def problems(draw):
    """Features and labels: a shape, a scale 10**e with |e| <= 150, and a label balance."""
    d, n = draw(st.sampled_from(SHAPES))
    scale = 10.0 ** draw(st.integers(-150, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    X = scale * rng.standard_normal((d, n))
    balance = draw(st.sampled_from(["random", "one minority", "one class"]))
    if balance == "random":
        y = rng.integers(0, 2, size=n).astype(float)
    else:
        y = np.full(n, float(draw(st.integers(0, 1))))
        if balance == "one minority":
            y[rng.integers(n)] = 1.0 - y[0]
    return X, y


@settings(max_examples=60)
@given(problems(), st.sampled_from(sorted(PENALTIES)), st.sampled_from(VARIANTS),
       st.sampled_from([0.05, 0.5, 1.0]))
def test_fit_is_finite_or_a_documented_error(problem, kind, variant, fraction):
    if variant.startswith("fista") and kind != "l1":
        variant = "ista_bb"
    X, y = problem
    data = Dataset(X, y)
    try:
        pen = PENALTIES[kind](fraction * lambda_max(data))
        res = fit(data, pen, SolverOptions(variant=variant, max_iters=50))
    except (ValueError, LineSearchError):
        return
    assert np.all(np.isfinite(res.beta))
    assert np.isfinite(res.final_objective)


def run_train(path: str, out: str, *flags: str) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["train", "--data", path, "--format", "csv", "--label-column", "0",
                     "--max-iters", "50", "--out", out, *flags])
    return code, stderr.getvalue()


@settings(max_examples=50)
@given(problems(), st.sampled_from(sorted(PENALTIES)))
def test_train_exits_cleanly(problem, kind):
    X, y = problem
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        np.savetxt(path, np.column_stack([y, X.T]), fmt="%.17g", delimiter=",")
        code, err = run_train(path, os.path.join(tmp, "out"), "--penalty", kind)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_MAXITERS)
    if code == EXIT_ERROR:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
