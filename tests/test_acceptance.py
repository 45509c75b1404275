"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 10 needs a user-supplied Ionosphere CSV (see its docstring) and is
skipped when the file is absent.
"""

import contextlib
import json
import os
import time

import numpy as np
import pytest

from proxlogit import (
    Dataset,
    Penalty,
    SolverOptions,
    SyntheticSpec,
    fit,
    generate_synthetic,
    lambda_max,
    lipschitz_constant,
    loss_gradient,
    loss_value,
    PathSpec,
    cross_validate,
)
from proxlogit.cli import main as cli_main

from conftest import make_dataset
from prox_reference import prox_oracle, prox_scalar
from test_cli import normalized_artifacts


@contextlib.contextmanager
def verdict(criterion: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion:2d} [{label}]: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {criterion:2d} [{label}]: PASS "
          f"({time.perf_counter() - start:.1f}s)")


def budget(start: float, seconds: float):
    assert time.perf_counter() - start < seconds, f"runtime budget {seconds}s exceeded"


# Shared convex instance for the rate and baseline-comparison criteria.
@pytest.fixture(scope="module")
def rate_instance():
    data, _ = generate_synthetic(SyntheticSpec(n_samples=200, n_features=50,
                                               n_nonzero=5, seed=7))
    pen = Penalty.l1(0.1 * lambda_max(data))
    reference = fit(data, pen, SolverOptions(variant="fista_lip",
                                             max_iters=100_000, tol=1e-15))
    return data, pen, reference


def test_criterion_1_gradient_matches_finite_differences():
    start = time.perf_counter()
    with verdict(1, "gradient vs central differences"):
        rng = np.random.default_rng(1001)
        h = 1e-5
        for trial in range(50):
            d = int(rng.integers(2, 31))
            n = int(rng.integers(5, 101))
            data = make_dataset(seed=2000 + trial, d=d, n=n)
            beta = rng.normal(size=d)
            g = loss_gradient(beta, data)
            fd = np.empty(d)
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[i] = (loss_value(beta + e, data) - loss_value(beta - e, data)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)
        budget(start, 5.0)


def test_criterion_2_lipschitz_bound_and_oracle():
    start = time.perf_counter()
    with verdict(2, "Lipschitz constant"):
        rng = np.random.default_rng(1002)
        for trial in range(20):
            d = int(rng.integers(2, 25))
            n = int(rng.integers(5, 80))
            data = make_dataset(seed=3000 + trial, d=d, n=n)
            L = lipschitz_constant(data)
            oracle = 0.25 * np.linalg.eigvalsh(data.features @ data.features.T)[-1]
            assert abs(L - oracle) <= 1e-6 * oracle
            for _ in range(100):
                a = rng.normal(size=d)
                b = rng.normal(size=d)
                lhs = np.linalg.norm(loss_gradient(a, data) - loss_gradient(b, data))
                assert lhs <= L * np.linalg.norm(a - b) * (1 + 1e-12)
        budget(start, 5.0)


def _random_penalty(kind, rng, L_one=False):
    lam = float(rng.uniform(0.2, 1.5))
    if kind == "l1":
        pen = Penalty.l1(lam)
    elif kind == "scad":
        pen = Penalty.scad(lam, theta=float(rng.uniform(2.1, 4.5)))
    elif kind == "mcp":
        pen = Penalty.mcp(lam, theta=float(rng.uniform(1.1, 4.5)))
    else:
        pen = Penalty.capped_l1(lam, epsilon=float(rng.uniform(0.1, 2.0)))
    L = 1.0 if L_one else float(rng.uniform(0.25, 4.0))
    return pen, L


def _scad_closed_form(t, lam, th):
    a, s = abs(t), np.sign(t)
    if a <= 2 * lam:
        return s * max(a - lam, 0.0)
    if a <= th * lam:
        return ((th - 1.0) * t - s * th * lam) / (th - 2.0)
    return t


def _mcp_closed_form(t, lam, th):
    a, s = abs(t), np.sign(t)
    if a <= lam:
        return 0.0
    if a <= th * lam:
        return s * (a - lam) / (1.0 - 1.0 / th)
    return t


def test_criterion_3_prox_matches_oracle_and_closed_forms():
    start = time.perf_counter()
    with verdict(3, "proximal operators"):
        rng = np.random.default_rng(1003)
        boundary_bases = {"l1": ("lam",), "scad": ("lam", "2lam", "thlam"),
                          "mcp": ("lam", "2lam", "thlam"), "capped_l1": ("lam", "eps")}
        for kind in ("l1", "scad", "mcp", "capped_l1"):
            for draw in range(1000):
                if draw < 100:  # region boundaries at unit scale
                    pen, L = _random_penalty(kind, rng, L_one=True)
                    base_name = boundary_bases[kind][draw % len(boundary_bases[kind])]
                    base = {"lam": pen.lam, "2lam": 2 * pen.lam,
                            "thlam": pen.theta * pen.lam if pen.theta else pen.lam,
                            "eps": pen.epsilon or pen.lam}[base_name]
                    t = float(rng.choice([-1.0, 1.0])) * (base + float(rng.choice([-1e-6, 0.0, 1e-6])))
                else:
                    pen, L = _random_penalty(kind, rng)
                    t = float(rng.uniform(-4.0, 4.0))
                w = prox_scalar(t, pen, L)
                w_oracle = prox_oracle(t, pen, L, grid_step=1e-4)
                assert abs(w - w_oracle) <= 1e-3, (kind, t, pen, L)

        # unit-scale closed forms
        for _ in range(50):
            lam = float(rng.uniform(0.2, 1.5))
            th_scad = float(rng.uniform(2.1, 4.5))
            th_mcp = float(rng.uniform(1.1, 4.5))
            scad = Penalty.scad(lam, th_scad)
            mcp = Penalty.mcp(lam, th_mcp)
            for t in np.linspace(-(max(th_scad, th_mcp) * lam + 2), max(th_scad, th_mcp) * lam + 2, 41):
                t = float(t)
                assert abs(prox_scalar(t, scad, 1.0) - _scad_closed_form(t, lam, th_scad)) <= 1e-12
                assert abs(prox_scalar(t, mcp, 1.0) - _mcp_closed_form(t, lam, th_mcp)) <= 1e-12
        budget(start, 30.0)


def test_criterion_4_monotone_descent_all_ista_configurations():
    with verdict(4, "monotone descent"):
        data = make_dataset(seed=1004, d=20, n=80)
        lam = 0.15 * lambda_max(data)
        penalties = [Penalty.l1(lam), Penalty.scad(lam, 3.7),
                     Penalty.mcp(lam, 3.0), Penalty.capped_l1(lam)]
        configurations = 0
        for variant in ("ista_bb", "ista_reverse", "ista_vanilla"):
            for pen in penalties:
                res = fit(data, pen, SolverOptions(variant=variant, max_iters=400))
                objs = np.array([res.trace.f0] + res.trace.objectives)
                violations = int(np.sum(np.diff(objs) > 0.0))
                assert violations == 0, (variant, pen.kind)
                configurations += 1
        assert configurations >= 12


def test_criterion_5_fista_quadratic_rate(rate_instance):
    start = time.perf_counter()
    with verdict(5, "FISTA O(1/k^2) rate"):
        data, pen, reference = rate_instance
        f_star = reference.final_objective
        beta_star = reference.beta
        res = fit(data, pen, SolverOptions(variant="fista_lip", max_iters=400, tol=0.0))
        L_final = res.trace.step_scales[-1]  # step scales are nondecreasing
        dist_sq = float(beta_star @ beta_star)  # beta0 = 0
        gaps = np.array(res.trace.objectives) - f_star
        ks = np.arange(1, len(gaps) + 1)
        bound = 2.0 * L_final * dist_sq / (ks + 1.0) ** 2
        assert np.all(gaps <= bound + 1e-9), int(np.argmax(gaps > bound))
        budget(start, 60.0)


def test_criterion_6_stationarity_bound_nonconvex_runs():
    with verdict(6, "nonconvex stationarity bound"):
        data = make_dataset(seed=1006, d=20, n=80)
        lam = 0.2 * lambda_max(data)
        penalties = [Penalty.scad(lam, 3.7), Penalty.mcp(lam, 3.0), Penalty.capped_l1(lam)]
        for variant in ("ista_bb", "ista_reverse", "ista_vanilla"):
            for pen in penalties:
                res = fit(data, pen, SolverOptions(variant=variant, max_iters=300, tol=0.0))
                tr = res.trace
                n = len(tr)
                f_best = min(tr.objectives)
                bound = 2.0 * (tr.f0 - f_best) / (n * min(tr.step_scales))
                assert min(tr.step_sqs) <= bound + 1e-15, (variant, pen.kind)


def test_criterion_7_seeded_searches_beat_vanilla(rate_instance):
    start = time.perf_counter()
    with verdict(7, "BB/reverse beat mis-seeded vanilla"):
        data, pen, reference = rate_instance
        target = reference.final_objective + 1e-6
        L_lip = lipschitz_constant(data)

        def first_hit(res, cap):
            objs = np.array(res.trace.objectives)
            hits = np.nonzero(objs <= target)[0]
            return int(hits[0]) + 1 if hits.size else cap + 1

        bb = fit(data, pen, SolverOptions(variant="ista_bb", max_iters=2000, tol=0.0))
        rev = fit(data, pen, SolverOptions(variant="ista_reverse", max_iters=2000, tol=0.0))
        vanilla = fit(data, pen, SolverOptions(variant="ista_vanilla", l0=100.0 * L_lip,
                                               max_iters=5000, tol=0.0))
        k_bb = first_hit(bb, 2000)
        k_rev = first_hit(rev, 2000)
        k_vanilla = first_hit(vanilla, 5000)
        assert k_bb <= 2000, "ista_bb never reached the target"
        assert k_rev <= 2000, "ista_reverse never reached the target"
        assert k_bb < k_vanilla
        assert k_rev < k_vanilla
        budget(start, 60.0)


def test_criterion_8_lambda_max_zero_solution():
    start = time.perf_counter()
    with verdict(8, "lambda_max threshold"):
        data = make_dataset(seed=1008, d=15, n=60)
        lam_top = lambda_max(data)
        for variant in ("ista_bb", "ista_reverse", "fista_lip", "ista_vanilla", "fista_vanilla"):
            res = fit(data, Penalty.l1(1.01 * lam_top), SolverOptions(variant=variant))
            assert np.all(res.beta == 0.0), variant
        below = fit(data, Penalty.l1(0.5 * lam_top), SolverOptions())
        assert below.nnz > 0
        budget(start, 5.0)


def test_criterion_9_cross_solver_agreement():
    start = time.perf_counter()
    with verdict(9, "cross-solver agreement"):
        for trial in range(5):
            data = make_dataset(seed=4000 + trial, d=20, n=100)
            pen = Penalty.l1(0.1 * lambda_max(data))
            finals = []
            for variant in ("ista_bb", "ista_reverse", "fista_lip"):
                res = fit(data, pen, SolverOptions(variant=variant, tol=1e-10,
                                                   max_iters=30_000))
                assert res.converged, (trial, variant)
                finals.append(res.final_objective)
            ref = min(finals)
            assert all(abs(f - ref) <= 1e-6 * abs(ref) for f in finals), trial
        budget(start, 60.0)


def _ionosphere_path():
    candidates = [os.environ.get("PROXLOGIT_IONOSPHERE", ""),
                  os.path.join(os.path.dirname(__file__), "data", "ionosphere.csv")]
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def test_criterion_10_ionosphere_soft_accuracy():
    """Soft target on user-supplied Ionosphere data (34 numeric columns then a
    {0,1} label column, no header).  Set PROXLOGIT_IONOSPHERE or place the
    file at tests/data/ionosphere.csv.  Environment-sensitive: a miss here
    warrants investigation, not automatic rejection."""
    path = _ionosphere_path()
    if path is None:
        pytest.skip("Ionosphere CSV not supplied (set PROXLOGIT_IONOSPHERE); "
                    "soft accuracy target not evaluated")
    start = time.perf_counter()
    with verdict(10, "Ionosphere soft accuracy"):
        from proxlogit import load_csv
        with open(path, "r", encoding="utf-8") as fh:
            n_cols = len(fh.readline().split(","))
        data = load_csv(path, label_column=n_cols - 1)
        opts = SolverOptions(variant="ista_bb", max_iters=20_000, tol=1e-9)
        for pen_template, expected in ((Penalty.l1(1.0), 0.858),
                                       (Penalty.scad(1.0, 3.7), 0.857)):
            spec = PathSpec(pen_template=pen_template, opts=opts, fractions=(0.02,))
            cells = cross_validate(data, spec, k=5, seed=0)
            mean = np.mean([c.accuracy for c in cells if c.accuracy is not None])
            assert abs(mean - expected) <= 0.05, (pen_template.kind, mean)
        budget(start, 120.0)


def test_criterion_11_path_shape(tmp_path):
    start = time.perf_counter()
    with verdict(11, "path sparsity shape"):
        out_dir = str(tmp_path / "path_run")
        code = cli_main(["path", "--format", "synthetic",
                         "--synthetic-samples", "150", "--synthetic-features", "40",
                         "--synthetic-nonzero", "6", "--synthetic-seed", "5",
                         "--fractions", "0.01,0.8,1.0", "--out", out_dir])
        assert code == 0
        with open(os.path.join(out_dir, "path.csv")) as fh:
            rows = [line.split(",") for line in fh.read().strip().split("\n")[1:]]
        nnz = {row[0]: int(row[4]) for row in rows}
        assert nnz["1"] == 0
        assert nnz["0.8"] < nnz["0.01"]
        budget(start, 30.0)


def test_criterion_12_subcommand_determinism(tmp_path):
    with verdict(12, "artifact determinism"):
        jobs = {
            "train": ["train", "--format", "synthetic", "--synthetic-seed", "3",
                      "--synthetic-samples", "80", "--synthetic-features", "15",
                      "--synthetic-nonzero", "3"],
            "path": ["path", "--format", "synthetic", "--synthetic-seed", "3",
                     "--synthetic-samples", "80", "--synthetic-features", "15",
                     "--synthetic-nonzero", "3", "--fractions", "0.1,0.5"],
            "cv": ["cv", "--format", "synthetic", "--synthetic-seed", "3",
                   "--synthetic-samples", "80", "--synthetic-features", "15",
                   "--synthetic-nonzero", "3", "--fractions", "0.1,0.5", "--folds", "3"],
            "bench": ["bench", "--grid", "50x8", "--reps", "2", "--seed", "4",
                      "--variants", "ista_bb,ista_reverse"],
        }
        for name, argv in jobs.items():
            a = str(tmp_path / f"{name}_a")
            b = str(tmp_path / f"{name}_b")
            assert cli_main([*argv, "--out", a]) == 0, name
            assert cli_main([*argv, "--out", b]) == 0, name
            assert normalized_artifacts(a) == normalized_artifacts(b), name
