import dataclasses

import numpy as np
import pytest

from proxlogit import (
    DEFAULT_FRACTIONS,
    Dataset,
    PathSpec,
    Penalty,
    SolverOptions,
    SyntheticSpec,
    VARIANTS,
    accuracy,
    cross_validate,
    fit,
    generate_synthetic,
    kfold_split,
    lambda_max,
    predict,
    run_path,
    solver,
)

from conftest import assert_same_fit, make_dataset

FAST = SolverOptions(variant="ista_bb", max_iters=3000, tol=1e-10)


class TestLambdaMax:
    def test_identity_instance(self):
        data = Dataset(np.eye(2), np.array([1.0, 0.0]))
        assert lambda_max(data) == 0.5

    def test_scales_linearly(self, small_data):
        doubled = Dataset(2.0 * small_data.features, small_data.labels)
        assert lambda_max(doubled) == pytest.approx(2.0 * lambda_max(small_data), rel=1e-14)

    def test_above_threshold_solution_is_zero(self, small_data):
        lam = 1.01 * lambda_max(small_data)
        res = fit(small_data, Penalty.l1(lam), FAST)
        assert np.all(res.beta == 0.0)

    def test_degenerate_raises(self):
        # gradient at the origin cancels exactly
        data = Dataset(np.array([[1.0, -1.0]]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError, match="lambda_max"):
            lambda_max(data)


class TestPathSpecValidation:
    def test_default_fractions(self):
        assert DEFAULT_FRACTIONS == (0.01, 0.02, 0.05, 0.07, 0.1, 0.2, 0.3, 0.5, 0.7, 0.8)

    @pytest.mark.parametrize("fractions", [(), (0.0, 0.5), (0.5, 1.5), (0.5, 0.2), (0.3, 0.3)])
    def test_rejects_bad_fractions(self, fractions):
        with pytest.raises(ValueError):
            PathSpec(pen_template=Penalty.l1(1.0), fractions=fractions)


class TestRunPath:
    def test_full_fraction_gives_zero(self, small_data):
        spec = PathSpec(pen_template=Penalty.l1(1.0), opts=FAST, fractions=(1.0,))
        points = run_path(small_data, spec)
        assert len(points) == 1
        assert points[0].result.nnz == 0

    def test_point_after_full_fraction_equals_its_cold_fit(self):
        # the all-zero solution at lambda_max warm-starts the next point
        data = make_dataset(seed=92, d=200, n=60)
        spec = PathSpec(pen_template=Penalty.l1(1.0), opts=FAST, fractions=(0.3, 1.0))
        top, point = run_path(data, spec)
        assert top.result.nnz == 0
        assert_same_fit(point.result, fit(data, Penalty.l1(point.lam), FAST))

    def test_decreasing_lambda_order(self, small_data):
        spec = PathSpec(pen_template=Penalty.l1(1.0), opts=FAST, fractions=(0.1, 0.5, 0.9))
        points = run_path(small_data, spec)
        assert [p.fraction for p in points] == [0.9, 0.5, 0.1]
        lams = [p.lam for p in points]
        assert lams == sorted(lams, reverse=True)

    def test_warm_and_cold_agree_on_convex_path(self):
        data = make_dataset(seed=131, d=15, n=80)
        base = PathSpec(pen_template=Penalty.l1(1.0), opts=FAST,
                        fractions=(0.05, 0.2, 0.6))
        warm = run_path(data, base)
        cold = run_path(data, dataclasses.replace(base, warm_start=False))
        for w, c in zip(warm, cold):
            assert w.result.final_objective == pytest.approx(
                c.result.final_objective, rel=1e-6)

    def test_sparsity_grows_with_lambda(self):
        data, _ = generate_synthetic(SyntheticSpec(n_samples=150, n_features=40,
                                                   n_nonzero=6, seed=5))
        spec = PathSpec(pen_template=Penalty.l1(1.0), opts=FAST,
                        fractions=(0.01, 0.8))
        points = {p.fraction: p for p in run_path(data, spec)}
        assert points[0.8].result.nnz <= points[0.01].result.nnz

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_full_data_estimate_per_path(self, small_data, lipschitz_calls, variant):
        # no working set is estimated: every fit reads the full data's constant
        spec = PathSpec(pen_template=Penalty.l1(1.0), opts=SolverOptions(variant=variant))
        points = run_path(small_data, spec)
        assert len(points) == len(DEFAULT_FRACTIONS)
        assert lipschitz_calls == [small_data]

    def test_fixed_l0_path_never_estimates(self, small_data, lipschitz_calls):
        opts = SolverOptions(variant="ista_vanilla", l0=1.0)
        run_path(small_data, PathSpec(pen_template=Penalty.mcp(1.0, 3.0), opts=opts))
        assert lipschitz_calls == []
        small_data.lipschitz
        assert lipschitz_calls == [small_data]

    def test_two_paths_share_one_full_data_estimate(self, small_data, lipschitz_calls):
        for variant in ("ista_bb", "fista_lip"):
            run_path(small_data, PathSpec(pen_template=Penalty.l1(1.0),
                                          opts=SolverOptions(variant=variant)))
        assert lipschitz_calls == [small_data]

    def test_shared_estimate_is_bitwise_equal_to_per_fit_estimates(self, small_data):
        spec = PathSpec(pen_template=Penalty.scad(1.0, 3.7),
                        opts=SolverOptions(variant="ista_reverse"))
        beta_prev = None
        for point in run_path(small_data, spec):
            opts = spec.opts if beta_prev is None else \
                dataclasses.replace(spec.opts, beta0=beta_prev)
            alone = fit(small_data, dataclasses.replace(spec.pen_template, lam=point.lam), opts)
            np.testing.assert_array_equal(point.result.beta, alone.beta)
            assert point.result.trace.objectives == alone.trace.objectives
            beta_prev = alone.beta

    def test_solver_error_names_fraction(self, small_data, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 1)
        bad = SolverOptions(variant="ista_vanilla", l0=1e-12, eta=1.001)
        spec = PathSpec(pen_template=Penalty.l1(1.0), opts=bad, fractions=(0.1,))
        with pytest.raises(RuntimeError, match="fraction 0.1"):
            run_path(small_data, spec)


class TestKfoldSplit:
    def test_even_split(self):
        folds = kfold_split(10, 5, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_uneven_split(self):
        folds = kfold_split(7, 5, seed=0)
        assert sorted(len(f) for f in folds) == [1, 1, 1, 2, 2]

    @pytest.mark.parametrize("n,k,seed", [(10, 5, 0), (23, 4, 7), (9, 9, 3), (100, 7, 42)])
    def test_partition_properties(self, n, k, seed):
        folds = kfold_split(n, k, seed)
        allidx = np.concatenate(folds)
        assert len(allidx) == n
        assert set(allidx.tolist()) == set(range(n))
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

    def test_seed_determinism(self):
        a = kfold_split(20, 4, seed=9)
        b = kfold_split(20, 4, seed=9)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            kfold_split(5, 6, seed=0)
        with pytest.raises(ValueError):
            kfold_split(5, 1, seed=0)


class TestPredict:
    def test_zero_beta_predicts_ones(self, small_data):
        np.testing.assert_array_equal(predict(np.zeros(small_data.n_features), small_data),
                                      np.ones(small_data.n_samples))

    def test_separable_instance(self):
        data = Dataset(np.array([[-2.0, -1.0, 1.0, 2.0]]), np.array([0.0, 0.0, 1.0, 1.0]))
        np.testing.assert_array_equal(predict(np.array([5.0]), data), data.labels)
        assert accuracy(np.array([5.0]), data) == 1.0

    def test_matches_per_sample_oracle(self, small_data):
        rng = np.random.default_rng(20)
        beta = rng.normal(size=small_data.n_features)
        got = predict(beta, small_data)
        for i in range(small_data.n_samples):
            margin = float(np.dot(beta, small_data.features[:, i]))
            assert got[i] == (1.0 if margin >= 0 else 0.0)

    def test_dimension_mismatch(self, small_data):
        with pytest.raises(ValueError):
            predict(np.zeros(2), small_data)


class TestCrossValidate:
    def spec(self, fractions=(0.1, 0.5)):
        return PathSpec(pen_template=Penalty.l1(1.0), opts=FAST, fractions=fractions)

    def test_leave_one_out_runs(self):
        rng = np.random.default_rng(21)
        data = Dataset(rng.standard_normal((4, 10)),
                       np.array([0.0, 1.0] * 5))
        cells = cross_validate(data, self.spec(), k=10, seed=1)
        assert len(cells) == 2 * 10
        for cell in cells:
            if cell.accuracy is not None:
                assert cell.accuracy in (0.0, 1.0)

    def test_degenerate_fold_skipped_with_reason(self):
        rng = np.random.default_rng(22)
        data = Dataset(rng.standard_normal((3, 4)), np.array([1.0, 0.0, 0.0, 0.0]))
        cells = cross_validate(data, self.spec(), k=2, seed=0)
        reasons = [c.reason for c in cells if c.reason]
        assert any("single-class" in r for r in reasons)
        # skipped cells carry no numbers
        for c in cells:
            if c.reason:
                assert c.accuracy is None and c.nnz is None and c.iterations is None

    def test_reproducible_for_fixed_seed(self):
        data = make_dataset(seed=151, d=8, n=40)
        a = cross_validate(data, self.spec(), k=4, seed=11)
        b = cross_validate(data, self.spec(), k=4, seed=11)
        assert [(c.fraction, c.fold, c.accuracy, c.nnz) for c in a] == \
               [(c.fraction, c.fold, c.accuracy, c.nnz) for c in b]

    def test_fold_accuracies_are_stable_on_iid_data(self):
        data, _ = generate_synthetic(SyntheticSpec(n_samples=500, n_features=20,
                                                   n_nonzero=4, seed=16))
        cells = cross_validate(data, self.spec(fractions=(0.1,)), k=5, seed=2)
        accs = [c.accuracy for c in cells if c.accuracy is not None]
        assert len(accs) == 5
        assert max(accs) - min(accs) <= 0.15

    def test_one_lipschitz_estimate_per_fold(self, lipschitz_calls):
        data = make_dataset(seed=141, d=8, n=60)
        cross_validate(data, self.spec(fractions=(0.1, 0.3, 0.5)), k=3, seed=4)
        assert len(lipschitz_calls) == 3
        assert [d.n_samples for d in lipschitz_calls] == [40, 40, 40]

    def test_k_below_two_rejected(self, small_data):
        with pytest.raises(ValueError):
            cross_validate(small_data, self.spec(), k=1, seed=0)

    def test_k_above_samples_rejected_before_any_fit(self, small_data, lipschitz_calls):
        # ``cv`` checks ``--folds`` only here, so the check must precede the first fold's fit
        n = small_data.n_samples
        with pytest.raises(ValueError, match=rf"k must lie in \[2, {n}\], got {n + 1}"):
            cross_validate(small_data, self.spec(), k=n + 1, seed=0)
        assert lipschitz_calls == []

    def test_zero_features_skip_every_cell(self):
        # every fold's gradient at the origin vanishes, so no path has a lambda_max
        data = Dataset(np.zeros((3, 8)), np.array([0.0, 1.0] * 4))
        cells = cross_validate(data, self.spec(), k=2, seed=0)
        assert [(c.fraction, c.fold) for c in cells] == [
            (0.5, 0), (0.1, 0), (0.5, 1), (0.1, 1)]
        for c in cells:
            assert c.reason == "gradient at the origin is zero; lambda_max is undefined"
            assert (c.accuracy, c.nnz, c.iterations, c.converged) == (None, None, None, None)
