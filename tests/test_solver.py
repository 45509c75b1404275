import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxlogit import (
    KINDS,
    Dataset,
    LineSearchError,
    PathSpec,
    Penalty,
    SolverOptions,
    VARIANTS,
    fit,
    lambda_max,
    lipschitz_constant,
    loss_gradient,
    loss_value,
    penalty_value,
    prox_vector,
    run_path,
)
from proxlogit import data as data_module, solver
from proxlogit.logistic import Products, margins
from proxlogit.solver import _bb_seed, _fista_t_next

from conftest import assert_same_fit, make_dataset
from solver_reference import anchor_state, bound_trial, objective, prox_step, q_upper


def reference_optimum(data, pen, max_iters=50_000):
    """High-accuracy solve for rate and agreement checks."""
    res = fit(data, pen, SolverOptions(variant="fista_lip", max_iters=max_iters, tol=1e-15))
    return res


class TestObjective:
    def test_zero_beta_l1(self, small_data):
        f = objective(np.zeros(small_data.n_features), small_data, Penalty.l1(0.5))
        assert f == pytest.approx(small_data.n_samples * np.log(2), rel=1e-14)

    def test_vanishing_penalty_approaches_loss(self, small_data):
        beta = np.full(small_data.n_features, 0.3)
        f = objective(beta, small_data, Penalty.l1(1e-12))
        assert f == pytest.approx(loss_value(beta, small_data), rel=1e-8)

    def test_matches_recomputation(self, small_data):
        rng = np.random.default_rng(7)
        beta = rng.normal(size=small_data.n_features)
        pen = Penalty.scad(0.4, 3.7)
        expected = loss_value(beta, small_data) + penalty_value(beta, pen)
        assert objective(beta, small_data, pen) == pytest.approx(expected, rel=1e-12)


class TestProxStep:
    def test_matches_two_stage_composition(self, small_data):
        rng = np.random.default_rng(8)
        beta = rng.normal(size=small_data.n_features)
        pen = Penalty.mcp(0.3, 2.5)
        L = 3.0
        expected = prox_vector(beta - loss_gradient(beta, small_data) / L, pen, L)
        np.testing.assert_array_equal(prox_step(beta, small_data, pen, L), expected)

    def test_zero_gradient_full_shrinkage(self):
        # symmetric instance: gradient vanishes at the origin
        data = Dataset(np.array([[1.0, 1.0]]), np.array([1.0, 0.0]))
        assert np.all(loss_gradient(np.zeros(1), data) == 0.0)
        out = prox_step(np.zeros(1), data, Penalty.l1(100.0), 0.1)
        np.testing.assert_array_equal(out, np.zeros(1))

    def test_fixed_point_of_converged_solution(self, small_data):
        pen = Penalty.l1(0.3 * lambda_max(small_data))
        res = fit(small_data, pen, SolverOptions(variant="ista_bb", tol=1e-14, max_iters=20000))
        L = lipschitz_constant(small_data)
        moved = prox_step(res.beta, small_data, pen, L)
        assert np.linalg.norm(moved - res.beta) < 1e-6


class TestQUpper:
    def test_candidate_equals_anchor(self, small_data):
        rng = np.random.default_rng(9)
        beta = rng.normal(size=small_data.n_features)
        pen = Penalty.l1(0.5)
        assert q_upper(beta, beta, small_data, pen, 2.0) == pytest.approx(
            objective(beta, small_data, pen), rel=1e-14)

    def test_upper_bounds_objective_at_safe_L(self, small_data):
        pen = Penalty.l1(0.2)
        L = 2.0 * lipschitz_constant(small_data)
        rng = np.random.default_rng(10)
        for _ in range(20):
            anchor = rng.normal(size=small_data.n_features)
            cand = prox_step(anchor, small_data, pen, L)
            assert objective(cand, small_data, pen) <= q_upper(cand, anchor, small_data, pen, L) + 1e-10

    def test_hand_instance(self):
        # l(b) = softplus(b); anchor 0, candidate 1, L = 1, l1 weight 1
        data = Dataset(np.array([[1.0]]), np.array([0.0]))
        val = q_upper(np.array([1.0]), np.array([0.0]), data, Penalty.l1(1.0), 1.0)
        assert val == pytest.approx(np.log(2) + 0.5 + 0.5 + 1.0, abs=1e-12)


class TestBbStepsize:
    def test_identity_curvature(self):
        d = np.array([1.0, 2.0])
        assert _bb_seed(d, d, 9.0) == 1.0

    def test_double_curvature(self):
        d = np.array([1.0, -1.0, 2.0])
        assert _bb_seed(d, 2 * d, 9.0) == 2.0

    def test_negative_curvature_falls_back(self):
        d = np.array([1.0, 0.0])
        v = np.array([-1.0, 0.0])
        assert _bb_seed(d, v, 9.0) == 9.0

    def test_zero_step_falls_back(self):
        z = np.zeros(3)
        assert _bb_seed(z, np.ones(3), 4.5) == 4.5

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _bb_seed(np.ones(2), np.ones(3), 1.0)


class TestLineSearches:
    def test_convex_accepts_immediately_above_lipschitz(self, small_data):
        pen = Penalty.l1(0.2)
        L_lip = lipschitz_constant(small_data)
        rng = np.random.default_rng(11)
        anchor = rng.normal(size=small_data.n_features)
        out = solver._forward_search(bound_trial(anchor, small_data, pen, False),
                                     1.5 * L_lip, 2.0)
        assert out.trials == 0
        assert out.L == 1.5 * L_lip

    def test_convex_from_small_seed_bounded(self, small_data):
        pen = Penalty.l1(0.2)
        L_lip = lipschitz_constant(small_data)
        anchor = np.zeros(small_data.n_features)
        out = solver._forward_search(bound_trial(anchor, small_data, pen, False),
                                     L_lip / 100, 2.0)
        assert out.L <= 2.0 * L_lip

    def test_convex_at_fixed_point(self, small_data):
        lam = 1.5 * lambda_max(small_data)
        anchor = np.zeros(small_data.n_features)
        pen = Penalty.l1(lam)
        out = solver._forward_search(bound_trial(anchor, small_data, pen, False), 1e-3, 2.0)
        assert out.trials == 0
        np.testing.assert_array_equal(out.candidate, anchor)

    def test_convex_exhaustion_raises(self, small_data, monkeypatch):
        lam = 0.1 * lambda_max(small_data)
        anchor = np.zeros(small_data.n_features)
        pen = Penalty.l1(lam)
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 1)
        with pytest.raises(LineSearchError) as err:
            solver._forward_search(bound_trial(anchor, small_data, pen, False), 1e-10, 1.01)
        assert err.value.last_L > 0

    def test_sufficient_decrease_at_fixed_point(self, small_data):
        lam = 1.5 * lambda_max(small_data)
        anchor = np.zeros(small_data.n_features)
        pen = Penalty.scad(lam, 3.7)
        out = solver._forward_search(bound_trial(anchor, small_data, pen, True),
                                     lipschitz_constant(small_data), 2.0)
        assert out.trials == 0
        np.testing.assert_array_equal(out.candidate, anchor)

    @pytest.mark.parametrize("sufficient", [False, True])
    @pytest.mark.parametrize("L", [1.0, np.array([[1.0], [0.5]])])
    def test_candidate_equal_to_its_anchor_passes(self, small_data, sufficient, L):
        # an anchor loss a rounding below the candidate's, as FISTA's
        # extrapolated margins can give, fails neither criterion at a fixed point
        pen = Penalty.l1(1.5 * lambda_max(small_data))
        anchor, l_anchor, f_anchor, grad = anchor_state(np.zeros(small_data.n_features),
                                                        small_data, pen)
        ok, out = solver._try_candidate(anchor, l_anchor - 1e-14, f_anchor - 1e-14, grad,
                                        small_data, pen, L, sufficient_decrease=sufficient)
        assert np.all(ok) and not out.candidate.any()

    def test_sufficient_decrease_accepts_at_double_lipschitz(self, small_data):
        pen = Penalty.scad(0.2, 3.7)
        L_lip = lipschitz_constant(small_data)
        rng = np.random.default_rng(12)
        anchor = rng.normal(scale=0.5, size=small_data.n_features)
        out = solver._forward_search(bound_trial(anchor, small_data, pen, True),
                                     2.0 * L_lip, 2.0)
        assert out.trials == 0

    def test_sufficient_decrease_implies_descent(self, small_data):
        pen = Penalty.mcp(0.3, 3.0)
        rng = np.random.default_rng(13)
        anchor = rng.normal(size=small_data.n_features)
        f_anchor = objective(anchor, small_data, pen)
        out = solver._forward_search(bound_trial(anchor, small_data, pen, True),
                                     lipschitz_constant(small_data), 2.0)
        assert out.objective <= f_anchor


class TestReverseSearch:
    def test_degenerate_cap_returns_base(self, small_data, monkeypatch):
        pen = Penalty.l1(0.2)
        L0 = lipschitz_constant(small_data)
        anchor = np.zeros(small_data.n_features)
        monkeypatch.setattr(solver, "_MAX_EXPANSIONS", 1)
        out = solver._reverse_search(bound_trial(anchor, small_data, pen, False), L0, 2.0)
        assert out.L == L0

    def test_convex_base_never_falls_back(self, small_data):
        # at L0 = Lipschitz the first test always passes, so the accepted
        # scale can only be L0 or smaller
        pen = Penalty.l1(0.2)
        L0 = lipschitz_constant(small_data)
        rng = np.random.default_rng(14)
        for _ in range(5):
            anchor = rng.normal(size=small_data.n_features)
            out = solver._reverse_search(bound_trial(anchor, small_data, pen, False), L0, 2.0)
            assert out.L <= L0

    def test_accepted_step_is_maximal(self, small_data, monkeypatch):
        # one more eta-expansion beyond the accepted L must violate the
        # criterion (unless the expansion budget was exhausted)
        pen = Penalty.l1(0.2)
        L0 = lipschitz_constant(small_data)
        eta, cap = 2.0, 30
        rng = np.random.default_rng(15)
        anchor = rng.normal(size=small_data.n_features)
        monkeypatch.setattr(solver, "_MAX_EXPANSIONS", cap)
        out = solver._reverse_search(bound_trial(anchor, small_data, pen, False), L0, eta)
        if out.L > L0 / eta ** (cap - 1):  # budget not exhausted
            L_next = out.L / eta
            cand = prox_step(anchor, small_data, pen, L_next)
            f_cand = objective(cand, small_data, pen)
            assert f_cand > q_upper(cand, anchor, small_data, pen, L_next)

    def test_base_violation_falls_back_to_forward(self, small_data):
        # sufficient decrease with L0 far below Lipschitz: the base step
        # violates, the search must grow forward and still satisfy the test
        L_lip = lipschitz_constant(small_data)
        pen = Penalty.scad(0.2 * lambda_max(small_data), 3.7)
        rng = np.random.default_rng(16)
        for _ in range(10):
            anchor = rng.normal(size=small_data.n_features)
            f_anchor = objective(anchor, small_data, pen)
            out = solver._reverse_search(bound_trial(anchor, small_data, pen, True),
                                         L_lip / 64, 2.0)
            diff = out.candidate - anchor
            assert out.objective <= f_anchor - 0.5 * out.L * float(diff @ diff)

    @staticmethod
    def _record_prox_scales(monkeypatch) -> list:
        scales = []
        real = solver.prox_vector

        def recording(u, pen, L):
            scales.extend(np.ravel(L).tolist())  # one scale per row of a block
            return real(u, pen, L)

        monkeypatch.setattr(solver, "prox_vector", recording)
        return scales

    def test_fallback_evaluates_each_scale_once(self, small_data, monkeypatch):
        # the fallback grows forward past the rejected L0 instead of
        # re-evaluating it: one prox row per evaluation, no L tried twice
        L_lip = lipschitz_constant(small_data)
        pen = Penalty.scad(0.2 * lambda_max(small_data), 3.7)
        rng = np.random.default_rng(16)
        scales = self._record_prox_scales(monkeypatch)
        for _ in range(10):
            anchor = rng.normal(size=small_data.n_features)
            holder = Products()
            trial = bound_trial(anchor, small_data, pen, True, holder)
            scales.clear()
            out = solver._reverse_search(trial, L_lip / 64, 2.0)
            assert out.L > L_lip / 64  # the fallback path
            # the first block of the ladder, L0 first, then the forward part
            block, forward = scales[:solver._BLOCK], scales[solver._BLOCK:]
            assert block == [L_lip / 64 / 2.0 ** i for i in range(solver._BLOCK)]
            assert len(scales) == holder.products
            assert len(block[:1] + forward) == out.trials + 1
            assert len(set(scales)) == len(scales)
            assert block[:1] + forward == [L_lip / 64 * 2.0 ** i
                                           for i in range(len(forward) + 1)]

    def test_fallback_budget_keeps_last_L(self, small_data, monkeypatch):
        # L0, then _MAX_BACKTRACKS forward steps: the same scales and last_L
        # as a forward search from L0
        pen = Penalty.scad(0.2 * lambda_max(small_data), 3.7)
        anchor = np.random.default_rng(16).normal(size=small_data.n_features)
        L0 = lipschitz_constant(small_data) * 2.0 ** -40
        trial = bound_trial(anchor, small_data, pen, True)
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 3)
        scales = self._record_prox_scales(monkeypatch)
        with pytest.raises(LineSearchError, match="after 3 backtracks") as err:
            solver._reverse_search(trial, L0, 2.0)
        assert scales == ([L0 / 2.0 ** i for i in range(solver._BLOCK)]
                          + [2.0 * L0, 4.0 * L0, 8.0 * L0])
        assert err.value.last_L == 8.0 * L0
        with pytest.raises(LineSearchError) as forward_err:
            solver._forward_search(trial, L0, 2.0)
        assert forward_err.value.last_L == err.value.last_L

    @staticmethod
    def sequential_scan(state, data, pen, L0, eta, max_expansions, sufficient):
        """The ladder one scale at a time with one-row kernels, up to its first failure.

        Returns (f, bound) per evaluated scale: the candidate's objective and
        the value the criterion compares it with.
        """
        anchor, l_anchor, f_anchor, grad = state
        checks = []
        for i in range(max_expansions):
            L = L0 / eta ** i
            cand = prox_vector(anchor - grad / L, pen, L)
            diff = cand - anchor
            step_sq = float(diff @ diff)
            if sufficient:
                bound = f_anchor - 0.5 * L * step_sq
            else:
                bound = (l_anchor + float(diff @ grad) + 0.5 * L * step_sq
                         + penalty_value(cand, pen))
            checks.append((objective(cand, data, pen), bound))
            if not checks[-1][0] <= bound:
                break
        return checks

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eta, cap", [(2.0, 60), (1.3, 13), (1.3, 60)])
    def test_blocks_take_the_sequential_scan_index(self, kind, eta, cap, monkeypatch):
        data = make_dataset(seed=95, d=30, n=80)
        pen = penalty_of(kind, 0.1 * lambda_max(data))
        sufficient = kind != "l1"
        L_lip = lipschitz_constant(data)
        rng = np.random.default_rng(96)
        monkeypatch.setattr(solver, "_MAX_EXPANSIONS", cap)
        near = 0
        for _ in range(24):
            anchor = rng.normal(scale=10.0 ** rng.uniform(-2, 0), size=data.n_features)
            L0 = L_lip * 2.0 ** rng.uniform(-1, 3)
            checks = self.sequential_scan(anchor_state(anchor, data, pen), data, pen, L0, eta,
                                          cap, sufficient)
            first_fail = len(checks) - 1 if checks[-1][0] > checks[-1][1] else None
            holder = Products()
            out = solver._reverse_search(bound_trial(anchor, data, pen, sufficient, holder),
                                         L0, eta)
            if first_fail == 0:
                assert out.L > L0  # the forward fallback
                continue
            index = cap - 1 if first_fail is None else first_fail - 1
            if out.L != L0 / eta ** index:
                # the block and the scan may disagree only where the scan's
                # objective is within rounding of its bound, at the first
                # scale where their verdicts differ
                deciding = 0 if out.L > L0 else min(out.trials + 1, index + 1)
                f, bound = checks[deciding]
                assert abs(f - bound) <= 1e-12 * abs(bound)
                near += 1
                continue
            assert out.trials == index
            blocks_read = -(-(index + 2) // solver._BLOCK)  # through the failing scale
            assert holder.products == min(cap, solver._BLOCK * blocks_read)
        assert near <= 2

    @pytest.mark.parametrize("cap", [1, 5, 6, 7, 13])
    def test_no_scale_past_the_cap(self, cap, monkeypatch):
        # on features of order 1e-170 the loss is flat, so each scale's
        # candidate moves the anchor and meets its upper model: no scale of
        # the ladder fails, and no block of zero steps ends it
        data = Dataset(1e-170 * np.random.default_rng(98).standard_normal((8, 20)),
                       np.arange(20) % 2.0)
        L0 = 1.0
        holder = Products()
        trial = bound_trial(np.ones(8), data, Penalty.l1(1.0), False, holder)
        monkeypatch.setattr(solver, "_MAX_EXPANSIONS", cap)
        scales = self._record_prox_scales(monkeypatch)
        out = solver._reverse_search(trial, L0, 2.0, convex=True)
        assert scales == [L0 / 2.0 ** i for i in range(cap)]
        assert out.L == L0 / 2.0 ** (cap - 1) and out.step_sq > 0
        assert out.trials == cap - 1 and holder.products == cap

    @pytest.mark.parametrize("convex, products", [(True, 6), (False, 60)])
    def test_a_block_of_zero_steps_ends_a_convex_ladder(self, small_data, convex, products):
        # above lambda_max the zero anchor is the candidate at every scale;
        # only under the l1 criterion is that a fixed point at every scale
        pen = Penalty.l1(1.5 * lambda_max(small_data))
        L0 = lipschitz_constant(small_data)
        holder = Products()
        trial = bound_trial(np.zeros(small_data.n_features), small_data, pen, False, holder)
        out = solver._reverse_search(trial, L0, 2.0, convex=convex)
        assert not out.candidate.any() and holder.products == products
        assert out.trials == products - 1 and out.L == L0 / 2.0 ** (products - 1)

    def test_base_failure_is_the_forward_search_from_eta_L0(self, small_data):
        L_lip = lipschitz_constant(small_data)
        pen = Penalty.mcp(0.2 * lambda_max(small_data), 3.0)
        rng = np.random.default_rng(17)
        for _ in range(5):
            anchor = rng.normal(size=small_data.n_features)
            reverse_products, forward_products = Products(), Products()
            out = solver._reverse_search(
                bound_trial(anchor, small_data, pen, True, reverse_products), L_lip / 64, 2.0)
            forward = solver._forward_search(
                bound_trial(anchor, small_data, pen, True, forward_products), L_lip / 32, 2.0,
                tried=1)
            assert out.L == forward.L > L_lip / 64
            assert out.trials == forward.trials and out.objective == forward.objective
            np.testing.assert_array_equal(out.candidate, forward.candidate)
            # the forward search makes one product per trial past L0, and the
            # reverse search the first block besides them
            assert forward_products.products == forward.trials
            assert reverse_products.products == forward_products.products + solver._BLOCK


class TestFit:
    def test_zero_iterations_returns_start(self, small_data):
        pen = Penalty.l1(0.5)
        res = fit(small_data, pen, SolverOptions(max_iters=0))
        np.testing.assert_array_equal(res.beta, np.zeros(small_data.n_features))
        assert not res.converged
        assert len(res.trace) == 0
        assert res.final_objective == pytest.approx(
            objective(res.beta, small_data, pen), rel=1e-12)

    @pytest.mark.parametrize("variant", ["ista_bb", "ista_reverse", "fista_lip",
                                         "ista_vanilla", "fista_vanilla"])
    def test_above_lambda_max_returns_exact_zero(self, small_data, variant):
        lam = 1.01 * lambda_max(small_data)
        opts = SolverOptions(variant=variant, l0=None if variant != "ista_vanilla" else 1.0)
        res = fit(small_data, Penalty.l1(lam), opts)
        assert np.all(res.beta == 0.0)
        assert res.converged
        assert res.n_iterations == 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_fit_at_lambda_max_stops_its_first_ladder(self, small_data, variant):
        # the start, one gradient, the first block of the ladder (ista_bb's one
        # trial) and the final objective
        res = fit(small_data, Penalty.l1(lambda_max(small_data)), SolverOptions(variant=variant))
        assert res.converged and res.nnz == 0
        if variant == "ista_bb":
            assert (res.matvecs, res.trace.backtracks) == (4, [0])
        else:
            assert (res.matvecs, res.trace.backtracks) == (3 + solver._BLOCK, [solver._BLOCK - 1])

    def test_fista_passes_its_rounding_floor(self):
        # at the floor the candidate is the extrapolated anchor bit for bit,
        # whose loss by linearity lies a rounding below a fresh product's
        data, _ = data_module.generate_synthetic(data_module.SyntheticSpec(200, 50, 5, seed=7))
        pen = Penalty.l1(0.02 * lambda_max(data))
        res = fit(data, pen, SolverOptions(variant="fista_lip", tol=0.0, max_iters=20_000))
        assert res.converged and res.final_objective == objective(res.beta, data, pen)

    def test_below_lambda_max_is_nonzero(self, small_data):
        res = fit(small_data, Penalty.l1(0.5 * lambda_max(small_data)), SolverOptions())
        assert res.nnz > 0

    def test_fista_rejects_nonconvex(self, small_data):
        with pytest.raises(ValueError, match="l1"):
            fit(small_data, Penalty.scad(0.3, 3.7), SolverOptions(variant="fista_lip"))
        with pytest.raises(ValueError, match="l1"):
            fit(small_data, Penalty.mcp(0.3, 3.0), SolverOptions(variant="fista_vanilla"))

    @pytest.mark.parametrize("l0", [None, 0.5, 50.0])
    def test_fista_names_are_one_algorithm(self, small_data, l0):
        pen = Penalty.l1(0.2 * lambda_max(small_data))
        lip, vanilla = (fit(small_data, pen, SolverOptions(variant=v, l0=l0))
                        for v in ("fista_lip", "fista_vanilla"))
        np.testing.assert_array_equal(lip.beta, vanilla.beta)
        assert lip.final_objective == vanilla.final_objective
        assert lip.trace.objectives == vanilla.trace.objectives
        assert lip.trace.step_scales == vanilla.trace.step_scales
        assert (lip.matvecs, lip.feature_rows) == (vanilla.matvecs, vanilla.feature_rows)

    def test_cross_solver_agreement(self):
        data = make_dataset(seed=77, d=20, n=100)
        pen = Penalty.l1(0.1 * lambda_max(data))
        finals = []
        for variant in ("ista_bb", "ista_reverse", "fista_lip"):
            res = fit(data, pen, SolverOptions(variant=variant, tol=1e-10, max_iters=20000))
            assert res.converged
            finals.append(res.final_objective)
        ref = min(finals)
        assert all(abs(f - ref) <= 1e-6 * abs(ref) for f in finals)

    @pytest.mark.parametrize("variant", ["ista_bb", "ista_reverse", "ista_vanilla"])
    @pytest.mark.parametrize("kind", ["l1", "scad", "mcp", "capped_l1"])
    def test_ista_traces_monotone(self, variant, kind):
        data = make_dataset(seed=88, d=15, n=60)
        lam = 0.15 * lambda_max(data)
        pen = {"l1": Penalty.l1(lam), "scad": Penalty.scad(lam, 3.7),
               "mcp": Penalty.mcp(lam, 3.0), "capped_l1": Penalty.capped_l1(lam)}[kind]
        res = fit(data, pen, SolverOptions(variant=variant, max_iters=500))
        objs = np.array([res.trace.f0] + res.trace.objectives)
        assert np.all(np.diff(objs) <= 0.0)

    def test_fista_step_scale_monotone(self):
        data = make_dataset(seed=99, d=10, n=50)
        pen = Penalty.l1(0.1 * lambda_max(data))
        res = fit(data, pen, SolverOptions(variant="fista_lip", max_iters=300))
        Ls = np.array(res.trace.step_scales)
        assert np.all(np.diff(Ls) >= 0.0)

    def test_momentum_grows_at_half_rate(self):
        t = 1.0
        for k in range(1, 10_000):
            assert t >= (k + 1) / 2.0
            t = _fista_t_next(t)

    def test_convex_rate_envelope(self):
        # sublinear decay: k * (f_k - f*) stays under 2 L_max ||b0 - b*||^2
        data = make_dataset(seed=101, d=20, n=100)
        pen = Penalty.l1(0.1 * lambda_max(data))
        ref = reference_optimum(data, pen)
        for variant in ("ista_bb", "ista_reverse"):
            res = fit(data, pen, SolverOptions(variant=variant, tol=0.0, max_iters=300))
            gaps = np.array(res.trace.objectives) - ref.final_objective
            ks = np.arange(1, len(gaps) + 1)
            bound = 2.0 * max(res.trace.step_scales) * float(ref.beta @ ref.beta)
            assert np.all(ks * gaps <= bound + 1e-9)

    @pytest.mark.parametrize("variant", ["ista_bb", "ista_reverse", "ista_vanilla"])
    @pytest.mark.parametrize("kind", ["scad", "mcp", "capped_l1"])
    def test_stationarity_bound_from_trace(self, variant, kind):
        data = make_dataset(seed=111, d=15, n=60)
        lam = 0.2 * lambda_max(data)
        pen = {"scad": Penalty.scad(lam, 3.7), "mcp": Penalty.mcp(lam, 3.0),
               "capped_l1": Penalty.capped_l1(lam)}[kind]
        res = fit(data, pen, SolverOptions(variant=variant, max_iters=200, tol=0.0))
        tr = res.trace
        n = len(tr)
        f_best = min(tr.objectives)
        bound = 2.0 * (tr.f0 - f_best) / (n * min(tr.step_scales))
        assert min(tr.step_sqs) <= bound + 1e-15

    def test_accepted_scale_bounded_convex(self):
        data = make_dataset(seed=121, d=12, n=50)
        pen = Penalty.l1(0.1 * lambda_max(data))
        L_lip = lipschitz_constant(data)
        eta = 2.0
        # seeds never exceed L_lip for the reverse variant; BB seeds are
        # data-driven so only the reverse variant gives the clean bound
        res = fit(data, pen, SolverOptions(variant="ista_reverse", eta=eta, max_iters=200))
        assert max(res.trace.step_scales) <= eta * L_lip * (1 + 1e-12)

    def test_accepted_scale_bounded_sufficient_decrease(self):
        data = make_dataset(seed=122, d=12, n=50)
        pen = Penalty.scad(0.1 * lambda_max(data), 3.7)
        L_lip = lipschitz_constant(data)
        eta = 2.0
        res = fit(data, pen, SolverOptions(variant="ista_reverse", eta=eta, max_iters=200))
        assert max(res.trace.step_scales) <= 2.0 * eta * L_lip * (1 + 1e-12)

    def test_fit_is_deterministic(self, small_data):
        pen = Penalty.mcp(0.2, 3.0)
        opts = SolverOptions(variant="ista_bb", beta0="random", seed=42, max_iters=300)
        a = fit(small_data, pen, opts)
        b = fit(small_data, pen, opts)
        np.testing.assert_array_equal(a.beta, b.beta)
        assert a.trace.objectives == b.trace.objectives
        assert a.trace.step_scales == b.trace.step_scales

    def test_random_beta0_depends_on_seed(self, small_data):
        pen = Penalty.l1(0.5)
        a = fit(small_data, pen, SolverOptions(beta0="random", seed=1, max_iters=0))
        b = fit(small_data, pen, SolverOptions(beta0="random", seed=2, max_iters=0))
        assert not np.array_equal(a.beta, b.beta)

    def test_given_beta0_used(self, small_data):
        start = np.linspace(-1, 1, small_data.n_features)
        res = fit(small_data, Penalty.l1(9e9), SolverOptions(beta0=start, max_iters=0))
        np.testing.assert_array_equal(res.beta, start)

    def test_final_objective_consistent(self, small_data):
        pen = Penalty.capped_l1(0.3)
        res = fit(small_data, pen, SolverOptions(variant="ista_bb", max_iters=150))
        recomputed = objective(res.beta, small_data, pen)
        assert abs(res.final_objective - recomputed) <= 1e-10 * max(1.0, abs(recomputed))

    def test_all_trace_fields_finite(self, small_data):
        res = fit(small_data, Penalty.l1(0.2), SolverOptions(max_iters=100))
        tr = res.trace
        assert np.all(np.isfinite(tr.objectives))
        assert np.all(np.array(tr.step_scales) > 0)
        assert len(tr) == len(tr.objectives) == len(tr.times) == len(tr.step_sqs)

    def test_line_search_failure_propagates(self, small_data, monkeypatch):
        lam = 0.1 * lambda_max(small_data)
        monkeypatch.setattr(solver, "_MAX_BACKTRACKS", 1)
        opts = SolverOptions(variant="ista_vanilla", l0=1e-12, eta=1.001)
        with pytest.raises(LineSearchError):
            fit(small_data, Penalty.l1(lam), opts)


class TestFitLipschitz:
    """``fit`` reads ``Dataset.lipschitz``, which estimates once per dataset."""

    @pytest.mark.parametrize("variant, kind", [(v, "l1") for v in VARIANTS] + [
        (v, "mcp") for v in VARIANTS if not v.startswith("fista")])
    def test_given_constant_is_bitwise_equal(self, small_data, lipschitz_calls, variant, kind):
        # A second fit is given the constant the first one estimated.
        lam = 0.1 * lambda_max(small_data)
        pen = Penalty.l1(lam) if kind == "l1" else Penalty.mcp(lam, 3.0)
        opts = SolverOptions(variant=variant, max_iters=300)
        first = fit(small_data, pen, opts)
        second = fit(small_data, pen, opts)
        assert lipschitz_calls == [small_data]
        fresh = fit(Dataset(small_data.features, small_data.labels), pen, opts)
        for other in (second, fresh):
            np.testing.assert_array_equal(other.beta, first.beta)
            assert other.final_objective == first.final_objective
            assert other.trace.objectives == first.trace.objectives
            assert other.trace.step_scales == first.trace.step_scales
            assert (other.matvecs, other.feature_rows) == (first.matvecs, first.feature_rows)

    def test_estimates_once_and_reports_it(self, small_data, lipschitz_calls):
        fit(small_data, Penalty.l1(0.5), SolverOptions(variant="ista_bb"))
        assert lipschitz_calls == [small_data]
        assert small_data.lipschitz == lipschitz_constant(small_data)
        assert len(lipschitz_calls) == 1

    def test_given_constant_skips_estimate(self, small_data, lipschitz_calls):
        L = small_data.lipschitz
        res = fit(small_data, Penalty.l1(0.5), SolverOptions(variant="fista_lip"))
        assert lipschitz_calls == [small_data]
        # the first iteration's reverse ladder starts at the kept constant
        assert res.trace.step_scales[0] == L / 2.0 ** res.trace.backtracks[0]

    def test_fixed_l0_never_estimates(self, small_data, lipschitz_calls):
        fit(small_data, Penalty.l1(0.5), SolverOptions(variant="ista_vanilla", l0=1.0))
        assert lipschitz_calls == []

    def test_fixed_l0_bb_clamps_around_l0(self, small_data, lipschitz_calls):
        # With l0 far below the curvature every BB seed is clamped to at most
        # 1e12 l0, so every search backtracks; no constant is read.
        pen = Penalty.l1(0.1 * lambda_max(small_data))
        res = fit(small_data, pen, SolverOptions(variant="ista_bb", l0=1e-20))
        assert res.converged and res.n_iterations > 2
        assert min(res.trace.backtracks) >= 20
        assert lipschitz_calls == []

    @pytest.mark.parametrize("l0", [None, 1.0])
    def test_working_set_reads_the_full_estimate(self, small_data, lipschitz_calls, l0,
                                                 monkeypatch):
        beta0 = warm_start(small_data, 0.5)
        data = Dataset(small_data.features, small_data.labels)
        lipschitz_calls.clear()
        rounds = record_rounds(monkeypatch)
        opts = SolverOptions(variant="ista_bb", l0=l0, beta0=beta0)
        fit(data, Penalty.l1(0.1 * lambda_max(data)), opts)
        assert rounds and all(rows < data.n_features for _, rows in rounds)
        # a fixed l0 reads no constant; no working set estimates its own
        assert lipschitz_calls == ([data] if l0 is None else [])

    def test_rejects_infinite_l0(self, small_data):
        with pytest.raises(ValueError, match="finite"):
            fit(small_data, Penalty.l1(0.5), SolverOptions(l0=math.inf))

    def test_zero_features_diagnosed(self):
        data = Dataset(np.zeros((3, 4)), np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="zero feature matrix"):
            fit(data, Penalty.l1(0.5))

    def test_huge_features_not_diagnosed_as_zero(self, small_data):
        data = Dataset(1e200 * small_data.features, small_data.labels)
        with pytest.raises(ValueError, match="feature scale") as info:
            fit(data, Penalty.l1(0.5))
        assert "zero" not in str(info.value)


def penalty_of(kind: str, lam: float) -> Penalty:
    return {"l1": Penalty.l1(lam), "scad": Penalty.scad(lam, 3.7),
            "mcp": Penalty.mcp(lam, 3.0), "capped_l1": Penalty.capped_l1(lam)}[kind]


# Every variant/penalty pair ``fit`` accepts: the FISTA variants take l1 only.
ACCEPTED_PAIRS = [(v, k) for v in VARIANTS for k in KINDS
                  if k == "l1" or not v.startswith("fista")]


class TestMatvecs:
    @pytest.mark.parametrize("variant, kind", [
        (v, k) for v in ("ista_bb", "ista_vanilla", "fista_lip", "fista_vanilla")
        for k in ("l1", "mcp") if k == "l1" or not v.startswith("fista")])
    def test_forward_variants_count(self, small_data, variant, kind, monkeypatch):
        scales = TestReverseSearch._record_prox_scales(monkeypatch)
        pen = penalty_of(kind, 0.1 * lambda_max(small_data))
        # A step scale far below the Lipschitz constant forces backtracking.
        res = fit(small_data, pen, SolverOptions(variant=variant, l0=0.01, max_iters=300))
        backtracks = res.trace.backtracks
        assert sum(backtracks) > 0
        grown = [0.01 * 2.0 ** i for i in range(1, backtracks[0] + 1)]
        if variant == "ista_bb":
            first = [0.01] + grown
        else:
            # a carried scale's first iteration reads the first block of the
            # reverse ladder from l0; l0 fails, so the search grows forward
            first = [0.01 / 2.0 ** i for i in range(solver._BLOCK)] + grown
        assert scales[:len(first)] == first
        assert res.trace.step_scales[0] == first[-1]
        # every later iteration evaluates 1 + b rows; the products are one
        # per row, the start, a gradient per iteration and the final objective
        assert len(scales) == len(first) + sum(1 + b for b in backtracks[1:])
        assert res.matvecs == 1 + res.n_iterations + len(scales) + 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_reverse_count(self, small_data, kind, monkeypatch):
        evaluations = []
        real = solver.prox_vector

        def counting(u, pen, L):
            evaluations.append(np.size(L))  # one per row of a block
            return real(u, pen, L)

        monkeypatch.setattr(solver, "prox_vector", counting)
        pen = penalty_of(kind, 0.1 * lambda_max(small_data))
        res = fit(small_data, pen, SolverOptions(variant="ista_reverse", max_iters=300))
        assert res.n_iterations > 0
        # the start, one gradient per iteration, every evaluated row, and the
        # recomputation of the returned objective
        assert res.matvecs == 1 + res.n_iterations + sum(evaluations) + 1

    @pytest.mark.parametrize("variant, kind", ACCEPTED_PAIRS)
    def test_matches_kernel_calls(self, small_data, variant, kind, monkeypatch):
        calls = []
        for name in ("margins", "gradient_from_margins"):
            real = getattr(solver, name)

            def counting(*args, _real=real, **kwargs):
                calls.append(len(args[0]) if np.ndim(args[0]) == 2 else 1)  # rows of a block
                return _real(*args, **kwargs)

            monkeypatch.setattr(solver, name, counting)
        pen = penalty_of(kind, 0.1 * lambda_max(small_data))
        res = fit(small_data, pen, SolverOptions(variant=variant, max_iters=300))
        assert res.matvecs == sum(calls)

    @pytest.mark.parametrize("variant, kind", ACCEPTED_PAIRS)
    @pytest.mark.parametrize("max_iters", [0, 300])
    def test_final_objective_is_bitwise_recomputation(self, small_data, variant, kind,
                                                      max_iters):
        pen = penalty_of(kind, 0.1 * lambda_max(small_data))
        res = fit(small_data, pen, SolverOptions(variant=variant, max_iters=max_iters))
        assert res.final_objective == objective(res.beta, small_data, pen)

    def test_carried_fista_margins_match_recomputed(self, monkeypatch):
        data = make_dataset(seed=91, d=30, n=80)
        pen = Penalty.l1(0.1 * lambda_max(data))
        opts = SolverOptions(variant="fista_lip", tol=1e-12, max_iters=5000)
        carried = fit(data, pen, opts)
        real = solver._extrapolate

        def recomputed(cand, z_cand, prev, z_prev, m):
            w, _ = real(cand, z_cand, prev, z_prev, m)
            return w, margins(w, data)

        monkeypatch.setattr(solver, "_extrapolate", recomputed)
        fresh = fit(data, pen, opts)
        assert carried.converged and fresh.converged
        assert carried.final_objective == pytest.approx(fresh.final_objective, rel=1e-12)
        np.testing.assert_allclose(carried.beta, fresh.beta, rtol=1e-12, atol=1e-12)


def record_products(monkeypatch):
    """Patch the kernels ``fit`` calls; return the feature rows each product reads.

    Returns two lists, one entry per margin product and one per gradient
    product; a margin call on a block of K coefficient rows makes K products.
    Every product reads all rows of the dataset it is made on: d on the full
    data, |ws| on a working set.
    """
    margin_rows, gradient_rows = [], []
    real_margins, real_gradient = solver.margins, solver.gradient_from_margins

    def recording_margins(beta, data, *args, **kwargs):
        margin_rows.extend([data.n_features] * len(np.atleast_2d(beta)))
        return real_margins(beta, data, *args, **kwargs)

    def recording_gradient(z, data, holder):
        products = holder.products
        g = real_gradient(z, data, holder)
        assert holder.products == products + 1
        gradient_rows.append(data.n_features)
        return g

    monkeypatch.setattr(solver, "margins", recording_margins)
    monkeypatch.setattr(solver, "gradient_from_margins", recording_gradient)
    return margin_rows, gradient_rows


def record_rounds(monkeypatch) -> list:
    """Patch ``solver._descend`` to record each solve of a fit.

    Returns one ``(iterations before the solve, rows of its dataset)`` pair
    per solve: one for a fit on the full data, one per working set else.
    """
    rounds = []
    real = solver._descend

    def recording(data, beta, z, pen, opts, L0, holder, trace):
        rounds.append((len(trace), data.n_features))
        return real(data, beta, z, pen, opts, L0, holder, trace)

    monkeypatch.setattr(solver, "_descend", recording)
    return rounds


def record_solves(monkeypatch) -> list:
    """Patch ``solver._descend`` to record the dataset, the L0 and the trace
    length at the start of each solve of a fit."""
    solves = []
    real = solver._descend

    def recording(data, beta, z, pen, opts, L0, holder, trace):
        solves.append((data, L0, len(trace)))
        return real(data, beta, z, pen, opts, L0, holder, trace)

    monkeypatch.setattr(solver, "_descend", recording)
    return solves


def warm_start(data, fraction, variant="ista_bb") -> np.ndarray:
    """The l1 solution at ``fraction`` of lambda_max, to warm-start a smaller weight."""
    pen = Penalty.l1(fraction * lambda_max(data))
    return fit(data, pen, SolverOptions(variant=variant)).beta


class TestFeatureRows:
    @pytest.mark.parametrize("variant, kind", ACCEPTED_PAIRS)
    def test_counts_rows_of_every_product(self, small_data, variant, kind, monkeypatch):
        margin_rows, gradient_rows = record_products(monkeypatch)
        pen = penalty_of(kind, 0.1 * lambda_max(small_data))
        res = fit(small_data, pen, SolverOptions(variant=variant, max_iters=300))
        assert res.matvecs == len(margin_rows) + len(gradient_rows)
        assert res.feature_rows == sum(margin_rows) + sum(gradient_rows)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cap", [5, 7])
    def test_reverse_counts_rows_of_partial_blocks(self, small_data, kind, cap, monkeypatch):
        # from far above the Lipschitz step the ladder runs past one block
        # and often to the cap, which cuts the last block short
        margin_rows, gradient_rows = record_products(monkeypatch)
        scales = TestReverseSearch._record_prox_scales(monkeypatch)
        pen = penalty_of(kind, 0.1 * lambda_max(small_data))
        L0 = 1e3 * lipschitz_constant(small_data)
        monkeypatch.setattr(solver, "_MAX_EXPANSIONS", cap)
        res = fit(small_data, pen, SolverOptions(variant="ista_reverse", l0=L0, max_iters=100))
        assert max(res.trace.backtracks) == cap - 1
        assert min(res.trace.step_scales) >= L0 / 2.0 ** (cap - 1)
        assert len(scales) == len(margin_rows) - 2  # the start and the final objective
        assert res.matvecs == len(margin_rows) + len(gradient_rows)
        assert res.feature_rows == sum(margin_rows) + sum(gradient_rows)
        assert res.final_objective == objective(res.beta, small_data, pen)

    @pytest.mark.parametrize("variant", ["ista_bb", "fista_lip", "ista_reverse"])
    def test_sparse_wide_warm_fit_reads_set_rows(self, variant, monkeypatch):
        # d > n at 0.3 lambda_max, warm-started from the 0.5 solution: most
        # products are made on the gathered rows of a working set; the full
        # data takes the start, one check per solve and the final objective
        data = make_dataset(seed=92, d=200, n=60)
        d = data.n_features
        beta0 = warm_start(data, 0.5, variant)
        margin_rows, gradient_rows = record_products(monkeypatch)
        rounds = record_rounds(monkeypatch)
        pen = Penalty.l1(0.3 * lambda_max(data))
        res = fit(data, pen, SolverOptions(variant=variant, beta0=beta0))
        assert res.converged
        assert all(rows < d for _, rows in rounds)
        assert len(gradient_rows) == res.n_iterations + 1 + len(rounds)
        assert gradient_rows.count(d) == 1 + len(rounds)
        assert margin_rows.count(d) == 2
        gathered = sum(1 for r in margin_rows + gradient_rows if r < d)
        assert 2 * gathered >= res.matvecs > 0
        assert res.matvecs == len(margin_rows) + len(gradient_rows)
        assert res.feature_rows == sum(margin_rows) + sum(gradient_rows) < d * res.matvecs
        assert res.final_objective == objective(res.beta, data, pen)

    @pytest.mark.parametrize("kind", ["scad", "mcp", "capped_l1"])
    @pytest.mark.parametrize("variant", ["ista_bb", "ista_reverse"])
    def test_nonconvex_gradients_read_every_row(self, kind, variant, monkeypatch):
        data = make_dataset(seed=92, d=200, n=60)
        d = data.n_features
        margin_rows, gradient_rows = record_products(monkeypatch)
        res = fit(data, penalty_of(kind, 0.3 * lambda_max(data)),
                  SolverOptions(variant=variant, max_iters=300))
        assert len(gradient_rows) == res.n_iterations > 0
        assert res.feature_rows == sum(margin_rows) + d * res.n_iterations


def full_check(beta, data, lam) -> bool:
    """Whether every zero coordinate meets |g_j| <= lam (1 + 1e-9) on the full data."""
    g = loss_gradient(beta, data)
    return bool(np.all(np.abs(g[beta == 0.0]) <= lam * (1 + 1e-9)))


class TestWorkingSet:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_warm_path_points_meet_the_full_check(self, variant):
        data = make_dataset(seed=94, d=150, n=50)
        spec = PathSpec(Penalty.l1(1.0), SolverOptions(variant=variant),
                        fractions=(0.05, 0.1, 0.2, 0.3, 0.5, 0.8))
        points = run_path(data, spec)
        for pt in points[1:]:
            assert pt.result.converged
            assert full_check(pt.result.beta, data, pt.lam)

    @pytest.mark.parametrize("variant", ["ista_bb", "fista_lip"])
    def test_sets_start_from_the_support_and_at_most_double(self, variant, monkeypatch):
        data = make_dataset(seed=95, d=200, n=60)
        beta0 = warm_start(data, 0.4, variant)
        features = []
        real = solver.Dataset

        def recording(X, y):
            features.append(X)
            return real(X, y)

        monkeypatch.setattr(solver, "Dataset", recording)
        fit(data, Penalty.l1(0.05 * lambda_max(data)), SolverOptions(variant=variant, beta0=beta0))
        sizes = [len(X) for X in features]
        assert sizes[0] == max(10, 2 * np.count_nonzero(beta0)) and len(sizes) > 1
        assert all(a < b <= 2 * a for a, b in zip(sizes, sizes[1:]))
        rows = {row.tobytes(): j for j, row in enumerate(data.features)}
        first = [rows[row.tobytes()] for row in features[0]]
        assert first == sorted(first)
        assert set(np.flatnonzero(beta0)) <= set(first)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_cut_fit_numbers_its_iterations_on(self, variant, monkeypatch):
        data = make_dataset(seed=95, d=200, n=60)
        beta0 = warm_start(data, 0.4, variant)
        pen = Penalty.l1(0.1 * lambda_max(data))
        rounds = record_rounds(monkeypatch)
        whole = fit(data, pen, SolverOptions(variant=variant, beta0=beta0))
        assert whole.converged and len(rounds) > 1
        # at the end of the first solve, and inside the last one
        for cap in (rounds[1][0], whole.n_iterations - 1):
            res = fit(data, pen, SolverOptions(variant=variant, beta0=beta0, max_iters=cap))
            assert not res.converged
            assert len(res.trace) == cap
            assert res.trace.objectives == whole.trace.objectives[:cap]
            assert res.final_objective == objective(res.beta, data, pen)

    @pytest.mark.parametrize("variant, kind, start", [
        pytest.param(v, k, "cold" if k == "l1" else "warm", id=f"{v}-{k}")
        for v, k in ACCEPTED_PAIRS] + [
        pytest.param(v, "l1", start, id=f"{v}-l1-{start}")
        for v in VARIANTS for start in ("zero vector", "random vector", "dense")])
    def test_cold_l1_and_warm_nonconvex_fits_read_every_row(self, variant, kind, start,
                                                            monkeypatch):
        # only an l1 start with a support smaller than the data opens a
        # working set; "dense" holds d/2 nonzeros, so its first set is all d
        data = make_dataset(seed=92, d=200, n=60)
        d = data.n_features
        pen = penalty_of(kind, 0.3 * lambda_max(data))
        rng = np.random.default_rng(93)
        if start == "cold":
            beta0 = "zeros"
        elif start == "warm":
            beta0 = warm_start(data, 0.5)
        elif start == "zero vector":
            beta0 = np.zeros(d)
        elif start == "random vector":
            beta0 = rng.normal(size=d) / d
        else:
            beta0 = np.where(np.arange(d) % 2, rng.normal(size=d) / d, 0.0)
        margin_rows, gradient_rows = record_products(monkeypatch)
        rounds = record_rounds(monkeypatch)
        res = fit(data, pen, SolverOptions(variant=variant, beta0=beta0, max_iters=300))
        assert rounds == [(0, d)]
        assert len(gradient_rows) == res.n_iterations  # no set's start gradient or check
        assert set(margin_rows + gradient_rows) == {d}
        assert res.feature_rows == d * res.matvecs

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zero_vector_start_equals_zeros(self, variant):
        data = make_dataset(seed=92, d=200, n=60)
        pen = Penalty.l1(0.3 * lambda_max(data))
        named = fit(data, pen, SolverOptions(variant=variant, beta0="zeros"))
        vector = fit(data, pen, SolverOptions(variant=variant, beta0=np.zeros(data.n_features)))
        assert_same_fit(vector, named)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("max_iters", [0, 3, 10_000])
    def test_final_objective_is_bitwise_recomputation(self, variant, max_iters):
        data = make_dataset(seed=96, d=120, n=50)
        pen = Penalty.l1(0.1 * lambda_max(data))
        beta0 = warm_start(data, 0.3, variant)
        res = fit(data, pen, SolverOptions(variant=variant, beta0=beta0, max_iters=max_iters))
        assert res.final_objective == objective(res.beta, data, pen)
        if max_iters == 0:
            np.testing.assert_array_equal(res.beta, beta0)

    def test_nnz_counts_every_nonzero(self, small_data):
        beta0 = np.zeros(small_data.n_features)
        beta0[3] = 1e-12
        res = fit(small_data, Penalty.l1(0.5), SolverOptions(beta0=beta0, max_iters=0))
        assert res.nnz == 1

    @given(st.integers(8, 60), st.integers(2, 30), st.floats(0.05, 0.95),
           st.sampled_from(["ista_bb", "fista_lip"]), st.data())
    @settings(max_examples=40)
    def test_warm_fit_is_safe_at_any_scale(self, d, n, fraction, variant, draw):
        # rows scaled by 10**u for u in [-3, 3], and one zero row; the start
        # is the solution at a larger weight
        seed = draw.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(d, n)) * 10.0 ** rng.uniform(-3, 3, size=(d, 1))
        X[rng.integers(d)] = 0.0
        y = np.arange(n) % 2.0
        data = Dataset(X, y)
        lam_top = lambda_max(data)
        opts = SolverOptions(variant=variant, max_iters=500)
        beta0 = fit(data, Penalty.l1(min(1.0, 1.5 * fraction) * lam_top), opts).beta
        pen = Penalty.l1(fraction * lam_top)
        res = fit(data, pen, dataclasses.replace(opts, beta0=beta0))
        assert np.all(np.isfinite(res.beta))
        assert res.final_objective == objective(res.beta, data, pen)

    # Every fit starts from the full data's L0; a carried scale runs down
    # the reverse ladder from it once, then grows through the later sets.
    FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8)

    def paths(self, variant):
        """The warm path with the default L0, and with L0 pinned to the full data's."""
        data = make_dataset(seed=94, d=150, n=50)
        spec = PathSpec(Penalty.l1(1.0), SolverOptions(variant=variant), fractions=self.FRACTIONS)
        pinned = dataclasses.replace(spec, opts=SolverOptions(variant=variant, l0=data.lipschitz))
        return data, run_path(data, spec), run_path(data, pinned)

    @pytest.mark.parametrize("variant", ["fista_lip", "ista_vanilla"])
    def test_full_data_constant_is_the_default_l0(self, variant):
        pytest.importorskip("scipy")
        from oracle_reference import l1_oracle

        data, own, pinned = self.paths(variant)
        for a, b in zip(own, pinned):
            assert_same_fit(a.result, b.result)
        # the cold first point's reverse ladder passes L0 / eta at least
        trace = own[0].result.trace
        assert own[0].fraction == max(self.FRACTIONS) and trace.backtracks[0] >= 1
        assert trace.step_scales[0] == data.lipschitz / 2.0 ** trace.backtracks[0]
        for pt in own:  # within the bounds of tests/test_oracle.py
            assert pt.result.converged
            f, f_star = pt.result.final_objective, l1_oracle(data.features, data.labels,
                                                             pt.lam)[1]
            assert f_star - 1e-9 * abs(f_star) <= f <= f_star + 1e-5 * abs(f_star)

    # A SHA-256 of the coefficients' bytes and each point's iterations and
    # matvecs, largest fraction first, as recorded before the carried scale
    # took its reverse step, with numpy 2.4 and OpenBLAS on a 2-core x86-64
    # machine; another BLAS build may round differently.
    SEEDED_FINGERPRINTS = {
        "ista_bb": ("2622f5beb076f5bf4d3173a792883530c0e49639f9b227b379186266bdcf5116",
                    [4, 31, 48, 41, 60, 77], [10, 84, 142, 127, 194, 247]),
        "ista_reverse": ("5204ea82b52018fdabe8f530876f0bb0f4d0d1b686d490eb5451097a7d9a0761",
                         [10, 28, 52, 51, 124, 160], [72, 202, 399, 403, 1034, 1544]),
    }

    @pytest.mark.parametrize("variant", ["ista_bb", "ista_reverse"])
    def test_seeded_searches_keep_the_full_constant(self, variant):
        _, own, pinned = self.paths(variant)
        for a, b in zip(own, pinned):
            assert_same_fit(a.result, b.result)
        digest = hashlib.sha256(b"".join(p.result.beta.tobytes() for p in own)).hexdigest()
        assert (digest, [p.result.n_iterations for p in own],
                [p.result.matvecs for p in own]) == self.SEEDED_FINGERPRINTS[variant]

    @pytest.mark.parametrize("variant", ["fista_lip", "ista_vanilla"])
    def test_step_scales_never_fall_across_sets(self, variant, monkeypatch):
        data = make_dataset(seed=95, d=200, n=60)
        beta0 = warm_start(data, 0.4, variant)
        solves = record_solves(monkeypatch)
        res = fit(data, Penalty.l1(0.05 * lambda_max(data)),
                  SolverOptions(variant=variant, beta0=beta0))
        assert res.converged and len(solves) > 2
        assert np.all(np.diff(res.trace.step_scales) >= 0.0)

    @pytest.mark.parametrize("l0", [None, 1000.0])
    def test_grown_set_carries_the_scale(self, monkeypatch, lipschitz_calls, l0):
        data = make_dataset(seed=95, d=200, n=60)
        beta0 = warm_start(data, 0.4, "fista_lip")
        lipschitz_calls.clear()
        solves = record_solves(monkeypatch)
        seeds = {}  # solve index -> the seed of its first forward search
        real_forward = solver._forward_search

        def forward(trial, L_start, eta, tried=0):
            seeds.setdefault(len(solves) - 1, L_start)
            return real_forward(trial, L_start, eta, tried)

        monkeypatch.setattr(solver, "_forward_search", forward)
        res = fit(data, Penalty.l1(0.1 * lambda_max(data)),
                  SolverOptions(variant="fista_lip", l0=l0, beta0=beta0))
        assert res.converged and len(solves) > 1
        # no set is estimated: L0 tops the first set's ladder, and each later
        # set starts where the last one ended
        L0 = data.lipschitz if l0 is None else l0
        first, L_first, start = solves[0]
        assert lipschitz_calls == [] and (L_first, start) == (L0, 0)
        assert first.n_features < data.n_features
        trace = res.trace
        assert trace.backtracks[0] >= 1
        assert trace.step_scales[0] == L0 / 2.0 ** trace.backtracks[0]
        for i, (_, L_start, start) in enumerate(solves[1:], 1):
            assert start > 0 and L_start == L0
            assert seeds[i] == trace.step_scales[start - 1]

    def test_degenerate_set_keeps_the_full_constant(self, monkeypatch):
        # Rows 0-19 are tiny; rows 20-29 are constant, and at the start the
        # labels give them an exactly zero gradient, so the set holds tiny
        # rows only.  Its ladder from the full data's L0 runs to the cap.
        rng = np.random.default_rng(97)
        n = 20
        X = np.vstack([1e-170 * rng.standard_normal((20, n)), np.ones((10, n))])
        data = Dataset(X, np.arange(n) % 2.0)
        beta0 = np.zeros(30)
        beta0[:4] = 1.0
        solves = record_solves(monkeypatch)
        res = fit(data, Penalty.l1(1.0), SolverOptions(variant="fista_lip", beta0=beta0))
        assert res.converged and np.all(np.isfinite(res.beta))
        (sub, L0, _), = solves
        assert sub.n_features == 10 and np.max(np.abs(sub.features)) < 1e-160
        assert L0 == data.lipschitz
        assert res.trace.backtracks[0] == solver._MAX_EXPANSIONS - 1


class TestFitClock:
    def test_clock_includes_lipschitz_estimate(self, small_data, monkeypatch):
        real = data_module.lipschitz_constant

        def slow(data, *args, **kwargs):
            time.sleep(0.05)
            return real(data, *args, **kwargs)

        monkeypatch.setattr(data_module, "lipschitz_constant", slow)
        res = fit(small_data, Penalty.l1(0.5), SolverOptions(variant="ista_bb", max_iters=3))
        assert res.trace.times[-1] >= 0.05
        assert res.seconds >= res.trace.times[-1]

    def test_seconds_cover_a_zero_iteration_fit(self, small_data):
        res = fit(small_data, Penalty.l1(0.5), SolverOptions(max_iters=0))
        assert len(res.trace) == 0
        assert res.seconds > 0


class TestSolverOptionsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"variant": "sgd"},
        {"eta": 1.0},
        {"l0": 0.0},
        {"max_iters": -1},
        {"tol": -1e-3},
        {"l0": -1.0},
        {"beta0": "ones"},
        {"eta": math.inf},
        {"eta": math.nan},
        {"l0": math.inf},
        {"l0": math.nan},
        {"tol": math.inf},
        {"tol": math.nan},
        {"beta0": np.full(4, np.nan)},
        {"beta0": np.array([0.0, np.inf, 1.0])},
        {"beta0": [0.0, -np.inf]},
    ])
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ValueError):
            SolverOptions(**kwargs)

    def test_rejects_a_start_of_the_wrong_shape(self, small_data):
        d = small_data.n_features
        opts = SolverOptions(beta0=np.zeros(d + 1))
        with pytest.raises(ValueError, match=rf"beta0 has shape \({d + 1},\), expected \({d},\)"):
            fit(small_data, Penalty.l1(0.5), opts)
