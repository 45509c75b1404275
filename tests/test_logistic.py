import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from proxlogit import Dataset, lipschitz_constant, loss_gradient, loss_value, softplus
from proxlogit.logistic import (
    GradientScreen,
    SupportRows,
    _row_norms,
    _top_eigenvalue,
    gradient_from_margins,
    loss_from_margins,
    margins,
)

from conftest import make_dataset


def naive_loss(beta, data):
    # per-sample summation in plain Python, the independent oracle
    total = 0.0
    for i in range(data.n_samples):
        z = float(np.dot(data.features[:, i], beta))
        total += math.log(1.0 + math.exp(z)) - data.labels[i] * z
    return total


def fd_gradient(beta, data, h=1e-5):
    g = np.empty_like(beta)
    for i in range(len(beta)):
        e = np.zeros_like(beta)
        e[i] = h
        g[i] = (loss_value(beta + e, data) - loss_value(beta - e, data)) / (2 * h)
    return g


def assert_gradient_lipschitz(data, L, seed):
    # ||grad(a) - grad(b)|| <= L ||a - b|| on random pairs
    rng = np.random.default_rng(seed)
    for _ in range(50):
        a, b = rng.normal(size=data.n_features), rng.normal(size=data.n_features)
        lhs = np.linalg.norm(loss_gradient(a, data) - loss_gradient(b, data))
        assert lhs <= L * np.linalg.norm(a - b) * (1 + 1e-10)


class TestSoftplus:
    def test_at_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2), abs=1e-15)

    def test_large_positive_no_overflow(self):
        assert float(softplus(1000.0)) == 1000.0

    def test_large_negative_underflows_to_zero(self):
        v = float(softplus(-1000.0))
        assert v == 0.0

    def test_vectorized(self):
        z = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(softplus(z), np.log1p(np.exp(z)), rtol=1e-15)


class TestLossValue:
    def test_zero_beta_is_n_log2(self, small_data):
        assert loss_value(np.zeros(small_data.n_features), small_data) == pytest.approx(
            small_data.n_samples * math.log(2), rel=1e-14)

    def test_scalar_instance(self):
        # d=1, n=1, x=[1], y=1, beta=[10]: softplus(10) - 10
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        assert loss_value(np.array([10.0]), data) == pytest.approx(4.539889921686465e-05, rel=1e-12)

    def test_matches_naive_oracle(self):
        data = make_dataset(seed=21, d=5, n=20)
        rng = np.random.default_rng(2)
        for _ in range(5):
            beta = rng.normal(size=5)
            assert loss_value(beta, data) == pytest.approx(naive_loss(beta, data), rel=1e-12)

    def test_nonnegative(self):
        data = make_dataset(seed=3, d=8, n=30)
        rng = np.random.default_rng(4)
        for _ in range(20):
            assert loss_value(rng.normal(scale=3, size=8), data) >= 0.0

    def test_dimension_mismatch(self, small_data):
        with pytest.raises(ValueError):
            loss_value(np.zeros(small_data.n_features + 1), small_data)

    def test_convex_along_segments(self):
        data = make_dataset(seed=17, d=6, n=25)
        rng = np.random.default_rng(18)
        for _ in range(10):
            a, b = rng.normal(size=6), rng.normal(size=6)
            for theta in (0.25, 0.5, 0.9):
                mid = loss_value(theta * a + (1 - theta) * b, data)
                chord = theta * loss_value(a, data) + (1 - theta) * loss_value(b, data)
                assert mid <= chord + 1e-10


class TestLossGradient:
    def test_zero_beta(self, small_data):
        g = loss_gradient(np.zeros(small_data.n_features), small_data)
        expected = small_data.features @ (0.5 - small_data.labels)
        np.testing.assert_allclose(g, expected, rtol=1e-14)

    def test_scalar_instance(self):
        data = Dataset(np.array([[2.0]]), np.array([0.0]))
        np.testing.assert_allclose(loss_gradient(np.array([0.0]), data), [1.0], rtol=1e-15)

    def test_matches_finite_differences(self):
        data = make_dataset(seed=31, d=7, n=35)
        rng = np.random.default_rng(32)
        beta = rng.normal(size=7)
        g = loss_gradient(beta, data)
        fd = fd_gradient(beta, data)
        np.testing.assert_allclose(g, fd, rtol=1e-6)

    def test_dimension_mismatch(self, small_data):
        with pytest.raises(ValueError):
            loss_gradient(np.zeros(1), small_data)


class TestMarginKernels:
    def test_compositions_are_bitwise_equal(self, small_data):
        beta = np.random.default_rng(33).normal(size=small_data.n_features)
        z = margins(beta, small_data)
        np.testing.assert_array_equal(z, beta @ small_data.features)
        assert loss_from_margins(z, small_data) == loss_value(beta, small_data)
        np.testing.assert_array_equal(gradient_from_margins(z, small_data),
                                      loss_gradient(beta, small_data))

    def test_margins_dimension_mismatch(self, small_data):
        with pytest.raises(ValueError, match="shape"):
            margins(np.zeros(small_data.n_features + 1), small_data)


def sparse_beta(rng, d, k):
    """A coefficient vector with exactly k nonzeros at random positions."""
    beta = np.zeros(d)
    beta[rng.choice(d, size=k, replace=False)] = rng.normal(size=k)
    return beta


class TestGatheredMargins:
    @given(st.integers(1, 40), st.integers(1, 30), st.data())
    def test_close_to_full_product_at_every_support_size(self, d, n, draw):
        # supports from 0 to d cover both the gathered (4 k <= d) and the
        # full branch; the bound scales with the sum of |terms|
        k = draw.draw(st.integers(0, d), label="support size")
        seed = draw.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        data = Dataset(rng.normal(size=(d, n)), rng.integers(0, 2, size=n).astype(float))
        beta = sparse_beta(rng, d, k)
        full = beta @ data.features
        bound = 1e-12 * (np.abs(beta) @ np.abs(data.features))
        for z in (margins(beta, data), margins(beta, data, SupportRows())):
            assert z.shape == (n,)
            assert np.all(np.abs(z - full) <= bound)

    def test_zero_beta_gives_positive_zeros(self, small_data):
        for beta in (np.zeros(small_data.n_features), np.full(small_data.n_features, -0.0)):
            rows = SupportRows()
            z = margins(beta, small_data, rows)
            assert z.shape == (small_data.n_samples,)
            assert np.all(z == 0.0) and not np.any(np.signbit(z))
            assert rows.read == 0

    def test_negative_zeros_count_as_zero(self, small_data):
        d = small_data.n_features
        beta = np.full(d, -0.0)
        beta[:d // 4] = 1.5
        rows = SupportRows()
        margins(beta, small_data, rows)
        assert rows.read == d // 4
        np.testing.assert_array_equal(rows.support, np.arange(d // 4))
        beta[d // 4] = 1.5  # one more nonzero crosses a quarter: the full product
        margins(beta, small_data, rows)
        assert rows.read == d // 4 + d

    def test_holder_reuse_is_bitwise_equal_to_fresh_gather(self):
        data = make_dataset(seed=34, d=64, n=50)
        rng = np.random.default_rng(35)
        supports = [
            [3, 9, 20], [3, 9, 20],        # repeat
            [3, 20], [3, 20],              # shrink
            [3, 9, 20, 41, 60], [3, 9, 20, 41, 60],  # grow
            [0, 1, 2, 5, 7, 8, 11],        # disjoint
            list(range(0, 64, 2)),         # dense: the full product
            [3, 20], [3, 20, 61], [],      # back to sparse, then zero
        ]
        rows = SupportRows()
        read = 0
        for _ in range(3):
            for support in supports:
                beta = np.zeros(data.n_features)
                beta[support] = rng.normal(size=len(support))
                z = margins(beta, data, rows)
                np.testing.assert_array_equal(z.view(np.uint64),
                                              margins(beta, data).view(np.uint64))
                read += len(support) if 4 * len(support) <= data.n_features else data.n_features
                assert rows.read == read


class TestBlockMargins:
    @pytest.mark.parametrize("union", [0, 3, 16, 17, 64])
    def test_rows_close_to_one_row_products(self, union):
        # union supports at and around d/4 = 16: gathered up to it, full past it
        data = make_dataset(seed=36, d=64, n=50)
        rng = np.random.default_rng(37)
        B = np.zeros((6, 64))
        cols = rng.choice(64, size=union, replace=False)
        B[:, cols] = rng.normal(size=(6, union)) * (rng.uniform(size=(6, union)) < 0.7)
        B[:, cols[:1]] = 1.0  # each row reaches the whole union
        rows = SupportRows()
        Z = margins(B, data, rows)
        assert Z.shape == (6, 50)
        assert rows.read == 6 * (union if 4 * union <= 64 else 64)
        for b, z in zip(B, Z):
            bound = 1e-12 * (np.abs(b) @ np.abs(data.features))
            assert np.all(np.abs(z - margins(b, data)) <= bound)
        if 0 < 4 * union <= 64:
            np.testing.assert_array_equal(rows.support, np.sort(cols))
            np.testing.assert_array_equal(Z, B[:, rows.support] @ data.features[rows.support])
            np.testing.assert_array_equal(margins(B, data), Z)  # no holder, same bits

    def test_zero_block_gives_positive_zeros(self, small_data):
        rows = SupportRows()
        Z = margins(np.full((3, small_data.n_features), -0.0), small_data, rows)
        assert np.all(Z == 0.0) and not np.any(np.signbit(Z))
        assert rows.read == 0

    def test_loss_rows_bitwise_equal_to_one_row_losses(self, small_data):
        rng = np.random.default_rng(38)
        Z = rng.normal(size=(7, small_data.n_samples)) * 10.0 ** rng.uniform(-3, 3, size=(7, 1))
        losses = loss_from_margins(Z, small_data)
        assert losses.shape == (7,)
        one_row = np.array([loss_from_margins(z, small_data) for z in Z])
        np.testing.assert_array_equal(losses.view(np.uint64), one_row.view(np.uint64))

    @pytest.mark.parametrize("shape", [(2, 13), (2, 3, 12)])
    def test_block_shape_mismatch(self, small_data, shape):
        with pytest.raises(ValueError, match="shape"):
            margins(np.zeros(shape), small_data)


class TestGradientScreen:
    @staticmethod
    def referenced(lam, d=40, n=30, seed=40):
        """A screen that has taken its reference at a zero anchor, with X and r."""
        rng = np.random.default_rng(seed)
        X, r = rng.normal(size=(d, n)), rng.uniform(-0.5, 0.5, size=n)
        screen = GradientScreen(lam, _row_norms(X)).at(np.zeros(d))
        np.testing.assert_array_equal(screen.product(X, r), X @ r)
        assert screen.read == d and screen.rows.shape == (d // 4, n)
        return screen, X, r

    def test_row_within_rounding_of_lam_is_read(self):
        # The top row's slack is a few ulps: positive, but within the rounding
        # a full product could make, so the same residual must still read it.
        d = 40
        rng = np.random.default_rng(40)
        g = rng.normal(size=(d, 30)) @ rng.uniform(-0.5, 0.5, size=30)
        top = int(np.argmax(np.abs(g)))
        screen, X, r = self.referenced(abs(g[top]) * (1 + 8 * np.finfo(float).eps))
        out = screen.product(X, r.copy())
        assert screen.read == d + 1
        assert out[top] == pytest.approx(g[top], rel=1e-14)

    def test_far_residual_takes_full_product(self):
        screen, X, r = self.referenced(lam=1e3)
        near = r + 1e-9  # every slack exceeds delta: nothing to read
        np.testing.assert_array_equal(screen.product(X, near), X @ r)
        assert screen.read == 40
        far = 1e4 * r  # every held row is within reach: the full product
        np.testing.assert_array_equal(screen.product(X, far), X @ far)
        assert screen.read == 80

    def test_non_finite_residual_takes_full_product(self):
        screen, X, r = self.referenced(lam=1.0)
        r[0] = np.nan
        out = screen.product(X, r)
        assert screen.read == 2 * 40
        assert np.all(np.isnan(out)) and screen.rows is None

    def test_dense_anchor_takes_no_reference(self):
        rng = np.random.default_rng(41)
        X, r = rng.normal(size=(40, 30)), rng.uniform(-0.5, 0.5, size=30)
        anchor = np.zeros(40)
        anchor[:10] = 1.0  # a quarter of the coordinates
        screen = GradientScreen(1e6, _row_norms(X)).at(anchor)
        for i in range(3):
            np.testing.assert_array_equal(screen.product(X, r), X @ r)
            assert screen.read == 40 * (i + 1) and screen.rows is None

    def test_anchor_outside_held_rows_takes_full_product(self):
        screen, X, r = self.referenced(lam=1e6)  # every slack is huge
        anchor = np.zeros(40)
        anchor[np.setdiff1d(np.arange(40), screen._index)[0]] = 1.0
        np.testing.assert_array_equal(screen.at(anchor).product(X, r), X @ r)
        assert screen.read == 2 * 40

    def test_row_norms_guard_underflow(self):
        X = np.array([[3.0, 4.0], [0.0, 0.0], [1e-170, 0.0], [0.0, -1e-300]])
        np.testing.assert_array_equal(_row_norms(X), [5.0, 0.0, np.inf, np.inf])


class TestLipschitzConstant:
    def test_identity(self):
        data = Dataset(np.eye(2), np.array([1.0, 0.0]))
        assert lipschitz_constant(data) == pytest.approx(0.25, rel=1e-9)

    def test_diagonal(self):
        data = Dataset(np.diag([2.0, 1.0]), np.array([1.0, 0.0]))
        assert lipschitz_constant(data) == pytest.approx(1.0, rel=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((5, 8))
        data = Dataset(X, rng.integers(0, 2, size=8).astype(float))
        oracle = 0.25 * np.linalg.eigvalsh(X @ X.T)[-1]
        assert lipschitz_constant(data) == pytest.approx(oracle, rel=1e-6)

    def test_zero_matrix_warns_and_returns_zero(self):
        data = Dataset(np.zeros((3, 4)), np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.warns(UserWarning, match="no positive spectrum"):
            assert lipschitz_constant(data) == 0.0

    def test_gradient_lipschitz_inequality(self):
        data = make_dataset(seed=55, d=10, n=40)
        assert_gradient_lipschitz(data, lipschitz_constant(data), seed=56)

    @pytest.mark.parametrize("features", [
        [[1.0, 0.5], [-1.0, 0.5]],
        [[2.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 2.0, 1.0], [-2.0, -2.0, -2.0, 1.0]],
    ])
    def test_ones_vector_eigenvector_of_lower_eigenvalue(self, features):
        # the all-ones vector is an eigenvector of X X' for a smaller
        # eigenvalue, so a power iteration started there never leaves it
        X = np.array(features)
        data = Dataset(X, np.resize([1.0, 0.0], X.shape[1]))
        L = lipschitz_constant(data)
        assert L == pytest.approx(0.25 * np.linalg.eigvalsh(X @ X.T)[-1], rel=1e-12)
        assert_gradient_lipschitz(data, L, seed=57)

    @pytest.mark.parametrize("shape", [(200, 640), (300, 80)])
    def test_accurate_in_few_steps_in_either_orientation(self, shape):
        # The basis lives in the smaller dimension: d for 200x640, n for
        # 300x80.  Successive values can agree to tol while still more than
        # tol below the top eigenvalue; the error bound keeps the loop going.
        for seed in range(40):
            X = np.random.default_rng(seed).standard_normal(shape)
            small = X @ X.T if shape[0] <= shape[1] else X.T @ X
            top = np.linalg.eigvalsh(small)[-1]
            estimate, history = _top_eigenvalue(X, tol=1e-8, max_iters=1000)
            assert estimate == pytest.approx(top, rel=1e-8), seed
            assert len(history) <= 60, seed
        data = Dataset(X, np.resize([1.0, 0.0], shape[1]))
        assert lipschitz_constant(data) == 0.25 * estimate

    @pytest.mark.parametrize("shape", [(200, 640), (300, 80)])
    def test_feature_order_changes_rounding_only(self, shape):
        X = np.random.default_rng(62).standard_normal(shape)
        perm = np.random.default_rng(63).permutation(shape[0])
        top, history = _top_eigenvalue(X, tol=1e-8, max_iters=1000)
        top_perm, history_perm = _top_eigenvalue(X[perm], tol=1e-8, max_iters=1000)
        assert len(history_perm) == len(history)
        assert top_perm == pytest.approx(top, rel=1e-12)

    def test_invariant_subspace_stops_exactly(self):
        # X X' = diag(4, 1, 1, 1, 1) has two distinct eigenvalues, so the
        # Krylov space of any start is invariant after two steps
        X = np.diag([2.0, 1.0, 1.0, 1.0, 1.0])
        top, history = _top_eigenvalue(X, tol=1e-8, max_iters=1000)
        assert len(history) == 2
        assert top == pytest.approx(4.0, rel=1e-14)

    def test_rayleigh_history_monotone_and_bounded(self):
        rng = np.random.default_rng(60)
        X = rng.standard_normal((6, 9))
        _, history = _top_eigenvalue(X, tol=1e-12, max_iters=500)
        hist = np.asarray(history)
        assert np.all(np.diff(hist) >= -1e-9 * hist[-1])
        top = np.linalg.eigvalsh(X @ X.T)[-1]
        assert hist[-1] <= top * (1 + 1e-8)

    def test_huge_and_tiny_features_scale_exactly(self, small_data):
        X, y = small_data.features, small_data.labels
        L = lipschitz_constant(small_data)
        assert lipschitz_constant(Dataset(1e150 * X, y)) == pytest.approx(1e300 * L, rel=1e-12)
        assert lipschitz_constant(Dataset(1e-150 * X, y)) == pytest.approx(1e-300 * L, rel=1e-12)
        # a power-of-two rescaling of the features is exact
        assert lipschitz_constant(Dataset(2.0 ** 300 * X, y)) == 2.0 ** 600 * L

    @pytest.mark.parametrize("features", [
        np.full((3, 4), 1e154),       # entries square finitely, the eigenvalue overflows
        np.full((3, 4), 1e200),
        np.full((3, 4), 1e-200),      # the eigenvalue underflows
    ])
    def test_unrepresentable_constant_names_feature_scale(self, features):
        data = Dataset(features, np.array([1.0, 0.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="feature scale"):
            lipschitz_constant(data)

    def test_parameter_validation(self, small_data):
        with pytest.raises(ValueError):
            lipschitz_constant(small_data, tol=0.0)
        with pytest.raises(ValueError):
            lipschitz_constant(small_data, max_iters=0)
