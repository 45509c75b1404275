import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from proxlogit import KINDS, Penalty, penalty_value, prox_vector
from proxlogit.penalties import CAPPED_L1, L1, MCP, SCAD, _DEGENERATE, _g_abs, _prox_magnitudes

from prox_reference import prox_oracle, prox_scalar


def random_penalty(kind, rng):
    lam = float(rng.uniform(0.2, 1.5))
    if kind == "l1":
        return Penalty.l1(lam)
    if kind == "scad":
        return Penalty.scad(lam, theta=float(rng.uniform(2.1, 4.5)))
    if kind == "mcp":
        return Penalty.mcp(lam, theta=float(rng.uniform(1.1, 4.5)))
    return Penalty.capped_l1(lam, epsilon=float(rng.uniform(0.1, 2.0)))


class TestPenaltyConstruction:
    def test_defaults(self):
        assert Penalty.scad(1.0).theta == 3.7
        assert Penalty.mcp(1.0).theta == 3.0
        assert Penalty.capped_l1(2.0).epsilon == 1.0  # half of lambda

    @pytest.mark.parametrize("bad", [
        lambda: Penalty.l1(0.0),
        lambda: Penalty.l1(-1.0),
        lambda: Penalty.scad(1.0, theta=2.0),
        lambda: Penalty.mcp(1.0, theta=1.0),
        lambda: Penalty.capped_l1(1.0, epsilon=0.0),
        lambda: Penalty("l2", 1.0),
        lambda: Penalty.l1(math.inf),
        lambda: Penalty.l1(math.nan),
        lambda: Penalty.scad(1.0, theta=math.inf),
        lambda: Penalty.mcp(1.0, theta=math.nan),
        lambda: Penalty.capped_l1(1.0, epsilon=math.inf),
        lambda: Penalty("l1", 1.0, theta=math.inf),
    ])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestPenaltyValue:
    def test_l1(self):
        assert penalty_value([1.0, -3.0], Penalty.l1(2.0)) == 8.0

    def test_scad_flat_region(self):
        # |b| > theta * lam: value is (theta + 1) lam^2 / 2
        pen = Penalty.scad(1.0, theta=3.7)
        assert penalty_value([10.0], pen) == pytest.approx(2.35, rel=1e-14)

    def test_scad_middle_region(self):
        pen = Penalty.scad(1.0, theta=3.7)
        b = 2.0
        expected = (-b**2 + 2 * 3.7 * 1.0 * b - 1.0) / (2 * (3.7 - 1.0))
        assert penalty_value([b], pen) == pytest.approx(expected, rel=1e-14)

    def test_mcp_flat_region(self):
        pen = Penalty.mcp(1.0, theta=3.0)
        assert penalty_value([5.0], pen) == pytest.approx(1.5, rel=1e-14)

    def test_capped(self):
        pen = Penalty.capped_l1(2.0, epsilon=0.5)
        assert penalty_value([0.2, 3.0], pen) == pytest.approx(2 * 0.2 + 2 * 0.5, rel=1e-14)

    def test_zero_at_origin_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for kind in ("l1", "scad", "mcp", "capped_l1"):
            pen = random_penalty(kind, rng)
            assert penalty_value(np.zeros(4), pen) == 0.0
            assert penalty_value(rng.normal(size=6), pen) >= 0.0

    @pytest.mark.parametrize("kind", ["scad", "mcp"])
    def test_continuous_at_region_boundaries(self, kind):
        # evaluate each branch formula exactly at its boundary
        lam, th = 0.8, 3.3
        if kind == "scad":
            left = lam * lam                                       # lam |b| at |b| = lam
            right = (-lam**2 + 2 * th * lam * lam - lam**2) / (2 * (th - 1))
            assert abs(left - right) <= 1e-12
            b = th * lam
            left = (-b**2 + 2 * th * lam * b - lam**2) / (2 * (th - 1))
            right = (th + 1) * lam**2 / 2
            assert abs(left - right) <= 1e-12
        else:
            b = th * lam
            left = lam * b - b**2 / (2 * th)
            right = th * lam**2 / 2
            assert abs(left - right) <= 1e-12


class TestProxClosedForms:
    """At L = 1 the SCAD and MCP maps have textbook closed forms."""

    def test_l1_soft_threshold(self):
        pen = Penalty.l1(1.0)
        assert prox_scalar(3.0, pen, 1.0) == 2.0
        assert prox_scalar(0.5, pen, 1.0) == 0.0
        assert prox_scalar(-3.0, pen, 1.0) == -2.0

    def test_l1_scaled(self):
        np.testing.assert_array_equal(
            prox_vector(np.array([1.0, -1.0]), Penalty.l1(1.0), 2.0), [0.5, -0.5])

    def test_scad_all_regions(self):
        lam, th = 1.0, 3.7
        pen = Penalty.scad(lam, th)
        # |t| <= 2 lam: soft threshold
        assert prox_scalar(1.5, pen, 1.0) == pytest.approx(0.5, abs=1e-12)
        # 2 lam < |t| <= theta lam: ((theta-1) t - theta lam) / (theta - 2)
        assert prox_scalar(3.0, pen, 1.0) == pytest.approx(4.4 / 1.7, abs=1e-12)
        assert prox_scalar(-3.0, pen, 1.0) == pytest.approx(-4.4 / 1.7, abs=1e-12)
        # |t| > theta lam: identity
        assert prox_scalar(5.0, pen, 1.0) == 5.0

    def test_mcp_all_regions(self):
        lam, th = 1.0, 3.0
        pen = Penalty.mcp(lam, th)
        assert prox_scalar(0.9, pen, 1.0) == 0.0
        assert prox_scalar(2.0, pen, 1.0) == pytest.approx(1.5, abs=1e-12)
        assert prox_scalar(4.0, pen, 1.0) == 4.0

    def test_capped_keeps_large_values(self):
        # keeping w = t costs lam * eps = 0.5, cheaper than any shrinkage
        pen = Penalty.capped_l1(1.0, epsilon=0.5)
        assert prox_scalar(3.0, pen, 1.0) == 3.0

    def test_oracle_spot_values(self):
        assert prox_oracle(0.0, Penalty.l1(1.0), 1.0) == pytest.approx(0.0, abs=1e-4)
        assert prox_oracle(4.0, Penalty.mcp(1.0, 3.0), 1.0) == pytest.approx(4.0, abs=1e-3)


class TestProxInvariants:
    @pytest.mark.parametrize("kind", ["l1", "scad", "mcp", "capped_l1"])
    def test_zero_maps_to_zero(self, kind):
        rng = np.random.default_rng(1)
        pen = random_penalty(kind, rng)
        assert prox_scalar(0.0, pen, 1.0) == 0.0
        np.testing.assert_array_equal(prox_vector(np.zeros(3), pen, 2.0), np.zeros(3))

    @pytest.mark.parametrize("kind", ["l1", "scad", "mcp", "capped_l1"])
    def test_sign_preservation_and_shrinkage(self, kind):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pen = random_penalty(kind, rng)
            t = float(rng.uniform(-5, 5))
            L = float(rng.uniform(0.25, 4))
            w = prox_scalar(t, pen, L)
            assert np.sign(w) in (0.0, np.sign(t))
            assert abs(w) <= abs(t) + 1e-12

    def test_scad_unbiased_beyond_theta_lam(self):
        pen = Penalty.scad(0.7, theta=3.7)
        for t in (pen.theta * pen.lam + 0.01, 4.0, -6.0):
            assert prox_scalar(t, pen, 1.0) == t

    def test_mcp_unbiased_beyond_theta_lam(self):
        pen = Penalty.mcp(0.7, theta=2.5)
        for t in (pen.theta * pen.lam + 0.01, 4.0, -6.0):
            assert prox_scalar(t, pen, 1.0) == t

    def test_l1_prox_nonexpansive(self):
        pen = Penalty.l1(0.9)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(-4, 4, size=2)
            L = float(rng.uniform(0.25, 4))
            assert abs(prox_scalar(a, pen, L) - prox_scalar(b, pen, L)) <= abs(a - b) + 1e-12

    @pytest.mark.parametrize("kind", ["l1", "scad", "mcp", "capped_l1"])
    def test_vector_matches_scalar_loop(self, kind):
        rng = np.random.default_rng(4)
        pen = random_penalty(kind, rng)
        u = rng.uniform(-5, 5, size=12)
        L = 1.3
        vec = prox_vector(u, pen, L)
        loops = np.array([prox_scalar(t, pen, L) for t in u])
        np.testing.assert_array_equal(vec, loops)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_signs_match_three_pass_form_bitwise(self, kind, factor):
        # assert_array_equal cannot see the sign of a zero, so compare bits
        pen = random_penalty(kind, np.random.default_rng(9))
        L = factor * _curvature(pen)
        b = _boundaries(pen, L)
        rng = np.random.default_rng(10)
        u = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310],
            b, -b, rng.standard_normal(400) * 10.0 ** rng.uniform(-3.0, 2.0, size=400)])
        with np.errstate(invalid="ignore"):
            w = _prox_magnitudes(np.abs(u), pen, L)
            out = prox_vector(u, pen, L)
        three_pass = np.where(w == 0.0, 0.0, np.copysign(w, u))
        np.testing.assert_array_equal(out.view(np.uint64), three_pass.view(np.uint64))
        assert not np.any(np.signbit(out[out == 0.0]))


class TestProxAgainstOracle:
    @pytest.mark.parametrize("kind", ["l1", "scad", "mcp", "capped_l1"])
    def test_random_draws(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(60):
            pen = random_penalty(kind, rng)
            t = float(rng.uniform(-4, 4))
            L = float(rng.uniform(0.25, 4))
            w = prox_scalar(t, pen, L)
            w_oracle = prox_oracle(t, pen, L, grid_step=1e-4)
            assert abs(w - w_oracle) <= 1e-3

    @pytest.mark.parametrize("kind", ["scad", "mcp"])
    def test_region_boundaries(self, kind):
        rng = np.random.default_rng(6)
        pen = random_penalty(kind, rng)
        lam, th = pen.lam, pen.theta
        for base in (lam, 2 * lam, th * lam):
            for wiggle in (-1e-6, 0.0, 1e-6):
                for s in (1.0, -1.0):
                    t = s * (base + wiggle)
                    w = prox_scalar(t, pen, 1.0)
                    w_oracle = prox_oracle(t, pen, 1.0, grid_step=1e-4)
                    assert abs(w - w_oracle) <= 1e-3

    @pytest.mark.parametrize("kind", ["scad", "mcp"])
    def test_concave_branch_regime(self, kind):
        # L below the penalty's curvature makes prox-objective branches
        # concave; the branch minimum then sits on a boundary and the
        # enumeration must still find the global minimizer
        rng = np.random.default_rng(7)
        for _ in range(100):
            lam = float(rng.uniform(0.2, 2.0))
            if kind == "scad":
                th = float(rng.uniform(2.0001, 4.0))
                pen = Penalty.scad(lam, th)
                L = float(rng.uniform(0.05, 0.95)) / (th - 1.0)
            else:
                th = float(rng.uniform(1.0001, 4.0))
                pen = Penalty.mcp(lam, th)
                L = float(rng.uniform(0.05, 0.95)) / th
            t = float(rng.uniform(-6, 6))
            w = prox_scalar(t, pen, L)
            w_oracle = prox_oracle(t, pen, L, grid_step=1e-4)
            # compare achieved objectives: argmins may differ at exact ties
            def obj(x):
                return 0.5 * L * (x - t) ** 2 + penalty_value([x], pen)
            assert obj(w) <= obj(w_oracle) + 1e-12

    def test_degenerate_linear_branch(self):
        # L exactly at the curvature threshold: the middle branch of the
        # prox objective is linear and has no stationary point
        pen = Penalty.scad(1.0, 3.0)
        L = 1.0 / (pen.theta - 1.0)
        for t in (-5.0, -2.5, 0.7, 2.5, 5.0):
            w = prox_scalar(t, pen, L)
            w_oracle = prox_oracle(t, pen, L, grid_step=1e-4)
            assert abs(w - w_oracle) <= 1e-3

    def test_oracle_validates_grid_step(self):
        with pytest.raises(ValueError):
            prox_oracle(1.0, Penalty.l1(1.0), 1.0, grid_step=0.0)

    def test_prox_validates_L(self):
        with pytest.raises(ValueError):
            prox_scalar(1.0, Penalty.l1(1.0), 0.0)


def _enumeration_magnitudes(t: np.ndarray, pen: Penalty, L: float) -> np.ndarray:
    """Reference prox of magnitudes t by exact candidate enumeration.

    The candidates are the stationary point of every quadratic branch of the
    prox objective that falls inside its branch's region, the region
    boundaries, 0 and t itself.  g is piecewise quadratic, so the global
    minimizer is in this set; ties go to the smaller magnitude.  The closed
    forms of ``penalties`` use its arithmetic and tie rule.
    """
    lam = pen.lam
    if pen.kind == L1:
        return np.maximum(t - lam / L, 0.0)

    ones = np.ones_like(t)
    always = np.ones_like(t, dtype=bool)
    cands = [np.zeros_like(t), t]
    valid = [always, always]

    if pen.kind == SCAD:
        th = pen.theta
        cands += [lam * ones, th * lam * ones]
        valid += [always, always]
        c_inner = t - lam / L
        cands.append(c_inner)
        valid.append((c_inner >= 0.0) & (c_inner <= lam))
        denom = L * (th - 1.0) - 1.0
        if abs(denom) > _DEGENERATE:
            c_mid = (L * (th - 1.0) * t - th * lam) / denom
            cands.append(c_mid)
            valid.append((c_mid >= lam) & (c_mid <= th * lam))
    elif pen.kind == MCP:
        th = pen.theta
        cands.append(th * lam * ones)
        valid.append(always)
        denom = L - 1.0 / th
        if abs(denom) > _DEGENERATE:
            c_inner = (L * t - lam) / denom
            cands.append(c_inner)
            valid.append((c_inner >= 0.0) & (c_inner <= th * lam))
    else:  # capped l1
        eps = pen.epsilon
        cands.append(eps * ones)
        valid.append(always)
        c_inner = t - lam / L
        cands.append(c_inner)
        valid.append((c_inner >= 0.0) & (c_inner <= eps))

    W = np.stack(cands)
    mask = np.stack(valid)
    obj = np.where(mask, 0.5 * L * (W - t) ** 2 + _g_abs(np.maximum(W, 0.0), pen), np.inf)
    best = obj.min(axis=0)
    # Ties resolve to the smallest magnitude (occur at exact region boundaries).
    tied = np.where(obj == best, W, np.inf)
    return tied.min(axis=0)


def _enumeration_prox(u: np.ndarray, pen: Penalty, L: float) -> np.ndarray:
    w = _enumeration_magnitudes(np.abs(u), pen, L)
    return np.where(w == 0.0, 0.0, np.copysign(w, u))


def _curvature(pen: Penalty) -> float:
    """The scale L below which the prox objective is nonconvex (1 if never)."""
    if pen.kind == MCP:
        return 1.0 / pen.theta
    if pen.kind == SCAD:
        return 1.0 / (pen.theta - 1.0)
    return 1.0


def _boundaries(pen: Penalty, L: float) -> np.ndarray:
    """The magnitudes t where the closed forms switch region."""
    lam = pen.lam
    return np.array([lam / L, lam + lam / L, pen.theta * lam, pen.epsilon])


def _prox_objective(w, t, pen: Penalty, L: float) -> np.ndarray:
    return 0.5 * L * (w - t) ** 2 + _g_abs(np.abs(w), pen)


# Multiples of the curvature: below it, at it and 1e-13 to either side (where
# a prox branch degenerates to a line), just above it and well above it.
_WELL_CONDITIONED = st.one_of(
    st.floats(0.01, 0.999),
    st.sampled_from([1.0 - 1e-13, 1.0, 1.0 + 1e-13]),
    st.floats(1.001, 1.1),
    st.floats(1.1, 100.0),
)
# Barely above the curvature the firm and SCAD thresholds have slope
# L / (L - curvature) at their lower end: a rounding of t there moves the
# minimizer far along an almost flat prox objective.
_NEAR_DEGENERATE = st.floats(1.0 + 1e-11, 1.001)


@st.composite
def prox_cases(draw, factors=_WELL_CONDITIONED):
    kind = draw(st.sampled_from([SCAD, MCP, CAPPED_L1]))
    lam = draw(st.floats(0.01, 10.0))
    if kind == SCAD:
        pen = Penalty.scad(lam, draw(st.floats(2.01, 8.0)))
    elif kind == MCP:
        pen = Penalty.mcp(lam, draw(st.floats(1.01, 8.0)))
    else:
        pen = Penalty.capped_l1(lam, draw(st.floats(0.01, 10.0)))
    return pen, _curvature(pen) * draw(factors)


class TestClosedFormMatchesEnumeration:
    @given(prox_cases(st.one_of(_WELL_CONDITIONED, _NEAR_DEGENERATE)),
           st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_away_from_boundaries(self, case, seed):
        pen, L = case
        b = _boundaries(pen, L)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(400) * b.max() * 10.0 ** rng.uniform(-2.0, 1.0, size=400)
        u = u[np.all(np.abs(np.abs(u)[:, None] - b) > 1e-9 * b, axis=1)]
        np.testing.assert_array_equal(prox_vector(u, pen, L), _enumeration_prox(u, pen, L))

    @given(prox_cases())
    def test_close_at_boundaries(self, case):
        pen, L = case
        b = _boundaries(pen, L)
        u = np.concatenate([b, -b])
        w, ref = prox_vector(u, pen, L), _enumeration_prox(u, pen, L)
        assert np.all(np.abs(w - ref) <= 1e-12 * np.abs(u))

    @given(prox_cases(_NEAR_DEGENERATE))
    def test_near_degenerate_boundaries_attain_enumeration_objective(self, case):
        pen, L = case
        b = _boundaries(pen, L)
        u = np.concatenate([b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)])
        w = prox_vector(u, pen, L)
        f_ref = _prox_objective(_enumeration_prox(u, pen, L), u, pen, L)
        assert np.all(_prox_objective(w, u, pen, L) <= f_ref + 1e-12 * f_ref)
        assert np.all(np.abs(w) <= u)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_non_finite_inputs_stay_non_finite(self, kind, factor):
        # an infinite or NaN gradient step must not come back finite, so a
        # diverging fit still ends in Trace.append's FloatingPointError
        pen = random_penalty(kind, np.random.default_rng(8))
        with np.errstate(invalid="ignore"):
            w = prox_vector(np.array([np.inf, -np.inf, np.nan]), pen, factor * _curvature(pen))
        assert w[0] == np.inf and w[1] == -np.inf
        assert not np.isfinite(w[2])


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestBlockAxis:
    """Row i of a block call equals the one-row call on row i, bit for bit."""

    @staticmethod
    def scales(pen: Penalty) -> np.ndarray:
        # Both sides of 1/theta and of 1/(theta - 1), where MCP and SCAD
        # switch between the convex and the concave prox, and the points.
        theta = pen.theta or 3.0
        factors = np.array([0.25, 0.5, 1 - 1e-13, 1.0, 1 + 1e-13, 2.0, 4.0])
        return np.concatenate([factors / theta, factors / (theta - 1.0)])

    @staticmethod
    def rows(pen: Penalty, K: int, rng) -> np.ndarray:
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310]
        b = _boundaries(pen, 1.0)
        U = rng.standard_normal((K, 60)) * 10.0 ** rng.uniform(-2.0, 1.0, size=(K, 60))
        U[:, :len(special)] = special
        U[:, len(special):len(special) + 2 * b.size] = np.concatenate([b, -b])
        return U

    @pytest.mark.parametrize("kind", KINDS)
    def test_prox_rows_equal_one_row_calls(self, kind):
        rng = np.random.default_rng(21)
        pen = random_penalty(kind, rng)
        Ls = rng.permutation(self.scales(pen))
        theta = pen.theta or 3.0
        # blocks mixing both regimes, descending as a reverse search's ladder
        # and ascending, and blocks of one regime each
        for block in (np.sort(Ls)[::-1], np.sort(Ls), Ls,
                      Ls[Ls > 1 / (theta - 1.0)], Ls[Ls < 1 / theta]):
            U = self.rows(pen, block.size, rng)
            with np.errstate(invalid="ignore"):
                out = prox_vector(U, pen, block[:, np.newaxis])
                for i, L in enumerate(block):
                    np.testing.assert_array_equal(_bits(out[i]),
                                                  _bits(prox_vector(U[i], pen, L)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_penalty_rows_equal_one_row_calls(self, kind):
        rng = np.random.default_rng(22)
        pen = random_penalty(kind, rng)
        B = self.rows(pen, 9, rng)
        B[3, 2:5] = 0.0  # a finite row
        B[3, 10:] = 0.0
        with np.errstate(invalid="ignore"):
            totals = penalty_value(B, pen)
            one_row = [penalty_value(b, pen) for b in B]
        assert totals.shape == (9,)
        np.testing.assert_array_equal(_bits(totals), _bits(one_row))
        assert np.isfinite(totals[3])

    def test_block_scales_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            prox_vector(np.ones((2, 3)), Penalty.l1(1.0), np.array([[1.0], [0.0]]))
        with pytest.raises(ValueError, match="positive"):
            prox_vector(np.ones((2, 3)), Penalty.l1(1.0), np.array([[1.0], [np.nan]]))
