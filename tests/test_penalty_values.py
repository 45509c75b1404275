"""The SCAD and MCP values against their region-branch reference and exact arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from proxlogit import MCP, SCAD, Penalty, penalty_value

from prox_reference import branch_value

# Fixed from the dtype before any comparison: each form rounds a few times,
# and neither loses more than a factor of about 2 to cancellation.
REL_TOL = 4 * np.finfo(np.float64).eps


def draws(kind: str, count: int = 20):
    """Penalties of ``kind`` with lam over six decades and theta near and far from its bound."""
    rng = np.random.default_rng(25 if kind == SCAD else 26)
    for _ in range(count):
        lam = float(10.0 ** rng.uniform(-3.0, 3.0))
        if kind == SCAD:
            yield Penalty.scad(lam, float(rng.uniform(2.01, 8.0)))
        else:
            yield Penalty.mcp(lam, float(rng.uniform(1.01, 8.0)))


def boundary_magnitudes(pen: Penalty) -> np.ndarray:
    """0, lam and theta lam, each and up to 3 ulps to either side, and points beyond theta lam."""
    points = []
    for b in (0.0, pen.lam, pen.theta * pen.lam):
        up = down = b
        points.append(b)
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            points += [up, down]
    return np.concatenate([points, pen.theta * pen.lam * np.array([1.5, 10.0, 1e3])])


def assert_close(value, reference):
    value, reference = np.asarray(value), np.asarray(reference)
    assert np.all(np.abs(value - reference) <= REL_TOL * reference), (value, reference)


@pytest.mark.parametrize("kind", [SCAD, MCP])
def test_rows_and_blocks_match_branch_reference(kind):
    rng = np.random.default_rng(27)
    for pen in draws(kind):
        a = boundary_magnitudes(pen)
        signed = a * rng.choice([-1.0, 1.0], size=a.size)
        # one magnitude per row: the row totals are the elementwise values
        assert_close(penalty_value(signed[:, np.newaxis], pen), branch_value(a, pen))
        assert_close(penalty_value(signed, pen), branch_value(a, pen).sum())
        block = np.stack([rng.permutation(signed) for _ in range(4)])
        assert_close(penalty_value(block, pen), branch_value(np.abs(block), pen).sum(axis=1))


def exact_branch_value(a: float, pen: Penalty) -> Fraction:
    a, lam, th = Fraction(a), Fraction(pen.lam), Fraction(pen.theta)
    if pen.kind == SCAD:
        if a <= lam:
            return lam * a
        if a <= th * lam:
            return (-a * a + 2 * th * lam * a - lam * lam) / (2 * (th - 1))
        return (th + 1) * lam * lam / 2
    return lam * a - a * a / (2 * th) if a <= th * lam else th * lam * lam / 2


@pytest.mark.parametrize("kind", [SCAD, MCP])
def test_values_match_exact_arithmetic(kind):
    # inside the quadratic region the branch reference itself cancels
    # (-a^2 + 2 theta lam a - lam^2 for SCAD), so the exact value is the judge
    rng = np.random.default_rng(28)
    for pen in draws(kind):
        a = pen.theta * pen.lam * rng.uniform(0.0, 1.2, size=12)
        value = penalty_value(a[:, np.newaxis], pen)
        exact = [exact_branch_value(x, pen) for x in a]
        assert all(abs(Fraction(v) - e) <= Fraction(REL_TOL) * e for v, e in zip(value, exact))


@pytest.mark.parametrize("pen, expected", [(Penalty.scad(1.0), 4.7), (Penalty.mcp(1.0), 3.0)],
                         ids=[SCAD, MCP])
def test_huge_coefficients_in_the_flat_region(pen, expected):
    # each magnitude is past theta lam, so each costs the flat value
    with np.errstate(all="raise"):
        assert_close(penalty_value([1e200, -3e160], pen), expected)
        assert_close(penalty_value(np.array([[1e200, -3e160], [-1.7e308, 1e155]]), pen),
                     [expected, expected])
