import numpy as np
import pytest
from hypothesis import settings

from proxlogit import Dataset

# Property tests replay the same examples on every run and take no wall-clock
# deadline, so tier-1 stays reproducible and its run time steady.
settings.register_profile("proxlogit", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("proxlogit")


def make_dataset(seed: int, d: int, n: int) -> Dataset:
    """Generic random instance: standard-normal features, fair-coin labels.

    Independent of the package's own synthetic generator so it can serve as
    an oracle-side fixture.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    y = rng.integers(0, 2, size=n).astype(float)
    if y.min() == y.max():  # keep both classes present
        y[0] = 1.0 - y[0]
    return Dataset(X, y)


def assert_same_fit(a, b) -> None:
    """Two ``FitResult``s agree bit for bit, apart from their clock readings."""
    np.testing.assert_array_equal(a.beta.view(np.uint64), b.beta.view(np.uint64))
    for field in ("objectives", "step_scales", "backtracks", "nonzeros", "step_sqs"):
        assert getattr(a.trace, field) == getattr(b.trace, field), field
    assert a.trace.f0 == b.trace.f0
    assert (a.final_objective, a.converged) == (b.final_objective, b.converged)
    assert (a.matvecs, a.feature_rows) == (b.matvecs, b.feature_rows)


@pytest.fixture
def small_data() -> Dataset:
    return make_dataset(seed=11, d=12, n=40)


@pytest.fixture
def lipschitz_calls(monkeypatch) -> list:
    """Record the dataset of every Lipschitz estimate that ``Dataset.lipschitz`` makes."""
    from proxlogit import data

    calls = []
    real = data.lipschitz_constant

    def counting(data, *args, **kwargs):
        calls.append(data)
        return real(data, *args, **kwargs)

    monkeypatch.setattr(data, "lipschitz_constant", counting)
    return calls
