"""Dataset container, CSV/LIBSVM loaders, and synthetic problem generation.

Samples are stored as matrix *columns*: ``features[i, j]`` is feature ``i`` of
sample ``j``.  Row-major files (one sample per line) are transposed on ingest.
Labels are canonicalized to {0, 1}; files using {-1, +1} are accepted and
mapped -1 -> 0, +1 -> 1.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np

from .logistic import lipschitz_constant, sigmoid

__all__ = [
    "DataError",
    "Dataset",
    "SyntheticSpec",
    "generate_synthetic",
    "load_csv",
    "load_libsvm",
]


class DataError(ValueError):
    """A file could not be parsed into a valid dataset."""


@dataclasses.dataclass(frozen=True)
class Dataset:
    """Binary classification data, immutable after construction.

    ``features`` is a dense (n_features, n_samples) float array; ``labels``
    holds one value in {0, 1} per sample.  Arrays are copied and marked
    read-only, so instances are safe to share across concurrent solver runs.
    The features are copied in C order, whatever the input's layout, so each
    feature row is contiguous: ``Dataset(X[ws], y)``, the working set of a
    warm-started l1 fit, gathers whole rows.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.array(self.features, dtype=np.float64, order="C")
        y = np.array(self.labels, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"features must be (d, n) with d, n >= 1, got shape {X.shape}")
        if y.shape != (X.shape[1],):
            raise ValueError(f"expected {X.shape[1]} labels, got shape {y.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain NaN or Inf")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must all be 0 or 1")
        X.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    @functools.cached_property
    def lipschitz(self) -> float:
        """``lipschitz_constant(self)``, estimated on first read and kept, as X is read-only."""
        return lipschitz_constant(self)


@dataclasses.dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a reproducible synthetic classification problem."""

    n_samples: int
    n_features: int
    n_nonzero: int
    noise_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1 or self.n_features < 1:
            raise ValueError("n_samples and n_features must be positive")
        if not 0 <= self.n_nonzero <= self.n_features:
            raise ValueError(f"n_nonzero must lie in [0, {self.n_features}], got {self.n_nonzero}")
        if not self.noise_scale >= 0:  # NaN noise would make every label 0
            raise ValueError(f"noise_scale must be nonnegative, got {self.noise_scale}")


def _canonical_label(value: float, where: str) -> float:
    if value == 0.0 or value == 1.0:
        return float(value)
    if value == -1.0:
        return 0.0
    raise DataError(f"{where}: label {value!r} not in {{0, 1}} or {{-1, +1}}")


# The CSV fallback scanner turns parsed rows into an array every this many
# rows, so the Python floats of at most one block are alive at a time (about
# 1 MB at 250 columns) instead of those of the whole file.  The np.loadtxt
# path of load_csv parses in C and holds no Python floats.
_CSV_BLOCK_ROWS = 128


def _loadtxt_table(path, label_column: int, has_header: bool):
    """``(X, y)`` of a file ``np.loadtxt`` reads as the scanner would, else None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                               skiprows=1 if has_header else 0, encoding="utf-8")
    except (ValueError, OSError, Warning):
        return None
    if not (len(table) and 0 <= label_column < table.shape[1]):
        return None
    y = table[:, label_column]
    if not np.all((y == 0.0) | (y == 1.0) | (y == -1.0)):
        return None
    return np.delete(table, label_column, axis=1).T, np.where(y == -1.0, 0.0, y)


def load_csv(path, label_column: int, has_header: bool = False) -> Dataset:
    """Load comma-separated UTF-8 data, one sample per line.

    ``label_column`` is the zero-based index of the label column; all other
    columns become features.  Every row must have the same number of cells.
    No intercept is added: the CLI's ``--add-intercept`` (``[data]
    add_intercept``) appends a constant-1 feature, penalized like the rest.

    A well-formed file (every cell a number ``np.loadtxt`` reads, no
    whitespace-only line, labels in {0, 1} or {-1, +1}) is parsed in C by one
    ``np.loadtxt`` call.  Any other file goes to the line scanner, which
    strips each cell's ends as ``np.loadtxt`` does (``str.strip()``), accepts
    what ``float()`` accepts (``1_000``, full-width digits), skips
    whitespace-only lines and names the first faulty line and cell in a
    ``DataError``.  Both paths give bit-identical arrays, and a file the
    scanner rejects raises the scanner's error.  During the ``np.loadtxt``
    call every warning is an error (an empty file warns); that filter holds
    for the whole process, so a warning another thread raises then is an
    error too.
    """
    return Dataset(*(_loadtxt_table(path, label_column, has_header)
                     or _scan_csv(path, label_column, has_header)))


def _scan_csv(path, label_column: int, has_header: bool):
    """``load_csv``'s ``(X, y)``, one line at a time with ``float()``; raises at a faulty line."""
    blocks: list[np.ndarray] = []
    rows: list[list[float]] = []
    labels: list[float] = []
    expected: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if has_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if expected is None:
                expected = len(cells)
                if not 0 <= label_column < expected:
                    raise DataError(
                        f"label column {label_column} out of range for {expected}-column file")
            elif len(cells) != expected:
                raise DataError(
                    f"row at line {lineno}: expected {expected} cells, got {len(cells)}")
            try:
                values = list(map(float, cells))
            except ValueError:
                # Rescan only a faulty line, to name its first bad cell.
                for col, cell in enumerate(cells):
                    try:
                        float(cell)
                    except ValueError:
                        raise DataError(f"line {lineno}, column {col + 1}: "
                                        f"non-numeric cell {cell!r}") from None
                raise
            labels.append(_canonical_label(values.pop(label_column),
                                           f"line {lineno}, column {label_column + 1}"))
            rows.append(values)
            if len(rows) == _CSV_BLOCK_ROWS:
                blocks.append(np.array(rows, dtype=np.float64))
                rows.clear()
    if not labels:
        raise DataError(f"{path}: no data rows")
    if rows:
        blocks.append(np.array(rows, dtype=np.float64))
    return np.concatenate(blocks).T, np.array(labels)


def load_libsvm(path, n_features: int | None = None) -> Dataset:
    """Load sparse "label idx:val" lines with 1-based, strictly increasing indices.

    Missing entries are zero.  The feature count is the largest observed index,
    or ``n_features`` if that is larger.
    """
    samples: list[list[tuple[int, float]]] = []
    labels: list[float] = []
    d_seen = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if ":" in tokens[0]:
                raise DataError(f"line {lineno}: missing label before {tokens[0]!r}")
            try:
                raw = float(tokens[0])
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric label {tokens[0]!r}") from None
            labels.append(_canonical_label(raw, f"line {lineno}"))
            pairs: list[tuple[int, float]] = []
            prev = 0
            for tok in tokens[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep or not idx_s or not val_s:
                    raise DataError(f"line {lineno}: malformed pair {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise DataError(f"line {lineno}: malformed pair {tok!r}") from None
                if idx < 1:
                    raise DataError(f"line {lineno}: index {idx} is not 1-based")
                if idx <= prev:
                    raise DataError(
                        f"line {lineno}: index {idx} not strictly increasing after {prev}")
                prev = idx
                pairs.append((idx, val))
            d_seen = max(d_seen, prev)
            samples.append(pairs)
    if not samples:
        raise DataError(f"{path}: no data rows")
    d = max(d_seen, n_features or 0)
    if d == 0:
        raise DataError(f"{path}: no feature indices and no n_features given")
    X = np.zeros((d, len(samples)))
    for j, pairs in enumerate(samples):
        for idx, val in pairs:
            X[idx - 1, j] = val
    return Dataset(X, np.array(labels))


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Draw a seeded synthetic problem; returns the dataset and the true coefficients.

    Features are standard normal.  The true coefficient vector has
    ``n_nonzero`` leading entries with magnitude Uniform[0.5, 1.5] and random
    sign; labels are Bernoulli draws of the logistic probability of each
    sample's margin (plus optional Gaussian margin noise).  Deterministic for
    a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    X = rng.standard_normal((spec.n_features, spec.n_samples))
    beta = np.zeros(spec.n_features)
    if spec.n_nonzero > 0:
        magnitude = rng.uniform(0.5, 1.5, size=spec.n_nonzero)
        sign = rng.integers(0, 2, size=spec.n_nonzero) * 2.0 - 1.0
        beta[: spec.n_nonzero] = sign * magnitude
    margins = beta @ X + spec.noise_scale * rng.standard_normal(spec.n_samples)
    y = (rng.uniform(size=spec.n_samples) < sigmoid(margins)).astype(np.float64)
    return Dataset(X, y), beta
