import warnings

import numpy as np
import pytest

from proxlogit import (
    DataError,
    Dataset,
    Penalty,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_libsvm,
)
from proxlogit import data as data_module


def save_libsvm(data, path):
    """Write a dataset in the sparse "label idx:val" format, zeros omitted.

    Values are written with 17 significant digits, so a reload reproduces the
    features exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(data.n_samples):
            parts = [str(int(data.labels[j]))]
            col = data.features[:, j]
            for i in np.nonzero(col)[0]:
                parts.append(f"{i + 1}:{col[i]:.17g}")
            fh.write(" ".join(parts) + "\n")


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDataset:
    def test_shape_and_accessors(self):
        ds = Dataset(np.arange(6.0).reshape(2, 3), np.array([1.0, 0.0, 1.0]))
        assert ds.n_features == 2
        assert ds.n_samples == 3

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(np.ones((2, 2)), np.array([0.0, 2.0]))

    def test_rejects_nan_features(self):
        with pytest.raises(ValueError, match="NaN"):
            Dataset(np.array([[np.nan, 1.0]]), np.array([0.0, 1.0]))

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 3)), np.array([0.0, 1.0]))

    def test_arrays_are_read_only(self):
        ds = Dataset(np.ones((2, 2)), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 5.0
        with pytest.raises(ValueError):
            ds.labels[0] = 1.0


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path / "a.csv", "1.0,2.0,1\n0.5,1.5,0\n2.0,0.0,1\n")
        ds = load_csv(p, label_column=2)
        assert ds.n_features == 2
        assert ds.n_samples == 3
        # samples become columns
        np.testing.assert_array_equal(ds.features, [[1.0, 0.5, 2.0], [2.0, 1.5, 0.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0, 1.0])

    def test_pm1_labels_mapped(self, tmp_path):
        p = write(tmp_path / "a.csv", "1.0,+1\n2.0,-1\n")
        ds = load_csv(p, label_column=1)
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0])

    def test_ragged_row_names_line(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2,1\n3,0\n4,5,1\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(p, label_column=2)

    def test_non_numeric_cell_located(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2,1\n3,oops,0\n")
        with pytest.raises(DataError, match=r"line 2, column 2"):
            load_csv(p, label_column=2)

    def test_bad_label_located(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,2,7\n")
        with pytest.raises(DataError, match="label"):
            load_csv(p, label_column=2)

    def test_header_skipped(self, tmp_path):
        p = write(tmp_path / "a.csv", "f1,f2,y\n1,2,1\n")
        ds = load_csv(p, label_column=2, has_header=True)
        assert ds.n_samples == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(str(tmp_path / "nope.csv"), label_column=0)

    def test_add_intercept_appends_ones(self, tmp_path):
        p = write(tmp_path / "a.csv", "1.0,1\n2.0,0\n")
        ds = load_csv(p, label_column=1, add_intercept=True)
        assert ds.n_features == 2
        np.testing.assert_array_equal(ds.features[1], [1.0, 1.0])

    @pytest.mark.parametrize("text, label_column, message", [
        # the first bad cell of a line is named, the label column too
        ("1,2,1\n3,x,y\n", 2, "line 2, column 2: non-numeric cell 'x'"),
        ("1,2,1\n3,4, y \n", 2, "line 2, column 3: non-numeric cell 'y'"),
        # a bad cell is reported before a bad label on the same line
        ("1,x,7\n", 2, "line 1, column 2: non-numeric cell 'x'"),
        # the first faulty line wins, whatever its fault
        ("1,2,1\n1,2,5\n3,x,0\n", 2, "line 2, column 3: label 5.0 not in"),
        ("1,2,1\n1,x,1\n3,0\n", 2, "line 2, column 2: non-numeric cell 'x'"),
        ("1,2,1\n3,0\n1,x,1\n", 2, "row at line 2: expected 3 cells, got 2"),
        ("2,1\n", 0, "line 1, column 1: label 2.0 not in"),
    ])
    def test_first_fault_reported(self, tmp_path, text, label_column, message):
        p = write(tmp_path / "a.csv", text)
        with pytest.raises(DataError) as info:
            load_csv(p, label_column=label_column)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("n_rows", [1, 127, 128, 129, 300])
    def test_rows_across_parse_blocks(self, tmp_path, n_rows):
        # the parser converts rows to an array in blocks; every row survives
        rng = np.random.default_rng(n_rows)
        table = rng.standard_normal((n_rows, 4))
        table[:, 1] = rng.integers(0, 2, size=n_rows)
        p = tmp_path / "a.csv"
        np.savetxt(p, table, fmt="%.17g", delimiter=",")
        ds = load_csv(str(p), label_column=1)
        np.testing.assert_array_equal(ds.features, np.delete(table, 1, axis=1).T)
        np.testing.assert_array_equal(ds.labels, table[:, 1])

    @pytest.mark.parametrize("n_rows", [1, 127, 128, 129, 300])
    def test_rows_across_parse_blocks_on_the_scanner(self, tmp_path, monkeypatch, n_rows):
        # a whitespace-only last line, which np.loadtxt rejects, sends the file to the
        # line scanner, the path that has the blocks
        scanned = []
        real_scan = data_module._scan_csv
        monkeypatch.setattr(data_module, "_scan_csv",
                            lambda *args: scanned.append(args) or real_scan(*args))
        rng = np.random.default_rng(n_rows)
        table = rng.standard_normal((n_rows, 4))
        table[:, 1] = rng.integers(0, 2, size=n_rows)
        p = tmp_path / "a.csv"
        np.savetxt(p, table, fmt="%.17g", delimiter=",", footer=" \t", comments="")
        ds = load_csv(str(p), label_column=1)
        assert len(scanned) == 1
        np.testing.assert_array_equal(ds.features, np.delete(table, 1, axis=1).T)
        np.testing.assert_array_equal(ds.labels, table[:, 1])

    @pytest.mark.parametrize("load", [load_csv, data_module._scan_csv])
    def test_separator_bytes_are_stripped_from_a_cell(self, tmp_path, load):
        # bytes 0x1C-0x1F are whitespace to str.strip(), as to np.loadtxt
        p = write(tmp_path / "a.csv", "1\x1c,0\n")
        ds = load(p, 1, False, False)
        np.testing.assert_array_equal(ds.features, [[1.0]])
        np.testing.assert_array_equal(ds.labels, [0.0])

    def test_well_formed_file_skips_the_scanner(self, tmp_path, monkeypatch):
        def no_scan(*args):
            raise AssertionError("the line scanner ran")

        monkeypatch.setattr(data_module, "_scan_csv", no_scan)
        p = write(tmp_path / "a.csv", "x,y,z\r\n+1,0.5,-2e3\r\n\r\n-1, 1.5 ,3\r\n")
        ds = load_csv(p, label_column=0, has_header=True, add_intercept=True)
        np.testing.assert_array_equal(ds.features, [[0.5, 1.5], [-2e3, 3.0], [1.0, 1.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0])

    @pytest.mark.parametrize("text, has_header", [
        ("", False), ("", True), ("\n\n", False), ("a,b,y\n", True)])
    def test_no_rows_raise_and_warn_nothing(self, tmp_path, text, has_header):
        # np.loadtxt warns on a file without rows; the warning is caught, not shown,
        # and no warning filter is left behind
        p = write(tmp_path / "a.csv", text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            filters = list(warnings.filters)
            with pytest.raises(DataError, match="no data rows"):
                load_csv(p, label_column=2, has_header=has_header)
            assert warnings.filters == filters
        assert caught == []

    def test_label_column_anywhere(self, tmp_path):
        p = write(tmp_path / "a.csv", "1,0.5,2\n-1,1.5,3\n")
        ds = load_csv(p, label_column=0)
        np.testing.assert_array_equal(ds.features, [[0.5, 1.5], [2.0, 3.0]])
        np.testing.assert_array_equal(ds.labels, [1.0, 0.0])


def assert_row_major_read_only(ds):
    assert ds.features.flags.c_contiguous
    assert not ds.features.flags.writeable and not ds.labels.flags.writeable


class TestRowMajorFeatures:
    """Every way to build a dataset gives C-ordered, read-only features."""

    def test_from_fortran_ordered_input(self):
        X = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        ds = Dataset(X, np.array([1.0, 0.0, 1.0]))
        assert_row_major_read_only(ds)
        np.testing.assert_array_equal(ds.features, X)

    def test_loaders_and_generator(self, tmp_path):
        csv = write(tmp_path / "a.csv", "1.0,2.0,1\n0.5,1.5,0\n2.0,0.0,1\n")
        svm = write(tmp_path / "a.svm", "+1 1:0.5 3:2.0\n0 2:1.0\n")
        spec = SyntheticSpec(n_samples=20, n_features=6, n_nonzero=2, seed=3)
        for ds in (load_csv(csv, label_column=2),
                   load_csv(csv, label_column=2, add_intercept=True),
                   load_libsvm(svm), load_libsvm(svm, add_intercept=True),
                   generate_synthetic(spec)[0]):
            assert_row_major_read_only(ds)

    def test_cross_validation_folds(self, monkeypatch):
        from proxlogit import path

        seen = []
        real_run_path, real_accuracy = path.run_path, path.accuracy

        def recording_run_path(data, spec):
            seen.append(data)
            return real_run_path(data, spec)

        def recording_accuracy(beta, data):
            seen.append(data)
            return real_accuracy(beta, data)

        monkeypatch.setattr(path, "run_path", recording_run_path)
        monkeypatch.setattr(path, "accuracy", recording_accuracy)
        data, _ = generate_synthetic(SyntheticSpec(n_samples=40, n_features=6, n_nonzero=2,
                                                   seed=4))
        spec = path.PathSpec(Penalty.l1(1.0), fractions=(0.5,))
        path.cross_validate(data, spec, k=3)
        assert len(seen) == 6  # a training and a test set per fold
        for ds in seen:
            assert_row_major_read_only(ds)


class TestLoadLibsvm:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path / "a.svm", "+1 1:0.5 3:2.0\n")
        ds = load_libsvm(p)
        np.testing.assert_array_equal(ds.features[:, 0], [0.5, 0.0, 2.0])
        assert ds.labels[0] == 1.0

    def test_n_features_pads(self, tmp_path):
        p = write(tmp_path / "a.svm", "0 2:1.0\n")
        ds = load_libsvm(p, n_features=4)
        np.testing.assert_array_equal(ds.features[:, 0], [0.0, 1.0, 0.0, 0.0])
        assert ds.labels[0] == 0.0

    def test_non_increasing_index_rejected(self, tmp_path):
        p = write(tmp_path / "a.svm", "1 3:1 2:1\n")
        with pytest.raises(DataError, match="increasing"):
            load_libsvm(p)

    def test_malformed_pair(self, tmp_path):
        p = write(tmp_path / "a.svm", "1 3:\n")
        with pytest.raises(DataError, match="malformed"):
            load_libsvm(p)

    def test_zero_index_rejected(self, tmp_path):
        p = write(tmp_path / "a.svm", "1 0:2.0\n")
        with pytest.raises(DataError, match="1-based"):
            load_libsvm(p)

    def test_bad_label(self, tmp_path):
        p = write(tmp_path / "a.svm", "3 1:1.0\n")
        with pytest.raises(DataError, match="label"):
            load_libsvm(p)


def test_libsvm_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((7, 15))
    X[rng.uniform(size=X.shape) < 0.4] = 0.0  # some sparsity
    y = rng.integers(0, 2, size=15).astype(float)
    ds = Dataset(X, y)
    path = tmp_path / "roundtrip.svm"
    save_libsvm(ds, path)
    back = load_libsvm(str(path), n_features=7)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_csv_and_libsvm_agree_on_same_data(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.standard_normal((3, 6)).round(3)
    y = rng.integers(0, 2, size=6).astype(float)
    csv_lines = []
    svm_lines = []
    for j in range(6):
        csv_lines.append(",".join([repr(float(v)) for v in X[:, j]] + [str(int(y[j]))]))
        pairs = " ".join(f"{i + 1}:{float(X[i, j])!r}" for i in range(3))
        svm_lines.append(f"{int(y[j])} {pairs}")
    p_csv = write(tmp_path / "d.csv", "\n".join(csv_lines) + "\n")
    p_svm = write(tmp_path / "d.svm", "\n".join(svm_lines) + "\n")
    a = load_csv(p_csv, label_column=3)
    b = load_libsvm(p_svm)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


class TestSynthetic:
    def test_same_seed_bit_identical(self):
        spec = SyntheticSpec(n_samples=50, n_features=10, n_nonzero=3, seed=123)
        d1, b1 = generate_synthetic(spec)
        d2, b2 = generate_synthetic(spec)
        np.testing.assert_array_equal(d1.features, d2.features)
        np.testing.assert_array_equal(d1.labels, d2.labels)
        np.testing.assert_array_equal(b1, b2)

    def test_no_signal_gives_zero_beta(self):
        data, beta = generate_synthetic(SyntheticSpec(n_samples=400, n_features=5, n_nonzero=0, seed=1))
        assert np.all(beta == 0.0)
        # Bernoulli(1/2) labels: mean well inside (0, 1)
        assert 0.35 < data.labels.mean() < 0.65

    def test_label_mean_reasonable(self):
        data, _ = generate_synthetic(SyntheticSpec(n_samples=200, n_features=50, n_nonzero=5, seed=7))
        assert 0.2 <= data.labels.mean() <= 0.8

    def test_support_and_magnitudes(self):
        _, beta = generate_synthetic(SyntheticSpec(n_samples=10, n_features=8, n_nonzero=4, seed=2))
        assert np.all(beta[4:] == 0.0)
        mags = np.abs(beta[:4])
        assert np.all((0.5 <= mags) & (mags <= 1.5))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=10, n_features=5, n_nonzero=6)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=0, n_features=5, n_nonzero=0)
        with pytest.raises(ValueError):
            SyntheticSpec(n_samples=5, n_features=5, n_nonzero=1, noise_scale=-1.0)
        with pytest.raises(ValueError, match="nan"):
            SyntheticSpec(n_samples=5, n_features=5, n_nonzero=1, noise_scale=float("nan"))
