"""Fuzzed problems: extreme feature scales, lopsided shapes and lopsided labels.

Every fit ends with a finite result or a documented error (``ValueError``,
which ``DataError`` extends, or ``LineSearchError``), and every
``proxlogit train`` on such a CSV file exits 0, 1 or 2, an error being one
``error:`` line on stderr and no traceback.  Fuzzed CSV text loads through
``load_csv`` exactly as through its line scanner.
"""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxlogit import (VARIANTS, Dataset, LineSearchError, Penalty, SolverOptions, fit,
                       lambda_max, load_csv)
from proxlogit.cli import EXIT_ERROR, EXIT_MAXITERS, EXIT_OK, main
from proxlogit.data import _scan_csv

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


NUMBER_CELLS = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                | st.floats(allow_nan=False).map("{:.3e}".format)
                | st.integers(-10 ** 20, 10 ** 20).map(str))
LABEL_CELLS = st.sampled_from(["0", "1", "-1", "+1", "1.0", "-0", "0e5", "-1.000"] * 3
                              + ["2", "0.5", "nan", "-inf"])
# Whitespace around every cell of a row: float() strips only some of it.
PADDING = st.sampled_from([""] * 24 + [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
                                        "\xa0", "\u3000"])
# Cells one or both parsers reject, or read only after stripping whitespace.
ODD_CELLS = (st.sampled_from([
    "", " ", "1_000", "\uff11", "#1", '"1"', "1e400", "-inf", "nan", "0x1", "1d3", "x",
    "2", "0.5", "\ufeff1", "\xa01", "1\x85", "1\x1c", "\x1f0", "1\x00", "1 2", "\x0c1\x0b"])
    | st.text(" \t\x0b\x0c\x1c\x85\xa0\x00019.e+-_#\"", max_size=5))
BLANK_LINES = st.sampled_from(["", " ", "\t", " \x0b ", "\x0c", "\x1c", "\xa0", "\u3000"])


@st.composite
def csv_files(draw):
    """CSV bytes, mostly well formed, with the ``load_csv`` arguments to read them.

    The header line, when there is one, is a row like the rest half the time,
    so a file read without skipping it would differ.  The rarer faults come
    with a middle value of ``integers(0, 9)``, about one file in ten, as
    hypothesis draws the ends of a range more often.
    """
    n_cols = draw(st.integers(1, 4))
    label_column = draw(st.integers(0, n_cols - 1))
    has_header = draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(0, 6)) + has_header):
        if i == 0 and has_header and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["a,b", "\ufeffy,x"]) | st.text(max_size=6)))
            continue
        kind = draw(st.sampled_from(["row"] * 15 + ["blank", "ragged", "odd"]))
        if kind == "blank":
            lines.append(draw(BLANK_LINES))
        else:
            width = n_cols + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            cells = [draw(LABEL_CELLS if c == label_column else NUMBER_CELLS)
                     for c in range(width)]
            if kind == "odd" and cells:
                cells[draw(st.integers(0, len(cells) - 1))] = draw(ODD_CELLS)
            pad = draw(PADDING)
            lines.append(pad + f"{pad},{pad}".join(cells) + pad)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    raw = (ending.join(lines) + draw(st.sampled_from([ending, ""]))).encode("utf-8")
    if draw(st.integers(0, 9)) == 5:  # an invalid UTF-8 byte
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + raw[at:]
    if draw(st.integers(0, 9)) == 5:  # the label column named out of range
        label_column = draw(st.sampled_from([label_column - n_cols, n_cols]))
    return raw, label_column, has_header


def load_outcome(load, path, *args):
    """The bits of the loaded arrays, or the type and message of the error."""
    try:
        ds = load(path, *args)
    except Exception as exc:  # any error counts, as long as both loaders raise it
        return type(exc), str(exc)
    return (ds.features.shape, ds.features.view(np.uint64).tolist(),
            ds.labels.view(np.uint64).tolist())


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "data.csv")


@settings(max_examples=300)
@given(csv_file=csv_files())
def test_load_csv_reads_as_the_scanner_reads(csv_path, csv_file):
    raw, *args = csv_file
    with open(csv_path, "wb") as fh:
        fh.write(raw)
    scan = load_outcome(lambda *a: Dataset(*_scan_csv(*a)), csv_path, *args)
    assert load_outcome(load_csv, csv_path, *args) == scan
