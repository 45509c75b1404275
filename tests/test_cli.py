import argparse
import dataclasses
import json
import os

import numpy as np
import pytest

from proxlogit import SyntheticSpec, cli, generate_synthetic
from proxlogit.cli import EXIT_ERROR, EXIT_MAXITERS, EXIT_OK, TRACE_HEADER, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED_CONFIG = os.path.join(REPO_ROOT, "configs", "synthetic_train.ini")

SYNTH = ["--format", "synthetic", "--synthetic-samples", "80",
         "--synthetic-features", "15", "--synthetic-nonzero", "3",
         "--synthetic-seed", "3"]


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def write_csv(path, data):
    """Write ``data`` as CSV, one sample per line with its label last; returns ``path``."""
    path.write_text("".join(",".join(f"{v:.17g}" for v in x) + f",{y:g}\n"
                            for x, y in zip(data.features.T, data.labels)))
    return path


def strip_time_columns(text):
    """Blank any column whose header names a timing field."""
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if "time" not in name]
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out)


def normalized_artifacts(out_dir):
    """Map of artifact name -> content with timing fields removed."""
    result = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            result[name] = strip_time_columns(read(path))
        elif name.endswith(".json"):
            payload = json.loads(read(path))
            payload.pop("time_s", None)
            result[name] = json.dumps(payload, sort_keys=True)
    return result


class TestTrain:
    def test_bundled_synthetic_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        out = str(tmp_path / "run")
        code = main(["train", "--config", BUNDLED_CONFIG, "--out", out])
        assert code == EXIT_OK
        trace = read(os.path.join(out, "trace.csv"))
        assert trace.split("\n")[0] == TRACE_HEADER
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["converged"] is True
        assert summary["matvecs"] >= 1 + 2 * summary["iterations"]
        # a cold fit on 50 features: every product reads all 50 rows
        assert summary["feature_rows"] == 50 * summary["matvecs"] > 0

    def test_zero_iterations_exits_2(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["train", *SYNTH, "--max-iters", "0", "--out", out])
        assert code == EXIT_MAXITERS

    def test_time_covers_the_whole_fit(self, tmp_path):
        # a 0-iteration fit still makes the Lipschitz estimate and the final objective
        out = str(tmp_path / "zero")
        assert main(["train", *SYNTH, "--max-iters", "0", "--out", out]) == EXIT_MAXITERS
        assert json.loads(read(os.path.join(out, "summary.json")))["time_s"] > 0
        out = str(tmp_path / "run")
        assert main(["train", *SYNTH, "--out", out]) == EXIT_OK
        last_row = read(os.path.join(out, "trace.csv")).strip().split("\n")[-1]
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["time_s"] >= float(last_row.split(",")[-1]) > 0

    def test_default_cap_matches_cold_path_point(self, tmp_path):
        # without --epsilon the capped-l1 cap is half of lambda_max in train as in path
        args = [*SYNTH, "--penalty", "capped_l1", "--variant", "ista_vanilla"]
        train, path = str(tmp_path / "train"), str(tmp_path / "path")
        assert main(["train", *args, "--lambda-frac", "0.05", "--out", train]) == EXIT_OK
        assert main(["path", *args, "--fractions", "0.05,0.5", "--warm-start", "false",
                     "--out", path]) == EXIT_OK
        assert read(os.path.join(train, "coefficients.json")) == \
            read(os.path.join(path, "coefficients_0.05.json"))
        row = read(os.path.join(path, "path.csv")).strip().split("\n")[-1].split(",")
        summary = json.loads(read(os.path.join(train, "summary.json")))
        assert row[0] == "0.05"
        assert (summary["final_objective"], summary["iterations"]) == (float(row[2]),
                                                                       int(row[3]))

    def test_missing_dataset_exits_1(self, tmp_path, capsys):
        code = main(["train", "--format", "csv", "--data", "/nonexistent/file.csv",
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_ERROR
        assert "/nonexistent/file.csv" in capsys.readouterr().err
        assert main(["train", "--format", "csv", "--out", str(tmp_path / "run")]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            "error: no dataset path given (use --data or [data] path)\n"

    @pytest.mark.parametrize("command", ["train", "path", "cv"])
    @pytest.mark.parametrize("argv, message", [
        (["--format", "csv"], "no dataset path given (use --data or [data] path)"),
        (["--format", "libsvm"], "no dataset path given (use --data or [data] path)"),
        (["--data", "no/such.csv"], "dataset file not found: no/such.csv"),
        (["--format", "libsvm", "--data", "no/such.svm"], "dataset file not found: no/such.svm"),
        (["--data", "bad.csv"], "line 2, column 1: non-numeric cell 'x'"),
    ])
    def test_bad_data_exits_1_before_out_is_made(self, command, argv, message, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.csv").write_text("1,0\nx,1\n")
        assert main([command, *argv, "--out", "run"]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_floating_point_error_exits_1(self, tmp_path, capsys, monkeypatch):
        def diverging_fit(*args, **kwargs):
            raise FloatingPointError("non-finite objective nan at iteration 3")

        monkeypatch.setattr(cli, "fit", diverging_fit)
        code = main(["train", *SYNTH, "--out", str(tmp_path / "run")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip() == "error: non-finite objective nan at iteration 3"

    def test_huge_features_exit_1_naming_scale(self, tmp_path, capsys):
        data_file = tmp_path / "huge.csv"
        data_file.write_text("1e200,-2e200,1\n-3e200,1e200,0\n2e200,2e200,1\n")
        code = main(["train", "--format", "csv", "--data", str(data_file),
                     "--label-column", "2", "--out", str(tmp_path / "run")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "feature scale" in err

    def test_coefficients_payload(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", *SYNTH, "--lambda-frac", "0.05", "--out", out]) == EXIT_OK
        payload = json.loads(read(os.path.join(out, "coefficients.json")))
        assert payload["d"] == 15
        assert payload["variant"] == "ista_bb"
        assert payload["penalty"]["kind"] == "l1"
        assert len(payload["nonzeros"]) >= 1
        for idx, val in payload["nonzeros"].items():
            assert 0 <= int(idx) < 15
            assert val != 0.0

    def test_trace_csv_round_trips(self, tmp_path):
        out = str(tmp_path / "run")
        main(["train", *SYNTH, "--out", out])
        lines = read(os.path.join(out, "trace.csv")).strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        # float cells parse back exactly as emitted (17 significant digits)
        for row in rows:
            f = float(row[1])
            assert f"{f:.17g}" == row[1]

    def test_trace_thinning_keeps_last_row(self, tmp_path):
        out_full = str(tmp_path / "full")
        out_thin = str(tmp_path / "thin")
        main(["train", *SYNTH, "--out", out_full])
        main(["train", *SYNTH, "--trace-every", "7", "--out", out_thin])
        full = strip_time_columns(read(os.path.join(out_full, "trace.csv"))).split("\n")
        thin = strip_time_columns(read(os.path.join(out_thin, "trace.csv"))).split("\n")
        assert len(thin) < len(full)
        assert thin[-1] == full[-1]

    def test_csv_input(self, tmp_path):
        data_file = tmp_path / "toy.csv"
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(30):
            x = [float(v) for v in rng.normal(size=3)]
            y = int(x[0] + 0.5 * x[1] > 0)
            lines.append(f"{x[0]!r},{x[1]!r},{x[2]!r},{y}")
        data_file.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "run")
        code = main(["train", "--format", "csv", "--data", str(data_file),
                     "--label-column", "3", "--out", out])
        assert code == EXIT_OK

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[data]\nformat = synthetic\n[penalty]\nkind = l1\n"
                       "lambda_frac = 0.1\n[solver]\nvariant = ista_bb\n")
        out = str(tmp_path / "run")
        code = main(["train", "--config", str(cfg), "--variant", "fista_lip",
                     *SYNTH[2:], "--out", out])
        assert code == EXIT_OK
        summary = json.loads(read(os.path.join(out, "summary.json")))
        assert summary["variant"] == "fista_lip"

    def test_add_intercept_on_synthetic_data(self, tmp_path):
        # the same model as a CSV of the same data loaded with --add-intercept
        data, _ = generate_synthetic(SyntheticSpec(n_samples=80, n_features=15,
                                                   n_nonzero=3, seed=3))
        csv_file = write_csv(tmp_path / "synth.csv", data)
        synth, loaded = str(tmp_path / "synth"), str(tmp_path / "csv")
        assert main(["train", *SYNTH, "--add-intercept", "--out", synth]) == EXIT_OK
        assert main(["train", "--format", "csv", "--data", str(csv_file), "--label-column",
                     "15", "--add-intercept", "--out", loaded]) == EXIT_OK
        payload = read(os.path.join(synth, "coefficients.json"))
        assert json.loads(payload)["d"] == 16
        assert payload == read(os.path.join(loaded, "coefficients.json"))

    def test_bad_shape_parameter(self, tmp_path):
        code = main(["train", *SYNTH, "--penalty", "l1", "--theta", "-3",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_OK  # theta ignored for l1
        code = main(["train", *SYNTH, "--penalty", "scad", "--theta", "1.0",
                     "--out", str(tmp_path / "y")])
        assert code == EXIT_ERROR


class TestPath:
    def test_default_fraction_count(self, tmp_path):
        out = str(tmp_path / "run")
        code = main(["path", *SYNTH, "--out", out])
        assert code == EXIT_OK
        lines = read(os.path.join(out, "path.csv")).strip().split("\n")
        assert lines[0] == ("fraction,lambda,final_objective,iterations,nnz,time_s,"
                            "matvecs,feature_rows")
        assert len(lines) == 1 + 10
        assert len([n for n in os.listdir(out) if n.startswith("coefficients_")]) == 10

    def test_work_columns(self, tmp_path):
        # d = 15: no product reads more than d rows, and each iteration makes
        # a gradient product and at least one margin product
        out = str(tmp_path / "run")
        assert main(["path", *SYNTH, "--out", out]) == EXIT_OK
        for line in read(os.path.join(out, "path.csv")).strip().split("\n")[1:]:
            cells = line.split(",")
            iterations, matvecs, feature_rows = int(cells[3]), int(cells[6]), int(cells[7])
            assert matvecs > 2 * iterations
            assert 0 < feature_rows <= 15 * matvecs

    def test_cut_warm_point_exits_2(self, tmp_path):
        # the cold point at 0.8 converges in 4 iterations; the warm point at
        # 0.1 needs more and is cut at the cap
        out = str(tmp_path / "run")
        code = main(["path", *SYNTH, "--fractions", "0.1,0.8", "--max-iters", "5",
                     "--out", out])
        assert code == EXIT_MAXITERS
        rows = [line.split(",") for line in
                read(os.path.join(out, "path.csv")).strip().split("\n")[1:]]
        assert [(r[0], r[3]) for r in rows] == [("0.8", "4"), ("0.1", "5")]

    def test_exact_lambda_max_row_is_empty_model(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["path", *SYNTH, "--fractions", "1.0", "--out", out]) == EXIT_OK
        lines = read(os.path.join(out, "path.csv")).strip().split("\n")
        frac, lam, fobj, iters, nnz, *_ = lines[1].split(",")
        assert frac == "1"
        assert nnz == "0"

    def test_rerun_identical_except_time(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["path", *SYNTH, "--fractions", "0.05,0.2,0.6", "--out", a])
        main(["path", *SYNTH, "--fractions", "0.05,0.2,0.6", "--out", b])
        assert normalized_artifacts(a) == normalized_artifacts(b)


class TestIterationCap:
    @pytest.mark.parametrize("command", ["path", "cv"])
    def test_iteration_cap_exits_2(self, tmp_path, command):
        # the same options exit 0 without the cap; the artifacts are written
        args = [command, *SYNTH, "--fractions", "0.1,0.5"]
        artifact = "path.csv" if command == "path" else "cv.csv"
        assert main([*args, "--out", str(tmp_path / "a")]) == EXIT_OK
        capped = str(tmp_path / "b")
        assert main([*args, "--max-iters", "2", "--out", capped]) == EXIT_MAXITERS
        assert len(read(os.path.join(capped, artifact)).strip().split("\n")) > 1


def test_fista_at_its_rounding_floor_exits_0_or_2(tmp_path):
    # the l1 fit of the FISTA rate criterion's data at 0.02 lambda_max
    code = main(["train", "--format", "synthetic", "--synthetic-samples", "200",
                 "--synthetic-features", "50", "--synthetic-nonzero", "5",
                 "--synthetic-seed", "7", "--lambda-frac", "0.02", "--variant", "fista_lip",
                 "--tol", "0", "--max-iters", "20000", "--out", str(tmp_path / "run")])
    assert code in (EXIT_OK, EXIT_MAXITERS)


class TestCv:
    ARGS = ["cv", *SYNTH, "--synthetic-samples", "100", "--folds", "5",
            "--fractions", "0.1,0.5", "--max-iters", "2000"]

    def test_rows_per_fraction(self, tmp_path):
        out = str(tmp_path / "run")
        assert main([*self.ARGS, "--out", out]) == EXIT_OK
        lines = read(os.path.join(out, "cv.csv")).strip().split("\n")
        assert lines[0] == "fraction,fold,accuracy,nnz,iterations,reason"
        assert len(lines) == 1 + 2 * 5  # two fractions, five folds

    def test_means_match_fold_average(self, tmp_path):
        out = str(tmp_path / "run")
        main([*self.ARGS, "--out", out])
        rows = [line.split(",") for line in
                read(os.path.join(out, "cv.csv")).strip().split("\n")[1:]]
        means = {cells[0]: float(cells[1]) for cells in
                 [line.split(",") for line in
                  read(os.path.join(out, "cv_means.csv")).strip().split("\n")[1:]]}
        for frac in ("0.5", "0.1"):
            accs = [float(r[2]) for r in rows if r[0] == frac and r[2]]
            assert means[frac] == pytest.approx(np.mean(accs), abs=1e-12)

    def test_degenerate_fold_cell_format(self, tmp_path):
        data_file = tmp_path / "tiny.csv"
        rng = np.random.default_rng(1)
        lines = []
        labels = [1, 0, 0, 0]
        for y in labels:
            x = [float(v) for v in rng.normal(size=2)]
            lines.append(f"{x[0]!r},{x[1]!r},{y}")
        data_file.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "run")
        code = main(["cv", "--format", "csv", "--data", str(data_file),
                     "--label-column", "2", "--folds", "2",
                     "--fractions", "0.5", "--out", out])
        assert code == EXIT_OK
        rows = [line.split(",") for line in
                read(os.path.join(out, "cv.csv")).strip().split("\n")[1:]]
        skipped = [r for r in rows if r[5]]
        assert skipped, "expected a skipped fold"
        for r in skipped:
            assert r[2] == "" and r[3] == "" and r[4] == ""

    def test_rerun_identical_except_time(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main([*self.ARGS, "--out", a])
        main([*self.ARGS, "--out", b])
        assert normalized_artifacts(a) == normalized_artifacts(b)


class TestBench:
    ARGS = ["bench", "--grid", "60x8,60x16", "--reps", "3",
            "--variants", "ista_bb,ista_reverse", "--lambda-frac", "0.1",
            "--max-iters", "2000", "--seed", "5"]

    def test_row_layout(self, tmp_path):
        out = str(tmp_path / "run")
        assert main([*self.ARGS, "--out", out]) == EXIT_OK
        lines = read(os.path.join(out, "bench.csv")).strip().split("\n")
        assert lines[0] == "variant,n,d,median_time_s,median_iters"
        assert len(lines) == 1 + 2 * 2  # two cells, two variants
        for line in lines[1:]:
            variant, n, d, t, iters = line.split(",")
            assert variant in ("ista_bb", "ista_reverse")
            assert float(t) >= 0.0
            assert float(iters) >= 1

    def test_rerun_identical_iteration_counts(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main([*self.ARGS, "--out", a])
        main([*self.ARGS, "--out", b])
        assert normalized_artifacts(a) == normalized_artifacts(b)

    def test_iteration_cap_exits_2(self, tmp_path):
        out = str(tmp_path / "run")
        args = ["bench", "--grid", "50x20", "--reps", "1", "--variants", "fista_lip"]
        assert main([*args, "--max-iters", "1", "--out", out]) == EXIT_MAXITERS
        assert len(read(os.path.join(out, "bench.csv")).strip().split("\n")) == 2

    def test_bad_grid_rejected(self, tmp_path, capsys):
        code = main(["bench", "--grid", "60by8", "--out", str(tmp_path / "x")])
        assert code == EXIT_ERROR


class TestArtifactsMatchLibrary:
    def test_coefficients_json_reproduces_in_process_fit(self, tmp_path):
        out = str(tmp_path / "run")
        assert main(["train", *SYNTH, "--lambda-frac", "0.07", "--out", out]) == EXIT_OK
        payload = json.loads(read(os.path.join(out, "coefficients.json")))

        from proxlogit import Penalty, SolverOptions, SyntheticSpec, fit, generate_synthetic
        data, _ = generate_synthetic(SyntheticSpec(n_samples=80, n_features=15,
                                                   n_nonzero=3, seed=3))
        res = fit(data, Penalty.l1(payload["lambda"]), SolverOptions(variant="ista_bb"))
        beta = np.zeros(payload["d"])
        for idx, val in payload["nonzeros"].items():
            beta[int(idx)] = val
        np.testing.assert_array_equal(beta, res.beta)

    def test_bench_config_file(self, tmp_path):
        cfg = tmp_path / "bench.ini"
        cfg.write_text("[bench]\ngrid = 50x6\nrepetitions = 2\n"
                       "variants = ista_bb\n[penalty]\nlambda_frac = 0.2\n"
                       "[solver]\nmax_iters = 2000\n")
        out = str(tmp_path / "run")
        assert main(["bench", "--config", str(cfg), "--out", out]) == EXIT_OK
        lines = read(os.path.join(out, "bench.csv")).strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("ista_bb,50,6,")


class TestTrainDeterminism:
    def test_rerun_identical_except_time(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["train", *SYNTH, "--out", a])
        main(["train", *SYNTH, "--out", b])
        assert normalized_artifacts(a) == normalized_artifacts(b)

    def test_coefficients_json_bytes_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        main(["train", *SYNTH, "--out", a])
        main(["train", *SYNTH, "--out", b])
        assert read(os.path.join(a, "coefficients.json")) == \
               read(os.path.join(b, "coefficients.json"))


# A non-default value per RunConfig field: its INI/flag text and what it parses to.
FIELD_SAMPLES = {
    "data_path": ("train.csv", "train.csv"),
    "data_format": ("libsvm", "libsvm"),
    "label_column": ("4", 4),
    "has_header": ("true", True),
    "add_intercept": ("yes", True),
    "n_features_hint": ("12", 12),
    "synth_samples": ("70", 70),
    "synth_features": ("9", 9),
    "synth_nonzero": ("2", 2),
    "synth_noise": ("0.25", 0.25),
    "synth_seed": ("8", 8),
    "penalty": ("mcp", "mcp"),
    "lambda_frac": ("0.3", 0.3),
    "theta": ("2.5", 2.5),
    "epsilon": ("0.75", 0.75),
    "variant": ("fista_lip", "fista_lip"),
    "eta": ("1.5", 1.5),
    "l0": ("4", 4.0),
    "max_iters": ("123", 123),
    "tol": ("1e-7", 1e-7),
    "seed": ("6", 6),
    "beta0": ("random", "random"),
    "fractions": ("0.5, 0.05", (0.05, 0.5)),
    "warm_start": ("false", False),
    "folds": ("3", 3),
    "cv_seed": ("11", 11),
    "grid": ("30x4,40x5", ((30, 4), (40, 5))),
    "repetitions": ("2", 2),
    "bench_variants": ("ista_vanilla,fista_vanilla", ("ista_vanilla", "fista_vanilla")),
    "out_dir": ("runs/x", "runs/x"),
    "trace_every": ("3", 3),
}

COMMON_OPTIONS = {
    "-h", "--help", "--config", "--penalty", "--theta", "--epsilon", "--eta", "--l0",
    "--tol", "--max-iters", "--seed", "--beta0", "--out",
}
# bench generates its grid data and takes --variants
FIT_OPTIONS = COMMON_OPTIONS | {
    "--data", "--format", "--label-column", "--has-header", "--add-intercept",
    "--synthetic-samples", "--synthetic-features", "--synthetic-nonzero",
    "--synthetic-noise", "--synthetic-seed", "--variant",
}
SUBCOMMAND_OPTIONS = {
    "train": FIT_OPTIONS | {"--lambda-frac", "--trace-every"},
    "path": FIT_OPTIONS | {"--fractions", "--warm-start"},
    "cv": FIT_OPTIONS | {"--fractions", "--warm-start", "--folds", "--cv-seed"},
    "bench": COMMON_OPTIONS | {"--lambda-frac", "--grid", "--reps", "--variants"},
}


def config_from(argv):
    return cli._build_config(cli.build_parser().parse_args(argv))


def recording_config(cfg, reads: set):
    """A copy of ``cfg`` that adds the name of each field read from it to ``reads``."""
    names = {f.name for f in dataclasses.fields(cli.RunConfig)}

    class Recording(cli.RunConfig):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)

    return Recording(**{name: getattr(cfg, name) for name in names})


class TestConfigTable:
    FIELDS = dataclasses.fields(cli.RunConfig)

    def test_one_sample_and_one_key_per_field(self):
        names = [f.name for f in self.FIELDS]
        assert len(names) == 31 and set(FIELD_SAMPLES) == set(names)
        assert len({f.metadata["key"] for f in self.FIELDS}) == 31

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_ini_and_flag_values_reach_the_field(self, field, tmp_path):
        text, expected = FIELD_SAMPLES[field.name]
        assert getattr(cli.RunConfig(), field.name) != expected
        section, key = field.metadata["key"].split(".")
        ini = tmp_path / "c.ini"
        ini.write_text(f"[{section}]\n{key} = {text}\n")
        command = field.metadata["commands"][0]
        assert getattr(config_from([command, "--config", str(ini)]), field.name) == expected
        if field.metadata["flag"] is not None:
            flag = [field.metadata["flag"]] + ([] if field.metadata["switch"] else [text])
            assert getattr(config_from([command, *flag]), field.name) == expected

    def test_subcommand_options(self):
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        seen = {name: {o for a in p._actions for o in a.option_strings}
                for name, p in subparsers.choices.items()}
        assert seen == SUBCOMMAND_OPTIONS

    @pytest.mark.parametrize("ini, argv, named", [
        ("[solver]\nmax_iter = 5\n", [], "unknown config key [solver] max_iter"),
        ("[penalty]\nlambda_frac = 0.1\n[bench]\nlambda_frac = 0.5\n", [],
         "unknown config key [bench] lambda_frac"),
        ("[solvr]\nvariant = ista_bb\n", [], "unknown config section [solvr]"),
        ("[solver]\nseed = 1\n[DEFAULT]\nseed = 3\n", [], "unknown config section [DEFAULT]"),
        ("max_iters = 5\n", [], "no section headers"),
        ("[solver]\nmax_iters = 5\nmax_iters = 6\n", [], "already exists"),
        ("[solver]\nmax_iters = abc\n", [], "[solver] max_iters: "),
        ("[solver]\nvariant = nope\n", [], "[solver] variant: "),
        ("[data]\nhas_header = maybe\n", [], "[data] has_header: "),
        ("", ["--max-iters", "abc"], "--max-iters: "),
        ("", ["--variant", "nope"], "--variant: "),
        ("", ["--lambda-frac", "tenth"], "--lambda-frac: "),
        ("", ["--lambda-frac", "inf"], "--lambda-frac: expected a positive finite number"),
        ("", ["--lambda-frac", "0"], "--lambda-frac: expected a positive finite number"),
        ("", ["--trace-every", "0"], "--trace-every: expected an integer >= 1"),
        ("[penalty]\nlambda_frac = nan\n", [], "[penalty] lambda_frac: "),
        # train parses the keys of other subcommands too
        ("[cv]\nfolds = 1\n", [], "[cv] folds: expected an integer >= 2"),
        ("[bench]\nrepetitions = 0\n", [], "[bench] repetitions: expected an integer >= 1"),
        ("[solver]\nmax_backtracks = 100\n", [], "unknown config key [solver] max_backtracks"),
        ("", ["--l0", "abc"], "--l0: bad l0 'abc'; expected a number or 'lipschitz'"),
        ("", ["--config", "no/such/config.ini"], "config file not found: no/such/config.ini"),
        ("[path]\nfractions = 0.5,0.5\n", [], "[path] fractions: expected a nonempty list"),
        ("[bench]\ngrid = 60x0\n", [], "[bench] grid: bad grid cell '60x0'"),
    ])
    def test_bad_setting_exits_1_naming_it(self, ini, argv, named, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text(ini)
        code = main(["train", *SYNTH, "--config", str(cfg), *argv,
                     "--out", str(tmp_path / "run")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv, named", [
        (["cv", *SYNTH, "--folds", "1"], "--folds: expected an integer >= 2"),
        (["bench", "--reps", "0"], "--reps: expected an integer >= 1"),
        (["bench", "--lambda-frac", "-0.1"], "--lambda-frac: expected a positive finite"),
        (["path", *SYNTH, "--fractions", "0.5,0.5"], "--fractions: expected a nonempty list"),
        (["path", *SYNTH, "--fractions", "0.1,1.5"], "--fractions: expected a nonempty list"),
        (["cv", *SYNTH, "--fractions", "nan"], "--fractions: expected a nonempty list"),
        (["cv", *SYNTH, "--fractions", ","], "--fractions: expected a nonempty list"),
        (["bench", "--grid", "0x10"], "--grid: bad grid cell '0x10'"),
        (["bench", "--grid", ","], "--grid: empty benchmark grid"),
        (["train", *SYNTH, "--eta", "1"], "--eta: expected a finite number > 1, got '1'"),
        (["path", *SYNTH, "--eta", "0.5"], "--eta: expected a finite number > 1"),
        (["cv", *SYNTH, "--tol", "-0.5"], "--tol: expected a finite number >= 0"),
        (["bench", "--tol", "-1"], "--tol: expected a finite number >= 0"),
        (["train", *SYNTH, "--max-iters", "-1"], "--max-iters: expected an integer >= 0"),
        (["path", *SYNTH, "--l0", "0"],
         "--l0: expected a positive finite number or 'lipschitz', got '0'"),
        (["bench", "--l0", "-1"], "--l0: expected a positive finite number or 'lipschitz'"),
    ])
    def test_out_of_range_flag_exits_1_naming_it(self, argv, named, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["--tol", "nan"], ["--tol", "inf"], ["--eta", "inf"], ["--l0", "inf"],
        ["--penalty", "scad", "--theta", "inf"], ["--penalty", "mcp", "--theta", "nan"],
        ["--penalty", "capped_l1", "--epsilon", "inf"],
    ], ids=" ".join)
    def test_non_finite_number_exits_1(self, argv, tmp_path, capsys):
        assert main(["train", *SYNTH, *argv, "--out", str(tmp_path / "run")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("argv", [
        ["bench", "--data", "x.csv"], ["bench", "--variant", "ista_bb"],
        ["path", "--lambda-frac", "0.2"], ["cv", "--trace-every", "3"],
    ], ids=" ".join)
    def test_flag_the_subcommand_ignores_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "path", "cv", "bench"])
    def test_commands_are_the_subcommands_that_read_the_field(self, command, tmp_path):
        # every field the subcommand reads over csv, libsvm and synthetic input,
        # under a SCAD and a capped-l1 penalty
        data, _ = generate_synthetic(SyntheticSpec(n_samples=30, n_features=4, n_nonzero=2,
                                                   seed=1))
        csv_file, svm_file = write_csv(tmp_path / "d.csv", data), tmp_path / "d.svm"
        svm_file.write_text("".join(
            f"{y:g} " + " ".join(f"{i + 1}:{v:.17g}" for i, v in enumerate(x)) + "\n"
            for x, y in zip(data.features.T, data.labels)))
        inputs = [["--format", "csv", "--data", str(csv_file), "--label-column", "4"],
                  ["--format", "libsvm", "--data", str(svm_file)], SYNTH]
        if command == "bench":
            inputs = [["--grid", "30x4", "--reps", "1", "--variants", "ista_bb"]]
        reads = set()
        for argv in inputs:
            for penalty in ("scad", "capped_l1"):
                cfg = config_from([command, *argv, "--penalty", penalty, "--max-iters", "50",
                                   "--out", str(tmp_path / "run")])
                cli._COMMANDS[command][0](recording_config(cfg, reads))
        assert reads == {f.name for f in self.FIELDS if command in f.metadata["commands"]}


class TestOutputCheckedFirst:
    @pytest.mark.parametrize("command, solve", [
        ("train", "fit"), ("path", "run_path"), ("cv", "cross_validate")])
    def test_unusable_out_exits_1_before_solving(self, command, solve, tmp_path, capsys,
                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(cli, solve, lambda *args, **kwargs: calls.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "sub")  # below a regular file: cannot be made
        code = main([command, *SYNTH, "--out", out])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: output directory {out!r} is not writable")
        assert calls == []


class TestPenaltyCheckedFirst:
    @pytest.mark.parametrize("command", ["train", "path", "cv", "bench"])
    @pytest.mark.parametrize("args, message", [
        (["--penalty", "scad", "--theta", "1.5"], "--theta: SCAD requires theta > 2"),
        (["--penalty", "mcp", "--theta", "nan"], "--theta: theta must be finite"),
        (["--penalty", "capped_l1", "--epsilon", "-1"],
         "--epsilon: capped l1 requires epsilon > 0"),
    ])
    def test_bad_shape_exits_1_before_out_is_made(self, command, args, message, tmp_path,
                                                  capsys):
        data = SYNTH if command != "bench" else []
        out = tmp_path / "run"
        assert main([command, *data, *args, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_ini_shape_is_named_by_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[penalty]\nkind = mcp\ntheta = 0.5\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), *SYNTH, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: [penalty] theta: MCP requires theta > 1, got 0.5\n"
        assert not out.exists()


class TestConfigValuesAreLiteral:
    def test_percent_sign_is_read_as_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.ini"
        cfg.write_text("[data]\nformat = csv\npath = runs/50%/x.csv\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: dataset file not found: runs/50%/x.csv\n"

    def test_double_percent_is_two_characters(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[data]\npath = a%%b.csv\n")
        assert config_from(["train", "--config", str(cfg)]).data_path == "a%%b.csv"
