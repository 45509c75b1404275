"""Self-check of the benchmark: every layer is seen where it is listed, and
every wrapped name is restored after a traced run.

    python3 -m pytest benchmark/test_benchmark.py

Each case runs one plain and one traced pass of a workload, about 30 s in all.
"""

import json
import os
import sys

import pytest

import run

run._import_package()

import instrument  # noqa: E402

# Per-layer metrics that must be non-zero on the workload they are listed against.
EXPECTED = {
    "l1_path": (
        "logistic.lipschitz_calls", "logistic.loss_value_calls",
        "logistic.loss_gradient_calls", "logistic.matvecs", "logistic.matvec_bytes",
        "penalties.prox_calls", "penalties.prox_coords", "solver.fit_calls",
        "solver.iterations", "solver.trials_per_iter", "solver.matvecs_per_iter",
        "solver.untimed_share", "data.generate_s", "quality.l1_gap_max",
    ),
    "nonconvex_cv": (
        "logistic.lipschitz_calls", "penalties.prox_calls", "penalties.prox_coords",
        "penalties.value_calls", "solver.fit_calls", "solver.accepted_per_prox",
        "path.self_s", "path.points", "path.lambda_max_s", "data.dataset_calls",
        "data.generate_s", "quality.residual_max",
    ),
    "csv_train": (
        "data.load_csv_s", "data.bytes_parsed", "cli.self_s", "cli.bytes_written",
        "logistic.lipschitz_calls", "solver.fit_calls", "data.generate_s",
        "quality.l1_gap_max", "quality.residual_max",
    ),
}


def _declared_layer_metrics() -> set:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)["per_layer"]}


def _wrapped_names() -> list:
    return [f"{mod.__name__}.{name}" for mod in instrument.package_modules()
            for name, value in vars(mod).items() if hasattr(value, "bench_original")]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_run_sees_every_listed_layer(workload, capsys):
    originals = {(module, attr): getattr(sys.modules["proxlogit." + module], attr)
                 for _, module, attr, _ in instrument.TARGETS}

    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "1"])

    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == _declared_layer_metrics()
    zero = [name for name in EXPECTED[workload] if not metrics[name]["value"] > 0]
    assert not zero, f"{workload}: no work recorded for {zero}"
    assert not _wrapped_names()
    for (module, attr), original in originals.items():
        assert getattr(sys.modules["proxlogit." + module], attr) is original
