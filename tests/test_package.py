import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types

import pytest

import proxlogit
from proxlogit import data, logistic, path, penalties, solver

# The package's public names. A name belongs here only if code outside the
# tests uses it; formulas that only tests need live in the tests.
PUBLIC = {
    "CAPPED_L1", "CvCell", "DEFAULT_FRACTIONS", "DataError", "Dataset",
    "FitResult", "KINDS", "L1", "LineSearchError", "MCP", "PathPoint", "PathSpec",
    "Penalty", "SCAD", "SolverOptions", "SyntheticSpec", "Trace", "VARIANTS", "accuracy",
    "cross_validate", "fit", "generate_synthetic", "kfold_split",
    "lambda_max", "lipschitz_constant", "load_csv", "load_libsvm", "loss_gradient",
    "loss_value", "penalty_value", "predict", "prox_vector", "run_path",
    "sigmoid", "softplus",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(proxlogit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_package_names_are_the_module_exports():
    # ``__init__`` republishes each module's ``__all__``, so the names are declared once
    modules = (data, logistic, path, penalties, solver)
    assert set().union(*(module.__all__ for module in modules)) == PUBLIC


def test_the_package_imports_only_numpy_and_the_standard_library():
    # scipy is a test-only extra, so a package import of it breaks installs;
    # the benchmark's setup_s times this import
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    added = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; before = set(sys.modules); "
         "import proxlogit.cli; print(*sorted(set(sys.modules) - before))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    allowed = sys.stdlib_module_names | {"numpy", "proxlogit"}
    assert "proxlogit.cli" in added
    assert [name for name in added if name.partition(".")[0] not in allowed] == []


def test_variants_keep_their_names_and_order():
    assert solver.VARIANTS == ("ista_bb", "ista_reverse", "fista_lip", "ista_vanilla",
                               "fista_vanilla")


def test_solver_options_fields_are_pinned():
    # a knob no caller sets belongs in a module constant, not here
    assert [f.name for f in dataclasses.fields(solver.SolverOptions)] == [
        "variant", "eta", "l0", "max_iters", "tol", "seed", "beta0"]


def test_lipschitz_constant_takes_only_the_data():
    assert list(inspect.signature(proxlogit.lipschitz_constant).parameters) == ["data"]


def test_fit_takes_only_data_penalty_and_options():
    # a value the dataset or the options already carry is no extra parameter
    assert list(inspect.signature(proxlogit.fit).parameters) == ["data", "pen", "opts"]


def test_fit_result_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(solver.FitResult)] == [
        "beta", "converged", "trace", "final_objective", "matvecs", "feature_rows", "seconds"]


BENCHMARK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "benchmark")


def load_benchmark_module(name):
    """``benchmark/<name>.py``, loaded by path under a private module name."""
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}",
                                                  os.path.join(BENCHMARK_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_targets_resolve():
    # the benchmark wraps these names; a rename must fail here, not in a benchmark run
    for _, module, attr, _ in load_benchmark_module("instrument").TARGETS:
        assert callable(getattr(importlib.import_module(f"proxlogit.{module}"), attr))


@pytest.mark.parametrize("name", ["quality", "workloads"])
def test_benchmark_modules_import_and_find_their_names(name):
    # every ``module.attr`` the file reads off a proxlogit module exists
    module = load_benchmark_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if isinstance(owner, types.ModuleType) and owner.__name__.startswith("proxlogit"):
                assert hasattr(owner, node.attr), f"{owner.__name__}.{node.attr}"


@pytest.mark.parametrize("name", ["l1_path", "nonconvex_cv", "csv_train"])
def test_benchmark_pass_meets_its_reference(name, tmp_path):
    # the benchmark's correctness gate on one pass at run seed 0: every op
    # converges and ends at most 1e-6 * max(1, |f_ref|) above its reference
    workload = load_benchmark_module("workloads").WORKLOADS[name]
    with open(os.path.join(BENCHMARK_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][name]
    base, _ = data.generate_synthetic(workload.spec)
    inputs = workload.prepare(base, 0, str(tmp_path))
    with load_benchmark_module("instrument").Instrument(spans=False) as inst:
        ops = workload.run(inputs, inst)
    assert len(ops) == workload.ops_per_pass == len(reference)
    for i, (op, f_ref) in enumerate(zip(ops, reference)):
        assert op.ok, f"{name} op {i} did not converge"
        assert op.objective <= f_ref + 1e-6 * max(1.0, abs(f_ref)), (name, i, op.objective, f_ref)
