import dataclasses
import inspect
import types

import proxlogit
from proxlogit import data, solver

# The package's public names. A name belongs here only if code outside the
# tests uses it; formulas that only tests need live in the tests.
PUBLIC = {
    "CAPPED_L1", "CvCell", "CvReport", "DEFAULT_FRACTIONS", "DataError", "Dataset",
    "FitResult", "KINDS", "L1", "LineSearchError", "MCP", "PathPoint", "PathSpec",
    "Penalty", "SCAD", "SolverOptions", "SyntheticSpec", "Trace", "VARIANTS", "accuracy",
    "bb_stepsize", "cross_validate", "fit", "generate_synthetic", "kfold_split",
    "lambda_max", "lipschitz_constant", "load_csv", "load_libsvm", "loss_gradient",
    "loss_value", "objective", "penalty_value", "predict", "prox_vector", "run_path",
    "sigmoid", "softplus",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(proxlogit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC


def test_module_exports_are_package_names():
    assert set(solver.__all__) <= PUBLIC
    assert set(data.__all__) <= PUBLIC


def test_variants_keep_their_names_and_order():
    assert solver.VARIANTS == ("ista_bb", "ista_reverse", "fista_lip", "ista_vanilla",
                               "fista_vanilla")


def test_solver_options_fields_are_pinned():
    # a knob no caller sets belongs in a module constant, not here
    assert [f.name for f in dataclasses.fields(solver.SolverOptions)] == [
        "variant", "eta", "l0", "max_iters", "tol", "max_backtracks", "seed", "beta0"]


def test_lipschitz_constant_takes_only_the_data():
    assert list(inspect.signature(proxlogit.lipschitz_constant).parameters) == ["data"]


def test_fit_takes_only_data_penalty_and_options():
    # a value the dataset or the options already carry is no extra parameter
    assert list(inspect.signature(proxlogit.fit).parameters) == ["data", "pen", "opts"]


def test_fit_result_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(solver.FitResult)] == [
        "beta", "converged", "trace", "final_objective", "matvecs", "feature_rows", "seconds"]
