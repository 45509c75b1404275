"""Command-line front end: train, path, cv, and bench subcommands.

Runs are configured by an INI-style file (``--config``) with sections
``[data] [synthetic] [penalty] [solver] [path] [cv] [bench] [output]``; any
command-line flag overrides the corresponding config value.  Artifacts are
CSV and JSON only; plotting is out of process (the emitted trace and path
tables carry everything a plotting tool needs).

Exit codes: 0 success/converged, 2 iteration cap hit, 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import statistics
import sys
import time

import numpy as np

from .data import DataError, SyntheticSpec, generate_synthetic, load_csv, load_libsvm
from .path import DEFAULT_FRACTIONS, PathSpec, cross_validate, lambda_max, run_path
from .penalties import CAPPED_L1, KINDS, MCP, Penalty, SCAD
from .solver import NNZ_TOL, VARIANTS, SolverOptions, fit, nonzero_count

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAXITERS = 2

TRACE_HEADER = "k,f,L_k,backtracks,nnz,time_s"


class CliError(Exception):
    """Configuration or input problem reported to stderr with exit 1."""


def _fmt(x: float) -> str:
    # 17 significant digits: round-trip exact for 64-bit floats.
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Configuration


@dataclasses.dataclass
class RunConfig:
    data_path: str | None = None
    data_format: str = "csv"  # csv | libsvm | synthetic
    label_column: int = 0
    has_header: bool = False
    add_intercept: bool = False
    n_features_hint: int | None = None

    synth_samples: int = 200
    synth_features: int = 50
    synth_nonzero: int = 5
    synth_noise: float = 0.0
    synth_seed: int = 0

    penalty: str = "l1"
    lambda_frac: float = 0.1
    theta: float | None = None
    epsilon: float | None = None

    variant: str = "ista_bb"
    eta: float = 2.0
    l0: float | None = None  # None: from the Lipschitz constant
    max_iters: int = 10_000
    tol: float = 1e-9
    max_backtracks: int = 100
    seed: int = 0
    beta0: str = "zeros"

    fractions: tuple[float, ...] = DEFAULT_FRACTIONS
    warm_start: bool = True

    folds: int = 5
    cv_seed: int = 0

    grid: tuple[tuple[int, int], ...] = ((1000, 500), (1000, 1000))
    repetitions: int = 3
    bench_variants: tuple[str, ...] = ("ista_bb", "ista_reverse", "fista_lip")

    out_dir: str = "out"
    trace_every: int = 1


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


def _parse_fractions(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise CliError(f"bad fraction list {text!r}") from None


def _parse_grid(text: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for tok in text.replace(" ", "").split(","):
        if not tok:
            continue
        try:
            n_s, d_s = tok.split("x")
            cells.append((int(n_s), int(d_s)))
        except ValueError:
            raise CliError(f"bad grid cell {tok!r}; expected SAMPLESxFEATURES") from None
    if not cells:
        raise CliError("empty benchmark grid")
    return tuple(cells)


def _parse_l0(text: str) -> float | None:
    if text.strip().lower() in ("", "lipschitz", "auto"):
        return None
    try:
        return float(text)
    except ValueError:
        raise CliError(f"bad l0 {text!r}; expected a number or 'lipschitz'") from None


def _apply_config_file(cfg: RunConfig, path: str) -> None:
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(path)

    def get(section, option, cast, current):
        if cp.has_option(section, option):
            raw = cp.get(section, option).strip()
            return cast(raw)
        return current

    cfg.data_path = get("data", "path", str, cfg.data_path)
    cfg.data_format = get("data", "format", str, cfg.data_format)
    cfg.label_column = get("data", "label_column", int, cfg.label_column)
    cfg.has_header = get("data", "has_header", _parse_bool, cfg.has_header)
    cfg.add_intercept = get("data", "add_intercept", _parse_bool, cfg.add_intercept)
    cfg.n_features_hint = get("data", "n_features", int, cfg.n_features_hint)

    cfg.synth_samples = get("synthetic", "n_samples", int, cfg.synth_samples)
    cfg.synth_features = get("synthetic", "n_features", int, cfg.synth_features)
    cfg.synth_nonzero = get("synthetic", "n_nonzero", int, cfg.synth_nonzero)
    cfg.synth_noise = get("synthetic", "noise_scale", float, cfg.synth_noise)
    cfg.synth_seed = get("synthetic", "seed", int, cfg.synth_seed)

    cfg.penalty = get("penalty", "kind", str, cfg.penalty)
    cfg.lambda_frac = get("penalty", "lambda_frac", float, cfg.lambda_frac)
    cfg.theta = get("penalty", "theta", float, cfg.theta)
    cfg.epsilon = get("penalty", "epsilon", float, cfg.epsilon)

    cfg.variant = get("solver", "variant", str, cfg.variant)
    cfg.eta = get("solver", "eta", float, cfg.eta)
    cfg.l0 = get("solver", "l0", _parse_l0, cfg.l0)
    cfg.max_iters = get("solver", "max_iters", int, cfg.max_iters)
    cfg.tol = get("solver", "tol", float, cfg.tol)
    cfg.max_backtracks = get("solver", "max_backtracks", int, cfg.max_backtracks)
    cfg.seed = get("solver", "seed", int, cfg.seed)
    cfg.beta0 = get("solver", "beta0", str, cfg.beta0)

    cfg.fractions = get("path", "fractions", _parse_fractions, cfg.fractions)
    cfg.warm_start = get("path", "warm_start", _parse_bool, cfg.warm_start)

    cfg.folds = get("cv", "folds", int, cfg.folds)
    cfg.cv_seed = get("cv", "seed", int, cfg.cv_seed)

    cfg.grid = get("bench", "grid", _parse_grid, cfg.grid)
    cfg.repetitions = get("bench", "repetitions", int, cfg.repetitions)
    cfg.bench_variants = get("bench", "variants",
                             lambda s: tuple(v for v in s.replace(" ", "").split(",") if v),
                             cfg.bench_variants)
    cfg.lambda_frac = get("bench", "lambda_frac", float, cfg.lambda_frac)

    cfg.out_dir = get("output", "dir", str, cfg.out_dir)
    cfg.trace_every = get("output", "trace_every", int, cfg.trace_every)


def _apply_flags(cfg: RunConfig, args: argparse.Namespace) -> None:
    mapping = {
        "data": "data_path", "format": "data_format", "label_column": "label_column",
        "penalty": "penalty", "lambda_frac": "lambda_frac", "theta": "theta",
        "epsilon": "epsilon", "variant": "variant", "eta": "eta", "tol": "tol",
        "max_iters": "max_iters", "max_backtracks": "max_backtracks", "seed": "seed",
        "beta0": "beta0", "out": "out_dir", "trace_every": "trace_every",
        "folds": "folds", "cv_seed": "cv_seed", "reps": "repetitions",
        "synthetic_samples": "synth_samples", "synthetic_features": "synth_features",
        "synthetic_nonzero": "synth_nonzero", "synthetic_noise": "synth_noise",
        "synthetic_seed": "synth_seed",
    }
    for flag, field in mapping.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, field, value)
    if getattr(args, "has_header", False):
        cfg.has_header = True
    if getattr(args, "add_intercept", False):
        cfg.add_intercept = True
    if getattr(args, "l0", None) is not None:
        cfg.l0 = _parse_l0(args.l0)
    if getattr(args, "fractions", None) is not None:
        cfg.fractions = _parse_fractions(args.fractions)
    if getattr(args, "warm_start", None) is not None:
        cfg.warm_start = _parse_bool(args.warm_start)
    if getattr(args, "grid", None) is not None:
        cfg.grid = _parse_grid(args.grid)
    if getattr(args, "variants", None) is not None:
        cfg.bench_variants = tuple(v for v in args.variants.replace(" ", "").split(",") if v)


def _validate(cfg: RunConfig) -> None:
    if cfg.data_format not in ("csv", "libsvm", "synthetic"):
        raise CliError(f"unknown data format {cfg.data_format!r}")
    if cfg.penalty not in KINDS:
        raise CliError(f"unknown penalty {cfg.penalty!r}; expected one of {KINDS}")
    if cfg.variant not in VARIANTS:
        raise CliError(f"unknown variant {cfg.variant!r}; expected one of {VARIANTS}")
    for v in cfg.bench_variants:
        if v not in VARIANTS:
            raise CliError(f"unknown bench variant {v!r}")
    if not 0 < cfg.lambda_frac:
        raise CliError("lambda_frac must be positive")
    if cfg.trace_every < 1:
        raise CliError("trace_every must be at least 1")
    if cfg.repetitions < 1:
        raise CliError("repetitions must be at least 1")


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        _apply_config_file(cfg, args.config)
    _apply_flags(cfg, args)
    _validate(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Shared assembly


def _load_dataset(cfg: RunConfig):
    if cfg.data_format == "synthetic":
        spec = SyntheticSpec(n_samples=cfg.synth_samples, n_features=cfg.synth_features,
                             n_nonzero=cfg.synth_nonzero, noise_scale=cfg.synth_noise,
                             seed=cfg.synth_seed)
        data, _ = generate_synthetic(spec)
        return data
    if not cfg.data_path:
        raise CliError("no dataset path given (use --data or [data] path)")
    if not os.path.exists(cfg.data_path):
        raise CliError(f"dataset file not found: {cfg.data_path}")
    if cfg.data_format == "csv":
        return load_csv(cfg.data_path, cfg.label_column, has_header=cfg.has_header,
                        add_intercept=cfg.add_intercept)
    return load_libsvm(cfg.data_path, n_features=cfg.n_features_hint,
                       add_intercept=cfg.add_intercept)


def _build_penalty(cfg: RunConfig, lam: float) -> Penalty:
    if cfg.penalty == SCAD:
        return Penalty.scad(lam, theta=cfg.theta if cfg.theta is not None else 3.7)
    if cfg.penalty == MCP:
        return Penalty.mcp(lam, theta=cfg.theta if cfg.theta is not None else 3.0)
    if cfg.penalty == CAPPED_L1:
        return Penalty.capped_l1(lam, epsilon=cfg.epsilon)
    return Penalty.l1(lam)


def _build_options(cfg: RunConfig, variant: str | None = None) -> SolverOptions:
    return SolverOptions(variant=variant or cfg.variant, eta=cfg.eta, l0=cfg.l0,
                         max_iters=cfg.max_iters, tol=cfg.tol,
                         max_backtracks=cfg.max_backtracks, seed=cfg.seed,
                         beta0=cfg.beta0)


def _ensure_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    probe = os.path.join(cfg.out_dir, ".write_probe")
    try:
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise CliError(f"output directory {cfg.out_dir!r} is not writable: {exc}") from exc
    return cfg.out_dir


def _write_trace_csv(path: str, trace, every: int) -> None:
    last = len(trace) - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for i in range(len(trace)):
            if i % every and i != last:
                continue
            fh.write(",".join([
                str(trace.iterations[i]), _fmt(trace.objectives[i]),
                _fmt(trace.step_scales[i]), str(trace.backtracks[i]),
                str(trace.nonzeros[i]), _fmt(trace.times[i]),
            ]) + "\n")


def _coefficients_payload(beta: np.ndarray, lam: float, cfg: RunConfig) -> dict:
    nz = {str(i): float(beta[i]) for i in np.nonzero(np.abs(beta) > NNZ_TOL)[0]}
    return {
        "d": int(beta.shape[0]),
        "lambda": lam,
        "penalty": {"kind": cfg.penalty, "theta": cfg.theta, "epsilon": cfg.epsilon},
        "variant": cfg.variant,
        "nonzeros": nz,
    }


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_train(cfg: RunConfig) -> int:
    data = _load_dataset(cfg)
    lam_top = lambda_max(data)
    lam = cfg.lambda_frac * lam_top
    pen = _build_penalty(cfg, lam)
    result = fit(data, pen, _build_options(cfg))
    out = _ensure_out(cfg)

    _write_json(os.path.join(out, "coefficients.json"),
                _coefficients_payload(result.beta, lam, cfg))
    _write_trace_csv(os.path.join(out, "trace.csv"), result.trace, cfg.trace_every)
    _write_json(os.path.join(out, "summary.json"), {
        "variant": cfg.variant,
        "penalty": cfg.penalty,
        "lambda": lam,
        "lambda_frac": cfg.lambda_frac,
        "lambda_max": lam_top,
        "converged": result.converged,
        "iterations": result.n_iterations,
        "final_objective": result.final_objective,
        "nnz": result.nnz,
        "matvecs": result.matvecs,
        "feature_rows": result.feature_rows,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "time_s": result.trace.times[-1] if len(result.trace) else 0.0,
    })
    return EXIT_OK if result.converged else EXIT_MAXITERS


def cmd_path(cfg: RunConfig) -> int:
    data = _load_dataset(cfg)
    lam_top = lambda_max(data)
    template = _build_penalty(cfg, lam_top)
    spec = PathSpec(pen_template=template, opts=_build_options(cfg),
                    fractions=tuple(sorted(cfg.fractions)), warm_start=cfg.warm_start)
    points = run_path(data, spec)
    out = _ensure_out(cfg)

    with open(os.path.join(out, "path.csv"), "w", encoding="utf-8") as fh:
        fh.write("fraction,lambda,final_objective,iterations,nnz,time_s,matvecs,feature_rows\n")
        for pt in points:
            res = pt.result
            elapsed = res.trace.times[-1] if len(res.trace) else 0.0
            fh.write(",".join([
                format(pt.fraction, "g"), _fmt(pt.lam), _fmt(res.final_objective),
                str(res.n_iterations), str(res.nnz), _fmt(elapsed),
                str(res.matvecs), str(res.feature_rows),
            ]) + "\n")
    for pt in points:
        payload = _coefficients_payload(pt.result.beta, pt.lam, cfg)
        _write_json(os.path.join(out, f"coefficients_{pt.fraction:g}.json"), payload)
    return EXIT_OK if all(pt.result.converged for pt in points) else EXIT_MAXITERS


def cmd_cv(cfg: RunConfig) -> int:
    if cfg.folds < 2:
        raise CliError("cv needs at least 2 folds")
    data = _load_dataset(cfg)
    template = _build_penalty(cfg, lambda_max(data))
    spec = PathSpec(pen_template=template, opts=_build_options(cfg),
                    fractions=tuple(sorted(cfg.fractions)), warm_start=cfg.warm_start)
    report = cross_validate(data, spec, k=cfg.folds, seed=cfg.cv_seed)
    out = _ensure_out(cfg)

    by_key = {(c.fraction, c.fold): c for c in report.cells}
    fracs_desc = sorted(spec.fractions, reverse=True)
    with open(os.path.join(out, "cv.csv"), "w", encoding="utf-8") as fh:
        fh.write("fraction,fold,accuracy,nnz,iterations,reason\n")
        for frac in fracs_desc:
            for fold in range(cfg.folds):
                c = by_key[(frac, fold)]
                fh.write(",".join([
                    format(frac, "g"), str(fold),
                    "" if c.accuracy is None else _fmt(c.accuracy),
                    "" if c.nnz is None else str(c.nnz),
                    "" if c.iterations is None else str(c.iterations),
                    c.reason or "",
                ]) + "\n")
    means = report.mean_accuracy()
    with open(os.path.join(out, "cv_means.csv"), "w", encoding="utf-8") as fh:
        fh.write("fraction,mean_accuracy,folds_used\n")
        for frac in fracs_desc:
            used = sum(1 for c in report.cells if c.fraction == frac and c.accuracy is not None)
            mean = "" if frac not in means else _fmt(means[frac])
            fh.write(f"{frac:g},{mean},{used}\n")
    return EXIT_OK


def cmd_bench(cfg: RunConfig) -> int:
    out = _ensure_out(cfg)
    rows = []
    for ci, (n, d) in enumerate(cfg.grid):
        spec = SyntheticSpec(n_samples=n, n_features=d,
                             n_nonzero=max(1, d // 10), noise_scale=0.0,
                             seed=cfg.seed + ci)
        data, _ = generate_synthetic(spec)
        lam = cfg.lambda_frac * lambda_max(data)
        pen = _build_penalty(cfg, lam)
        for variant in cfg.bench_variants:
            opts = _build_options(cfg, variant=variant)
            times, iters = [], []
            for _ in range(cfg.repetitions):
                t0 = time.perf_counter()
                result = fit(data, pen, opts)
                times.append(time.perf_counter() - t0)
                iters.append(result.n_iterations)
            rows.append((variant, n, d, statistics.median(times),
                         statistics.median(iters)))
    with open(os.path.join(out, "bench.csv"), "w", encoding="utf-8") as fh:
        fh.write("variant,n,d,median_time_s,median_iters\n")
        for variant, n, d, med_t, med_i in rows:
            fh.write(f"{variant},{n},{d},{_fmt(med_t)},{med_i:g}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override it")
    p.add_argument("--data", help="dataset file path")
    p.add_argument("--format", choices=["csv", "libsvm", "synthetic"],
                   help="dataset format (synthetic generates data in-process)")
    p.add_argument("--label-column", dest="label_column", type=int,
                   help="zero-based label column for CSV input")
    p.add_argument("--has-header", dest="has_header", action="store_true", default=None,
                   help="skip the first CSV line")
    p.add_argument("--add-intercept", dest="add_intercept", action="store_true", default=None,
                   help="append a constant-1 feature (penalized like the rest)")
    p.add_argument("--penalty", choices=list(KINDS))
    p.add_argument("--lambda-frac", dest="lambda_frac", type=float,
                   help="lambda as a fraction of lambda_max")
    p.add_argument("--theta", type=float, help="SCAD/MCP shape parameter")
    p.add_argument("--epsilon", type=float, help="capped-l1 cap")
    p.add_argument("--variant", choices=list(VARIANTS))
    p.add_argument("--eta", type=float, help="line-search growth factor (> 1)")
    p.add_argument("--l0", help="initial step scale: a number or 'lipschitz'")
    p.add_argument("--tol", type=float, help="relative objective-change stop")
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--max-backtracks", dest="max_backtracks", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--beta0", choices=["zeros", "random"])
    p.add_argument("--out", help="output directory")
    p.add_argument("--trace-every", dest="trace_every", type=int,
                   help="thin the emitted trace to every Nth iteration")
    p.add_argument("--synthetic-samples", dest="synthetic_samples", type=int)
    p.add_argument("--synthetic-features", dest="synthetic_features", type=int)
    p.add_argument("--synthetic-nonzero", dest="synthetic_nonzero", type=int)
    p.add_argument("--synthetic-noise", dest="synthetic_noise", type=float)
    p.add_argument("--synthetic-seed", dest="synthetic_seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxlogit",
        description="Proximal-gradient solvers for sparse logistic regression.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit once and emit coefficients + trace")
    _add_common(p_train)

    p_path = sub.add_parser("path", help="solve a lambda path with warm starts")
    _add_common(p_path)
    p_path.add_argument("--fractions", help="comma-separated fractions of lambda_max")
    p_path.add_argument("--warm-start", dest="warm_start", help="true/false")

    p_cv = sub.add_parser("cv", help="k-fold cross-validation over the path")
    _add_common(p_cv)
    p_cv.add_argument("--fractions", help="comma-separated fractions of lambda_max")
    p_cv.add_argument("--warm-start", dest="warm_start", help="true/false")
    p_cv.add_argument("--folds", type=int)
    p_cv.add_argument("--cv-seed", dest="cv_seed", type=int)

    p_bench = sub.add_parser("bench", help="timing grid on synthetic data")
    _add_common(p_bench)
    p_bench.add_argument("--grid", help="comma-separated SAMPLESxFEATURES cells")
    p_bench.add_argument("--reps", type=int, help="repetitions per cell")
    p_bench.add_argument("--variants", help="comma-separated solver variants")

    return parser


_COMMANDS = {"train": cmd_train, "path": cmd_path, "cv": cmd_cv, "bench": cmd_bench}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        return _COMMANDS[args.command](cfg)
    except (CliError, DataError, OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
