"""Command-line front end: train, path, cv, and bench subcommands.

Runs are configured by an INI-style file (``--config``) with sections
``[data] [synthetic] [penalty] [solver] [path] [cv] [bench] [output]`` and by
flags; a flag overrides the config value.  ``RunConfig`` is the one table of
settings: each field names its INI ``[section] key``, its flag and the
subcommands that read it, and the one function that parses and range checks
both the INI and the flag value.  An unknown section or key, or a value its
parser rejects, is an error naming the key or flag.  Artifacts are
CSV and JSON only; plotting is out of process (the emitted trace and path
tables carry everything a plotting tool needs).

A run checks, solves, then writes: every check that needs no fit runs first,
down to whether ``--out`` could be made and written in; once the subcommand
returns its artifacts (``{file name: text}``), ``main`` makes ``--out`` and
writes them.  So no failure but a failed write leaves a run directory.

Exit codes: 0 success/converged, 2 iteration cap hit (by any fit of a path,
a cross-validation or a benchmark grid), 1 error.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import glob
import json
import os
import sys

import numpy as np

from .data import (DataError, Dataset, SyntheticSpec, _with_intercept, generate_synthetic,
                   load_csv, load_libsvm)
from .path import DEFAULT_FRACTIONS, PathSpec, cross_validate, lambda_max, run_path
from .penalties import CAPPED_L1, KINDS, MCP, Penalty, SCAD
from .solver import VARIANTS, SolverOptions, fit

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAXITERS = 2

TRACE_HEADER = "k,f,L_k,backtracks,nnz,time_s"
_FITS = ("train", "path", "cv")  # load a dataset and fit one variant; bench makes its grid data


class CliError(Exception):
    """Configuration or input problem reported to stderr with exit 1."""


def _fmt(x: float) -> str:
    # 17 significant digits: round-trip exact for 64-bit floats.
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Configuration


def _parse_grid(text: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for tok in text.replace(" ", "").split(","):
        if not tok:
            continue
        try:
            n, d = map(int, tok.split("x"))
        except ValueError:
            n = d = 0
        if min(n, d) < 1:
            raise CliError(f"bad grid cell {tok!r}; expected SAMPLESxFEATURES, each >= 1")
        cells.append((n, d))
    if not cells:
        raise CliError("empty benchmark grid")
    return tuple(cells)


def _checked(convert, ok, expected: str):
    """A parser that converts the text, then rejects a value ``ok`` refuses."""
    def parse(text: str):
        if not ok(value := convert(text)):
            raise CliError(f"expected {expected}, got {text!r}")
        return value
    return parse


_parse_bool = _checked(lambda t: configparser.ConfigParser.BOOLEAN_STATES.get(t.strip().lower()),
                       lambda v: v is not None, "a boolean")
_POSITIVE_FINITE = _checked(float, lambda v: 0 < v < np.inf, "a positive finite number")
_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "an integer >= 1")
_parse_fractions = _checked(  # in any order; returned increasing, as PathSpec takes them
    lambda text: tuple(sorted(float(tok) for tok in text.replace(" ", "").split(",") if tok)),
    lambda fr: fr and len(set(fr)) == len(fr) and all(0 < f <= 1 for f in fr),
    "a nonempty list of distinct fractions in (0, 1]")


def _number_or_lipschitz(text: str) -> float | None:
    if text.strip().lower() in ("", "lipschitz", "auto"):
        return None
    try:
        return float(text)
    except ValueError:
        raise CliError(f"bad l0 {text!r}; expected a number or 'lipschitz'") from None


_parse_l0 = _checked(_number_or_lipschitz, lambda v: v is None or 0 < v < np.inf,
                     "a positive finite number or 'lipschitz'")


def _choice(options):
    parse = _checked(str, options.__contains__, f"one of {', '.join(options)}")
    parse.metavar = "{" + ",".join(options) + "}"
    return parse


_parse_variants = _checked(
    lambda text: tuple(_choice(VARIANTS)(v) for v in text.replace(" ", "").split(",") if v),
    lambda vs: vs and len(set(vs)) == len(vs), "a nonempty list of distinct variants")


def _field(default, key, flag=None, parse=str, commands=("train", "path", "cv", "bench"),
           help=None, switch=False):
    """A ``RunConfig`` field read from INI ``key`` ("section.key") and from ``flag``.

    Both raw strings go through ``parse``.  ``commands`` are exactly the
    subcommands that read the field: only they offer the flag, while every
    subcommand takes every INI key, as one file may serve several.  A
    ``switch`` flag takes no value and means "true".
    """
    return dataclasses.field(default=default, metadata={
        "key": key, "flag": flag, "parse": parse, "commands": commands, "help": help,
        "switch": switch})


@dataclasses.dataclass
class RunConfig:
    data_path: str | None = _field(None, "data.path", "--data", str, _FITS, help="dataset file")
    data_format: str = _field("csv", "data.format", "--format",
                              _choice(("csv", "libsvm", "synthetic")), _FITS,
                              help="dataset format (synthetic generates data in-process)")
    label_column: int = _field(0, "data.label_column", "--label-column", int, _FITS,
                               help="zero-based label column for CSV input")
    has_header: bool = _field(False, "data.has_header", "--has-header", _parse_bool, _FITS,
                              help="skip the first CSV line", switch=True)
    add_intercept: bool = _field(False, "data.add_intercept", "--add-intercept", _parse_bool,
                                 _FITS, switch=True,
                                 help="append a constant-1 feature (penalized like the rest)")
    n_features_hint: int | None = _field(None, "data.n_features", None, int, _FITS)

    synth_samples: int = _field(200, "synthetic.n_samples", "--synthetic-samples", int, _FITS)
    synth_features: int = _field(50, "synthetic.n_features", "--synthetic-features", int, _FITS)
    synth_nonzero: int = _field(5, "synthetic.n_nonzero", "--synthetic-nonzero", int, _FITS)
    synth_noise: float = _field(0.0, "synthetic.noise_scale", "--synthetic-noise", float, _FITS)
    synth_seed: int = _field(0, "synthetic.seed", "--synthetic-seed", int, _FITS)

    penalty: str = _field("l1", "penalty.kind", "--penalty", _choice(KINDS))
    lambda_frac: float = _field(0.1, "penalty.lambda_frac", "--lambda-frac",
                                _POSITIVE_FINITE, ("train", "bench"),
                                help="lambda as a fraction of lambda_max")
    theta: float | None = _field(None, "penalty.theta", "--theta", float,
                                 help="SCAD/MCP shape parameter")
    epsilon: float | None = _field(None, "penalty.epsilon", "--epsilon", float,
                                   help="capped-l1 cap (default: half of lambda_max)")

    variant: str = _field("ista_bb", "solver.variant", "--variant", _choice(VARIANTS), _FITS)
    eta: float = _field(2.0, "solver.eta", "--eta",
                        _checked(float, lambda v: 1 < v < np.inf, "a finite number > 1"),
                        help="line-search growth factor (> 1)")
    l0: float | None = _field(None, "solver.l0", "--l0", _parse_l0,  # None: Lipschitz
                              help="initial step scale: a number or 'lipschitz'")
    max_iters: int = _field(10_000, "solver.max_iters", "--max-iters",
                            _checked(int, lambda v: v >= 0, "an integer >= 0"))
    tol: float = _field(1e-9, "solver.tol", "--tol",
                        _checked(float, lambda v: 0 <= v < np.inf, "a finite number >= 0"),
                        help="relative objective-change stop")
    seed: int = _field(0, "solver.seed", "--seed", int,
                       help="seed of --beta0 random; bench also seeds cell i's data with seed + i")
    beta0: str = _field("zeros", "solver.beta0", "--beta0", _choice(("zeros", "random")))

    fractions: tuple[float, ...] = _field(DEFAULT_FRACTIONS, "path.fractions", "--fractions",
                                          _parse_fractions, ("path", "cv"),
                                          help="comma-separated fractions of lambda_max")
    warm_start: bool = _field(True, "path.warm_start", "--warm-start", _parse_bool,
                              ("path", "cv"), help="true/false")

    folds: int = _field(5, "cv.folds", "--folds",
                        _checked(int, lambda v: v >= 2, "an integer >= 2"), ("cv",))
    cv_seed: int = _field(0, "cv.seed", "--cv-seed", int, ("cv",))

    grid: tuple[tuple[int, int], ...] = _field(((1000, 500), (1000, 1000)), "bench.grid",
                                               "--grid", _parse_grid, ("bench",),
                                               help="comma-separated SAMPLESxFEATURES cells")
    repetitions: int = _field(3, "bench.repetitions", "--reps", _AT_LEAST_1,
                              ("bench",), help="repetitions per cell")
    bench_variants: tuple[str, ...] = _field(("ista_bb", "ista_reverse", "fista_lip"),
                                             "bench.variants", "--variants", _parse_variants,
                                             ("bench",),
                                             help="comma-separated solver variants")

    out_dir: str = _field("out", "output.dir", "--out", _checked(str, bool, "a nonempty path"),
                          help="output directory")
    trace_every: int = _field(1, "output.trace_every", "--trace-every", _AT_LEAST_1,
                              ("train",), help="thin the emitted trace to every Nth iteration")


def _read_config_file(path: str) -> dict[str, tuple[str, str]]:
    """Map each field the INI file sets to its raw value and "[section] key"."""
    by_key = {f.metadata["key"]: f.name for f in dataclasses.fields(RunConfig)}
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), interpolation=None)
    raw = {}
    try:
        if not cp.read(path):
            raise CliError(f"config file not found: {path}")
        for section in ([cp.default_section] if cp.defaults() else []) + cp.sections():
            if not any(key.startswith(section + ".") for key in by_key):
                raise CliError(f"unknown config section [{section}]")
            for option in cp.options(section):
                if f"{section}.{option}" not in by_key:
                    raise CliError(f"unknown config key [{section}] {option}")
                raw[by_key[f"{section}.{option}"]] = (cp.get(section, option).strip(),
                                                      f"[{section}] {option}")
    except configparser.Error as exc:
        raise CliError(" ".join(str(exc).split())) from None
    return raw


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values, overridden by the flags given, each parsed once."""
    raw = _read_config_file(args.config) if args.config else {}
    values = {}
    for f in dataclasses.fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            raw[f.name] = (getattr(args, f.name), f.metadata["flag"])
        if f.name in raw:
            text, where = raw[f.name]
            try:
                values[f.name] = f.metadata["parse"](text)
            except (CliError, ValueError) as exc:
                raise CliError(f"{where}: {exc}") from None
    cfg = RunConfig(**values)
    try:  # the penalty's own checks, at a placeholder weight, before any command runs
        _build_penalty(cfg, 1.0)
    except ValueError as exc:
        shape = "epsilon" if cfg.penalty == CAPPED_L1 else "theta"
        raise CliError(f"{raw[shape][1]}: {exc}") from None
    return cfg


# ---------------------------------------------------------------------------
# Shared assembly


def _load_dataset(cfg: RunConfig):
    if cfg.data_format == "synthetic":
        spec = SyntheticSpec(n_samples=cfg.synth_samples, n_features=cfg.synth_features,
                             n_nonzero=cfg.synth_nonzero, noise_scale=cfg.synth_noise,
                             seed=cfg.synth_seed)
        data, _ = generate_synthetic(spec)
        return Dataset(_with_intercept(data.features), data.labels) if cfg.add_intercept else data
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
    """The penalty at ``lam``; subcommands build it at lambda_max, then replace ``lam``."""
    shape = {} if cfg.theta is None else {"theta": cfg.theta}  # else Penalty's default
    if cfg.penalty == SCAD:
        return Penalty.scad(lam, **shape)
    if cfg.penalty == MCP:
        return Penalty.mcp(lam, **shape)
    if cfg.penalty == CAPPED_L1:
        return Penalty.capped_l1(lam, epsilon=cfg.epsilon)
    return Penalty.l1(lam)


def _build_options(cfg: RunConfig, variant: str | None = None) -> SolverOptions:
    return SolverOptions(variant=variant or cfg.variant, eta=cfg.eta, l0=cfg.l0,
                         max_iters=cfg.max_iters, tol=cfg.tol, seed=cfg.seed, beta0=cfg.beta0)


def _blas_threads() -> int | None:
    """The threads of numpy's bundled OpenBLAS (a numpy 2 or 1.x wheel's), else None."""
    libs = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            try:
                return getattr(ctypes.CDLL(lib), name)()
            except (OSError, AttributeError):
                pass
    return None


def _check_out(path: str) -> None:
    """Fail, making nothing, unless ``path`` or its nearest existing ancestor is a writable dir."""
    base = path
    while base and not os.path.lexists(base):
        base = os.path.dirname(base)
    base = base or os.curdir
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise CliError(f"output directory {path!r} is not writable: "
                       f"{base!r} is not a writable directory")


def _set_up(cfg: RunConfig, command: str):
    """``(data, lambda_max, job)`` of ``train``, ``path`` or ``cv``, every check done.

    The checks that need no fit: the data, lambda_max, the penalty, and last
    ``_check_out``; ``main`` makes ``--out`` once the command has solved.
    ``job`` is ``train``'s penalty at ``lambda_frac`` of lambda_max, or the
    ``PathSpec`` of ``path`` and ``cv``, whose template sits at lambda_max.
    """
    data = _load_dataset(cfg)
    lam_top = lambda_max(data)
    if command == "train":
        job = dataclasses.replace(_build_penalty(cfg, lam_top), lam=cfg.lambda_frac * lam_top)
    else:
        job = PathSpec(pen_template=_build_penalty(cfg, lam_top), opts=_build_options(cfg),
                       fractions=cfg.fractions, warm_start=cfg.warm_start)
    _check_out(cfg.out_dir)
    return data, lam_top, job


def _csv(header: str, rows) -> str:
    """A table: the ``header`` line, then one line per row of cell strings."""
    return header + "\n" + "".join(",".join(row) + "\n" for row in rows)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _coefficients_payload(beta: np.ndarray, lam: float, pen: Penalty, cfg: RunConfig) -> dict:
    """``pen`` is the penalty the fit used, at any lambda; a shape it lacks is null."""
    nz = {str(i): float(beta[i]) for i in np.flatnonzero(beta)}
    return {
        "d": int(beta.shape[0]),
        "lambda": lam,
        "penalty": {"kind": pen.kind, "theta": pen.theta if pen.kind in (SCAD, MCP) else None,
                    "epsilon": pen.epsilon if pen.kind == CAPPED_L1 else None},
        "variant": cfg.variant,
        "nonzeros": nz,
    }


# ---------------------------------------------------------------------------
# Subcommands: each returns its exit code and its artifacts, {file name: text}


def cmd_train(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    data, lam_top, pen = _set_up(cfg, "train")
    result = fit(data, pen, _build_options(cfg))

    trace, last = result.trace, len(result.trace) - 1
    return EXIT_OK if result.converged else EXIT_MAXITERS, {
        "coefficients.json": _json(_coefficients_payload(result.beta, pen.lam, pen, cfg)),
        "trace.csv": _csv(TRACE_HEADER, (
            [str(i + 1), _fmt(trace.objectives[i]), _fmt(trace.step_scales[i]),
             str(trace.backtracks[i]), str(trace.nonzeros[i]), _fmt(trace.times[i])]
            for i in range(len(trace)) if i % cfg.trace_every == 0 or i == last)),
        "summary.json": _json({
            "variant": cfg.variant,
            "penalty": cfg.penalty,
            "lambda": pen.lam,
            "lambda_frac": cfg.lambda_frac,
            "lambda_max": lam_top,
            "converged": result.converged,
            "iterations": result.n_iterations,
            "final_objective": result.final_objective,
            "nnz": result.nnz,
            "matvecs": result.matvecs,
            "feature_rows": result.feature_rows,
            "blas_threads": _blas_threads(),
            "time_s": result.seconds,
        }),
    }


def cmd_path(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    data, _, spec = _set_up(cfg, "path")
    points = run_path(data, spec)

    files = {"path.csv": _csv(
        "fraction,lambda,final_objective,iterations,nnz,time_s,matvecs,feature_rows", (
            [format(pt.fraction, "g"), _fmt(pt.lam), _fmt(pt.result.final_objective),
             str(pt.result.n_iterations), str(pt.result.nnz), _fmt(pt.result.seconds),
             str(pt.result.matvecs), str(pt.result.feature_rows)] for pt in points))}
    for pt in points:
        files[f"coefficients_{pt.fraction:g}.json"] = _json(
            _coefficients_payload(pt.result.beta, pt.lam, spec.pen_template, cfg))
    return EXIT_OK if all(pt.result.converged for pt in points) else EXIT_MAXITERS, files


def cmd_cv(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    data, _, spec = _set_up(cfg, "cv")
    cells = cross_validate(data, spec, k=cfg.folds, seed=cfg.cv_seed)

    accs = {frac: [c.accuracy for c in cells if c.fraction == frac and c.accuracy is not None]
            for frac in sorted(spec.fractions, reverse=True)}  # of the folds not skipped
    return EXIT_MAXITERS if any(c.converged is False for c in cells) else EXIT_OK, {
        "cv.csv": _csv("fraction,fold,accuracy,nnz,iterations,reason", (
            [format(c.fraction, "g"), str(c.fold), "" if c.accuracy is None else _fmt(c.accuracy),
             "" if c.nnz is None else str(c.nnz),
             "" if c.iterations is None else str(c.iterations), c.reason or ""]
            for c in sorted(cells, key=lambda c: (-c.fraction, c.fold)))),
        "cv_means.csv": _csv("fraction,mean_accuracy,folds_used", (
            [format(frac, "g"), _fmt(np.mean(a)) if a else "", str(len(a))]
            for frac, a in accs.items())),
    }


def cmd_bench(cfg: RunConfig) -> tuple[int, dict[str, str]]:
    _check_out(cfg.out_dir)
    rows = []
    converged = True
    for ci, (n, d) in enumerate(cfg.grid):
        data, _ = generate_synthetic(SyntheticSpec(n_samples=n, n_features=d,
                                                   n_nonzero=max(1, d // 10), seed=cfg.seed + ci))
        lam_top = lambda_max(data)
        pen = dataclasses.replace(_build_penalty(cfg, lam_top), lam=cfg.lambda_frac * lam_top)
        for variant in cfg.bench_variants:
            opts = _build_options(cfg, variant=variant)
            times, iters = [], []
            for _ in range(cfg.repetitions):
                # A fresh dataset, so every timed fit makes its own Lipschitz estimate.
                result = fit(Dataset(data.features, data.labels), pen, opts)
                times.append(result.seconds)
                iters.append(result.n_iterations)
                converged = converged and result.converged
            rows.append([variant, str(n), str(d),
                         _fmt(np.median(times)), format(np.median(iters), "g")])
    return EXIT_OK if converged else EXIT_MAXITERS, {
        "bench.csv": _csv("variant,n,d,median_time_s,median_iters", rows)}


_COMMANDS = {
    "train": (cmd_train, "fit once and emit coefficients + trace"),
    "path": (cmd_path, "solve a lambda path with warm starts"),
    "cv": (cmd_cv, "k-fold cross-validation over the path"),
    "bench": (cmd_bench, "timing grid on synthetic data"),
}


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with ``--config`` and its fields' flags.

    Flag values stay raw strings; ``_build_config`` parses them as it parses
    the INI values.  Flags are not abbreviated: ``bench --variant`` would
    otherwise pass for ``--variants``.
    """
    parser = argparse.ArgumentParser(
        prog="proxlogit",
        description="Proximal-gradient solvers for sparse logistic regression.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="INI config file; flags override it")
        for f in dataclasses.fields(RunConfig):
            m = f.metadata
            if m["flag"] is None or command not in m["commands"]:
                continue
            if m["switch"]:
                p.add_argument(m["flag"], dest=f.name, action="store_const", const="true",
                               help=m["help"])
            else:
                p.add_argument(m["flag"], dest=f.name, help=m["help"],
                               metavar=getattr(m["parse"], "metavar",
                                               m["flag"][2:].replace("-", "_").upper()))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; once it has returned, make ``--out`` and write its files."""
    args = build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        code, files = _COMMANDS[args.command][0](cfg)
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return code
    except (CliError, DataError, OSError, ValueError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
