"""proxlogit benchmark: one workload, one process, one closed loop.

    python3 benchmark/run.py --workload l1_path --seed 3 --seconds 30 --trace 0

A single caller runs passes of the workload back to back, each call waiting
for the previous one, for ``--seconds`` seconds (and at least until the
90th percentile of op times has ten samples beyond it).  BLAS threads are
pinned to 1 before numpy is imported; the benchmark starts no threads or
processes of its own.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
plain passes with traced ones and prints the per-layer metrics from the
traced passes; the difference between the two kinds of pass is reported as
the tracing overhead.  Every op is checked: it fails if it raises, does not
converge or exits non-zero, ends above the stored reference objective by
more than 1e-6 * max(1, |f_ref|), or differs bitwise in objective or nnz
from the same op in the run's first pass.

The last line of standard output is the result object; the line before it
is a report with the environment, sample counts and trace accounting.
``--write-reference`` instead runs one pass and stores its objectives as the
workload's reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

# Pinned before anything can import numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from instrument import MATVECS_NOTE, ROOT_SPAN, Instrument, self_times, write_spans  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".benchwork")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

SETUP_REPEATS = 5
MIN_OPS = 100           # p90 then has at least ten samples beyond it
HARD_CAP_S = 140.0      # stop measuring here even if MIN_OPS is not reached
REL_TOL = 1e-6          # ACCEPTANCE 9's cross-solver tolerance

# (metric, unit, layer whose self time or span count it reads, "s" | "calls")
LAYER_SPANS = (
    ("logistic.lipschitz_s", "s", "logistic.lipschitz", "s"),
    ("logistic.lipschitz_calls", "count", "logistic.lipschitz", "calls"),
    ("logistic.loss_value_s", "s", "logistic.loss_value", "s"),
    ("logistic.loss_value_calls", "count", "logistic.loss_value", "calls"),
    ("logistic.loss_gradient_s", "s", "logistic.loss_gradient", "s"),
    ("logistic.loss_gradient_calls", "count", "logistic.loss_gradient", "calls"),
    ("penalties.prox_s", "s", "penalties.prox", "s"),
    ("penalties.prox_calls", "count", "penalties.prox", "calls"),
    ("penalties.value_s", "s", "penalties.value", "s"),
    ("penalties.value_calls", "count", "penalties.value", "calls"),
    ("solver.self_s", "s", "solver", "s"),
    ("solver.fit_calls", "count", "solver", "calls"),
    ("path.self_s", "s", "path", "s"),
    ("path.lambda_max_s", "s", "path.lambda_max", "s"),
    ("data.dataset_s", "s", "data.dataset", "s"),
    ("data.dataset_calls", "count", "data.dataset", "calls"),
    ("data.load_csv_s", "s", "data.load_csv", "s"),
    ("cli.self_s", "s", "cli", "s"),
)
LAYER_COUNTS = (
    ("logistic.matvecs", "count"),
    ("logistic.matvec_bytes", "bytes_computed"),
    ("penalties.prox_coords", "count"),
    ("path.points", "count"),
    ("data.bytes_parsed", "bytes"),
    ("cli.bytes_written", "bytes"),
)


def _fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import numpy and proxlogit from this checkout's ``src``; returns seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "proxlogit", "__init__.py")):
        _fail(f"no proxlogit sources under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import proxlogit
    import proxlogit.cli  # noqa: F401
    seconds = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(proxlogit.__file__))) != SRC:
        _fail(f"proxlogit imported from {proxlogit.__file__}, not from {SRC}")
    return seconds


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Marks ops failed against the reference and the run's first pass."""

    def __init__(self, reference: list[float] | None):
        self.reference = reference
        self.first: list[tuple] | None = None
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def _bad(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def check_pass(self, ops, expected: int, error: str | None) -> None:
        self.attempted += expected
        if error is not None:
            self._bad("raised", expected)
            return
        if len(ops) != expected:
            self._bad(f"pass gave {len(ops)} ops, not {expected}", expected)
            return
        outputs = [(op.objective, op.nnz) for op in ops]
        if self.first is None:
            self.first = outputs
        for i, op in enumerate(ops):
            if not op.ok:
                self._bad("not converged or non-zero exit")
            elif self.reference is not None and not (
                    op.objective <= self.reference[i] + REL_TOL * max(1.0, abs(self.reference[i]))):
                self._bad("objective above reference")
            elif outputs[i] != self.first[i]:
                self._bad("differs from the first pass")


def run_pass(workload, inputs, inst):
    """One pass; returns (ops, wall seconds, error text or None)."""
    error = None
    start = time.perf_counter()
    try:
        ops = inst.pass_span(lambda: workload.run(inputs, inst))
    except Exception:  # a failing op must not end the run; it is counted failed
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        ops = []
    return ops, time.perf_counter() - start, error


def _quantiles(values):
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def measure(workload, inputs, seconds: float, trace: bool, checker: Checker):
    """Run passes until ``seconds`` have passed and enough ops are timed.

    Plain passes time ops with only ``fit`` wrapped.  With ``trace`` every
    other pass is traced instead.  Returns plain walls, op times, the traced
    instrument, traced walls, the traced fits and the inputs kept from the
    first traced pass.
    """
    plain = Instrument(spans=False)
    traced = Instrument(spans=True) if trace else None
    walls, op_times, traced_walls, traced_fits, kept = [], [], [], [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced_walls) < len(walls)
        inst = traced if use_trace else plain
        inst.keep_inputs = use_trace and not traced_walls
        with inst:
            ops, wall, error = run_pass(workload, inputs, inst)
        fits = inst.take_fits()
        if inst.keep_inputs:
            kept = [f.inputs for f in fits]
            inst.keep_inputs = False
        checker.check_pass(ops, workload.ops_per_pass, error)
        if use_trace:
            traced_walls.append(wall)
            traced_fits.extend(fits)
        else:
            walls.append(wall)
            op_times.extend(op.seconds for op in ops)
        elapsed = time.perf_counter() - start
        if trace:
            enough = bool(traced_walls)
        else:
            enough = len(walls) >= 2 and (len(op_times) >= MIN_OPS or checker.failed)
        if (elapsed >= seconds and enough) or elapsed >= HARD_CAP_S:
            return walls, op_times, traced, traced_walls, traced_fits, kept


def layer_metrics(traced, traced_walls, fits, kept, generate_s: float):
    """Per-layer metrics, per traced pass, and the trace accounting."""
    from quality import certificates

    passes = len(traced_walls)
    own, calls, by_group = self_times(traced.spans)
    metrics = {}
    for name, unit, layer, kind in LAYER_SPANS:
        value = own.get(layer, 0.0) if kind == "s" else calls.get(layer, 0)
        metrics[name] = (value / passes, unit)
    for name, unit in LAYER_COUNTS:
        metrics[name] = (traced.counts[name] / passes, unit)

    iterations = sum(f.iterations for f in fits)
    prox_calls = calls.get("penalties.prox", 0)
    matvecs = traced.counts["logistic.matvecs"]
    fit_seconds = sum(f.seconds for f in fits)
    metrics["solver.iterations"] = (iterations / passes, "count")
    metrics["solver.trials_per_iter"] = (prox_calls / iterations if iterations else 0.0, "ratio")
    metrics["solver.matvecs_per_iter"] = (matvecs / iterations if iterations else 0.0, "ratio")
    metrics["solver.accepted_per_prox"] = (iterations / prox_calls if prox_calls else 0.0, "ratio")
    metrics["solver.untimed_share"] = (
        1.0 - sum(f.clock_s for f in fits) / fit_seconds if fit_seconds else 0.0, "ratio")
    metrics["data.generate_s"] = (generate_s, "s")
    quality = certificates(kept)
    metrics["quality.l1_gap_max"] = (quality["quality.l1_gap_max"], "ratio")
    metrics["quality.residual_max"] = (quality["quality.residual_max"], "gradient_norm")

    traced_wall = sum(traced_walls)
    layers = {k: v for k, v in own.items() if k != ROOT_SPAN}
    remainder = traced_wall - sum(layers.values())
    report = {
        "traced_passes": passes,
        "traced_wall_s": traced_wall / passes,
        "layer_self_s": {k: v / passes for k, v in sorted(layers.items())},
        "remainder_s": remainder / passes,
        "remainder_share": remainder / traced_wall,
        "by_group_self_s": {g: {k: v / passes for k, v in sorted(d.items(), key=lambda kv: -kv[1])}
                            for g, d in by_group.items()},
        "spans": len(traced.spans),
        "quality_absent": quality["absent"],
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="run one pass and store its objectives as the reference")
    args = parser.parse_args(argv)

    import_s = _import_package()
    from proxlogit import data
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        generate_times, setup_times = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            base, _ = data.generate_synthetic(workload.spec)
            generated = time.perf_counter()
            inputs = workload.prepare(base, args.seed, work_dir)
            generate_times.append(generated - start)
            setup_times.append(time.perf_counter() - start)
        if args.write_reference:
            return _write_reference(workload, inputs)
        return _run(args, workload, inputs, import_s, setup_times, generate_times)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _load_reference(name: str):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)["workloads"].get(name)
    except FileNotFoundError:
        return None


def _write_reference(workload, inputs) -> int:
    checker = Checker(None)
    inst = Instrument(spans=False)
    with inst:
        ops, _, error = run_pass(workload, inputs, inst)
    checker.check_pass(ops, workload.ops_per_pass, error)
    if checker.failed:
        _fail(f"reference pass had {checker.failed} failed ops: {checker.reasons}")
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {"tolerance": f"an op fails above f_ref + {REL_TOL:g} * max(1, |f_ref|)",
                  "workloads": {}}
    stored["workloads"][workload.name] = [op.objective for op in ops]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(ops)} reference objectives for {workload.name}", file=sys.stderr)
    return 0


def _run(args, workload, inputs, import_s, setup_times, generate_times) -> int:
    reference = _load_reference(workload.name)
    checker = Checker(reference)
    walls, op_times, traced, traced_walls, traced_fits, kept = measure(
        workload, inputs, args.seconds, bool(args.trace), checker)

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one caller",
        "environment": environment(),
        "pass_walls_s": walls,
        "ops_timed": len(op_times),
        "setup_repeats": SETUP_REPEATS,
        "import_s": import_s,
        "reference": ("stored objectives of the base problem; they hold for every seed, "
                      "which only permutes features" if reference is not None
                      else "none stored for this workload: only the exception, "
                           "convergence and determinism checks apply"),
        "failures": checker.reasons,
    }
    if args.trace:
        plain_wall = statistics.median(walls)
        traced_wall = statistics.median(traced_walls)
        layer, accounting = layer_metrics(traced, traced_walls, traced_fits, kept,
                                          statistics.median(generate_times))
        report["trace_accounting"] = accounting
        spans_path = os.path.join(WORK_ROOT, f"spans-{workload.name}.csv")
        write_spans(traced.spans, spans_path)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
        report["tracing_overhead_s"] = traced_wall - plain_wall
        report["tracing_overhead_share"] = traced_wall / plain_wall - 1.0
        report["notes"] = [MATVECS_NOTE, "logistic.matvec_bytes is computed as 8*n*d per matvec"]
        metrics = layer
    else:
        p50, p90 = _quantiles(op_times if len(op_times) >= 2 else walls)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_s.p50": (p50, "s"),
            "op_s.p90": (p90, "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "success_ratio": (1.0 - checker.failed / checker.attempted, "ratio"),
        }
    print(json.dumps({"report": report}))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
