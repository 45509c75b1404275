"""Wrappers that time and count calls into proxlogit's public functions.

The wrappers sit outside the package: nothing under ``src/`` knows about
them.  ``solver``, ``path`` and ``cli`` bind the functions they call by name
at import, so a wrapper replaces a function under every name that refers to
it in every loaded ``proxlogit`` module, and ``restore`` puts each original
back.

With spans on, every call records ``(layer, start, end, parent, group)`` in
memory; nothing is aggregated or written until the measured passes are over.
With spans off only ``fit`` is wrapped, to time each fit and keep its result.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from collections import Counter, defaultdict

ROOT_SPAN = "bench.pass"

# Lipschitz power-iteration products run inside ``lipschitz_constant`` and
# cannot be seen from outside, so ``logistic.matvecs`` leaves them out.
MATVECS_NOTE = ("logistic.matvecs counts the products of loss_value (1) and "
                "loss_gradient (2); power-iteration products inside "
                "lipschitz_constant are not visible from outside and are left out")


@dataclasses.dataclass
class FitRecord:
    """One call of ``solver.fit`` as seen from outside."""

    seconds: float
    objective: float
    nnz: int
    converged: bool
    iterations: int
    clock_s: float          # the solver's own clock, trace.times[-1]
    inputs: tuple | None    # (data, penalty, beta) while inputs are kept


def _after_loss(matvecs):
    def after(inst, args, kwargs, result, seconds):
        data = args[1] if len(args) > 1 else kwargs["data"]
        inst.counts["logistic.matvecs"] += matvecs
        inst.counts["logistic.matvec_bytes"] += matvecs * 8 * data.n_features * data.n_samples
    return after


def _after_prox(inst, args, kwargs, result, seconds):
    inst.counts["penalties.prox_coords"] += result.size


def _after_load_csv(inst, args, kwargs, result, seconds):
    inst.counts["data.bytes_parsed"] += os.path.getsize(args[0] if args else kwargs["path"])


def _after_run_path(inst, args, kwargs, result, seconds):
    inst.counts["path.points"] += len(result)


def _after_fit(inst, args, kwargs, result, seconds):
    trace = result.trace
    inputs = None
    if inst.keep_inputs:
        data = args[0] if args else kwargs["data"]
        pen = args[1] if len(args) > 1 else kwargs["pen"]
        inputs = (data, pen, result.beta)
    inst.fits.append(FitRecord(
        seconds=seconds, objective=result.final_objective, nnz=result.nnz,
        converged=result.converged, iterations=result.n_iterations,
        clock_s=trace.times[-1] if len(trace) else 0.0, inputs=inputs))


# (layer, defining module, function name, hook run after each call)
TARGETS = (
    ("logistic.lipschitz", "logistic", "lipschitz_constant", None),
    ("logistic.loss_value", "logistic", "loss_value", _after_loss(1)),
    ("logistic.loss_gradient", "logistic", "loss_gradient", _after_loss(2)),
    ("penalties.prox", "penalties", "prox_vector", _after_prox),
    ("penalties.value", "penalties", "penalty_value", None),
    ("solver", "solver", "fit", _after_fit),
    ("path", "path", "run_path", _after_run_path),
    ("path", "path", "cross_validate", None),
    ("path.lambda_max", "path", "lambda_max", None),
    ("data.dataset", "data", "Dataset", None),
    ("data.load_csv", "data", "load_csv", _after_load_csv),
    ("cli", "cli", "main", None),
)


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "proxlogit" or name.startswith("proxlogit."))]


class Instrument:
    """Installs the wrappers for one run and collects what they record."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list = []
        self.counts: Counter = Counter()
        self.fits: list[FitRecord] = []
        self.keep_inputs = False
        self.group = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        targets = TARGETS if self.spans_on else [t for t in TARGETS if t[0] == "solver"]
        modules = package_modules()
        for layer, module_name, attr, after in targets:
            original = getattr(sys.modules["proxlogit." + module_name], attr)
            wrapper = self._wrap(layer, original, after)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, layer, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        if not self.spans_on:
            def timed(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                seconds = clock() - start
                after(self, args, kwargs, result, seconds)
                return result
            timed.bench_original = fn
            return timed

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.group)
            if after is not None:
                after(self, args, kwargs, result, end - start)
            return result
        traced.bench_original = fn
        return traced

    def pass_span(self, body):
        """Run ``body()`` as one pass, under a root span when spans are on."""
        return self._wrap(ROOT_SPAN, body, None)() if self.spans_on else body()

    def take_fits(self) -> list[FitRecord]:
        fits, self.fits = self.fits, []
        return fits


def self_times(spans) -> tuple[dict, Counter, dict]:
    """Self time and span count per layer, and self time per group and layer.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because one thread makes every call.
    """
    child = [0.0] * len(spans)
    for layer, start, end, parent, group in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict = defaultdict(float)
    calls: Counter = Counter()
    by_group: dict = defaultdict(lambda: defaultdict(float))
    for (layer, start, end, parent, group), inner in zip(spans, child):
        own = end - start - inner
        total[layer] += own
        calls[layer] += 1
        if group:
            by_group[group][layer] += own
    return dict(total), calls, {g: dict(v) for g, v in by_group.items()}


def write_spans(spans, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,layer,start_s,end_s,parent,group\n")
        for i, (layer, start, end, parent, group) in enumerate(spans):
            fh.write(f"{i},{layer},{start!r},{end!r},{parent},{group}\n")
