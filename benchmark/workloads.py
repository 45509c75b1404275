"""The three benchmark workloads: inputs made from a seed, and one pass over them.

Each workload names one fixed base problem, drawn by ``generate_synthetic``
from its ``spec``, and the run seed permutes that problem's features (for
the CSV file also the position of the label column).  A permutation changes
the bytes the program receives but not the spectrum of the feature matrix or
the solutions, so every seed asks for the same work, and the stored
reference objectives hold for every seed up to rounding.  Independent draws
would not do: on independent draws of one size the power iteration behind
the Lipschitz estimate takes anywhere from 150 to 1000 iterations, which
swamps any change the benchmark should see.

An op is one ``fit`` in ``l1_path`` and ``nonconvex_cv`` and one
``cli.main`` call in ``csv_train``.  Every call goes through a module
attribute (``path.run_path``, ``cli.main``) so that the wrappers of
``instrument`` see it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
import time

import numpy as np

from proxlogit import cli, data, path, penalties, solver


@dataclasses.dataclass
class Op:
    """Outcome of one op: its time, final objective and nnz, and whether it
    raised no error and converged (exit code 0 for a CLI call)."""

    seconds: float
    objective: float
    nnz: int
    ok: bool


def _permuted(base: data.Dataset, seed: int) -> data.Dataset:
    perm = np.random.default_rng(seed).permutation(base.n_features)
    return data.Dataset(base.features[perm], base.labels)


def _fit_ops(inst) -> list[Op]:
    return [Op(f.seconds, f.objective, f.nnz, f.converged) for f in inst.fits]


class L1Path:
    """Warm-started l1 paths over DEFAULT_FRACTIONS with ``ista_bb`` and
    ``fista_lip``: 20 fits per pass on a d > n problem."""

    name = "l1_path"
    ops_per_pass = 20
    spec = data.SyntheticSpec(n_samples=400, n_features=1600, n_nonzero=160, seed=0)
    variants = ("ista_bb", "fista_lip")

    def prepare(self, base: data.Dataset, seed: int, work_dir: str):
        return _permuted(base, seed)

    def run(self, dataset, inst) -> list[Op]:
        for variant in self.variants:
            inst.group = variant
            spec = path.PathSpec(penalties.Penalty.l1(1.0), solver.SolverOptions(variant=variant))
            path.run_path(dataset, spec)
        inst.group = ""
        return _fit_ops(inst)


class NonconvexCv:
    """5-fold cross-validation over DEFAULT_FRACTIONS with MCP (theta 3,
    ``ista_reverse``) and SCAD (theta 3.7, ``ista_bb``): 100 fits per pass.

    The margin noise keeps every fit of the base problem convergent; without
    it the MCP point at 0.01 hits ``max_iters``.
    """

    name = "nonconvex_cv"
    ops_per_pass = 100
    spec = data.SyntheticSpec(n_samples=800, n_features=200, n_nonzero=20,
                              noise_scale=1.0, seed=0)
    runs = (
        ("mcp", penalties.Penalty.mcp(1.0, theta=3.0), "ista_reverse"),
        ("scad", penalties.Penalty.scad(1.0, theta=3.7), "ista_bb"),
    )
    folds = 5

    def prepare(self, base: data.Dataset, seed: int, work_dir: str):
        return _permuted(base, seed)

    def run(self, dataset, inst) -> list[Op]:
        for group, pen, variant in self.runs:
            inst.group = group
            spec = path.PathSpec(pen, solver.SolverOptions(variant=variant))
            path.cross_validate(dataset, spec, k=self.folds, seed=0)
        inst.group = ""
        return _fit_ops(inst)


class CsvTrain:
    """Four ``proxlogit train`` commands on one CSV file written in set-up.

    The file holds 1000 samples, so a pass takes about 1.3 s on a 2-core Xeon
    and the 100 ops the 90th percentile needs fit in one 30 s run.
    """

    name = "csv_train"
    ops_per_pass = 4
    spec = data.SyntheticSpec(n_samples=1000, n_features=250, n_nonzero=25,
                              noise_scale=0.5, seed=0)
    commands = (
        ("l1", "fista_lip", "0.02"),
        ("scad", "ista_bb", "0.05"),
        ("mcp", "ista_reverse", "0.05"),
        ("capped_l1", "ista_vanilla", "0.05"),
    )

    def prepare(self, base: data.Dataset, seed: int, work_dir: str):
        rng = np.random.default_rng(seed)
        table = base.features[rng.permutation(base.n_features)].T
        label_column = int(rng.integers(0, base.n_features + 1))
        table = np.insert(table, label_column, base.labels, axis=1)
        csv_path = os.path.join(work_dir, "train.csv")
        np.savetxt(csv_path, table, fmt="%.17g", delimiter=",")
        return csv_path, label_column, work_dir

    def run(self, inputs, inst) -> list[Op]:
        csv_path, label_column, work_dir = inputs
        ops = []
        for penalty, variant, frac in self.commands:
            inst.group = penalty
            out = tempfile.mkdtemp(prefix="train-", dir=work_dir)
            try:
                argv = ["train", "--data", csv_path, "--format", "csv",
                        "--label-column", str(label_column), "--penalty", penalty,
                        "--variant", variant, "--lambda-frac", frac, "--out", out]
                start = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - start
                op = self._outcome(code, seconds, out)
                inst.counts["cli.bytes_written"] += sum(
                    os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
            finally:
                shutil.rmtree(out)
            ops.append(op)
        inst.group = ""
        return ops

    @staticmethod
    def _outcome(code: int, seconds: float, out: str) -> Op:
        if code != cli.EXIT_OK:
            return Op(seconds, float("nan"), -1, False)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        return Op(seconds, summary["final_objective"], summary["nnz"], summary["converged"])


WORKLOADS = {w.name: w for w in (L1Path(), NonconvexCv(), CsvTrain())}
