"""Proximal-gradient engine for sparse logistic regression.

Five solver variants share one machinery.  Each is a row of ``_POLICIES``:
the rule that finds the step scale L on a fit's first iteration, the rule of
every later iteration, and whether Nesterov momentum extrapolates the anchor.

    variant        first     later     momentum
    ista_bb        bb        bb        no
    ista_reverse   reverse   reverse   no
    fista_lip      reverse   carried   yes
    ista_vanilla   reverse   carried   no
    fista_vanilla  the fista_lip row

For every variant L0 is the Lipschitz constant of the loss gradient of the
full data, ``Dataset.lipschitz``, unless ``SolverOptions.l0`` fixes it, so
``fista_lip`` and ``fista_vanilla`` are one algorithm under two names.  The
reverse rule shrinks L from L0 by ``eta`` while candidates pass and keeps the
last passing one.  The other rules grow L by ``eta`` until the criterion
passes, forward from a seed: the Barzilai-Borwein quotient ("bb", L0
until the solve has two anchors) or the L the iteration before accepted
("carried").  A carried L never shrinks from iteration 1 on: FISTA with
backtracking keeps its O(1/k^2) bound from any first L > 0 under that rule
(Beck & Teboulle, 2009).  L0 bounds the curvature of every step, so forward
searches from it take shorter steps than the criterion allows; on the
benchmark's l1 path the first ladder ends at a quarter to a sixteenth of it.
Momentum does not keep descent monotone under the nonconvex penalties, so
its variants take the l1 penalty only.

Two line-search criteria are used.  For the convex l1 penalty a candidate is
accepted when its objective is at most the quadratic upper model around the
anchor; for the nonconvex penalties the sufficient-decrease test
f(candidate) <= f(anchor) - (L/2) ||candidate - anchor||^2 is used, which
directly enforces monotone descent.

Each iteration binds one trial: ``_try_candidate`` with the anchor's point,
loss, objective and gradient, the data, the penalty, the criterion and the
fit's ``Products`` holder, as one ``functools.partial``.  A search calls it
with a scale L, or a column of scales, and gets back the verdict and the
outcome, so the searches know nothing of the anchor.  Two module constants
bound them, read each time a search runs: a forward search makes at most
``_MAX_BACKTRACKS`` trials past its first before it raises
``LineSearchError``, and a reverse search tries at most ``_MAX_EXPANSIONS``
scales L0 / eta**i.

The margins z = X' beta are carried with the iterate.  Each line-search trial
computes its candidate's margins with one product, and the accepted
candidate's margins give the next gradient X (sigmoid(z) - y) for one more
product.  FISTA's extrapolated point w = c + m (c - c_prev) gets its margins
by linearity, z_w = z_c + m (z_c - z_prev), at no product.  The reverse
search evaluates its ladder of scales L0, L0/eta, ... in blocks of
``_BLOCK`` = 6 candidates, each with one prox over a (6, d) block, one
(6, d) by (d, n) product and one loss: per-call overhead dominates
one-candidate kernels at the sizes of a typical fit.  A block product rounds
differently from a one-row product, so iterates differ from a one-at-a-time
scan by rounding.  Every fit reports the objective of the coefficients it
returns as the loss plus penalty from one full product.

One rule, read off the start vector, decides where a fit iterates.  An l1
fit whose start has nnz > 0 nonzeros and for which
``max(_WS_MIN, _WS_GROWTH nnz)`` < d, as a path point warm-started from a
sparse solution, solves on a working set of features instead of the full
data (Celer, Massias, Gramfort & Salmon, ICML 2018; skglm, Bertrand et al.,
NeurIPS 2022).  It takes one full gradient at the start, runs the iteration
above on ``Dataset(X[ws], y)`` for the set ws made of the start's support and
the features of largest |gradient|, then checks the l1 optimality condition
|g_j| <= lam (1 + ``_WS_SLACK``) on the full data and adds up to |ws| of the
worst violators, until no feature outside the set violates it.  The fit
converges only when its last solve converged with no violator left, and all
of its solves share ``max_iters``.  Near a warm start the solution's support
is small and mostly known, so the products shrink from d rows to |ws|.  Every
set reads the full data's L0, which bounds its own, and the sets' iterations
are one fit's, so a carried L goes on from where the set before ended.  A
start with an empty support has none to begin from, and a working set there
holds FISTA's early iterates above its O(1/k^2) bound; a set as large as the
data saves nothing.  So every other fit iterates on the full data: cold, zero-vector,
random and dense starts, and every fit under a nonconvex penalty.  The
nonconvex zero-coordinate check would be |g_j| <= lam too, as g'(0+) = lam
for SCAD, MCP and capped l1, but no benchmark workload has the wide
nonconvex data where a working set would pay.

Each fit passes its own ``logistic.Products`` holder to every product it
makes, which counts the products and the rows they read by the rule stated
there.  The fit clock starts on entry to ``fit``, so ``Trace.times`` and
``FitResult.seconds`` include the Lipschitz estimate and the other set-up.

A fit is single-threaded and deterministic for a fixed seed, apart from wall
clock readings; concurrent fits may share one immutable dataset.  Dense
matrix-vector products inherit whatever BLAS threading is configured, which
is bitwise-deterministic for a fixed thread count (record it with the run).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .logistic import Products, gradient_from_margins, loss_from_margins, margins
from .penalties import L1, Penalty, penalty_value, prox_vector

__all__ = [
    "FitResult",
    "LineSearchError",
    "SolverOptions",
    "Trace",
    "VARIANTS",
    "fit",
]


class _Policy(NamedTuple):
    """One variant: the search rules of a fit's first and later iterations, and momentum.

    A rule is "reverse" (the reverse search from L0) or the forward search
    from the "bb" seed (L0 until the solve has two anchors) or from the
    "carried" L the iteration before accepted.
    """

    first: str
    later: str
    momentum: bool   # Nesterov extrapolation; l1 only


_FISTA = _Policy("reverse", "carried", momentum=True)
_POLICIES = {
    "ista_bb": _Policy("bb", "bb", momentum=False),
    "ista_reverse": _Policy("reverse", "reverse", momentum=False),
    "fista_lip": _FISTA,
    "ista_vanilla": _Policy("reverse", "carried", momentum=False),
    "fista_vanilla": _FISTA,  # the same algorithm under its classic name
}
VARIANTS = tuple(_POLICIES)

# The BB seed is clamped to this window around L0.
_BB_CLAMP = 1e12

# Line-search budgets, read when a search runs: a forward search makes at
# most _MAX_BACKTRACKS trials past its first, a reverse search tries at most
# _MAX_EXPANSIONS scales L0 / eta**i, _BLOCK at a time.
_MAX_BACKTRACKS = 100
_MAX_EXPANSIONS = 60
_BLOCK = 6

# The working-set rule of the module docstring.
_WS_MIN = 10
_WS_GROWTH = 2
_WS_SLACK = 1e-9


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without satisfying the criterion."""

    def __init__(self, message: str, last_L: float):
        super().__init__(message)
        self.last_L = last_L


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Configuration for a single fit.

    ``l0`` is L0, the top of the first ladder: of every ``ista_reverse``
    iteration and of a carried scale's first, and ``ista_bb``'s first seed
    and clamp centre.  ``None`` reads the full data's Lipschitz constant of
    the loss gradient, a positive number fixes it.  ``beta0`` is
    ``"zeros"``, ``"random"`` (normal with variance 1/d, drawn from ``seed``),
    or an explicit finite start vector of length d.  The run stops when the
    relative objective change drops to ``tol`` or after ``max_iters``
    iterations.
    """

    variant: str = "ista_bb"
    eta: float = 2.0
    l0: float | None = None
    max_iters: int = 10_000
    tol: float = 1e-9
    seed: int = 0
    beta0: str | np.ndarray = "zeros"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not 1 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and exceed 1, got {self.eta}")
        if self.l0 is not None and not 0 < self.l0 < math.inf:
            raise ValueError(f"l0 must be finite and positive, got {self.l0}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {self.tol}")
        if isinstance(self.beta0, str):
            if self.beta0 not in ("zeros", "random"):
                raise ValueError(
                    f"beta0 must be 'zeros', 'random', or a vector, got {self.beta0!r}")
        elif not np.all(np.isfinite(self.beta0)):
            raise ValueError("beta0 must be a finite vector")


class Trace:
    """Per-iteration solver records plus the starting objective.

    Iteration k = 1, 2, ... appends the objective f(beta_k), the accepted step
    scale L_k, the number of extra line-search trials beyond the first, the
    nonzero count, the squared step length ||beta_k - beta_{k-1}||^2 used by
    stationarity checks, and the ``time.perf_counter()`` seconds since
    ``start`` (``fit``'s entry, so set-up counts; excluded from
    reproducibility guarantees).
    """

    def __init__(self, f0: float, start: float):
        self.f0 = float(f0)
        self.start = start
        self.objectives: list[float] = []
        self.step_scales: list[float] = []
        self.backtracks: list[int] = []
        self.nonzeros: list[int] = []
        self.times: list[float] = []
        self.step_sqs: list[float] = []

    def append(self, f: float, L: float, backtracks: int, nnz: int, step_sq: float) -> None:
        if not np.isfinite(f):
            raise FloatingPointError(f"non-finite objective {f} at iteration {len(self) + 1}")
        if not L > 0:
            raise FloatingPointError(f"nonpositive step scale {L} at iteration {len(self) + 1}")
        self.objectives.append(float(f))
        self.step_scales.append(float(L))
        self.backtracks.append(int(backtracks))
        self.nonzeros.append(int(nnz))
        self.times.append(time.perf_counter() - self.start)
        self.step_sqs.append(float(step_sq))

    def __len__(self) -> int:
        return len(self.objectives)


@dataclasses.dataclass
class FitResult:
    """Outcome of one fit.

    ``seconds`` is the wall time from entry to return of ``fit``: set-up,
    iterations and the final objective.  ``matvecs`` is the number of products
    with the feature matrix (X' b or X r) the fit made, Lipschitz estimate
    excluded, and ``feature_rows`` the number of feature rows they read; both
    are counted by the rule of ``logistic.Products``.  Per iteration a fit
    makes one gradient product and one margin product per evaluated
    candidate, each row of a reverse-search block included, so a carried
    scale's first iteration counts its ladder rows; it also makes one for
    the starting point and one for ``final_objective``, the loss plus penalty
    of ``beta`` from one full product.  A fit on a working set (the rule of
    the module docstring) makes its iterations' products on the set's rows,
    plus one full gradient at the start and one per check.  ``nnz`` counts
    the exact nonzeros of ``beta``.
    """

    beta: np.ndarray
    converged: bool
    trace: Trace
    final_objective: float
    matvecs: int
    feature_rows: int
    seconds: float

    @property
    def n_iterations(self) -> int:
        return len(self.trace)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.beta))


def _bb_seed(delta, v, L0: float) -> float:
    """Barzilai-Borwein seed <delta, v> / <delta, delta> for the step scale.

    ``delta`` is the difference of successive anchors, ``v`` the difference
    of their gradients.  The quotient is clamped to [L0 / _BB_CLAMP,
    L0 * _BB_CLAMP]; it is ``L0`` when not a positive finite number (possible
    under nonconvex curvature or a zero step).
    """
    den = float(delta @ delta)
    if den > 0.0:
        quot = float(delta @ v) / den
        if quot > 0.0 and math.isfinite(quot):
            return min(max(quot, L0 / _BB_CLAMP), L0 * _BB_CLAMP)
    return L0


class _SearchOutcome(NamedTuple):
    L: float
    candidate: np.ndarray
    margins: np.ndarray  # X' candidate, which the next gradient reuses
    trials: int          # criterion tests beyond the first
    loss: float
    objective: float
    step_sq: float

    def row(self, i: int) -> _SearchOutcome:
        """The one-candidate outcome of row i of a block outcome.

        The candidate is copied out of the block, so a fit's coefficients do
        not keep the whole block alive.
        """
        return _SearchOutcome(float(self.L[i]), self.candidate[i].copy(), self.margins[i],
                              self.trials, float(self.loss[i]),
                              float(self.objective[i]), float(self.step_sq[i]))


def _try_candidate(anchor, l_anchor, f_anchor, grad_anchor, data, pen, L,
                   sufficient_decrease: bool, holder=None):
    """Evaluate the proximal candidate at scale L with one product X' candidate.

    ``L`` is a float, or a (K, 1) column of scales for a block of K
    candidates, evaluated with one prox, one product and one loss over the
    block; ``ok`` and the outcome's fields other than ``trials`` then hold
    one entry per row (see ``_SearchOutcome.row``).  ``f_anchor`` is read
    only by the sufficient-decrease criterion; ``holder`` is the caller's
    ``Products`` holder, if any.  The outcome counts as the first trial;
    searches set ``trials``.  The kernels are looked up as module globals on
    every call, so a caller may swap them to count or time their work.
    """
    cand = prox_vector(anchor - grad_anchor / L, pen, L)
    z_cand = margins(cand, data, holder)
    l_cand = loss_from_margins(z_cand, data)
    pen_cand = penalty_value(cand, pen)
    f_cand = l_cand + pen_cand
    diff = cand - anchor
    if diff.ndim == 1:
        step_sq = float(diff @ diff)
    else:
        L = L[:, 0]
        step_sq = np.einsum("ij,ij->i", diff, diff)
    if sufficient_decrease:
        ok = f_cand <= f_anchor - 0.5 * L * step_sq
    else:
        model = l_anchor + diff @ grad_anchor + 0.5 * L * step_sq + pen_cand
        ok = f_cand <= model
    # A zero step is a fixed point of the prox-gradient map and meets either
    # criterion with equality; only rounding of the anchor's loss (a FISTA
    # anchor's margins come by linearity) could fail it.
    ok = ok | (step_sq == 0.0)
    return ok, _SearchOutcome(L, cand, z_cand, 0, l_cand, f_cand, step_sq)


def _forward_search(trial, L_start, eta, tried: int = 0) -> _SearchOutcome:
    """Grow L from ``L_start`` by ``eta`` until ``trial`` passes.

    ``tried`` counts the trials already made on this anchor; they count
    toward ``_MAX_BACKTRACKS`` and the outcome's ``trials``.
    """
    L = float(L_start)
    for i in range(tried, _MAX_BACKTRACKS + 1):
        ok, out = trial(L)
        if ok:
            return out._replace(trials=i)
        L *= eta
    raise LineSearchError(
        f"line search failed after {_MAX_BACKTRACKS} backtracks (last L = {L / eta:g})",
        last_L=L / eta)


def _reverse_search(trial, L0, eta, convex: bool = False) -> _SearchOutcome:
    """Shrink L from ``L0`` by ``eta`` while ``trial`` passes; keep the last passing scale.

    The ladder L0 / eta**i, i < ``_MAX_EXPANSIONS``, is evaluated in blocks
    of ``_BLOCK`` scales.  The search accepts the scale before the first
    failing one, as a scan one scale at a time would, or the last scale when
    none fails; the rows of a block past the first failure are evaluated too.
    ``trials`` is the index of the accepted scale.  Under a ``convex``
    penalty an anchor fixed at one scale is fixed at every scale, so a block
    of zero steps ends the ladder at its last row.
    """
    cap = _MAX_EXPANSIONS
    for start in range(0, cap, _BLOCK):
        scales = np.array([L0 / eta ** i for i in range(start, min(start + _BLOCK, cap))])
        ok, block = trial(scales[:, np.newaxis])
        failed = np.flatnonzero(~ok)
        if start == 0 and failed.size and failed[0] == 0:
            # The base step already violates (possible under sufficient
            # decrease); grow forward from the rejected L0 instead.
            return _forward_search(trial, L0 * eta, eta, tried=1)
        passed = failed[0] if failed.size else scales.size
        if passed:
            accepted = block.row(passed - 1)._replace(trials=start + passed - 1)
        if failed.size or (convex and not block.step_sq.any()):
            break
    return accepted


def _fista_t_next(t: float) -> float:
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def _extrapolate(cand, z_cand, prev, z_prev, m: float):
    """FISTA point w = cand + m (cand - prev) and its margins X' w.

    The margins follow by linearity from those of ``cand`` and ``prev``,
    so they cost no product; they differ from a fresh X' w by rounding only.
    """
    return cand + m * (cand - prev), z_cand + m * (z_cand - z_prev)


def _initial_beta(opts: SolverOptions, d: int) -> np.ndarray:
    if isinstance(opts.beta0, str):
        if opts.beta0 == "zeros":
            return np.zeros(d)
        rng = np.random.default_rng(opts.seed)
        return rng.normal(0.0, 1.0 / math.sqrt(d), size=d)
    beta0 = np.array(opts.beta0, dtype=np.float64)
    if beta0.shape != (d,):
        raise ValueError(f"beta0 has shape {beta0.shape}, expected ({d},)")
    return beta0


def _descend(data: Dataset, beta, z_beta, pen: Penalty, opts: SolverOptions, L0: float,
             holder: Products, trace: Trace):
    """Iterate from ``beta``, whose margins on ``data`` are ``z_beta``, until the stop.

    Appends every iteration to ``trace`` and stops at the relative-change
    test (converged) or once ``trace`` holds ``opts.max_iters`` iterations.
    An iteration takes the policy's first rule while ``trace`` is empty and
    its later rule after, so a working set's later solves go on from the
    trace.  Returns the last iterate, its margins and whether it converged.
    """
    policy = _POLICIES[opts.variant]
    sufficient = pen.kind != L1
    l_prev = loss_from_margins(z_beta, data)
    f_prev = l_prev + penalty_value(beta, pen)
    converged = False

    bb_prev: tuple[np.ndarray, np.ndarray] | None = None  # previous (anchor, gradient)
    w, z_w = beta, z_beta  # the momentum anchor and its margins
    t_momentum = 1.0

    while len(trace) < opts.max_iters:
        if policy.momentum:
            # The convex criterion never reads f_anchor, so w's penalty is skipped.
            anchor, z_anchor, l_anchor, f_anchor = w, z_w, loss_from_margins(z_w, data), None
        else:
            anchor, z_anchor, l_anchor, f_anchor = beta, z_beta, l_prev, f_prev
        grad = gradient_from_margins(z_anchor, data, holder)
        rule = policy.later if len(trace) else policy.first
        if rule == "carried":
            L_seed = trace.step_scales[-1]
        elif rule == "bb" and bb_prev is not None:
            L_seed = _bb_seed(anchor - bb_prev[0], grad - bb_prev[1], L0)
        else:
            L_seed = L0
        bb_prev = (anchor, grad)
        trial = functools.partial(_try_candidate, anchor, l_anchor, f_anchor, grad, data, pen,
                                  sufficient_decrease=sufficient, holder=holder)
        if rule == "reverse":
            out = _reverse_search(trial, L_seed, opts.eta, convex=not sufficient)
        else:
            out = _forward_search(trial, L_seed, opts.eta)
        if policy.momentum:
            diff = out.candidate - beta
            t_next = _fista_t_next(t_momentum)
            w, z_w = _extrapolate(out.candidate, out.margins, beta, z_beta,
                                  (t_momentum - 1.0) / t_next)
            t_momentum = t_next
            out = out._replace(step_sq=float(diff @ diff))

        beta, z_beta = out.candidate, out.margins
        trace.append(out.objective, out.L, out.trials, np.count_nonzero(beta), out.step_sq)
        if abs(f_prev - out.objective) <= opts.tol * max(1.0, abs(out.objective)):
            converged = True
        l_prev, f_prev = out.loss, out.objective
        if converged:
            break
    return beta, z_beta, converged


def _working_set(data: Dataset, beta, z_beta, lam: float, size: int, holder: Products,
                 descend):
    """Solve an l1 fit from ``beta`` on a growing working set of features.

    The set starts with ``size`` < d features and grows by the rule of the
    module docstring; ``descend`` solves on ``Dataset(X[ws], y)``.  Returns
    the coefficients and whether the last solve converged with no violator.
    """
    X, y, d = data.features, data.labels, data.n_features
    priority = np.abs(gradient_from_margins(z_beta, data, holder))
    priority[beta != 0.0] = np.inf
    ws = np.sort(np.argpartition(-priority, size - 1)[:size])
    while True:
        sub_beta, z_beta, converged = descend(Dataset(X[ws], y), beta[ws], z_beta)
        beta = np.zeros(d)
        beta[ws] = sub_beta
        if not converged:
            return beta, False
        excess = np.abs(gradient_from_margins(z_beta, data, holder)) - lam * (1.0 + _WS_SLACK)
        excess[ws] = 0.0
        violators = np.flatnonzero(excess > 0.0)
        if not violators.size:
            return beta, True
        if violators.size > ws.size:
            violators = violators[np.argpartition(-excess[violators], ws.size - 1)[:ws.size]]
        ws = np.union1d(ws, violators)


def fit(data: Dataset, pen: Penalty, opts: SolverOptions | None = None) -> FitResult:
    """Run the selected solver variant and return the fitted coefficients.

    The l1 penalty uses the quadratic-upper-model line-search criterion, the
    nonconvex penalties the sufficient-decrease criterion.  Stops when the
    relative objective change falls to ``opts.tol`` (converged) or at
    ``opts.max_iters`` (not converged); the trace records every iteration.
    Raises ``LineSearchError`` when a line search runs out of its budget.

    Where the fit iterates, on a working set or on the full data, follows
    from its start vector by the rule of the module docstring.

    The fit reads ``data.lipschitz`` for L0 only when ``opts.l0`` is unset.
    ``Dataset`` keeps the estimate, so all fits on one dataset, every point
    of a path included, make at most one; every working set reads the full
    data's, and nothing else is estimated.
    """
    start = time.perf_counter()
    opts = opts if opts is not None else SolverOptions()
    if _POLICIES[opts.variant].momentum and pen.kind != L1:
        raise ValueError(f"variant {opts.variant!r} supports only the l1 penalty")
    L0 = data.lipschitz if opts.l0 is None else float(opts.l0)
    if L0 == 0.0:
        raise ValueError("initial step scale is zero (zero feature matrix)")

    beta = _initial_beta(opts, data.n_features)
    holder = Products()  # this fit's product counts; dropped on return
    z_beta = margins(beta, data, holder)
    trace = Trace(loss_from_margins(z_beta, data) + penalty_value(beta, pen), start)

    descend = functools.partial(_descend, pen=pen, opts=opts, L0=L0, holder=holder, trace=trace)
    nnz = np.count_nonzero(beta)
    size = max(_WS_MIN, _WS_GROWTH * nnz)
    if pen.kind == L1 and nnz and size < data.n_features:
        beta, converged = _working_set(data, beta, z_beta, pen.lam, size, holder, descend)
    else:
        beta, _, converged = descend(data, beta, z_beta)
    # Block products and working sets round differently from one full
    # product: report beta's loss plus penalty from one full product.
    final = loss_from_margins(margins(beta, data, holder), data) + penalty_value(beta, pen)
    return FitResult(beta=beta, converged=converged, trace=trace, final_objective=final,
                     matvecs=holder.products, feature_rows=holder.read,
                     seconds=time.perf_counter() - start)
