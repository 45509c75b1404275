"""Proximal-gradient engine for sparse logistic regression.

Five solver variants share one machinery.  Each is a row of ``_POLICIES``:
where each iteration's search for the step scale L starts (its seed), which
search runs, and whether Nesterov momentum extrapolates the anchor.

    variant        seed                             search    momentum
    ista_bb        Barzilai-Borwein (L0 at first)   forward   no
    ista_reverse   L0 every iteration               reverse   no
    fista_lip      carried L                        forward   yes
    ista_vanilla   carried L                        forward   no
    fista_vanilla  the fista_lip row

For every variant L0 is the Lipschitz constant of the loss gradient unless
``SolverOptions.l0`` fixes it, so ``fista_lip`` and ``fista_vanilla`` are one
algorithm under two names.  A forward search grows L from its seed by ``eta``
until the criterion passes, so a carried L never shrinks; the reverse search
shrinks L from L0 while candidates pass and keeps the last passing one.
Momentum does not keep descent monotone under the nonconvex penalties, so its
variants take the l1 penalty only.

Two line-search criteria are used.  For the convex l1 penalty a candidate is
accepted when its objective is at most the quadratic upper model around the
anchor; for the nonconvex penalties the sufficient-decrease test
f(candidate) <= f(anchor) - (L/2) ||candidate - anchor||^2 is used, which
directly enforces monotone descent.

The margins z = X' beta are carried with the iterate.  Each line-search trial
computes its candidate's margins with one product, and the accepted
candidate's margins give the next gradient X (sigmoid(z) - y) for one more
product.  FISTA's extrapolated point w = c + m (c - c_prev) gets its margins
by linearity, z_w = z_c + m (z_c - z_prev), at no product.  A fit therefore
makes one product for the starting point plus, per iteration, one for the
gradient and one per evaluated candidate; ``FitResult.matvecs`` reports the
total, leaving out the products of the Lipschitz estimate.  The reverse
search evaluates its ladder of scales L0, L0/eta, ... in blocks of
``_BLOCK`` = 6 candidates, each with one prox over a (6, d) block, one
(6, d) by (d, n) product and one loss: per-call overhead dominates
one-candidate kernels at the sizes of a typical fit.  Each row of a block
counts as one evaluated candidate.  A block product rounds differently from
a one-row product, so iterates differ from a one-at-a-time scan by rounding,
and a reverse fit recomputes the objective of the coefficients it returns
with one-row kernels, for one more product.  A margin product
of a point with at most a quarter of its coefficients nonzero reads only the
feature rows of its support (see ``logistic.margins``).  Each fit keeps the
last gathered rows in its own ``SupportRows`` holder and reuses them while
the support stays the same, which it often does from one trial to the next.
An l1 fit also screens its gradient products with its own
``GradientScreen``: a product reads only the rows whose coordinates can
become nonzero in the next soft-threshold step, as a sphere test around the
last full product proves, and the other coordinates, which every candidate
leaves at zero, keep their values from that product.  The nonconvex
penalties always read every row, because their prox zero region is not
|u| <= lam/L.  A gathered or screened product still counts as one matvec;
``FitResult.feature_rows`` counts the rows the products read.  The fit clock
starts on entry to ``fit``, so ``Trace.times`` includes the Lipschitz
estimate and the other set-up.

A fit is single-threaded and deterministic for a fixed seed, apart from wall
clock readings; concurrent fits may share one immutable dataset.  Dense
matrix-vector products inherit whatever BLAS threading is configured, which
is bitwise-deterministic for a fixed thread count (record it with the run).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import NamedTuple, TYPE_CHECKING

import numpy as np

from .logistic import (GradientScreen, SupportRows, gradient_from_margins,
                       lipschitz_constant, loss_from_margins, loss_value, margins)
from .penalties import L1, Penalty, penalty_value, prox_vector

if TYPE_CHECKING:
    from .data import Dataset

__all__ = [
    "FitResult",
    "LineSearchError",
    "NNZ_TOL",
    "SolverOptions",
    "Trace",
    "VARIANTS",
    "bb_stepsize",
    "fit",
    "nonzero_count",
    "objective",
]


class _Policy(NamedTuple):
    """One variant: where each iteration's search starts, which search, and momentum."""

    seed: str        # "L0" every iteration, "bb" (L0 on the first), or "carried" L
    reverse: bool    # reverse search from the seed, else forward
    momentum: bool   # Nesterov extrapolation; l1 only


_FISTA = _Policy("carried", reverse=False, momentum=True)
_POLICIES = {
    "ista_bb": _Policy("bb", reverse=False, momentum=False),
    "ista_reverse": _Policy("L0", reverse=True, momentum=False),
    "fista_lip": _FISTA,
    "ista_vanilla": _Policy("carried", reverse=False, momentum=False),
    "fista_vanilla": _FISTA,  # the same algorithm under its classic name
}
VARIANTS = tuple(_POLICIES)

# Entries at or below this magnitude count as zero when reporting sparsity;
# the proximal maps produce exact zeros, the threshold only guards float dust
# carried in by warm starts.
NNZ_TOL = 1e-10

# The BB seed is clamped to this window around the Lipschitz constant.
_BB_CLAMP = 1e12


def nonzero_count(beta) -> int:
    return int(np.count_nonzero(np.abs(np.asarray(beta)) > NNZ_TOL))


class LineSearchError(RuntimeError):
    """Backtracking exhausted its budget without satisfying the criterion."""

    def __init__(self, message: str, last_L: float):
        super().__init__(message)
        self.last_L = last_L


@dataclasses.dataclass(frozen=True)
class SolverOptions:
    """Configuration for a single fit.

    ``l0`` is the initial step scale; ``None`` derives it from the Lipschitz
    constant of the loss gradient, a positive number fixes it.  ``beta0`` is
    ``"zeros"``, ``"random"`` (normal with variance 1/d, drawn from ``seed``),
    or an explicit start vector.  The run stops when the relative objective
    change drops to ``tol`` or after ``max_iters`` iterations.
    """

    variant: str = "ista_bb"
    eta: float = 2.0
    l0: float | None = None
    max_iters: int = 10_000
    tol: float = 1e-9
    max_backtracks: int = 100
    max_expansions: int = 60
    seed: int = 0
    beta0: str | np.ndarray = "zeros"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if not self.eta > 1:
            raise ValueError(f"eta must exceed 1, got {self.eta}")
        if self.l0 is not None and not self.l0 > 0:
            raise ValueError(f"l0 must be positive, got {self.l0}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be at least 1")
        if self.max_expansions < 1:
            raise ValueError("max_expansions must be at least 1")
        if isinstance(self.beta0, str) and self.beta0 not in ("zeros", "random"):
            raise ValueError(f"beta0 must be 'zeros', 'random', or a vector, got {self.beta0!r}")


class Trace:
    """Per-iteration solver records plus the starting objective.

    Each completed iteration k appends the objective f(beta_k), the accepted
    step scale L_k, the number of extra line-search trials beyond the first,
    the nonzero count, the cumulative wall time since ``fit`` was entered,
    set-up included (monotonic clock; excluded from reproducibility
    guarantees), and the squared step length
    ||beta_k - beta_{k-1}||^2 used by stationarity checks.
    """

    def __init__(self, f0: float):
        self.f0 = float(f0)
        self.iterations: list[int] = []
        self.objectives: list[float] = []
        self.step_scales: list[float] = []
        self.backtracks: list[int] = []
        self.nonzeros: list[int] = []
        self.times: list[float] = []
        self.step_sqs: list[float] = []

    def append(self, k: int, f: float, L: float, backtracks: int, nnz: int,
               elapsed: float, step_sq: float) -> None:
        if not np.isfinite(f):
            raise FloatingPointError(f"non-finite objective {f} at iteration {k}")
        if not L > 0:
            raise FloatingPointError(f"nonpositive step scale {L} at iteration {k}")
        self.iterations.append(k)
        self.objectives.append(float(f))
        self.step_scales.append(float(L))
        self.backtracks.append(int(backtracks))
        self.nonzeros.append(int(nnz))
        self.times.append(float(elapsed))
        self.step_sqs.append(float(step_sq))

    def __len__(self) -> int:
        return len(self.iterations)


@dataclasses.dataclass
class FitResult:
    """Outcome of one fit.

    ``lipschitz`` is the loss-gradient Lipschitz constant the fit computed or
    was given, or ``None`` when it neither needed nor received one; pass it
    as ``fit(..., lipschitz=)`` to a later fit on the same features to skip
    the estimate.  ``matvecs`` is the number of products with the feature
    matrix (X' b or X r) the fit made, Lipschitz estimate excluded: 1 for the
    starting point plus, per iteration, 1 for the gradient and 1 per
    evaluated candidate.  An ``ista_reverse`` search evaluates blocks of 6
    candidates, each row counting as one, and a reverse fit of at least one
    iteration adds 1 for recomputing ``final_objective`` with one-row
    kernels.  A margin product that reads only the rows of a
    sparse point's support counts as one too, and so does an l1 gradient
    product that reads only the rows its screen keeps.  ``feature_rows`` is
    the number of feature rows those products read, a machine-independent
    measure of their cost: d per full product, |s| per margin product
    gathered on a support s and k per gradient product screened to k rows.
    """

    beta: np.ndarray
    converged: bool
    trace: Trace
    final_objective: float
    matvecs: int
    feature_rows: int
    lipschitz: float | None = None

    @property
    def n_iterations(self) -> int:
        return len(self.trace)

    @property
    def nnz(self) -> int:
        return nonzero_count(self.beta)


def objective(beta, data: Dataset, pen: Penalty) -> float:
    """Penalized objective: logistic loss plus penalty."""
    return loss_value(beta, data) + penalty_value(beta, pen)


def bb_stepsize(delta, v, fallback: float) -> float:
    """Barzilai-Borwein curvature estimate <delta, v> / <delta, delta>.

    ``delta`` is the difference of successive iterates, ``v`` the difference
    of their gradients.  Returns ``fallback`` when the quotient is not a
    positive finite number (possible under nonconvex curvature or a zero
    step).
    """
    delta = np.asarray(delta, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if delta.shape != v.shape:
        raise ValueError(f"shape mismatch: {delta.shape} vs {v.shape}")
    den = float(delta @ delta)
    if den > 0.0:
        quot = float(delta @ v) / den
        if quot > 0.0 and math.isfinite(quot):
            return quot
    return fallback


class _SearchOutcome(NamedTuple):
    L: float
    candidate: np.ndarray
    margins: np.ndarray  # X' candidate, which the next gradient reuses
    trials: int          # criterion evaluations beyond the first
    evaluations: int     # candidates evaluated, one product X' candidate each
    loss: float
    objective: float
    step_sq: float

    def row(self, i: int) -> _SearchOutcome:
        """The one-candidate outcome of row i of a block outcome.

        The candidate is copied out of the block, so a fit's coefficients do
        not keep the whole block alive.
        """
        return _SearchOutcome(float(self.L[i]), self.candidate[i].copy(), self.margins[i],
                              self.trials, self.evaluations, float(self.loss[i]),
                              float(self.objective[i]), float(self.step_sq[i]))


# A reverse search evaluates its ladder of step scales this many at a time.
_BLOCK = 6


def _try_candidate(anchor, l_anchor, f_anchor, grad_anchor, data, pen, L,
                   sufficient_decrease: bool, rows=None):
    """Evaluate the proximal candidate at scale L with one product X' candidate.

    ``L`` is a float, or a (K, 1) column of scales for a block of K
    candidates, evaluated with one prox, one product and one loss over the
    block; ``ok`` and the outcome's fields other than ``trials`` and
    ``evaluations`` then hold one entry per row (see ``_SearchOutcome.row``).
    ``f_anchor`` is read only by the sufficient-decrease criterion; ``rows``
    is the caller's ``SupportRows`` holder, if any.  The outcome counts as
    the first trial and as K evaluations; searches set ``trials`` and
    ``evaluations``.
    """
    cand = prox_vector(anchor - grad_anchor / L, pen, L)
    z_cand = margins(cand, data, rows)
    l_cand = loss_from_margins(z_cand, data)
    pen_cand = penalty_value(cand, pen)
    f_cand = l_cand + pen_cand
    diff = cand - anchor
    if diff.ndim == 1:
        step_sq, evaluations = float(diff @ diff), 1
    else:
        L = L[:, 0]
        step_sq, evaluations = np.einsum("ij,ij->i", diff, diff), L.size
    if sufficient_decrease:
        ok = f_cand <= f_anchor - 0.5 * L * step_sq
    else:
        model = l_anchor + diff @ grad_anchor + 0.5 * L * step_sq + pen_cand
        ok = f_cand <= model
    return ok, _SearchOutcome(L, cand, z_cand, 0, evaluations, l_cand, f_cand, step_sq)


def _forward_search(anchor, l_anchor, f_anchor, grad_anchor, data, pen,
                    L_start, eta, max_backtracks, sufficient_decrease,
                    tried: int = 0, rows=None) -> _SearchOutcome:
    """Grow L from ``L_start`` by ``eta`` until a candidate passes.

    ``tried`` counts the trials already made on this anchor; they count
    toward ``max_backtracks`` and the outcome's ``trials`` and ``evaluations``.
    """
    L = float(L_start)
    for i in range(tried, max_backtracks + 1):
        ok, out = _try_candidate(anchor, l_anchor, f_anchor, grad_anchor, data, pen, L,
                                 sufficient_decrease, rows)
        if ok:
            return out._replace(trials=i, evaluations=i + 1)
        L *= eta
    raise LineSearchError(
        f"line search failed after {max_backtracks} backtracks (last L = {L / eta:g})",
        last_L=L / eta)


def _reverse_search(anchor, l_anchor, f_anchor, grad_anchor, data, pen,
                    L0, eta, max_expansions, max_backtracks,
                    sufficient_decrease, rows=None) -> _SearchOutcome:
    """Shrink L from ``L0`` by ``eta`` while candidates pass; keep the last passing one.

    The ladder L0 / eta**i, i < ``max_expansions``, is evaluated in blocks of
    ``_BLOCK`` scales.  The search accepts the scale before the first failing
    one, as a scan one scale at a time would, or the last scale when none
    fails; the rows of a block past the first failure are evaluated too and
    count in ``evaluations``.  ``trials`` is the index of the accepted scale.
    """
    for start in range(0, max_expansions, _BLOCK):
        scales = np.array([L0 / eta ** i
                           for i in range(start, min(start + _BLOCK, max_expansions))])
        ok, block = _try_candidate(anchor, l_anchor, f_anchor, grad_anchor, data, pen,
                                   scales[:, np.newaxis], sufficient_decrease, rows)
        failed = np.flatnonzero(~ok)
        if start == 0 and failed.size and failed[0] == 0:
            # The base step already violates (possible under sufficient
            # decrease); grow forward from the rejected L0 instead.
            out = _forward_search(anchor, l_anchor, f_anchor, grad_anchor, data,
                                  pen, L0 * eta, eta, max_backtracks,
                                  sufficient_decrease, tried=1, rows=rows)
            return out._replace(evaluations=out.evaluations + scales.size - 1)
        passed = failed[0] if failed.size else scales.size
        if passed:
            accepted = block.row(passed - 1)._replace(trials=start + passed - 1)
        if failed.size:
            break
    return accepted._replace(evaluations=start + scales.size)


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


def fit(data: Dataset, pen: Penalty, opts: SolverOptions | None = None, *,
        lipschitz: float | None = None) -> FitResult:
    """Run the selected solver variant and return the fitted coefficients.

    The l1 penalty uses the quadratic-upper-model line-search criterion, the
    nonconvex penalties the sufficient-decrease criterion.  Stops when the
    relative objective change falls to ``opts.tol`` (converged) or at
    ``opts.max_iters`` (not converged); the trace records every iteration.

    The Lipschitz constant of the loss gradient is estimated by Lanczos (see
    ``lipschitz_constant``) the first time the variant needs it, and at most
    once per fit.  ``lipschitz`` supplies it instead.  Given the value
    ``lipschitz_constant(data)`` returns, or ``FitResult.lipschitz`` of an
    earlier fit on the same features, the fit is bitwise equal to one that
    estimates it.  ``run_path`` does this, so a whole path makes at most one
    estimate.
    """
    start = time.perf_counter()
    opts = opts if opts is not None else SolverOptions()
    policy = _POLICIES[opts.variant]
    if policy.momentum and pen.kind != L1:
        raise ValueError(f"variant {opts.variant!r} supports only the l1 penalty")
    if lipschitz is not None and not 0.0 < lipschitz < math.inf:
        raise ValueError(f"lipschitz must be a positive finite number, got {lipschitz}")

    lip_cache: dict[str, float] = {} if lipschitz is None else {"L": lipschitz}

    def lip() -> float:
        if "L" not in lip_cache:
            lip_cache["L"] = lipschitz_constant(data)
        return lip_cache["L"]

    L0 = lip() if opts.l0 is None else float(opts.l0)
    if L0 == 0.0:
        raise ValueError("initial step scale is zero (zero feature matrix)")
    if not math.isfinite(L0):
        raise ValueError(f"initial step scale must be finite, got {L0}")

    sufficient = pen.kind != L1
    beta = _initial_beta(opts, data.n_features)
    rows = SupportRows()  # this fit's gathered support rows, dropped on return
    screen = GradientScreen(pen.lam, data.feature_norms) if pen.kind == L1 else None  # likewise

    def gradient(z, anchor):
        if screen is None:
            return gradient_from_margins(z, data)
        return gradient_from_margins(z, data, screen.at(anchor))

    z_beta = margins(beta, data, rows)  # carried with beta; the one product outside the loop
    matvecs = 1
    l_prev = loss_from_margins(z_beta, data)
    f_prev = l_prev + penalty_value(beta, pen)
    trace = Trace(f0=f_prev)
    converged = False

    bb_prev: tuple[np.ndarray, np.ndarray] | None = None  # previous (anchor, gradient)
    L_carry = L0
    w, z_w = beta, z_beta  # the momentum anchor and its margins
    t_momentum = 1.0

    for k in range(1, opts.max_iters + 1):
        if policy.momentum:
            # The convex criterion never reads f_anchor, so w's penalty is skipped.
            anchor, z_anchor, l_anchor, f_anchor = w, z_w, loss_from_margins(z_w, data), None
        else:
            anchor, z_anchor, l_anchor, f_anchor = beta, z_beta, l_prev, f_prev
        grad = gradient(z_anchor, anchor)
        if policy.seed == "carried":
            L_seed = L_carry
        elif policy.seed == "bb" and bb_prev is not None:
            L_seed = bb_stepsize(anchor - bb_prev[0], grad - bb_prev[1], fallback=lip())
            L_seed = min(max(L_seed, lip() / _BB_CLAMP), lip() * _BB_CLAMP)
        else:
            L_seed = L0
        bb_prev = (anchor, grad)
        if policy.reverse:
            out = _reverse_search(anchor, l_anchor, f_anchor, grad, data, pen, L_seed,
                                  opts.eta, opts.max_expansions, opts.max_backtracks,
                                  sufficient, rows=rows)
        else:
            out = _forward_search(anchor, l_anchor, f_anchor, grad, data, pen, L_seed,
                                  opts.eta, opts.max_backtracks, sufficient, rows=rows)
        L_carry = out.L
        if policy.momentum:
            diff = out.candidate - beta
            t_next = _fista_t_next(t_momentum)
            w, z_w = _extrapolate(out.candidate, out.margins, beta, z_beta,
                                  (t_momentum - 1.0) / t_next)
            t_momentum = t_next
            out = out._replace(step_sq=float(diff @ diff))

        matvecs += 1 + out.evaluations
        beta, z_beta = out.candidate, out.margins
        trace.append(k, out.objective, out.L, out.trials, nonzero_count(beta),
                     time.perf_counter() - start, out.step_sq)
        if abs(f_prev - out.objective) <= opts.tol * max(1.0, abs(out.objective)):
            converged = True
        l_prev, f_prev = out.loss, out.objective
        if converged:
            break

    if policy.reverse and len(trace):
        # Block products round differently from one-row ones: report beta's
        # objective as ``objective`` computes it, for one more product.
        f_prev = loss_from_margins(margins(beta, data, rows), data) + penalty_value(beta, pen)
        matvecs += 1
    # Every iteration made one gradient product besides its margin products,
    # a full one unless the screen read fewer rows.
    gradient_rows = data.n_features * len(trace) if screen is None else screen.read
    return FitResult(beta=beta, converged=converged, trace=trace, final_objective=f_prev,
                     lipschitz=lip_cache.get("L"), matvecs=matvecs,
                     feature_rows=rows.read + gradient_rows)
