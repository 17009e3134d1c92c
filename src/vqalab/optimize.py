"""Gradient descent from random restarts, all restarts of a run in lock step
on row kernels, the sampled reference minimum, and the normalized error
metrics (delta, delta_m, delta_o)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
METRIC_SLACK = 1e-9
# reference_minimum evaluates its grid GRID_BLOCK rows per objective call, as
# the landscape command evaluates its grid
GRID_BLOCK = 4096


@dataclass(frozen=True)
class OptimizerConfig:
    """Seed and restart count of an optimize run.

    The stop rule is fixed: at most ``max_iters`` iterations, stopping early
    once the gradient norm is at most ``grad_tol``; each line search tries up
    to MAX_BACKTRACKS steps, from ``initial_step`` halving each time, until
    one meets the Armijo condition with ARMIJO_C; without an analytic
    gradient, central differences use ``finite_diff_step``.
    """

    max_iters: ClassVar[int] = 10_000
    grad_tol: ClassVar[float] = 1e-8
    initial_step: ClassVar[float] = 0.5
    finite_diff_step: ClassVar[float] = 1e-5

    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")


@dataclass
class DescentResult:
    value: float
    params: np.ndarray
    trajectory: list[float]
    converged: bool


@dataclass
class MultistartResult:
    """One DescentResult per restart, in restart order, and the lowest of them
    (the first restart to reach it, on a tie)."""

    runs: list[DescentResult]
    best_value: float
    best_params: np.ndarray


# rung k of every Armijo ladder: the step initial_step / 2**k, as the scalar
# loop's repeated halving gives it, and ARMIJO_C times that step
_STEPS = [OptimizerConfig.initial_step / 2**k for k in range(MAX_BACKTRACKS)]
_SLOPES = [ARMIJO_C * step for step in _STEPS]
_STEP_ARRAY = np.array(_STEPS)


def _row_norms(g: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row, bit for bit: a stacked vector @ vector is
    one row.dot(row) per row, and np.sqrt is the correctly rounded sqrt."""
    return np.sqrt((g[:, None, :] @ g[:, :, None]).ravel())


@functools.lru_cache(maxsize=None)
def _shift(L: int, h: float) -> np.ndarray:
    # h * I, one read-only copy per (L, h) that the process differentiates at
    shift = h * np.eye(L)
    shift.flags.writeable = False
    return shift


def _shifted_rows(X: np.ndarray, h: float) -> np.ndarray:
    """The 2 * n * L central-difference points of the rows of X: every
    X[j] + h * e_i, then every X[j] - h * e_i, in row-major (j, i) order."""
    shift = _shift(X.shape[1], h)
    return np.concatenate([X[:, None, :] + shift, X[:, None, :] - shift]).reshape(-1, X.shape[1])


def _central_differences(values: np.ndarray, n: int, L: int, h: float) -> np.ndarray:
    """The (n, L) gradients from the objective values at _shifted_rows' points."""
    return (values[: n * L] - values[n * L :]).reshape(n, L) / (2 * h)


def finite_difference_gradient(objective: Callable, X: np.ndarray, h: float) -> np.ndarray:
    """Central differences of a row objective at each row of X: the 2 * L
    shifted copies of every row go through one objective call."""
    return _central_differences(objective(_shifted_rows(X, h)), *X.shape, h)


@dataclass(frozen=True)
class Landscape:
    """The row kernels that descent runs on: ``objective`` maps an (n,
    n_params) stack of points to their n values, ``gradient`` to their (n,
    n_params) gradients, and ``value_and_gradient`` to the pair of both.
    ``central_differences`` is the landscape of an objective without an
    analytic gradient."""

    objective: Callable
    gradient: Callable
    value_and_gradient: Callable
    n_params: int

    @classmethod
    def central_differences(cls, objective: Callable, n_params: int) -> Landscape:
        """``objective`` with central differences at OptimizerConfig's
        finite_diff_step as its gradient: ``gradient`` is
        ``finite_difference_gradient``, and the pair comes from one objective
        call at the points and their central-difference points
        (``_shifted_rows``)."""
        h = OptimizerConfig.finite_diff_step

        def value_and_gradient(X):
            out = objective(np.concatenate([X, _shifted_rows(X, h)]))
            return out[: len(X)], _central_differences(out[len(X) :], *X.shape, h)

        return cls(objective, lambda X: finite_difference_gradient(objective, X, h), value_and_gradient, n_params)


def descend(land: Landscape, starts, cfg: OptimizerConfig) -> list[DescentResult]:
    """Backtracking-line-search descent on ``land``'s row kernels from each
    row of ``starts``, all rows in lock step; each trajectory is monotone
    non-increasing.

    A row leaves the stack once its gradient norm is at most grad_tol
    (converged), when no step meets the Armijo condition, or after max_iters
    iterations. A row's line search is a ladder of rungs k = 0, 1, ... with
    steps initial_step / 2**k, and the row takes the first rung that meets
    the Armijo condition; a non-finite value before that rung raises, as one
    at a start point does, and so does a non-finite gradient norm (an
    overflow), at which no rung can pass.

    In the common iteration every row of the stack searches and took rung 0
    last time: one ``value_and_gradient`` call at the rung-0 candidates
    x - initial_step * g, and if every row takes rung 0, the gradients it
    returned are the next iteration's, so that iteration makes no other
    call. Otherwise the rungs are evaluated in blocks that every row still
    searching shares, one objective call per block: rungs 0..b first, where b
    is the highest rung any of those rows took last time, then, for the rows
    without a step yet, blocks twice as wide as the one before; and the next
    iteration's gradients come from a ``gradient`` call of their own at the
    rows as they stand, whose values the line search already gave. A row's
    values past the rung it took are computed but never read, as are the
    gradients at rejected rung-0 candidates, so each row's descent is, bit
    for bit, the one a loop over single restarts makes, and where several
    rows would raise, the error is the first row's. That holds where a row's
    value does not depend on the other rows of the stack; qaoa-multi's
    kernel rounds a row differently in the last bits with the stack around
    it, so its rows match that loop within round-off only.
    """
    objective, gradient, value_and_gradient = land.objective, land.gradient, land.value_and_gradient
    x = np.array(starts, dtype=float)
    fx = objective(x).tolist()
    results: list[Optional[DescentResult]] = [None] * len(fx)
    # one entry per row of the stack: its restart, trajectory and last rung
    ids = list(range(len(fx)))
    trajectories = [[v] for v in fx]
    rungs = [0] * len(fx)
    # the gradients at x, where the last line search's value_and_gradient
    # call gave them
    held = None
    # the first row whose objective value or gradient norm went non-finite,
    # and its error; rows after it leave the stack, since a loop over single
    # restarts never reaches them
    first_failed, error = len(fx), None

    def fail(j: int, error_text: str) -> None:
        nonlocal first_failed, error
        if ids[j] < first_failed:
            first_failed, error = ids[j], error_text

    def finish(j: int, converged: bool) -> None:
        results[ids[j]] = DescentResult(fx[j], x[j].copy(), trajectories[j], converged)

    def take(j: int, k: int, value: float) -> None:
        fx[j] = value
        rungs[j] = k
        trajectories[j].append(value)
        stays[j] = True

    def search(searching, g, gnorms, cand=None, values=None) -> None:
        # every row still searching evaluates the same rungs lo..hi-1, so the
        # candidates are one broadcast; ``values`` are those of the rung-0
        # candidates ``cand`` where the caller evaluated them. A row takes its
        # first rung that passes, and values past it go unread
        lo, hi = 0, max((rungs[j] for j in searching), default=0) + 1
        while searching:
            w = hi - lo
            if values is None:
                rows = slice(None) if len(searching) == len(x) else searching
                cand = (x[rows, None, :] - _STEP_ARRAY[lo:hi, None] * g[rows, None, :]).reshape(-1, x.shape[1])
                values = objective(cand).tolist()
            later, took, took_from = [], [], []
            for i, j in enumerate(searching):
                gsq = gnorms[j] ** 2
                at = i * w - lo  # rung k of row j is values[at + k]
                for k in range(lo, hi):
                    v = values[at + k]
                    if not math.isfinite(v):
                        fail(j, f"non-finite objective value {v!r} during line search")
                        break
                    if v <= fx[j] - _SLOPES[k] * gsq:
                        take(j, k, v)
                        took.append(j)
                        took_from.append(at + k)
                        break
                else:
                    if hi < MAX_BACKTRACKS:
                        later.append(j)
                    else:  # step underflow: no Armijo decrease available
                        finish(j, False)
            x[took] = cand[took_from]
            searching, lo, hi, values = later, hi, min(MAX_BACKTRACKS, 3 * hi - 2 * lo), None

    for j, v in enumerate(fx):
        if not math.isfinite(v):
            fail(j, f"non-finite objective value {v!r} at the initial point")
    ids, trajectories, rungs = ids[:first_failed], trajectories[:first_failed], rungs[:first_failed]
    x, fx = x[:first_failed], fx[:first_failed]
    step, slope = _STEPS[0], _SLOPES[0]
    for _ in range(cfg.max_iters):
        if not ids:
            break
        g = gradient(x) if held is None else held
        held = None
        gnorms = _row_norms(g).tolist()
        searching = [j for j, gnorm in enumerate(gnorms) if not gnorm <= cfg.grad_tol]
        cand = values = None
        if len(searching) == len(ids) and not any(rungs):
            # every row searches from rung 0: the candidates need no
            # broadcast, and where every row takes rung 0 (a finite value
            # that meets the Armijo condition) no row needs bookkeeping
            cand = x - step * g
            values, gradients = value_and_gradient(cand)
            values = values.tolist()
            if all(-math.inf < v <= f - slope * gnorm**2 for v, f, gnorm in zip(values, fx, gnorms)):
                x, fx, held = cand, values, gradients
                for trajectory, v in zip(trajectories, values):
                    trajectory.append(v)
                continue
        stays = [False] * len(ids)
        for j, gnorm in enumerate(gnorms):
            if gnorm <= cfg.grad_tol:
                finish(j, True)
            elif not math.isfinite(gnorm):
                # no rung can pass; rows after this one are never reached
                fail(j, f"non-finite gradient norm {gnorm!r} during descent")
                searching = [i for i in searching if i < j]
                break
        search(searching, g, gnorms, cand, values)
        if not all(stays) or ids[-1] >= first_failed:
            keep = [j for j, s in enumerate(stays) if s and ids[j] < first_failed]
            x, fx = x[keep], [fx[j] for j in keep]
            ids, trajectories, rungs = ([seq[j] for j in keep] for seq in (ids, trajectories, rungs))
    if ids:
        g = gradient(x) if held is None else held
        for j, gnorm in enumerate(_row_norms(g).tolist()):
            finish(j, gnorm <= cfg.grad_tol)
    if error is not None:
        raise ValueError(error)
    return results


def optimize(land: Landscape, cfg: OptimizerConfig) -> MultistartResult:
    """``descend`` on ``land`` from cfg.restarts uniform-random
    initializations in [0, 2*pi)^n_params.

    Restart r draws from a fresh RNG seeded with seed + r, so runs are
    reproducible and order-independent.
    """
    starts = [
        np.random.default_rng(cfg.seed + r).uniform(0.0, 2 * np.pi, size=land.n_params)
        for r in range(cfg.restarts)
    ]
    runs = descend(land, np.array(starts), cfg)
    best = min(runs, key=lambda run: run.value)
    return MultistartResult(runs=runs, best_value=best.value, best_params=best.params)


def reference_minimum(
    objective: Callable, points: Callable, bounds: tuple[float, float], samples: int = 100_000
) -> float:
    """Minimum of a row objective over the rows ``points(ts)`` of ``samples``
    evenly spaced times ts in [lo, hi]: a sampled stand-in for the landscape
    minimum, which can lie above it when the grid misses a narrow well.

    The rows go through the objective GRID_BLOCK at a time. The result is the
    grid's first lowest value, as a loop over the grid keeps it; a non-finite
    value on the grid raises.
    """
    lo, hi = bounds
    ts = np.linspace(lo, hi, samples)
    low = math.inf
    for start in range(0, samples, GRID_BLOCK):
        values = objective(points(ts[start : start + GRID_BLOCK]))
        if not np.isfinite(values).all():
            raise ValueError("non-finite objective value on the reference grid")
        low = min(low, float(values[values.argmin()]))
    return low


def error_metrics(
    best_value: float,
    reference_min: float,
    lambda_min: float,
    lambda_max: float,
) -> tuple[float, float, float]:
    """Normalized error split delta = delta_m + delta_o.

    delta_m is the model mismatch (ansatz optimum above the true ground
    energy), delta_o the optimization error (algorithm output above the
    ansatz optimum); both normalized by the spectral width.
    """
    sw = lambda_max - lambda_min
    if sw <= 0:
        raise ValueError("degenerate spectrum: spectral width must be positive")
    if best_value < reference_min - METRIC_SLACK or reference_min < lambda_min - METRIC_SLACK:
        raise ValueError("inconsistent values: best >= reference >= lambda_min required")
    delta_m = (reference_min - lambda_min) / sw
    delta_o = (best_value - reference_min) / sw
    for name, v in (("delta_m", delta_m), ("delta_o", delta_o)):
        if not (-METRIC_SLACK <= v <= 1 + METRIC_SLACK):
            raise ValueError(f"{name}={v} outside [0, 1]")
    delta_m = min(max(delta_m, 0.0), 1.0)
    delta_o = min(max(delta_o, 0.0), 1.0)
    return delta_m + delta_o, delta_m, delta_o


def build_report(
    result: MultistartResult,
    reference_min: float,
    lambda_min: float,
    lambda_max: float,
) -> dict:
    """Per-instance record of an optimize run against exact references, as
    ``optimize`` writes it."""
    delta, delta_m, delta_o = error_metrics(
        result.best_value, reference_min, lambda_min, lambda_max
    )
    return {
        "best_value": result.best_value,
        "best_params": list(map(float, result.best_params)),
        "reference_min": reference_min,
        "lambda_min": lambda_min,
        "lambda_max": lambda_max,
        "sw": lambda_max - lambda_min,
        "delta": delta,
        "delta_m": delta_m,
        "delta_o": delta_o,
        "restarts": len(result.runs),
        "iterations_per_restart": [len(run.trajectory) for run in result.runs],
        "converged": [run.converged for run in result.runs],
    }
