"""Gradient descent with multistart, the sampled reference minimum, and the
normalized error metrics (delta, delta_m, delta_o)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

ARMIJO_C = 1e-4
MAX_BACKTRACKS = 60
METRIC_SLACK = 1e-9
# reference_minimum confirms with the scalar objective every grid point whose
# batched value lies within GRID_SCREEN_RTOL * (1 + |batched minimum|) of that
# minimum, and evaluates the batch GRID_BLOCK points at a time
GRID_SCREEN_RTOL = 1e-9
GRID_BLOCK = 4096


@dataclass(frozen=True)
class OptimizerConfig:
    """Seed and restart count of a multistart run.

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


def finite_difference_gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def gradient_descent(
    objective: Callable,
    init,
    cfg: OptimizerConfig,
    gradient: Optional[Callable] = None,
) -> DescentResult:
    """Backtracking-line-search descent; trajectory is monotone non-increasing.

    Falls back to central finite differences when no analytic gradient is
    supplied.  Converged means the final gradient norm is below grad_tol.
    """
    if gradient is None:
        gradient = lambda x: finite_difference_gradient(objective, x, cfg.finite_diff_step)
    x = np.asarray(init, dtype=float).copy()
    fx = objective(x)
    if not math.isfinite(fx):
        raise ValueError(f"non-finite objective value {fx!r} at the initial point")
    trajectory = [float(fx)]
    converged = False
    for _ in range(cfg.max_iters):
        g = gradient(x)
        gnorm = math.sqrt(g.dot(g))  # what np.linalg.norm computes for a real vector
        if gnorm <= cfg.grad_tol:
            converged = True
            break
        step = cfg.initial_step
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = x - step * g
            fc = objective(cand)
            if not math.isfinite(fc):
                raise ValueError(f"non-finite objective value {fc!r} during line search")
            if fc <= fx - ARMIJO_C * step * gnorm**2:
                x, fx = cand, fc
                accepted = True
                break
            step /= 2
        if not accepted:
            break  # step underflow: no Armijo decrease available
        trajectory.append(float(fx))
    else:
        g = gradient(x)
        converged = math.sqrt(g.dot(g)) <= cfg.grad_tol
    return DescentResult(value=float(fx), params=x, trajectory=trajectory, converged=converged)


def multistart(
    objective: Callable,
    n_params: int,
    cfg: OptimizerConfig,
    gradient: Optional[Callable] = None,
) -> MultistartResult:
    """Descent from cfg.restarts uniform-random initializations in [0, 2*pi)^L.

    Restart r draws from a fresh RNG seeded with seed + r, so runs are
    reproducible and order-independent.
    """
    runs = []
    for r in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + r)
        init = rng.uniform(0.0, 2 * np.pi, size=n_params)
        runs.append(gradient_descent(objective, init, cfg, gradient))
    best = min(runs, key=lambda run: run.value)
    return MultistartResult(runs=runs, best_value=best.value, best_params=best.params)


def reference_minimum(
    objective: Callable, batch: Callable, bounds: tuple[float, float], samples: int = 100_000
) -> float:
    """Minimum of a one-parameter objective over ``samples`` evenly spaced
    points of [lo, hi]: a sampled stand-in for the landscape minimum, which
    can lie above it when the grid misses a narrow well.

    ``batch(ts)`` returns the objective at each point of an array, up to
    rounding; it screens the grid, and ``objective(t)`` is evaluated only at
    the points whose batched value is within the screening margin of the
    batched minimum. Where batch and objective differ by less than half that
    margin, the result is the scalar minimum over the whole grid, bit for bit.
    """
    lo, hi = bounds
    ts = np.linspace(lo, hi, samples)
    values = np.empty(samples)
    for start in range(0, samples, GRID_BLOCK):
        values[start : start + GRID_BLOCK] = batch(ts[start : start + GRID_BLOCK])
    if not np.isfinite(values).all():
        raise ValueError("non-finite objective value on the reference grid")
    low = values.min()
    near = ts[values <= low + GRID_SCREEN_RTOL * (1 + abs(low))]
    return min(objective(t) for t in near)


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
    """Per-instance record of a multistart run against exact references, as
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
