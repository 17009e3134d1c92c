"""One record per reduction family: build it, descend on it, bound it, check it.

A new family is one ``FAMILIES`` entry; the defaults are those of the
families whose landscape is ``mu`` itself. Entries reach constructors and
closed forms through this module's global names at call time, never through
stored function objects, so a wrapper installed on a module namespace sees
every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fermions import (
    FOCK_MAX_MODES,
    fermionic_vqa_instance,
    fock_bruteforce_expectation,
    fock_system,
    gaussian_expectation,
)
from .graphs import maxcut_bruteforce
from .landscape import _mu_gradient_rows, _mu_rows, _mu_value_and_gradient_rows
from .optimize import Landscape, reference_minimum
from .reductions import (
    _boost,
    _qaoa1_rows,
    _qaoa_rows,
    _single_layer_rows,
    boosted_vqa_instance,
    ergodic_energies,
    logdim_observable,
    logdim_vqa_instance,
    multilayer_encoding,
    multilayer_optimal_value,
    oracular_vqa_instance,
    qaoa_apply,
    qaoa_multilayer_instance,
    qaoa_single_layer_instance,
    single_layer_instance,
)
from .sim import simulate_expectation, spectral_extremes


def _max_residual(lhs, rhs) -> float:
    """max |lhs - rhs| over paired values, 0 for none; NaN if any residual is
    NaN, so that no tolerance passes it."""
    return float(np.max(np.abs(np.subtract(lhs, rhs)), initial=0.0))


def _draws(draw, g, args, rng) -> np.ndarray:
    """The (samples, n) stack of args.samples points draw(g, args, rng), in draw order."""
    return np.array([draw(g, args, rng) for _ in range(args.samples)], dtype=float)


def _closed_form_check(draw, simulate=lambda inst, x: simulate_expectation(inst, x)):
    """verify: simulate(inst, x) at each point x of the stack of draws
    draw(g, args, rng) against one call of the landscape objective on the
    stack."""

    def verify(g, args, inst, objective, rng):
        X = _draws(draw, g, args, rng)
        return {"closed-form-vs-simulation": _max_residual([simulate(inst, x) for x in X], objective(X))}

    return verify


def _uniform_phases(g, args, rng):
    return rng.uniform(0, 2 * np.pi, g.d)


_verify_mu = _closed_form_check(_uniform_phases)


@dataclass(frozen=True)
class Family:
    """How the CLI handles one reduction family.

    ``build(g, args)`` makes the instance. ``spectrum(g, maxcut, args, inst)``
    is (lambda_min, lambda_max) of its observable. ``landscape(g, args, inst)``
    is the ``Landscape`` that descent runs on. Its objective is the row
    kernel of the family's closed form, the one place that form is
    evaluated (the checked public ``mu`` is that kernel on one row), and its
    gradient is the form's analytic gradient (adjoint for qaoa-multi's
    circuit); value_and_gradient evaluates once for both with the
    objective's operations, so its values are the objective's bit for bit.
    Descent calls value_and_gradient at every rung-0 candidate of its line
    search, rejected ones included, so it must not raise there (a NaN is
    never read). qaoa-multi's rows, one stacked circuit, match ``qaoa_apply``
    within round-off, not bit for bit (a one-row stack is bit for bit). The
    kernels may skip input checks, since their callers (descent from uniform
    start points, the landscape command's checked grid, the grid reference,
    verify's draws) pass finite rows and reject a non-finite value.
    ``report(args, values)`` maps landscape values to the reported ones
    (optimize's best value, verify's objective, landscape's values): the
    identity, but -|mu|^k for boosted, which descends on ``mu``.
    ``reference(g, maxcut, args, objective, best)`` is the ansatz minimum
    <O>_min; a sampled reference evaluates its grid through the row
    objective, and only it may be lowered to the descent's best value
    ``best``.
    ``verify(g, args, inst, objective, rng)`` maps each identity to its max
    residual, where ``objective`` is the landscape's as ``report`` maps it:
    a closed form is checked by evaluating it once on the stack of all draws.
    Optimize and landscape build the instance only if ``needs_instance``.
    """

    build: Callable
    spectrum: Callable
    landscape: Callable = lambda g, args, inst: Landscape(
        (lambda X: _mu_rows(g, X)),
        (lambda X: _mu_gradient_rows(g, X)),
        (lambda X: _mu_value_and_gradient_rows(g, X)),
        g.d,
    )
    report: Callable = lambda args, values: values
    reference: Callable = lambda g, maxcut, args, objective, best: -float(maxcut)
    verify: Callable = _verify_mu
    needs_instance: bool = False


def _boosted_minimum(maxcut, args) -> float:
    """-maxcut^k, the boosted observable's minimum and the ansatz minimum."""
    try:
        return -float(maxcut) ** args.k
    except OverflowError:
        raise ValueError(f"boosting power k={args.k} is too large: maxcut^k overflows a float") from None


def _verify_boosted(g, args, inst, objective, rng):
    residuals = _verify_mu(g, args, inst, objective, rng)
    mc, _ = maxcut_bruteforce(g)
    _, _, sw = spectral_extremes(inst.observable)
    residuals["spectral-width-vs-maxcut-power"] = abs(sw + _boosted_minimum(mc, args))
    return residuals


def _logdim_spectrum(g, maxcut, args, inst):
    lo, hi, _ = spectral_extremes(logdim_observable(g))
    return lo, hi


def _qaoa1_spectrum(g, maxcut, args, inst):
    # eigvalsh of the matrix, not the cost operator's cached eigh, whose
    # extreme eigenvalues can differ in the last bits
    lo, hi, _ = spectral_extremes(inst.observable.to_dense())
    return lo, hi


def _operator_spectrum(g, maxcut, args, inst):
    lo, hi, _ = inst.observable.extremes()
    return lo, hi


def _grid_span(g, args) -> float:
    """Upper end of the time range [0, m^min(d, 3)) that single-layer and qaoa1 sample."""
    return float(args.m) ** min(g.d, 3)


def _energies(g, args):
    """The ergodic energies that the single-layer and qaoa1 instances carry."""
    return ergodic_energies(g.d, args.m).energies


def _grid_reference(points):
    """reference: the row objective's minimum over the grid rows
    points(ts, args), for args.grid_samples times ts spanning [0,
    _grid_span], lowered to the descent's best value where the grid missed
    the minimum."""

    def reference(g, maxcut, args, objective, best):
        grid = reference_minimum(
            objective, lambda ts: points(ts, args), (0.0, _grid_span(g, args)), args.grid_samples
        )
        return min(grid, best)

    return reference


def _rows_landscape(rows, n_params: int) -> Landscape:
    # the Landscape of a row kernel: rows(X) the values, rows(X, True) the
    # pair of values and gradients
    return Landscape(rows, lambda X: rows(X, True)[1], lambda X: rows(X, True), n_params)


def _single_layer_landscape(g, args, inst):
    energies = _energies(g, args)
    return _rows_landscape(lambda X, gradient=False: _single_layer_rows(g, energies, X, gradient), 1)


def _qaoa1_landscape(g, args, inst):
    energies, tau = _energies(g, args), args.tau
    return _rows_landscape(lambda X, gradient=False: _qaoa1_rows(g, energies, tau, X, gradient), 2)


def _qaoa_multi_landscape(g, args, inst):
    return _rows_landscape(lambda X, gradient=False: _qaoa_rows(inst, X, gradient), len(inst.generators))


def _verify_qaoa_multi(g, args, inst, objective, rng):
    hb_lo, hb_hi, _ = spectral_extremes(inst.generators[1])
    hc_lo, hc_hi, _ = spectral_extremes(inst.observable)
    mc, witness = maxcut_bruteforce(g)
    _, val = qaoa_apply(inst, *multilayer_encoding(g, witness))
    return {
        "mixer-norm-vs-3": abs(max(abs(hb_lo), abs(hb_hi)) - 3.0),
        "cost-norm-vs-1": abs(max(abs(hc_lo), abs(hc_hi)) - 1.0),
        "optimal-encoding-vs-closed-form": abs(val - multilayer_optimal_value(g, mc)),
    }


def _fermion_spectrum(g, maxcut, args, inst):
    # Fock-space spectrum of a quadratic observable: extreme sums of
    # positive / negative coefficient eigenvalues.
    vals = np.linalg.eigvalsh(logdim_observable(g))
    return float(vals[vals < 0].sum()), float(vals[vals > 0].sum())


def _verify_fermion(g, args, inst, objective, rng):
    # one stack of draws, one pipeline value per draw, checked against the
    # objective and the Fock oracle
    X = _draws(_uniform_phases, g, args, rng)
    pipeline = [gaussian_expectation(inst, phi) for phi in X]
    residuals = {"closed-form-vs-covariance-pipeline": _max_residual(pipeline, objective(X))}
    if inst.dim <= FOCK_MAX_MODES:
        fock = fock_system(inst)
        residuals["covariance-vs-fock-oracle"] = _max_residual(
            pipeline, [fock_bruteforce_expectation(fock, phi) for phi in X]
        )
    return residuals


FAMILIES = {
    "oracular": Family(
        build=lambda g, args: oracular_vqa_instance(g),
        spectrum=lambda g, maxcut, args, inst: (-float(maxcut), 0.0),
    ),
    "boosted": Family(
        build=lambda g, args: boosted_vqa_instance(g, args.k),
        spectrum=lambda g, maxcut, args, inst: (_boosted_minimum(maxcut, args), 0.0),
        report=lambda args, values: _boost(values, args.k),
        reference=lambda g, maxcut, args, objective, best: _boosted_minimum(maxcut, args),
        verify=_verify_boosted,
    ),
    "logdim": Family(build=lambda g, args: logdim_vqa_instance(g), spectrum=_logdim_spectrum),
    "single-layer": Family(
        build=lambda g, args: single_layer_instance(g, args.m),
        spectrum=_logdim_spectrum,
        landscape=_single_layer_landscape,
        reference=_grid_reference(lambda ts, args: ts[:, None]),
        verify=_closed_form_check(lambda g, args, rng: rng.uniform(0, _grid_span(g, args), 1)),
    ),
    "qaoa1": Family(
        build=lambda g, args: qaoa_single_layer_instance(g, args.tau, args.m),
        spectrum=_qaoa1_spectrum,
        landscape=_qaoa1_landscape,
        reference=_grid_reference(
            lambda bs, args: np.column_stack([bs, np.full_like(bs, np.pi / (2 * args.tau))])
        ),
        # beta, then gamma over its period 2*pi/tau
        verify=_closed_form_check(
            lambda g, args, rng: (rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi / args.tau)),
            lambda inst, x: qaoa_apply(inst, x[:1], x[1:])[1],
        ),
        needs_instance=True,
    ),
    "qaoa-multi": Family(
        build=lambda g, args: qaoa_multilayer_instance(g),
        spectrum=_operator_spectrum,
        landscape=_qaoa_multi_landscape,
        reference=lambda g, maxcut, args, objective, best: multilayer_optimal_value(g, maxcut),
        verify=_verify_qaoa_multi,
        needs_instance=True,
    ),
    "fermion": Family(
        build=lambda g, args: fermionic_vqa_instance(g),
        spectrum=_fermion_spectrum,
        verify=_verify_fermion,
    ),
}
