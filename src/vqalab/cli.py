"""Command-line harness: verify | optimize | landscape | export.

Every subcommand is deterministic given --seed; exit codes are 0 (success),
1 (verification or optimization failure), 2 (usage error).
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from . import __version__
from .fermions import (
    FermionInstance,
    fermionic_vqa_instance,
    fock_bruteforce_expectation,
    gaussian_expectation,
)
from .graphs import Graph, GraphParseError, maxcut_bruteforce, maxcut_greedy, parse_graph, random_graph
from .landscape import mu, mu_gradient
from .optimize import (
    OptimizerConfig,
    build_report,
    multistart,
    reference_minimum,
)
from .reductions import (
    boosted_vqa_instance,
    logdim_vqa_instance,
    multilayer_encoding,
    multilayer_optimal_value,
    oracular_vqa_instance,
    qaoa_apply,
    qaoa_multilayer_instance,
    qaoa_single_layer_instance,
    single_layer_instance,
)
from .serialize import REFERENCE_CONSTANTS, SCHEMA, dump_json, graph_to_json, instance_to_json
from .sim import simulate_expectation, spectral_extremes

FAMILIES = ("oracular", "boosted", "logdim", "single-layer", "qaoa1", "qaoa-multi", "fermion")


class UsageError(ValueError):
    pass


def _load_graphs(args) -> list[Graph]:
    if args.graph is not None:
        with open(args.graph) as fh:
            return [parse_graph(fh.read())]
    if args.random_graph is not None:
        try:
            d_str, p_str = args.random_graph.split(":")
            d, p = int(d_str), float(p_str)
        except ValueError:
            raise UsageError(f"--random-graph expects d:p, got {args.random_graph!r}")
        return [random_graph(d, p, args.seed + i) for i in range(args.instances)]
    raise UsageError("provide either --graph FILE or --random-graph d:p")


def _build_instance(family: str, g: Graph, args):
    if family == "oracular":
        return oracular_vqa_instance(g)
    if family == "boosted":
        return boosted_vqa_instance(g, args.k)
    if family == "logdim":
        return logdim_vqa_instance(g)
    if family == "single-layer":
        return single_layer_instance(g, args.m)
    if family == "qaoa1":
        return qaoa_single_layer_instance(g, args.tau, args.m)
    if family == "qaoa-multi":
        return qaoa_multilayer_instance(g)
    if family == "fermion":
        return fermionic_vqa_instance(g)
    raise UsageError(f"unknown family {family!r}")


# Families whose objective or optimize spectrum reads a built instance; the
# others evaluate closed forms of mu only.
_INSTANCE_FAMILIES = ("single-layer", "qaoa1", "qaoa-multi", "fermion")


def _landscape_instance(family: str, g: Graph, args):
    """The instance that _family_objective and _family_spectrum share, or None."""
    return _build_instance(family, g, args) if family in _INSTANCE_FAMILIES else None


def _family_objective(family: str, g: Graph, args, inst):
    """(objective, gradient-or-None, n_params) over the family's landscape."""
    if family in ("oracular", "logdim", "fermion"):
        return (lambda x: mu(g, x)), (lambda x: mu_gradient(g, x)), g.d
    if family == "boosted":
        k = args.k

        def f(x):
            return -((-mu(g, x)) ** k)

        def grad(x):
            return k * (-mu(g, x)) ** (k - 1) * mu_gradient(g, x)

        return f, grad, g.d
    if family == "single-layer":
        return (lambda x: inst.closed_form(x[0])), None, 1
    if family == "qaoa1":
        return (lambda x: inst.closed_form(x[0], x[1])), None, 2
    if family == "qaoa-multi":
        L = inst.layers
        return (lambda x: qaoa_apply(inst, x[:L], x[L:])[1]), None, 2 * L
    raise UsageError(f"unknown family {family!r}")


def _family_spectrum(family: str, g: Graph, maxcut: int, args, inst) -> tuple[float, float]:
    """(lambda_min, lambda_max) for the optimize metrics. Matrices go through
    spectral_extremes (eigvalsh), never through the instances' cached eigh,
    whose extreme eigenvalues can differ from eigvalsh's in the last bits."""
    if family == "oracular":
        return -float(maxcut), 0.0
    if family == "boosted":
        return -float(maxcut) ** args.k, 0.0
    if family in ("logdim", "single-layer"):
        from .reductions import logdim_observable

        lo, hi, _ = spectral_extremes(logdim_observable(g))
        return lo, hi
    if family in ("qaoa1", "qaoa-multi"):
        lo, hi, _ = spectral_extremes(inst.hc)
        return lo, hi
    if family == "fermion":
        # Fock-space spectrum of a quadratic observable: extreme sums of
        # positive / negative coefficient eigenvalues.
        vals = np.linalg.eigvalsh(inst.o)
        return float(vals[vals < 0].sum()), float(vals[vals > 0].sum())
    raise UsageError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# verify

def _verify_family(family: str, g: Graph, args) -> dict[str, float]:
    """Max residual per closed-form-vs-simulation identity for one graph."""
    rng = np.random.default_rng(args.seed)
    tol_samples = args.samples
    residuals: dict[str, float] = {}
    if family in ("oracular", "logdim"):
        inst = _build_instance(family, g, args)
        worst = 0.0
        for _ in range(tol_samples):
            phi = rng.uniform(0, 2 * np.pi, g.d)
            worst = max(worst, abs(simulate_expectation(inst, phi) - inst.closed_form(phi)))
        residuals["closed-form-vs-simulation"] = worst
    elif family == "boosted":
        inst = _build_instance(family, g, args)
        worst = 0.0
        for _ in range(tol_samples):
            phi = rng.uniform(0, 2 * np.pi, g.d)
            worst = max(worst, abs(simulate_expectation(inst, phi) - inst.closed_form(phi)))
        residuals["closed-form-vs-simulation"] = worst
        mc, _ = maxcut_bruteforce(g)
        _, _, sw = spectral_extremes(inst.observable)
        residuals["spectral-width-vs-maxcut-power"] = abs(sw - float(mc) ** args.k)
    elif family == "single-layer":
        inst = _build_instance(family, g, args)
        worst = 0.0
        span = float(args.m) ** min(g.d, 3)
        for _ in range(tol_samples):
            t = rng.uniform(0, span)
            worst = max(worst, abs(simulate_expectation(inst, np.array([t])) - inst.closed_form(t)))
        residuals["closed-form-vs-simulation"] = worst
    elif family == "qaoa1":
        inst = _build_instance(family, g, args)
        worst = 0.0
        for _ in range(tol_samples):
            beta = rng.uniform(0, 2 * np.pi)
            gamma = rng.uniform(0, 2 * np.pi / args.tau)
            _, val = qaoa_apply(inst, np.array([beta]), np.array([gamma]))
            worst = max(worst, abs(val - inst.closed_form(beta, gamma)))
        residuals["closed-form-vs-simulation"] = worst
    elif family == "qaoa-multi":
        inst = _build_instance(family, g, args)
        hb_lo, hb_hi, _ = spectral_extremes(inst.mixer)
        hb_norm = max(abs(hb_lo), abs(hb_hi))
        hc_lo, hc_hi, _ = spectral_extremes(inst.cost)
        hc_norm = max(abs(hc_lo), abs(hc_hi))
        residuals["mixer-norm-vs-3"] = abs(hb_norm - 3.0)
        residuals["cost-norm-vs-1"] = abs(hc_norm - 1.0)
        mc, witness = maxcut_bruteforce(g)
        beta, gamma = multilayer_encoding(g, witness)
        _, val = qaoa_apply(inst, beta, gamma)
        residuals["optimal-encoding-vs-closed-form"] = abs(val - multilayer_optimal_value(g, mc))
    elif family == "fermion":
        inst = _build_instance(family, g, args)
        worst = 0.0
        for _ in range(tol_samples):
            phi = rng.uniform(0, 2 * np.pi, g.d)
            worst = max(worst, abs(gaussian_expectation(inst, phi) - inst.closed_form(phi)))
        residuals["closed-form-vs-covariance-pipeline"] = worst
        if inst.n_modes <= 8:
            worst = 0.0
            for _ in range(min(tol_samples, 10)):
                phi = rng.uniform(0, 2 * np.pi, g.d)
                worst = max(
                    worst, abs(gaussian_expectation(inst, phi) - fock_bruteforce_expectation(inst, phi))
                )
            residuals["covariance-vs-fock-oracle"] = worst
    else:
        raise UsageError(f"unknown family {family!r}")
    return residuals


def cmd_verify(args) -> int:
    graphs = _load_graphs(args)
    records = []
    ok = True
    for g in graphs:
        residuals = _verify_family(args.family, g, args)
        ok &= all(r <= args.tol for r in residuals.values())
        records.append({"graph": graph_to_json(g), "max_residuals": residuals})
    doc = {
        "schema": SCHEMA,
        "artifact_version": __version__,
        "command": "verify",
        "family": args.family,
        "seed": args.seed,
        "tolerance": args.tol,
        "instances": records,
        "pass": ok,
    }
    _emit(doc, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# optimize

def cmd_optimize(args) -> int:
    graphs = _load_graphs(args)
    cfg = OptimizerConfig(seed=args.seed, restarts=args.restarts)
    records = []
    delta_os = []
    for g in graphs:
        inst = _landscape_instance(args.family, g, args)
        objective, gradient, n_params = _family_objective(args.family, g, args, inst)
        mc, _ = maxcut_bruteforce(g)
        greedy_val, _, _ = maxcut_greedy(g, args.seed)
        lam_min, lam_max = _family_spectrum(args.family, g, mc, args, inst)
        if args.family in ("single-layer", "qaoa1"):
            if args.family == "single-layer":
                grid_obj = lambda t: objective(np.array([t]))
                bounds = (0.0, float(args.m) ** min(g.d, 3))
            else:
                gamma_star = np.pi / (2 * args.tau)
                grid_obj = lambda b: objective(np.array([b, gamma_star]))
                bounds = (0.0, float(args.m) ** min(g.d, 3))
            ref = reference_minimum(
                args.family, g, mc, k=args.k, grid_objective=grid_obj,
                grid_bounds=bounds, grid_samples=args.grid_samples,
            )
        else:
            ref = reference_minimum(args.family, g, mc, k=args.k)
        result = multistart(objective, n_params, cfg, gradient)
        # grid references are sampled, so the descent may undershoot slightly
        ref = min(ref, result.best_value)
        report = build_report(result, ref, lam_min, lam_max)
        delta_os.append(report.delta_o)
        records.append(
            {
                "graph": graph_to_json(g),
                "maxcut": mc,
                "greedy_value": greedy_val,
                **report.to_dict(),
            }
        )
    doc = {
        "schema": SCHEMA,
        "artifact_version": __version__,
        "command": "optimize",
        "family": args.family,
        "seed": args.seed,
        "restarts": args.restarts,
        "instances": records,
        "aggregate_delta": max(delta_os),
        "reference_constants": REFERENCE_CONSTANTS,
        "timestamp": time.time(),
    }
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# landscape

def _parse_axis(spec: str) -> tuple[int, float, float, int]:
    try:
        idx, lo, hi, count = spec.split(":")
        return int(idx), float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError(f"--axis expects IDX:START:STOP:COUNT, got {spec!r}")


def cmd_landscape(args) -> int:
    g = _load_graphs(args)[0]
    objective, _, n_params = _family_objective(
        args.family, g, args, _landscape_instance(args.family, g, args)
    )
    if not args.axis or len(args.axis) > 2:
        raise UsageError("landscape needs 1 or 2 --axis specifications")
    axes = [_parse_axis(a) for a in args.axis]
    base = np.zeros(n_params)
    for spec in args.fixed or []:
        try:
            idx, val = spec.split("=")
            base[int(idx)] = float(val)
        except (ValueError, IndexError):
            raise UsageError(f"--fixed expects IDX=VALUE, got {spec!r}")
    for idx, _, _, _ in axes:
        if not (0 <= idx < n_params):
            raise UsageError(f"axis index {idx} outside 0..{n_params - 1}")
    grids = [np.linspace(lo, hi, count) for _, lo, hi, count in axes]
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    writer.writerow([f"param_{idx}" for idx, *_ in axes] + ["value"])
    if len(axes) == 1:
        idx = axes[0][0]
        for t in grids[0]:
            x = base.copy()
            x[idx] = t
            writer.writerow([f"{t:.12g}", f"{objective(x):.12g}"])
    else:
        i0, i1 = axes[0][0], axes[1][0]
        for t0 in grids[0]:
            for t1 in grids[1]:
                x = base.copy()
                x[i0], x[i1] = t0, t1
                writer.writerow([f"{t0:.12g}", f"{t1:.12g}", f"{objective(x):.12g}"])
    if args.out:
        out.close()
    return 0


# ---------------------------------------------------------------------------
# export

def cmd_export(args) -> int:
    g = _load_graphs(args)[0]
    inst = _build_instance(args.family, g, args)
    _emit(instance_to_json(inst), args.out)
    return 0


def _emit(doc: dict, out_path) -> None:
    text = dump_json(doc, out_path)
    if out_path is None:
        print(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--graph", help="edge-list file")
    p.add_argument("--random-graph", metavar="d:p", help="seeded random graph")
    p.add_argument("--instances", type=int, default=1, help="number of random graphs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--m", type=int, default=64, help="ergodic spectrum base")
    p.add_argument("--tau", type=float, default=1e-3, help="single-layer QAOA coupling")
    p.add_argument("--k", type=int, default=1, help="boosting power")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vqalab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="closed-form vs simulation identity checks")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100, help="random parameter draws")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="multistart descent with error metrics")
    _add_common(p)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--grid-samples", type=int, default=100_000)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("landscape", help="CSV grid of expectation values")
    _add_common(p)
    p.add_argument("--axis", action="append", metavar="IDX:START:STOP:COUNT")
    p.add_argument("--fixed", action="append", metavar="IDX=VALUE")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("export", help="instance JSON export")
    _add_common(p)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, GraphParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
