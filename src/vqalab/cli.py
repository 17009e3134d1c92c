"""Command-line harness: verify | optimize | landscape | export.

Every subcommand is deterministic given --seed; exit codes are 0 (success),
1 (verification or optimization failure), 2 (usage error).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys
import time

import numpy as np

from . import __version__
from .families import FAMILIES
from .graphs import Graph, GraphParseError, maxcut_bruteforce, maxcut_greedy, parse_graph, random_graph
from .optimize import GRID_BLOCK, OptimizerConfig, build_report, optimize
from .serialize import REFERENCE_CONSTANTS, SCHEMA, dump_json, graph_to_json, instance_to_json, open_out


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
        if d < 2:
            raise UsageError(f"--random-graph d must be at least 2, got {args.random_graph!r}")
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            raise UsageError(f"--random-graph p must be finite and in [0, 1], got {args.random_graph!r}")
        return [random_graph(d, p, args.seed + i) for i in range(args.instances)]
    raise UsageError("provide either --graph FILE or --random-graph d:p")


def _landscape(family, g: Graph, args):
    """(instance or None, Landscape); the instance is built only where the
    landscape or the spectrum reads it."""
    inst = family.build(g, args) if family.needs_instance else None
    return inst, family.landscape(g, args, inst)


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    family = FAMILIES[args.family]
    records = []
    ok = True
    for g in _load_graphs(args):
        rng = np.random.default_rng(args.seed)
        inst = family.build(g, args)
        objective = family.landscape(g, args, inst).objective
        residuals = family.verify(g, args, inst, lambda X: family.report(args, objective(X)), rng)
        ok &= all(r <= args.tol for r in residuals.values())
        # a non-finite residual fails and is written as null: bare NaN is not JSON
        residuals = {name: r if math.isfinite(r) else None for name, r in residuals.items()}
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
    family = FAMILIES[args.family]
    cfg = OptimizerConfig(seed=args.seed, restarts=args.restarts)
    records = []
    for g in _load_graphs(args):
        inst, land = _landscape(family, g, args)
        mc, _ = maxcut_bruteforce(g)
        greedy_val, _, _ = maxcut_greedy(g, args.seed)
        lam_min, lam_max = family.spectrum(g, mc, args, inst)
        result = optimize(land, cfg)
        result.best_value = float(family.report(args, result.best_value))
        ref = family.reference(g, mc, args, land.objective, result.best_value)
        records.append(
            {
                "graph": graph_to_json(g),
                "maxcut": mc,
                "greedy_value": greedy_val,
                **build_report(result, ref, lam_min, lam_max),
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
        "aggregate_delta": max(r["delta_o"] for r in records),
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
        idx, lo, hi, count = int(idx), float(lo), float(hi), int(count)
    except ValueError:
        raise UsageError(f"--axis expects IDX:START:STOP:COUNT, got {spec!r}")
    if count < 1:
        raise UsageError(f"--axis COUNT must be at least 1, got {spec!r}")
    if not np.isfinite([lo, hi]).all():
        raise UsageError(f"--axis START and STOP must be finite, got {spec!r}")
    return idx, lo, hi, count


def _check_index(idx: int, n_params: int, what: str) -> None:
    if not (0 <= idx < n_params):
        raise UsageError(f"{what} index {idx} outside 0..{n_params - 1}")


def cmd_landscape(args) -> int:
    g = _load_graphs(args)[0]
    family = FAMILIES[args.family]
    _, land = _landscape(family, g, args)
    if not args.axis or len(args.axis) > 2:
        raise UsageError("landscape needs 1 or 2 --axis specifications")
    axes = [_parse_axis(a) for a in args.axis]
    base = np.zeros(land.n_params)
    for spec in args.fixed or []:
        try:
            idx, val = spec.split("=")
            idx, val = int(idx), float(val)
        except ValueError:
            raise UsageError(f"--fixed expects IDX=VALUE, got {spec!r}")
        _check_index(idx, land.n_params, "fixed")
        base[idx] = val
    if not np.isfinite(base).all():
        raise UsageError("--fixed VALUE must be finite")
    for idx, _, _, _ in axes:
        _check_index(idx, land.n_params, "axis")
    with np.errstate(over="ignore", invalid="ignore"):
        grids = [np.linspace(lo, hi, count) for _, lo, hi, count in axes]
    # finite ends whose span overflows give infinite or NaN points
    for spec, grid in zip(args.axis, grids):
        if not np.isfinite(grid).all():
            raise UsageError(f"--axis grid points must be finite, got {spec!r}")
    # the unchecked objectives overflow at a few finite points (single-layer
    # phases E_i * t past the float range); the value check reports those
    shape = [len(grid) for grid in grids]
    total = math.prod(shape)
    sink = open_out(args.out, newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with sink as out, np.errstate(over="ignore", invalid="ignore"):
        writer = csv.writer(out)
        writer.writerow([f"param_{idx}" for idx, *_ in axes] + ["value"])
        # the grid points in row-major order, GRID_BLOCK rows per objective call
        for start in range(0, total, GRID_BLOCK):
            flat = np.arange(start, min(start + GRID_BLOCK, total))
            columns = [grid[i] for grid, i in zip(grids, np.unravel_index(flat, shape))]
            X = np.tile(base, (flat.size, 1))
            for (idx, *_), column in zip(axes, columns):
                X[:, idx] = column
            values = family.report(args, land.objective(X)).tolist()
            for point, value in zip(zip(*(c.tolist() for c in columns)), values):
                coords = [f"{t:.12g}" for t in point]
                if not math.isfinite(value):
                    raise ValueError(f"non-finite objective value {value} at ({', '.join(coords)})")
                writer.writerow(coords + [f"{value:.12g}"])
    return 0


# ---------------------------------------------------------------------------
# export

def cmd_export(args) -> int:
    g = _load_graphs(args)[0]
    _emit(instance_to_json(FAMILIES[args.family].build(g, args)), args.out)
    return 0


def _emit(doc: dict, out_path) -> None:
    text = dump_json(doc, out_path)
    if out_path is None:
        print(text)


def _int_at_least(low: int, kind: str):
    """argparse type: an int of at least ``low``, described as ``kind``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {kind}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_non_negative_int = _int_at_least(0, "a non-negative integer")
_base = _int_at_least(2, "an integer of at least 2")


def _tolerance(text: str) -> float:
    """argparse type: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--graph", help="edge-list file")
    p.add_argument("--random-graph", metavar="d:p", help="seeded random graph")
    p.add_argument("--instances", type=_positive_int, default=1, help="number of random graphs")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--m", type=_base, default=64, help="ergodic spectrum base")
    p.add_argument("--tau", type=float, default=1e-3, help="single-layer QAOA coupling")
    p.add_argument("--k", type=_positive_int, default=1, help="boosting power")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves no state in it,
    since every option defaults to an immutable value and ``--axis`` and
    ``--fixed`` append to a new list on each parse."""
    parser = argparse.ArgumentParser(prog="vqalab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="closed-form vs simulation identity checks")
    _add_common(p)
    p.add_argument("--samples", type=_positive_int, default=100, help="random parameter draws")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="largest residual that passes")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="descent from random restarts, with error metrics")
    _add_common(p)
    p.add_argument("--restarts", type=_positive_int, default=10)
    p.add_argument("--grid-samples", type=_positive_int, default=100_000)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, GraphParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
