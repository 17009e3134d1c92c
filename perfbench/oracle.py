"""The benchmark's independent oracle: input graphs, MaxCut, output checks.

Nothing here imports ``vqalab``: the graphs are generated, the maximum cuts
computed and the CLI outputs judged by code that shares no logic with the
program under test.
"""

from __future__ import annotations

import hashlib
import json
import random

MAXCUT_LIMIT = 10
VALUE_SLACK = 1e-9
DIGEST_DROPPED_KEYS = frozenset({"timestamp"})


def random_graph(d: int, p: float, key: str) -> list[tuple[int, int]]:
    """Edges (u, v), 1 <= u < v <= d, of a G(d, p) graph drawn from ``key``.

    The same key always gives the same graph. An empty draw is patched with
    one edge chosen from the same stream, so the graph is never edgeless.
    """
    if d < 2:
        raise ValueError("a graph needs at least two vertices")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(key)
    edges = [(u, v) for u in range(1, d + 1) for v in range(u + 1, d + 1) if rng.random() < p]
    if not edges:
        u = rng.randrange(1, d)
        edges = [(u, rng.randrange(u + 1, d + 1))]
    return edges


def edge_list_text(d: int, edges: list[tuple[int, int]]) -> str:
    """The CLI's edge-list format: vertex count, then one ``u v`` per line."""
    return f"{d}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def maxcut(d: int, edges: list[tuple[int, int]]) -> int:
    """Exhaustive maximum cut; vertex d is pinned to one side."""
    if d > MAXCUT_LIMIT:
        raise ValueError(f"d={d} exceeds the oracle's exhaustive limit {MAXCUT_LIMIT}")
    best = 0
    for mask in range(1 << (d - 1)):
        cut = sum(((mask >> (u - 1)) ^ (mask >> (v - 1))) & 1 for u, v in edges)
        best = max(best, cut)
    return best


def _drop_keys(node):
    if isinstance(node, dict):
        return {k: _drop_keys(v) for k, v in node.items() if k not in DIGEST_DROPPED_KEYS}
    if isinstance(node, list):
        return [_drop_keys(v) for v in node]
    return node


def digest(doc) -> str:
    """SHA-256 of a JSON document in canonical form, with every ``timestamp`` removed."""
    canonical = json.dumps(_drop_keys(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def expected_size(family: str, d: int, k: int) -> tuple[str, int]:
    """The ``dim`` or ``modes`` field an export of the family must carry."""
    sizes = {
        "oracular": ("dim", 1 << d),
        "boosted": ("dim", 1 << (k * d)),
        "logdim": ("dim", 2 * d),
        "single-layer": ("dim", 2 * d),
        "qaoa1": ("dim", 2 * d + 1),
        "qaoa-multi": ("dim", (2 * d + 1) * 4 * d * d),
        "fermion": ("modes", 2 * d),
    }
    return sizes[family]


def check(spec: dict, doc: dict) -> list[str]:
    """Every way the parsed output ``doc`` of the command ``spec`` is wrong.

    ``spec`` carries the subcommand, family, d, k and the oracle's maxcut.
    """
    problems = []
    kind, family = spec["command"], spec["family"]
    if kind == "verify":
        if doc.get("pass") is not True:
            problems.append("verify reported pass != true")
        tol = doc.get("tolerance")
        for inst in doc.get("instances", []):
            for name, residual in inst.get("max_residuals", {}).items():
                if not (isinstance(residual, (int, float)) and residual <= tol):
                    problems.append(f"residual {name}={residual!r} above tolerance {tol!r}")
        if not doc.get("instances"):
            problems.append("verify reported no instances")
    elif kind == "optimize":
        if not doc.get("instances"):
            problems.append("optimize reported no instances")
        for inst in doc.get("instances", []):
            if inst.get("maxcut") != spec["maxcut"]:
                problems.append(f"maxcut {inst.get('maxcut')!r} != oracle {spec['maxcut']}")
            if family in ("oracular", "logdim", "fermion"):
                floor = -spec["maxcut"] - VALUE_SLACK
                if not inst.get("best_value", floor - 1) >= floor:
                    problems.append(f"best_value {inst.get('best_value')!r} below -maxcut")
            for name in ("delta", "delta_m", "delta_o"):
                value = inst.get(name)
                if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                    problems.append(f"{name}={value!r} outside [0, 1]")
    elif kind == "export":
        field, size = expected_size(family, spec["d"], spec.get("k", 1))
        if doc.get(field) != size:
            problems.append(f"export {field}={doc.get(field)!r}, family implies {size}")
    else:
        problems.append(f"unknown subcommand {kind!r}")
    return problems
