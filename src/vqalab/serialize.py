"""JSON export of instances and reports (schema vqa-hardness-lab/1)."""

from __future__ import annotations

import json
from typing import Union

import numpy as np

from .fermions import FermionInstance
from .graphs import Graph
from .reductions import QAOA_FAMILIES
from .sim import VqaInstance

SCHEMA = "vqa-hardness-lab/1"

# Literature approximation-ratio bounds; emitted in reports for reference,
# never asserted by the artifact.
REFERENCE_CONSTANTS = {
    "unique_games_optimal_ratio": 0.8786,
    "inapproximability_bound": 16 / 17,
    "greedy_ratio": 0.5,
}


def matrix_to_json(m: np.ndarray) -> list:
    """Dense complex matrix as nested [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex)
    return [[float(x.real), float(x.imag)] for x in v]


def matrix_from_json(data: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def graph_to_json(g: Graph) -> dict:
    return {
        "d": g.d,
        "edges": [[u + 1, v + 1] for u, v in g.edges()],
    }


def instance_to_json(inst: Union[VqaInstance, FermionInstance]) -> dict:
    """A QAOA instance, whose generators alternate (cost, mixer), is written
    as its mixer ``hb``, cost ``hc`` and layer count."""
    doc = {"schema": SCHEMA, "family": inst.family}
    if inst.graph is not None:
        doc["graph"] = graph_to_json(inst.graph)
    if inst.family in QAOA_FAMILIES:
        doc.update(
            kind="qaoa",
            dim=inst.dim,
            layers=len(inst.generators) // 2,
            initial=vector_to_json(inst.initial),
            hb=matrix_to_json(inst.generators[1].to_dense()),
            hc=matrix_to_json(inst.observable.to_dense()),
        )
    elif isinstance(inst, VqaInstance):
        doc.update(
            kind="vqa",
            dim=inst.dim,
            initial=vector_to_json(inst.initial),
            generators=[matrix_to_json(h.to_dense()) for h in inst.generators],
            observable=matrix_to_json(inst.observable.to_dense()),
        )
    elif isinstance(inst, FermionInstance):
        doc.update(
            kind="fermion",
            modes=inst.n_modes,
            h0=matrix_to_json(inst.h0),
            generators=[matrix_to_json(h) for h in inst.generators],
            observable=matrix_to_json(inst.o),
        )
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    return doc


def dump_json(doc: dict, path=None) -> str:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
