"""JSON export of instances and reports (schema vqa-hardness-lab/1)."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str
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
    return [list(map(list, zip(re, im))) for re, im in zip(m.real.tolist(), m.imag.tolist())]


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex)
    return list(map(list, zip(v.real.tolist(), v.imag.tolist())))


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


_INF = float("inf")
_float_repr = float.__repr__


def _scalar_text(o) -> str:
    """JSON text of a value that is not a list, tuple or dict; the checks run
    in the order of the stdlib encoder."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return _float_repr(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if key is not None and not isinstance(key, (str, int, float)):
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _encode_str(key if isinstance(key, str) else _scalar_text(key))


def _write(o, level: int, out: list) -> None:
    """Append the JSON text of ``o``, nested ``level`` deep, to ``out``."""
    if not isinstance(o, (list, tuple, dict)):
        out.append(_scalar_text(o))
        return
    if not o:
        out.append("{}" if isinstance(o, dict) else "[]")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "," + inner
    lead = inner
    if isinstance(o, dict):
        out.append("{")
        for key, value in sorted(o.items()):
            out.append(lead + _key_text(key) + ": ")
            lead = sep
            _write(value, level + 1, out)
        out.append("\n" + "  " * level + "}")
        return
    # A [re, im] pair of two finite plain floats fills one template; anything
    # else, NaN, infinities and float subclasses included, takes _write.
    deeper = "\n" + "  " * (level + 2)
    pair = "[" + deeper + "%s," + deeper + "%s" + inner + "]"
    out.append("[")
    for item in o:
        out.append(lead)
        lead = sep
        if type(item) is list and len(item) == 2:
            re, im = item
            if type(re) is float and type(im) is float and -_INF < re < _INF and -_INF < im < _INF:
                out.append(pair % (_float_repr(re), _float_repr(im)))
                continue
        _write(item, level + 1, out)
    out.append("\n" + "  " * level + "]")


def dump_json(doc: dict, path=None) -> str:
    """``doc`` as the text of ``json.dumps(doc, sort_keys=True, indent=2)``,
    written with ``"\\n"`` appended when ``path`` is given."""
    out: list = []
    _write(doc, 0, out)
    text = "".join(out)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
