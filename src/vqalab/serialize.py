"""JSON export of instances and reports (schema vqa-hardness-lab/1)."""

from __future__ import annotations

import contextlib
import json
import os
import stat

import numpy as np

from .graphs import Graph
from .sim import VqaInstance

SCHEMA = "vqa-hardness-lab/1"

# Literature approximation-ratio bounds; emitted in reports for reference,
# never asserted by the artifact.
REFERENCE_CONSTANTS = {
    "unique_games_optimal_ratio": 0.8786,
    "inapproximability_bound": 16 / 17,
    "greedy_ratio": 0.5,
}


def graph_to_json(g: Graph) -> dict:
    return {
        "d": g.d,
        "edges": [[u + 1, v + 1] for u, v in g.edges()],
    }


def instance_to_json(inst: VqaInstance) -> dict:
    """The instance as a document whose matrices and states are the complex
    ndarrays themselves, for `dump_json` to write. A QAOA instance, whose
    generators alternate (cost, mixer), is written as its mixer ``hb``, cost
    ``hc`` and layer count; a fermion instance names its dimension ``modes``
    and its initial coefficient matrix ``h0``."""
    doc = {"schema": SCHEMA, "family": inst.family, "kind": inst.kind}
    if inst.graph is not None:
        doc["graph"] = graph_to_json(inst.graph)
    if inst.kind == "qaoa":
        doc.update(
            dim=inst.dim,
            layers=len(inst.generators) // 2,
            initial=inst.initial,
            hb=inst.generators[1].to_dense(),
            hc=inst.observable.to_dense(),
        )
        return doc
    size, initial = ("modes", "h0") if inst.kind == "fermion" else ("dim", "initial")
    doc.update(
        {size: inst.dim, initial: inst.initial},
        generators=[h.to_dense() for h in inst.generators],
        observable=inst.observable.to_dense(),
    )
    return doc


def _template(shape: tuple, level: int) -> str:
    """``json.dumps(..., indent=2)`` text, ``level`` deep, of a nested list
    of ``shape`` with a ``%s`` for each number."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    items = ("," + inner).join([_template(shape[1:], level + 1)] * shape[0])
    return "[" + inner + items + "\n" + "  " * level + "]"


def _array_text(a: np.ndarray, level: int) -> str:
    """The text ``json.dumps(..., indent=2)`` gives, ``level`` deep, for the
    complex array ``a`` as nested lists of ``[x.real, x.imag]`` pairs."""
    # complex128 memory holds re, im in turn: the pairs are the last axis
    floats = np.ascontiguousarray(a, dtype=complex).view(float).ravel().tolist()
    # float.__repr__ is the stdlib's text of a finite float; json.dumps also
    # writes NaN and the infinities
    texts = map(float.__repr__ if np.isfinite(a).all() else json.dumps, floats)
    return _template(a.shape + (2,), level) % tuple(texts)


@contextlib.contextmanager
def open_out(path, newline=None):
    """A text stream that rewrites ``path`` in place, as ``open(path, "w",
    newline=newline)`` would write it.

    The file is opened without ``O_TRUNC`` and, on exit (by an exception as
    well), cut to the length written, if it is a regular file. Truncating a
    just-written file at open makes ext4 wait for its writeback; cutting it
    after the write does not. Nothing is synced, so a crash can leave a
    partial file, as with ``open(path, "w")``.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "w", newline=newline, closefd=False) as fh:
            try:
                yield fh
            finally:
                fh.flush()
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)


def dump_json(doc: dict, path=None) -> str:
    """``doc`` as the text of ``json.dumps(doc, sort_keys=True, indent=2)``,
    each complex ndarray in it written as its nested ``[re, im]`` lists;
    written with ``"\\n"`` appended when ``path`` is given.

    The stdlib encoder writes the document. Its ``default`` hook takes the
    complex arrays and returns None; the ``null`` chunk that follows that call
    is replaced by the array's text, nested as deep as the last indentation.
    """
    arrays = []

    def default(o):
        if isinstance(o, np.ndarray) and o.dtype.kind == "c":
            arrays.append(o)
            return None
        return json.JSONEncoder.default(encoder, o)

    encoder = json.JSONEncoder(sort_keys=True, indent=2, default=default)
    out = []
    indent = ""
    for chunk in encoder.iterencode(doc):
        if arrays:
            chunk = _array_text(arrays.pop(), len(indent.rpartition("\n")[2]) // 2)
        elif "\n" in chunk:
            indent = chunk
        out.append(chunk)
    text = "".join(out)
    if path is not None:
        with open_out(path) as fh:
            fh.write(text + "\n")
    return text
