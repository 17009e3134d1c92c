"""JSON export of instances and reports (schema vqa-hardness-lab/1)."""

from __future__ import annotations

import contextlib
import json
import math
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


def _array_chunks(a: np.ndarray, level: int) -> list:
    """The text ``json.dumps(..., indent=2)`` gives, ``level`` deep, for the
    complex array ``a`` as nested lists of ``[x.real, x.imag]`` pairs, as a
    list of chunks no longer than one row (a slice along the first axis)
    whose join is that text.

    Exported matrices hold few distinct entries, so each is formatted once:
    entries are grouped by their 16 bytes (signed zeros and NaN payloads
    apart), and the rows are joined from the texts of their groups. Most
    exported entries are ``+0.0+0.0j`` (both words of their bits zero): that
    entry is group 0, and only the others are sorted into groups. The rows
    stay separate chunks, so no array's whole text is built."""
    flat = np.ascontiguousarray(a, dtype=complex).reshape(-1)
    # complex128 memory holds re, im in turn: one uint64 row per entry
    bits = flat.view(np.uint64).reshape(-1, 2)
    # a | of the two words, not .any(axis=1): a reduce over axes of length 2
    # costs four times as much
    rest = np.flatnonzero(bits[:, 0] | bits[:, 1])
    order = rest[np.lexsort(bits[rest].T)]
    ranked = bits[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:, 0] != ranked[:-1, 0]) | (ranked[1:, 1] != ranked[:-1, 1])
    group = np.zeros(len(flat), dtype=np.intp)
    group[order] = np.cumsum(new)
    distinct = flat[order[new]]
    floats = [0.0, 0.0] + distinct.view(float).tolist()
    # "%s" writes a float as float.__repr__, the stdlib's text of a finite
    # float; json.dumps also writes NaN and the infinities
    values = iter(floats if np.isfinite(distinct).all() else map(json.dumps, floats))
    inner = "\n" + "  " * (level + a.ndim + 1)
    pair = "[" + inner + "%s," + inner + "%s\n" + "  " * (level + a.ndim) + "]"
    # zipped with itself, the one iterator gives each (re, im) in turn
    pairs = list(map(pair.__mod__, zip(values, values)))
    texts = np.array(pairs, dtype=object)[group].tolist()
    for axis in range(a.ndim - 1, 0, -1):
        n = a.shape[axis]
        if not n:
            texts = ["[]"] * math.prod(a.shape[:axis])
            continue
        inner = "\n" + "  " * (level + axis + 1)
        sep, close = "," + inner, "\n" + "  " * (level + axis) + "]"
        texts = [f"[{inner}{sep.join(texts[i : i + n])}{close}" for i in range(0, len(texts), n)]
    if not a.ndim or not a.shape[0]:
        return texts or ["[]"]
    # the first axis: its rows between the opening, separators and closing
    inner = "\n" + "  " * (level + 1)
    chunks = ["," + inner] * (2 * len(texts) + 1)
    chunks[0] = "[" + inner
    chunks[1::2] = texts
    chunks[-1] = "\n" + "  " * level + "]"
    return chunks


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
    is replaced by the array's row chunks, nested as deep as the last
    indentation. The file is written from that same chunk list, one chunk at
    a time: an export's text runs to hundreds of KB, and a whole-document
    copy of it, then its encoding, would fault in fresh pages on every call.
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
            out += _array_chunks(arrays.pop(), len(indent.rpartition("\n")[2]) // 2)
            continue
        if "\n" in chunk:
            indent = chunk
        out.append(chunk)
    if path is not None:
        with open_out(path) as fh:
            fh.writelines(out)
            fh.write("\n")
    return "".join(out)
