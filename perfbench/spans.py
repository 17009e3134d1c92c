"""Spans recorded from outside the program, and the per-layer figures built from them.

A :class:`Tracer` replaces each public function of the ``vqalab`` modules,
in every ``vqalab`` namespace that binds it, with a wrapper that records a
span: name, start, end, parent span and pass number. ``numpy.linalg.eigh``
and ``eigvalsh`` are patched once, because callers look them up at call time.
Spans stay in memory in flat arrays until :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

BUILD_SUFFIX = "_instance"


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered = union_length((max(start[c], s), min(end[c], e)) for c in children.get(i, ()))
        out.append((e - s) - covered)
    return out


def _instance_nbytes(inst) -> int:
    """nbytes of the arrays an instance holds, directly or in a tuple field."""
    total = 0
    for value in vars(inst).values():
        items = value if isinstance(value, (tuple, list)) else (value,)
        total += sum(int(getattr(x, "nbytes", 0)) for x in items if hasattr(x, "dtype"))
    return total


def _bytes_out(doc: dict, text: str) -> int:
    """Bytes of JSON written, one newline included, less the ``timestamp`` value.

    The timestamp's digit count varies from run to run; without it the count
    repeats exactly for a fixed seed.
    """
    stamp = len(json.dumps(doc["timestamp"])) if "timestamp" in doc else 0
    return len(text.encode()) + 1 - stamp


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.current_pass = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float) -> None:
        self.counters[self.current_pass][key] += amount

    def wrap(self, fn, span_name: str, on_return=None):
        """``fn`` with a span recorded around each call; ``on_return(args, kwargs, result)``
        may add computed counts."""
        nid = self._name_id(span_name)
        name, start, end, parent, pass_id = self.name, self.start, self.end, self.parent, self.pass_id
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            pass_id.append(tracer.current_pass)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public vqalab function and numpy's eigensolvers."""
        import numpy.linalg

        modules = {n: m for n, m in sys.modules.items() if n == "vqalab" or n.startswith("vqalab.")}
        wrappers = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                    continue
                hook = None
                if layer == "reductions" and attr.endswith(BUILD_SUFFIX):
                    hook = lambda a, k, r: self.count("reductions.instance_bytes", _instance_nbytes(r))
                elif layer == "serialize" and attr == "dump_json":
                    hook = lambda a, k, r: self.count("serialize.bytes_out", _bytes_out(a[0], r))
                wrappers[id(obj)] = self.wrap(obj, f"{layer}.{attr}", hook)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(mod, attr, wrappers[id(obj)])

        def eigh_work(args, kwargs, result):
            a = args[0] if args else kwargs["a"]
            n = a.shape[-1]
            batch = 1
            for dim in a.shape[:-2]:
                batch *= dim
            self.count("linalg.eigh.n3_sum", batch * n**3)

        self._patch(numpy.linalg, "eigh", self.wrap(numpy.linalg.eigh, "linalg.eigh", eigh_work))
        self._patch(numpy.linalg, "eigvalsh", self.wrap(numpy.linalg.eigvalsh, "linalg.eigvalsh"))

    def _patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # -- output ------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span and the name table to a compressed ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int32),
        )

    def pass_metrics(self, pass_no: int) -> dict[str, float]:
        """Per-layer figures of one traced pass (see :func:`layer_metrics`)."""
        idx = [i for i, p in enumerate(self.pass_id) if p == pass_no]
        return layer_metrics(
            [self.names[self.name[i]] for i in idx],
            [self.start[i] for i in idx],
            [self.end[i] for i in idx],
            _reindex([self.parent[i] for i in idx], idx),
            self.counters[pass_no],
        )


def _reindex(parents, idx) -> list[int]:
    pos = {g: j for j, g in enumerate(idx)}
    return [pos.get(p, -1) for p in parents]


def layer_metrics(names, start, end, parent, counters) -> dict[str, float]:
    """Counts and times per span name and per layer for one pass of spans.

    For each span name ``n``: ``n.calls``, ``n.s`` (time covered by its
    spans) and ``n.self_s``. For each layer ``l``: ``l.self_s`` and, over
    the layer's ``*_instance`` constructors, ``l.build.calls`` and
    ``l.build.s``. Computed counts come from ``counters``.
    """
    selfs = self_times(start, end, parent)
    by_name = defaultdict(list)
    for i, n in enumerate(names):
        by_name[n].append(i)
    out: dict[str, float] = defaultdict(float)
    builds = defaultdict(list)
    for n, idx in by_name.items():
        layer, _, fn = n.partition(".")
        intervals = [(start[i], end[i]) for i in idx]
        out[f"{n}.calls"] = len(idx)
        out[f"{n}.s"] = union_length(intervals)
        out[f"{n}.self_s"] = sum(selfs[i] for i in idx)
        out[f"{layer}.self_s"] += out[f"{n}.self_s"]
        if fn.endswith(BUILD_SUFFIX):
            out[f"{layer}.build.calls"] += len(idx)
            builds[layer] += intervals
    for layer, intervals in builds.items():
        out[f"{layer}.build.s"] = union_length(intervals)
    out.update(counters)
    mu_calls = out.get("landscape.mu.calls", 0)
    out["landscape.mu.us_per_call"] = 1e6 * out.get("landscape.mu.s", 0.0) / mu_calls if mu_calls else 0.0
    main_s = out.get("cli.main.s", 0.0)
    out["trace.unattributed_frac"] = out.get("cli.self_s", 0.0) / main_s if main_s else 0.0
    return dict(out)
