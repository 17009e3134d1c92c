"""Unweighted graphs and exact / greedy MaxCut solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_EXHAUSTIVE_LIMIT = 24


class GraphParseError(ValueError):
    """Raised when an edge-list document cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, unweighted, loop-free graph given by its adjacency matrix.

    The adjacency matrix is symmetric, binary, has a vanishing diagonal and
    at least one edge. ``float_adjacency`` is its float64 copy and
    ``adjacency_sum`` its entry sum, made once for the ``mu`` kernels.
    """

    adjacency: np.ndarray
    float_adjacency: np.ndarray = field(init=False, repr=False)
    adjacency_sum: float = field(init=False, repr=False)

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=int)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency must have a zero diagonal")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        if a.sum() == 0:
            raise ValueError("graph must have at least one edge")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        # exact: the entries are 0 and 1, so the cast changes no value
        f = a.astype(float)
        f.setflags(write=False)
        object.__setattr__(self, "float_adjacency", f)
        object.__setattr__(self, "adjacency_sum", float(a.sum()))

    @property
    def d(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        u, v = np.nonzero(np.triu(self.adjacency))
        return list(zip(u.tolist(), v.tolist()))


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a :class:`Graph`.

    First non-comment line holds the vertex count d; each following line
    holds one edge ``u v`` with 1 <= u < v <= d.  Lines starting with '#'
    are ignored.
    """
    d = None
    adjacency = None
    n_edges = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if d is None:
            try:
                d = int(line)
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected vertex count, got {line!r}")
            if d < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive")
            adjacency = np.zeros((d, d), dtype=int)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex index in {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= u < v <= d):
            raise GraphParseError(f"line {lineno}: edge ({u}, {v}) outside 1 <= u < v <= {d}")
        if adjacency[u - 1, v - 1]:
            raise GraphParseError(f"line {lineno}: duplicate edge ({u}, {v})")
        adjacency[u - 1, v - 1] = adjacency[v - 1, u - 1] = 1
        n_edges += 1
    if d is None:
        raise GraphParseError("line 1: empty document")
    if n_edges == 0:
        raise GraphParseError(f"line {lineno}: graph has no edges")
    return Graph(adjacency)


def random_graph(d: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph G(d, p), patched with one random edge if empty."""
    if d < 2:
        raise ValueError("need at least two vertices")
    if not (0.0 <= p <= 1.0):
        raise ValueError("edge probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((d, d)) < p, k=1).astype(int)
    if upper.sum() == 0:
        u = int(rng.integers(0, d - 1))
        v = int(rng.integers(u + 1, d))
        upper[u, v] = 1
    return Graph(upper + upper.T)


def _check_assignment(g: Graph, assignment: np.ndarray) -> np.ndarray:
    v = np.asarray(assignment, dtype=int)
    if v.shape != (g.d,):
        raise ValueError(f"assignment length {v.shape} does not match d={g.d}")
    if not np.all(np.abs(v) == 1):
        raise ValueError("assignment entries must be +1 or -1")
    return v


def cut_value(g: Graph, assignment: np.ndarray) -> int:
    """Number of edges whose endpoints get different signs."""
    v = _check_assignment(g, assignment)
    a = g.adjacency
    return int(round((a.sum() - v @ a @ v) / 4))


def maxcut_bruteforce(
    g: Graph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[int, np.ndarray]:
    """Exhaustive MaxCut over all 2^(d-1) distinct bipartitions.

    Returns the optimal cut value and a witness assignment.  Refuses graphs
    above ``limit`` vertices to keep the enumeration tractable.
    """
    d = g.d
    if d > limit:
        raise ValueError(
            f"d={d} exceeds the exhaustive limit {limit}; "
            "use maxcut_greedy for larger graphs"
        )
    n_free = d - 1  # last vertex pinned to +1: each cut counted once
    best_val = -1
    best_code = 0
    edges = g.edges()
    chunk = 1 << 20
    for start in range(0, 1 << n_free, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n_free), dtype=np.int64)
        vals = np.zeros(codes.shape, dtype=np.int32)
        for u, v in edges:
            bu = (codes >> u) & 1 if u < n_free else 0
            bv = (codes >> v) & 1 if v < n_free else 0
            vals += (bu ^ bv).astype(np.int32)
        k = int(np.argmax(vals))
        if int(vals[k]) > best_val:
            best_val = int(vals[k])
            best_code = int(codes[k])
    bits = (best_code >> np.arange(d)) & 1
    bits[d - 1] = 0
    witness = 1 - 2 * bits
    assert cut_value(g, witness) == best_val
    return best_val, witness


def maxcut_greedy(g: Graph, seed: int) -> tuple[int, np.ndarray, int]:
    """Greedy single-flip local search from a seeded random bipartition.

    Sweeps vertices in index order, flips the first strictly improving
    vertex and restarts the sweep; stops when no single flip increases the
    cut.  Returns (cut value, witness, number of flips).
    """
    rng = np.random.default_rng(seed)
    v = rng.choice([-1, 1], size=g.d)
    a = g.adjacency
    flips = 0
    improved = True
    while improved:
        improved = False
        for i in range(g.d):
            # flipping i changes the cut by v_i * (A v)_i
            if v[i] * (a[i] @ v) > 0:
                v[i] = -v[i]
                flips += 1
                improved = True
                break
    return cut_value(g, v), v, flips
