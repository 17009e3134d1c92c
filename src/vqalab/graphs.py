"""Unweighted graphs and exact / greedy MaxCut solvers."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

DEFAULT_EXHAUSTIVE_LIMIT = 28
# maxcut_bruteforce's split evaluates at most this many codes per matrix product
SPLIT_BLOCK = 1 << 22


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


@functools.lru_cache(maxsize=None)
def _code_signs(n: int, pinned: bool) -> np.ndarray:
    """The cosine signs of the codes 0..2^n - 1, one row per code: column i
    is +1 where bit i of the code is 0 and -1 where it is 1, then, if
    ``pinned``, a column of +1. One read-only copy per (n, pinned)."""
    bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    signs = np.concatenate([1 - 2 * bits, np.ones((1 << n, int(pinned)), np.int64)], axis=1)
    signs.flags.writeable = False
    return signs


def maxcut_bruteforce(
    g: Graph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> tuple[int, np.ndarray]:
    """Exhaustive MaxCut over all 2^(d-1) distinct bipartitions.

    Returns the optimal cut value and a witness assignment: the first
    maximising code, where bit i of the code puts vertex i on the -1 side and
    the last vertex is pinned to +1. Refuses graphs above ``limit`` vertices.

    The enumeration is split (R. Williams, Theor. Comput. Sci. 348, 2005):
    the free vertices form a low half, code bits 0..n_low-1, and a high
    half, the rest with the pinned vertex. For sign vectors s = (s_L, s_H),
    s^T A s is the sum of each half's own term and the cross term
    2 s_L^T A_LH s_H, so a block of high-half codes against every low-half
    code is one int64 matrix product, of at most SPLIT_BLOCK entries, in
    code order.
    """
    d = g.d
    if d > limit:
        raise ValueError(
            f"d={d} exceeds the exhaustive limit {limit}; "
            "use maxcut_greedy for larger graphs"
        )
    A = g.adjacency.astype(np.int64)
    n_free = d - 1  # last vertex pinned to +1: each cut counted once
    n_low = (n_free + 1) // 2
    low, high = _code_signs(n_low, False), _code_signs(n_free - n_low, True)
    # s^T A s per half, and the high half's side of the cross term, 2 A_HL s_L
    low_terms = ((low @ A[:n_low, :n_low]) * low).sum(axis=1)
    high_terms = ((high @ A[n_low:, n_low:]) * high).sum(axis=1)
    cross = 2 * (A[n_low:, :n_low] @ low.T)
    rows = max(1, SPLIT_BLOCK >> n_low)
    # the cut is (sum(A) - s^T A s) / 4: the largest cut is the least s^T A s
    best_sts, best_code = float("inf"), 0
    for start in range(0, len(high), rows):
        sts = high[start : start + rows] @ cross
        sts += high_terms[start : start + rows, None]
        sts += low_terms
        k = int(sts.argmin())
        if sts.flat[k] < best_sts:
            best_sts, best_code = int(sts.flat[k]), (start << n_low) + k
    best_val = (int(A.sum()) - best_sts) // 4
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
