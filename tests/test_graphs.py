import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_golden import CASES
from vqalab import (
    Graph,
    GraphParseError,
    cut_value,
    maxcut_bruteforce,
    maxcut_greedy,
    parse_graph,
    random_graph,
)
from vqalab import graphs as graphs_module
from vqalab.graphs import DEFAULT_EXHAUSTIVE_LIMIT


def edge_loop_maxcut(g: Graph, limit: int = DEFAULT_EXHAUSTIVE_LIMIT) -> tuple[int, np.ndarray]:
    """The oracle of maxcut_bruteforce: the package's enumeration before the
    split, one pass over the edges per chunk of codes, kept unchanged."""
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


def golden_graphs() -> dict[str, Graph]:
    """Every graph that a golden-digest command reads, by case and instance."""
    out = {}
    for name, argv in CASES.items():
        flags = dict(zip(argv[1::2], argv[2::2]))
        d, p = flags["--random-graph"].split(":")
        seed = int(flags.get("--seed", 0))
        for i in range(int(flags.get("--instances", 1))):
            out[f"{name}-{i}"] = random_graph(int(d), float(p), seed + i)
    return out


def assert_same_maxcut(g: Graph) -> None:
    value, witness = maxcut_bruteforce(g)
    want, want_witness = edge_loop_maxcut(g)
    assert value == want
    assert witness.tolist() == want_witness.tolist()


class TestParseGraph:
    def test_smallest_valid_graph(self):
        g = parse_graph("2\n1 2")
        assert g.d == 2
        assert g.edge_count == 1

    def test_triangle(self):
        g = parse_graph("3\n1 2\n2 3\n1 3")
        assert g.d == 3
        assert g.edge_count == 3
        assert np.array_equal(g.adjacency, np.ones((3, 3)) - np.eye(3))

    def test_comments_and_blank_lines_ignored(self):
        g = parse_graph("# a triangle\n3\n\n1 2\n# middle\n2 3\n1 3\n")
        assert g.edge_count == 3

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("2\n1 1", "self-loop"),
            ("2\n1 3", "outside"),
            ("2\n1 2\n1 2", "duplicate"),
            ("2\nx y", "non-integer"),
            ("2\n1 2 3", "expected 'u v'"),
            ("2", "no edges"),
            ("", "empty"),
        ],
    )
    def test_malformed_documents(self, text, fragment):
        with pytest.raises(GraphParseError, match=fragment):
            parse_graph(text)

    def test_error_names_line_number(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("3\n1 2\n2 2")


class TestGraphInvariants:
    def test_rejects_asymmetric(self):
        a = np.zeros((2, 2), dtype=int)
        a[0, 1] = 1
        with pytest.raises(ValueError, match="symmetric"):
            Graph(a)

    def test_rejects_diagonal(self):
        a = np.eye(2, dtype=int)
        with pytest.raises(ValueError, match="diagonal"):
            Graph(a)

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError, match="at least one edge"):
            Graph(np.zeros((3, 3), dtype=int))


class TestCutValue:
    def test_k3_hand_count(self, k3):
        # edges (1,3) and (2,3) cross
        assert cut_value(k3, [1, 1, -1]) == 2

    def test_all_equal_assignment_cuts_nothing(self, k3):
        assert cut_value(k3, [1, 1, 1]) == 0
        assert cut_value(k3, [-1, -1, -1]) == 0

    def test_single_edge(self, single_edge):
        assert cut_value(single_edge, [1, -1]) == 1

    def test_dimension_mismatch(self, k3):
        with pytest.raises(ValueError, match="length"):
            cut_value(k3, [1, -1])


class TestBruteforce:
    def test_single_edge(self, single_edge):
        value, witness = maxcut_bruteforce(single_edge)
        assert value == 1
        assert cut_value(single_edge, witness) == 1

    def test_k3(self, k3):
        value, _ = maxcut_bruteforce(k3)
        assert value == 2

    def test_c5(self, c5):
        value, _ = maxcut_bruteforce(c5)
        assert value == 4

    def test_limit_refusal(self, k3):
        with pytest.raises(ValueError, match="exhaustive limit"):
            maxcut_bruteforce(k3, limit=2)

    def test_default_limit_refusal(self):
        # the refusal comes before any enumeration
        g = random_graph(DEFAULT_EXHAUSTIVE_LIMIT + 1, 0.5, 0)
        with pytest.raises(ValueError, match=f"exceeds the exhaustive limit {DEFAULT_EXHAUSTIVE_LIMIT}"):
            maxcut_bruteforce(g)
        with pytest.raises(ValueError, match="exhaustive limit"):
            maxcut_bruteforce(random_graph(40, 0.5, 0))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_enumeration(self, seed):
        from itertools import product

        g = random_graph(6, 0.5, seed)
        naive = max(cut_value(g, np.array(s)) for s in product([1, -1], repeat=6))
        assert maxcut_bruteforce(g)[0] == naive


class TestSplitEnumeration:
    """maxcut_bruteforce's split enumeration against the edge loop it
    replaced: the same value and the same witness, the first maximising code."""

    @settings(max_examples=500, deadline=None)
    @given(d=st.integers(2, 16), p=st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_random_graphs(self, d, p, seed):
        assert_same_maxcut(random_graph(d, p, seed))

    @pytest.mark.parametrize("d", range(17, 21))
    def test_random_graphs_up_to_20(self, d):
        assert_same_maxcut(random_graph(d, 0.5, d))

    @pytest.mark.parametrize("name, g", sorted(golden_graphs().items()), ids=sorted(golden_graphs()))
    def test_golden_graphs(self, name, g):
        assert_same_maxcut(g)

    @pytest.mark.parametrize("d", [*range(2, 19), 20])
    def test_complete_graphs(self, d):
        # every balanced split ties: the witness is the first of many
        assert_same_maxcut(random_graph(d, 1.0, 0))

    @pytest.mark.parametrize("block", [1, 2, 64, 1000])
    @pytest.mark.parametrize("d", [2, 3, 9, 14])
    def test_several_blocks(self, block, d, monkeypatch):
        # blocks of a single high-half code up to several codes and ragged
        # ends: the best code must carry over from block to block, ties to
        # the earlier block
        monkeypatch.setattr(graphs_module, "SPLIT_BLOCK", block)
        for g in (random_graph(d, 0.5, d), random_graph(d, 1.0, 0)):
            assert_same_maxcut(g)


class TestGreedy:
    def test_single_edge_any_seed(self, single_edge):
        for seed in range(10):
            value, witness, _ = maxcut_greedy(single_edge, seed)
            assert value == 1

    def test_k3_any_seed(self, k3):
        for seed in range(10):
            value, _, _ = maxcut_greedy(k3, seed)
            assert value == 2

    @pytest.mark.parametrize("seed", range(10))
    def test_half_edges_guarantee_and_local_optimality(self, seed):
        g = random_graph(10, 0.4, seed)
        value, witness, _ = maxcut_greedy(g, seed)
        assert value >= -(-g.edge_count // 2)  # ceil(|E|/2)
        assert value == cut_value(g, witness)
        # single-flip local optimum: no flip strictly improves
        for i in range(g.d):
            flipped = witness.copy()
            flipped[i] = -flipped[i]
            assert cut_value(g, flipped) <= value

    def test_deterministic_given_seed(self):
        g = random_graph(12, 0.3, 5)
        v1, w1, f1 = maxcut_greedy(g, 42)
        v2, w2, f2 = maxcut_greedy(g, 42)
        assert v1 == v2 and f1 == f2 and np.array_equal(w1, w2)


class TestRandomGraph:
    def test_always_has_an_edge(self):
        for seed in range(20):
            g = random_graph(5, 0.01, seed)
            assert g.edge_count >= 1

    def test_deterministic(self):
        a = random_graph(8, 0.5, 3)
        b = random_graph(8, 0.5, 3)
        assert np.array_equal(a.adjacency, b.adjacency)
