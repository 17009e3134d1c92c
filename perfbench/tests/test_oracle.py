"""The benchmark's own graph generator, MaxCut, digest and output checks."""

import itertools

import pytest

import oracle
from run import best_pass, count_mismatches, digest_failures, tail_percentile


def test_graph_is_deterministic_per_key():
    assert oracle.random_graph(8, 0.5, "1/w/0") == oracle.random_graph(8, 0.5, "1/w/0")
    draws = {tuple(oracle.random_graph(8, 0.5, f"{s}/w/0")) for s in range(10)}
    assert len(draws) > 1


@pytest.mark.parametrize("d", [2, 3, 6, 10])
def test_graph_is_never_edgeless(d):
    for seed in range(50):
        edges = oracle.random_graph(d, 0.0, f"{seed}")
        assert len(edges) == 1
        (u, v), = edges
        assert 1 <= u < v <= d


def test_graph_edges_are_valid_and_p1_is_complete():
    edges = oracle.random_graph(6, 0.5, "k")
    assert len(set(edges)) == len(edges)
    assert all(1 <= u < v <= 6 for u, v in edges)
    assert oracle.random_graph(5, 1.0, "k") == list(itertools.combinations(range(1, 6), 2))


def test_graph_rejects_bad_parameters():
    with pytest.raises(ValueError):
        oracle.random_graph(1, 0.5, "k")
    with pytest.raises(ValueError):
        oracle.random_graph(4, 1.5, "k")


def test_edge_list_text_format():
    assert oracle.edge_list_text(3, [(1, 2), (2, 3)]) == "3\n1 2\n2 3\n"


@pytest.mark.parametrize("d, edges, expected", [
    (2, [(1, 2)], 1),
    (3, [(1, 2), (1, 3), (2, 3)], 2),
    (4, list(itertools.combinations(range(1, 5), 2)), 4),
    (5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)], 4),
    (6, [(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)], 9),
])
def test_maxcut_on_known_graphs(d, edges, expected):
    assert oracle.maxcut(d, edges) == expected


def test_digest_ignores_timestamp_only():
    a = {"command": "optimize", "timestamp": 1.0, "instances": [{"x": 1, "timestamp": 3}]}
    b = {"instances": [{"x": 1, "timestamp": 4}], "timestamp": 2.5, "command": "optimize"}
    c = {"command": "optimize", "timestamp": 1.0, "instances": [{"x": 2}]}
    assert oracle.digest(a) == oracle.digest(b)
    assert oracle.digest(a) != oracle.digest(c)


def _optimize_doc(**inst):
    base = {"maxcut": 3, "best_value": -3.0, "delta": 0.0, "delta_m": 0.0, "delta_o": 0.0}
    return {"instances": [dict(base, **inst)]}


def test_check_optimize():
    spec = {"command": "optimize", "family": "oracular", "d": 4, "maxcut": 3}
    assert oracle.check(spec, _optimize_doc()) == []
    assert oracle.check(spec, _optimize_doc(maxcut=2))
    assert oracle.check(spec, _optimize_doc(best_value=-3.1))
    assert oracle.check(spec, _optimize_doc(delta_o=1.5))
    assert oracle.check(dict(spec, family="qaoa1"), _optimize_doc(best_value=-3.1)) == []


def test_check_verify():
    spec = {"command": "verify", "family": "oracular", "d": 4}
    doc = {"pass": True, "tolerance": 1e-9, "instances": [{"max_residuals": {"a": 1e-12}}]}
    assert oracle.check(spec, doc) == []
    assert oracle.check(spec, dict(doc, **{"pass": False}))
    assert oracle.check(spec, dict(doc, instances=[{"max_residuals": {"a": 1e-3}}]))


@pytest.mark.parametrize("family, d, k, field, size", [
    ("oracular", 6, 1, "dim", 64), ("boosted", 3, 2, "dim", 64), ("logdim", 8, 1, "dim", 16),
    ("qaoa-multi", 3, 1, "dim", 252), ("fermion", 8, 1, "modes", 16), ("qaoa1", 3, 1, "dim", 7),
])
def test_check_export_size(family, d, k, field, size):
    spec = {"command": "export", "family": family, "d": d, "k": k}
    assert oracle.check(spec, {field: size}) == []
    assert oracle.check(spec, {field: size + 1})


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile([1.0] * 10) is None
    pct, _ = tail_percentile([float(i) for i in range(100)])
    assert pct == 90
    samples = [float(i) for i in range(37)]
    pct, value = tail_percentile(samples)
    assert sum(s > value for s in samples) >= 10


def test_best_pass_sums_each_commands_fastest_run():
    # the fastest runs of the two commands fall in different passes
    assert best_pass([[0.5, 0.3, 0.4], [0.2, 0.25, 0.1]]) == 0.3 + 0.1
    assert best_pass([[0.7]]) == 0.7


def test_count_mismatches_flags_only_exact_counts():
    layers = [{"a.f.calls": 3, "a.f.s": 1.0, "optimize.iterations": 7},
              {"a.f.calls": 3, "a.f.s": 2.0, "optimize.iterations": 8}]
    problems = count_mismatches(layers, ["a.f.calls", "a.f.s", "optimize.iterations"])
    assert len(problems) == 1 and "optimize.iterations" in problems[0]


def test_digest_failures_skip_failed_commands_and_flag_changes():
    results = [{"digests": [["a", None, "a"], ["x", "x", "y"]]}, {"digests": [["a"], ["x"]]}]
    flagged = digest_failures(results)
    assert [(f["worker"], f["pass"], f["cmd"]) for f in flagged] == [(0, 2, 1)]
