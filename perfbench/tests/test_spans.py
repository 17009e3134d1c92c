"""Self-time arithmetic and span recording of the benchmark's tracer."""

import pytest

from spans import Tracer, layer_metrics, self_times, union_length


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([(1.0, 4.0), (2.0, 3.0)]) == pytest.approx(3.0)


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    start, end, parent = [0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0]
    assert self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_layer_metrics_on_nested_spans():
    names = ["cli.main", "reductions.oracular_vqa_instance", "reductions.ising_observable",
             "landscape.mu", "landscape.mu"]
    start = [0.0, 1.0, 1.5, 5.0, 7.0]
    end = [10.0, 4.0, 2.5, 6.0, 7.5]
    parent = [-1, 0, 1, 0, 0]
    m = layer_metrics(names, start, end, parent, {"serialize.bytes_out": 12})
    assert m["cli.main.calls"] == 1
    assert m["cli.main.s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert m["trace.unattributed_frac"] == pytest.approx(0.55)
    assert m["reductions.build.calls"] == 1
    assert m["reductions.build.s"] == pytest.approx(3.0)
    assert m["reductions.self_s"] == pytest.approx(3.0)
    assert m["landscape.mu.calls"] == 2
    assert m["landscape.mu.us_per_call"] == pytest.approx(0.75e6)
    assert m["serialize.bytes_out"] == 12


def test_same_name_nested_spans_are_not_counted_twice():
    m = layer_metrics(["a.f", "a.f"], [0.0, 1.0], [4.0, 2.0], [-1, 0], {})
    assert m["a.f.calls"] == 2
    assert m["a.f.s"] == pytest.approx(4.0)
    assert m["a.f.self_s"] == pytest.approx(4.0)


def test_tracer_records_parents_and_passes():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.wrap(inner, "m.inner")
    traced_outer = tracer.wrap(lambda x: traced_inner(x) * 2, "m.outer")
    tracer.current_pass = 3
    assert traced_outer(1) == 4
    assert [tracer.names[i] for i in tracer.name] == ["m.outer", "m.inner"]
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.pass_id) == [3, 3]
    assert tracer.start[0] <= tracer.start[1] <= tracer.end[1] <= tracer.end[0]
    m = tracer.pass_metrics(3)
    assert m["m.outer.calls"] == m["m.inner.calls"] == 1
    assert tracer.pass_metrics(4) == {"landscape.mu.us_per_call": 0.0, "trace.unattributed_frac": 0.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "m.boom")()
    assert tracer.end[0] >= tracer.start[0]
    assert tracer._stack == []
