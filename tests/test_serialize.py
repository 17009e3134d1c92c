"""`dump_json` against `json.dumps(doc, sort_keys=True, indent=2)`.

The oracle sees each complex ndarray as its nested lists of
`[float(x.real), float(x.imag)]` pairs: the writer must give the same text
for every JSON tree, and fail with `TypeError` where the stdlib does.

`template_array_text`, which formats every float in turn into one `%s`
template, is the byte oracle for the array writer, 0-d arrays included.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqalab import parse_graph, random_graph
from vqalab.cli import build_parser
from vqalab.families import FAMILIES
from vqalab.serialize import _array_text, dump_json, instance_to_json


def as_pairs(doc):
    """``doc`` with every complex ndarray as nested per-element [re, im] lists."""
    if isinstance(doc, np.ndarray):
        if doc.ndim > 1:
            return [as_pairs(row) for row in doc]
        return [[float(x.real), float(x.imag)] for x in doc]
    if isinstance(doc, dict):
        return {key: as_pairs(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [as_pairs(item) for item in doc]
    return doc


def stdlib(doc) -> str:
    return json.dumps(as_pairs(doc), sort_keys=True, indent=2)


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, failing with the first difference only: pytest's own
    diff of two texts megabytes long runs for minutes."""
    if got != want:
        at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
        span = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"texts differ at character {at}: {got[span]!r} != {want[span]!r}")


def template(shape: tuple, level: int) -> str:
    """``json.dumps(..., indent=2)`` text, ``level`` deep, of a nested list
    of ``shape`` with a ``%s`` for each number."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    items = ("," + inner).join([template(shape[1:], level + 1)] * shape[0])
    return "[" + inner + items + "\n" + "  " * level + "]"


def template_array_text(a: np.ndarray, level: int) -> str:
    """The array writer's text formatted one float at a time: each of the
    array's floats, in memory order, fills one slot of the template."""
    # complex128 memory holds re, im in turn: the pairs are the last axis
    floats = np.ascontiguousarray(a, dtype=complex).view(float).ravel().tolist()
    texts = map(float.__repr__ if np.isfinite(a).all() else json.dumps, floats)
    return template(a.shape + (2,), level) % tuple(texts)


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))
# float subclasses and wide ints, written the way the stdlib writes them
numbers = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
)
# strings that read like JSON text or like an array's place in it
texts = st.one_of(st.text(), st.sampled_from(["null", "[]", "\n", "\x00", "\x000", "NaN"]))
scalars = st.one_of(st.none(), st.booleans(), numbers, texts)
# plain [re, im] lists, which the writer leaves to the stdlib
pairs = st.one_of(
    st.lists(st.one_of(floats, floats.map(np.float64)), min_size=2, max_size=2),
    st.tuples(floats, floats),
)
# a second NaN payload, which a writer that groups entries by their bytes
# keeps apart from math.nan
NAN_PAYLOAD = float(np.array([0x7FF8_0000_0000_0001], dtype=np.uint64).view(float)[0])
# entries drawn from a small pool repeat, as exported matrix entries do
POOL = [0.0, -0.0, math.nan, NAN_PAYLOAD, math.inf, -math.inf, 5e-324, 1.0, -0.5]
entries = st.one_of(st.sampled_from(POOL), floats)


def complex_array(shape: tuple, xs: list) -> np.ndarray:
    """The complex array of ``shape`` whose re, im bits are ``xs`` in turn."""
    return np.array(xs, dtype=float).reshape(*shape, 2).view(complex)[..., 0]


def as_complex64(m: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # large doubles become infinities
        return m.astype(np.complex64)


LAYOUTS = [
    lambda m: m,
    lambda m: m.T,
    lambda m: np.repeat(m, 2, axis=-1)[..., ::2],  # strided
    np.asfortranarray,
    as_complex64,
]
# complex ndarrays of one to three axes, empty ones included, in any layout
complex_arrays = st.lists(st.integers(0, 6), min_size=1, max_size=3).flatmap(
    lambda shape: st.builds(
        lambda xs, layout: layout(complex_array(shape, xs)),
        st.lists(entries, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)),
        st.sampled_from(LAYOUTS),
    )
)
scalar_arrays = st.lists(entries, min_size=2, max_size=2).map(lambda xs: complex_array((), xs))
trees = st.recursive(
    st.one_of(scalars, pairs, complex_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(floats, children, max_size=3),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_matches_stdlib_on_random_trees(doc):
    assert dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        [[1.0, -0.0], [-0.0, 0.0]],
        [[math.nan, 1.0], [1.0, math.inf], [-math.inf, -0.0]],
        [[np.float64(0.1), 0.2], [0.1, np.float64(-0.0)]],
        [[1, 2.0], [True, 1.0], [1.0, 2.0, 3.0], (1.0, 2.0)],
        {"néon ☃": "\U0001d11e", "x": [10**40, -(2**70)]},
        {True: 1, False: 2},
        {None: 0},
        {0.5: "a", -0.0: "b", math.inf: "c"},
        {"a": [[[0.1, 0.2], [0.3, 0.4]], [[0.5, 0.6], [0.7, 0.8]]]},
        {"\x00": "\x000", "\x000": "\x00", "null": "null"},
        np.array([complex(-0.0, math.nan), complex(math.inf, -math.inf), -0j]),
        {"a": np.zeros(0, dtype=complex), "b": np.zeros((2, 0), dtype=complex), "c": [np.eye(2, dtype=complex)]},
        [np.ones((2, 2), dtype=np.complex64), "null", np.array([0.1 + 0.2j])],
    ],
)
def test_matches_stdlib_on_edge_cases(doc):
    assert dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"a": object()},
        [np.int64(3)],
        {"a": [np.bool_(True)]},
        {"a": {1, 2}},
        {(1, 2): 0},
        {1: 0, "a": 1},
        {"a": np.ones(2)},
        [np.arange(3)],
    ],
)
def test_unserializable_raises_type_error(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        dump_json(doc)


def test_path_gets_text_and_newline(tmp_path):
    doc = {"b": [[0.5, -0.0]], "a": "x"}
    path = tmp_path / "doc.json"
    text = dump_json(doc, path)
    assert text == stdlib(doc)
    assert path.read_text() == text + "\n"


@given(complex_arrays)
def test_pairs_are_the_per_element_floats(m):
    """Read back, the text holds the floats `float(x.real)`, `float(x.imag)`,
    signed zeros and NaN included (compared through `repr`)."""
    assert repr(json.loads(dump_json(m))) == repr(as_pairs(m))


@settings(max_examples=300, deadline=None)
@given(st.one_of(complex_arrays, scalar_arrays), st.integers(0, 3))
def test_array_text_matches_template(m, level):
    assert _array_text(m, level) == template_array_text(m, level)


# The instances the golden export cases build (--random-graph d:p --seed s),
# then the benchmark's build-export graphs at its seeds 1 and 2.
EXPORTED = [
    ("oracular", [], random_graph(5, 0.5, 1)),
    ("boosted", ["--k", "1"], random_graph(4, 0.5, 1)),
    ("boosted", ["--k", "2"], random_graph(3, 0.5, 1)),
    ("boosted", ["--k", "3"], random_graph(3, 1.0, 2)),
    ("logdim", [], random_graph(8, 0.5, 1)),
    ("single-layer", ["--m", "16"], random_graph(3, 0.5, 1)),
    ("qaoa1", [], random_graph(3, 0.5, 1)),
    ("qaoa-multi", [], random_graph(2, 1.0, 1)),
    ("fermion", [], random_graph(4, 0.5, 1)),
    ("qaoa-multi", [], parse_graph("2\n1 2")),
    ("oracular", [], parse_graph("5\n1 2\n1 5\n2 3")),
    ("oracular", [], parse_graph("5\n1 3\n1 4\n2 3\n3 4\n3 5")),
    ("boosted", ["--k", "2"], parse_graph("3\n1 2")),
    ("boosted", ["--k", "2"], parse_graph("3\n2 3")),
    ("fermion", [], parse_graph("8\n1 7\n2 4\n2 5\n2 7\n3 4\n3 5\n3 6\n3 8\n4 5\n4 6\n4 7\n5 7\n6 8\n7 8")),
    ("fermion", [], parse_graph("8\n1 3\n1 4\n1 5\n1 8\n2 3\n2 4\n2 8\n3 4\n3 6\n4 7\n4 8\n5 6\n5 7")),
    ("logdim", [], parse_graph("8\n1 2\n1 4\n1 5\n1 6\n1 8\n2 8\n3 4\n3 7\n4 5\n4 8\n5 7\n5 8\n6 7\n6 8\n7 8")),
    ("logdim", [], parse_graph("8\n1 2\n1 3\n1 4\n1 6\n1 8\n2 4\n2 6\n2 7\n3 8\n4 5\n5 6\n5 8\n6 8\n7 8")),
]


@pytest.mark.parametrize("family, extra, g", EXPORTED, ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(EXPORTED)])
def test_exported_arrays_match_template(family, extra, g):
    args = build_parser().parse_args(["export", "--family", family, *extra])
    doc = instance_to_json(FAMILIES[family].build(g, args))
    arrays = [a for v in doc.values() for a in (v if isinstance(v, list) else [v]) if isinstance(a, np.ndarray)]
    assert arrays
    for a in arrays:
        for level in range(4):
            assert_same_text(_array_text(a, level), template_array_text(a, level))
