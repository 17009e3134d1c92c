"""`dump_json` against `json.dumps(doc, sort_keys=True, indent=2)`.

The oracle sees each complex ndarray as its nested lists of
`[float(x.real), float(x.imag)]` pairs: the writer must give the same text
for every JSON tree, and fail with `TypeError` where the stdlib does.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqalab.serialize import dump_json


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
# complex ndarrays of one or two axes, empty ones included
complex_arrays = st.lists(st.integers(0, 3), min_size=1, max_size=2).flatmap(
    lambda shape: st.lists(
        st.tuples(floats, floats), min_size=math.prod(shape), max_size=math.prod(shape)
    ).map(lambda xs: np.array([complex(re, im) for re, im in xs], dtype=complex).reshape(shape))
)
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
