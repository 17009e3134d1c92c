"""`dump_json` against the stdlib encoder it replaces, and the [re, im] pair builders.

`json.dumps(doc, sort_keys=True, indent=2)` is the oracle: the writer must
give the same text for every JSON tree, and fail with `TypeError` where the
stdlib does.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqalab.serialize import dump_json, matrix_to_json, vector_to_json


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL))
# float subclasses and wide ints, written the way the stdlib writes them
numbers = st.one_of(
    floats,
    floats.map(np.float64),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text())
# [re, im] pairs: plain finite floats take the writer's fast path, the rest
# (NaN, infinities, np.float64, tuples) the generic one
pairs = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
    st.lists(st.one_of(floats, floats.map(np.float64)), min_size=2, max_size=2),
    st.tuples(floats, floats),
)
trees = st.recursive(
    st.one_of(scalars, pairs),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(), children, max_size=5),
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
    ],
)
def test_unserializable_raises_type_error(doc):
    with pytest.raises(TypeError):
        stdlib(doc)
    with pytest.raises(TypeError):
        dump_json(doc)


def test_path_gets_text_and_newline(tmp_path):
    doc = {"b": [[0.5, -0.0]], "a": "x"}
    path = tmp_path / "doc.json"
    text = dump_json(doc, path)
    assert text == stdlib(doc)
    assert path.read_text() == text + "\n"


complex_arrays = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(floats, floats), min_size=n * n, max_size=n * n).map(
        lambda xs: np.array([complex(re, im) for re, im in xs]).reshape(n, n)
    )
)


@given(complex_arrays)
def test_pairs_are_the_per_element_floats(m):
    """The tolist-built pairs hold the floats `float(x.real)`, `float(x.imag)`
    would give, signed zeros and NaN included (compared through `repr`)."""
    assert repr(matrix_to_json(m)) == repr([[[float(x.real), float(x.imag)] for x in row] for row in m])
    assert repr(vector_to_json(m[0])) == repr([[float(x.real), float(x.imag)] for x in m[0]])
    assert all(type(x) is float for row in matrix_to_json(m) for pair in row for x in pair)
