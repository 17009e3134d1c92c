"""Golden digests of `export` and `optimize` JSON for fixed seeds.

Each digest is the sha256 of the command's JSON document re-encoded with
sorted keys and `timestamp` removed. A change to the operator representation
or to the spectrum path must leave every exported matrix entry (signed zeros
included) and every optimize figure bit for bit as they were.
"""

import contextlib
import hashlib
import io
import json

import pytest

from vqalab.cli import main

CASES = {
    "export-oracular-d5": ["export", "--family", "oracular", "--random-graph", "5:0.5", "--seed", "1"],
    "export-boosted-k1-d4": ["export", "--family", "boosted", "--k", "1", "--random-graph", "4:0.5", "--seed", "1"],
    "export-boosted-k2-d3": ["export", "--family", "boosted", "--k", "2", "--random-graph", "3:0.5", "--seed", "1"],
    "export-boosted-k3-d3": ["export", "--family", "boosted", "--k", "3", "--random-graph", "3:1.0", "--seed", "2"],
    "export-logdim-d8": ["export", "--family", "logdim", "--random-graph", "8:0.5", "--seed", "1"],
    "export-single-layer-d3": ["export", "--family", "single-layer", "--m", "16", "--random-graph", "3:0.5", "--seed", "1"],
    "export-qaoa1-d3": ["export", "--family", "qaoa1", "--random-graph", "3:0.5", "--seed", "1"],
    "export-qaoa-multi-k2": ["export", "--family", "qaoa-multi", "--random-graph", "2:1.0", "--seed", "1"],
    "export-fermion-d4": ["export", "--family", "fermion", "--random-graph", "4:0.5", "--seed", "1"],
    "optimize-qaoa1-k2": [
        "optimize", "--family", "qaoa1", "--tau", "0.5", "--random-graph", "2:1.0",
        "--restarts", "6", "--grid-samples", "2000", "--seed", "1",
    ],
    "optimize-single-layer-k3": [
        "optimize", "--family", "single-layer", "--m", "8", "--random-graph", "3:1.0",
        "--restarts", "10", "--grid-samples", "2000", "--seed", "1",
    ],
    "optimize-oracular-d6": [
        "optimize", "--family", "oracular", "--random-graph", "6:0.5", "--restarts", "3", "--seed", "1",
    ],
}

# Recorded with the dense-matrix implementation that the structured
# operators replaced.
DIGESTS = {
    "export-boosted-k1-d4": "304c7026687df696d63edd71dcf0cd98d64626fbb72941f8a3c740932598b5a6",
    "export-boosted-k2-d3": "9d6fb5a881e0d73cf2d023f3b6134b1236df10258180467798ba10237fb96fce",
    "export-boosted-k3-d3": "186ab2157ec23d171fab257da402eac4390940727e82e32de771feb650dd2c47",
    "export-fermion-d4": "ea6d00c2883020ecf9bb7a73ac6f6c9302e2f4518c78942c666e0d98cd1b6a88",
    "export-logdim-d8": "b39d18951db5266fe2819c72a98f913c82072b22f62d8131e1da886c4731e241",
    "export-oracular-d5": "058f22456301d14955e591d9a03ba92feeab782000b62ab3b3ccf287ff657a61",
    "export-qaoa-multi-k2": "826a6a5f1567998b36258607a864e0d90bff31cb6fcd88c1a1afdd2cee66720c",
    "export-qaoa1-d3": "f195421e0df24b47eb763720a6766ab5e994c247a365875032081d8da86bb9b2",
    "export-single-layer-d3": "deaf68ad05e0db9cfd4cfa410b29a06e7fb7722d4750de7beed85e594f0b3bdb",
    "optimize-oracular-d6": "da64865632f8cf2d87d11761c120c8f456c3744b7565d645178bf7296d4e7f00",
    "optimize-qaoa1-k2": "326b0fadab39d45162c7ba31679840070226708aa0ee98c8658799ddfbd075eb",
    "optimize-single-layer-k3": "35ada92525bd1c395fbaf4094ea8dbd7f024f15e71dc5604e86c32a4b1d25664",
}


def run_digest(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    doc = json.loads(out.getvalue())
    doc.pop("timestamp", None)
    text = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name):
    assert run_digest(CASES[name]) == DIGESTS[name]
