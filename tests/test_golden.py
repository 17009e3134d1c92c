"""Golden digests of `export`, `optimize`, `verify` and `landscape` output for fixed seeds.

Each JSON digest is the sha256 of the command's document re-encoded with
sorted keys and `timestamp` removed; a `landscape` digest is the sha256 of
its CSV text. A change to the operator representation, the spectrum path or
the family dispatch must leave every exported matrix entry (signed zeros
included), every optimize figure, every verify residual and every landscape
value bit for bit as they were.

A raw digest is the sha256 of the command's stdout exactly as printed (for
`optimize`, less the `"timestamp"` line). Re-encoding hides the JSON writer's
own formatting; the raw digests pin it.
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
    "optimize-boosted-k2-d2": [
        "optimize", "--family", "boosted", "--k", "2", "--random-graph", "2:1.0", "--restarts", "3", "--seed", "2",
    ],
    "optimize-logdim-k4": [
        "optimize", "--family", "logdim", "--random-graph", "4:1.0", "--restarts", "3", "--seed", "2",
    ],
    "optimize-fermion-k4": [
        "optimize", "--family", "fermion", "--random-graph", "4:1.0", "--restarts", "3", "--seed", "2",
    ],
}

# Per-family extras shared by the verify and landscape cases.
_EXTRAS = {
    "oracular": [],
    "boosted": ["--k", "2"],
    "logdim": [],
    "single-layer": ["--m", "8"],
    "qaoa1": ["--tau", "0.5", "--m", "16"],
    "qaoa-multi": [],
    "fermion": [],
}
_VERIFY_GRAPHS = {"qaoa1": "2:1.0", "qaoa-multi": "2:1.0", "boosted": "3:1.0", "fermion": "3:0.5"}
for _family, _extra in _EXTRAS.items():
    CASES[f"verify-{_family}"] = [
        "verify", "--family", _family, *_extra, "--random-graph", _VERIFY_GRAPHS.get(_family, "4:0.5"),
        "--instances", "2", "--samples", "5", "--seed", "3",
    ]
    CASES[f"landscape-{_family}"] = [
        "landscape", "--family", _family, *_extra, "--random-graph", "2:1.0", "--axis", "0:0:6.2:7", "--seed", "1",
    ]

# The optimize-descent benchmark's commands at its default and check seeds.
for _family, _extra, _graph in (
    ("oracular", [], "10:1.0"),
    ("logdim", [], "8:1.0"),
    ("fermion", [], "8:1.0"),
    ("boosted", ["--k", "2"], "2:1.0"),
):
    for _seed in ("1", "2"):
        CASES[f"optimize-descent-{_family}-seed{_seed}"] = [
            "optimize", "--family", _family, *_extra, "--random-graph", _graph, "--restarts", "10", "--seed", _seed,
        ]

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

# Recorded before the per-family dispatch chains were replaced by one registry.
DIGESTS.update({
    "landscape-boosted": "5e82547d938a2cfb3117d048469175a0a764c1fbded12531a1dc8532070e4e6c",
    "landscape-fermion": "9399a093ff361ec47c806a5c27564fb1c1e5c2b580137b0cbb8d0b22b7869e59",
    "landscape-logdim": "9399a093ff361ec47c806a5c27564fb1c1e5c2b580137b0cbb8d0b22b7869e59",
    "landscape-oracular": "9399a093ff361ec47c806a5c27564fb1c1e5c2b580137b0cbb8d0b22b7869e59",
    "landscape-qaoa-multi": "9bfc59d997446cef05c2db61a544ca90163b1f456d731cd3be328771a4f73a26",
    "landscape-qaoa1": "a37c68171ddd1fa8eb9f8f02fb53f1125f78287955f261dc17fd164b48c09d1a",
    "landscape-single-layer": "56af86b57eba208f4bd4f677b79d64c71b0fa9bd08fdaa4c9b33a803640ecf36",
    "optimize-boosted-k2-d2": "650310cac1cec3a5046f179c57610681aa562011694c2fd0ecc05ce942e57572",
    "optimize-fermion-k4": "e710ede421882dd46aef47a061741aea5e57f26ab6aef65ec6e51dc0e723ec30",
    "optimize-logdim-k4": "843bceb4cb3ab7ae9ae9f62714c1a2b8b23e9fd5f669adef5475a0d438f8dfc4",
    "verify-boosted": "d512cd4fea46b4ee5960fc569279bb4c8f3590991d058a93a62ab0498a3067c0",
    "verify-fermion": "4866fb79e914255409d0294ca17a1e661bf331cedc475fc230f7f2c85db627eb",
    "verify-logdim": "cce664a7651e6d1464a65f6735aabe63f3cf87b4ffe299d4e96e3140b818e005",
    "verify-oracular": "17530c4512bf246589dcf5485ede17be38e0dc8e415584279cbc748132bb79dc",
    "verify-qaoa-multi": "56a8c96b19df279f7cdcd617abb13810b1e63a3363b45cd65e185e2e5f431fd0",
    "verify-qaoa1": "f0fc15f7e79b13202907bb154b85d4c0a43807bc71f7b2c450bf4616a213f91e",
    "verify-single-layer": "9d1b0b996f3eb87cf8717dd930693b8588f6597bc25025c85994f34a5df5aabc",
})

# Recorded while descent still called the checked public mu and mu_gradient.
DIGESTS.update({
    "optimize-descent-boosted-seed1": "3a63baf9cd6b91f104962a8d4d2ecf8f9df6043113977f48e83d0e9293945a8a",
    "optimize-descent-boosted-seed2": "9b81e28eb558dea996cb73259c77b197da9f3d8a25d266483c0fbb85f136af44",
    "optimize-descent-fermion-seed1": "93c1242bc0ef4337b34a243d0018ca61acc9d35d0bb99d4bf4d69c2e991696d5",
    "optimize-descent-fermion-seed2": "1a6f7e47e8145d012caf845d57a011eb8d58d4d02eaace7b916185ffdb38e576",
    "optimize-descent-logdim-seed1": "af217c3a52e92fdec76f0815b3bccb981f191c88a2ce6eb804d9018064bf153e",
    "optimize-descent-logdim-seed2": "f586a6c9e8ad96681596b8656a8e0753d512b29e2369d69c39b2c231da5e7fde",
    "optimize-descent-oracular-seed1": "25e9b50954a2a85d5de62013f92f5ba564c01f7b35703995f1f08cb3d3944f38",
    "optimize-descent-oracular-seed2": "e1d541f1bf3e80be71aedf8d761c18527c4993f790203b93515d60e7ebd7d05d",
})

# Raw stdout, recorded with the stdlib's ``json.dumps(sort_keys=True, indent=2)``
# as the writer.
RAW_DIGESTS = {
    "export-boosted-k1-d4": "dae19776cab76b158990e99fe864277e6e9df784ca1372a18734be6bf8a4a416",
    "export-boosted-k2-d3": "5101a22c6339b7439da6b78ee88e3df85c3c4c4eeabb254b6ad9c7c45077ca5f",
    "export-boosted-k3-d3": "75c208879cf2b13c939b4c355e344c46df1701bcf21fe656b8498c3f14737d57",
    "export-fermion-d4": "4ac56b8f83b796c18c26b04bf8b5c9340be1fa842be216f14657c832a162d38b",
    "export-logdim-d8": "8123a3865547e804900ef66af195ef2f8508831916ead3cb8e6d5c002d4c128f",
    "export-oracular-d5": "95ac8b042d9056224430d6549284d37d62848ea90ee025e3c43e6417f61013c1",
    "export-qaoa-multi-k2": "a9ced535a69af4dc2462491a49e3f040d4e82199112367460df6220b9d6e7b23",
    "export-qaoa1-d3": "8abf1677244ad3ac5e4cb2d9e39981afdcf7de090e1ffab1a0165d6f9c9ef6d0",
    "export-single-layer-d3": "947d51e9235e9ce9247b3fa0afd1aaef13e9c614bea11ab2b8b0cb801cbf8538",
    "verify-oracular": "2381e3490fab3ad769a2f362e9ffe742e8e6c5013910a79e8bbf868cbf086c1b",
    "optimize-qaoa1-k2": "d379375bb5673ce05f32465709f6ab99fdbbef7dcecd5cd29c69223636daced7",
}


def run_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def raw_digest(argv, text: str) -> str:
    if argv[0] == "optimize":
        text = "".join(line for line in text.splitlines(True) if '"timestamp"' not in line)
    return hashlib.sha256(text.encode()).hexdigest()


def reencoded_digest(argv, text: str) -> str:
    if argv[0] != "landscape":
        doc = json.loads(text)
        doc.pop("timestamp", None)
        text = json.dumps(doc, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_digest(name):
    argv = CASES[name]
    text = run_stdout(argv)
    # the re-encoded digest is a function of the raw bytes, so bytes that
    # match their raw digest match the re-encoded one too; re-encoding a large
    # export with the pure-Python encoder takes seconds
    if name in RAW_DIGESTS and raw_digest(argv, text) == RAW_DIGESTS[name]:
        return
    assert reencoded_digest(argv, text) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RAW_DIGESTS))
def test_raw_output_matches_golden_digest(name):
    argv = CASES[name]
    assert raw_digest(argv, run_stdout(argv)) == RAW_DIGESTS[name]
