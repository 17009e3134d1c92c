"""Structured operators checked against their dense forms.

The dense simulation is the oracle: every instance is rebuilt with
``to_dense()`` generators and observable, which VqaInstance wraps as
one-block Blocks run through eigh, and both circuits must agree. A wrapped
matrix is itself checked, bit for bit, against the dense arithmetic it
replaced (conftest's DenseReference).
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import DenseReference
from vqalab import (
    VqaInstance,
    boosted_vqa_instance,
    expectation,
    logdim_vqa_instance,
    maxcut_bruteforce,
    mu,
    oracular_vqa_instance,
    qaoa_apply,
    qaoa_multilayer_instance,
    qaoa_single_layer_instance,
    random_graph,
    simulate_expectation,
    single_layer_instance,
    spectral_extremes,
)
from vqalab.cli import main
from vqalab.landscape import phases_from_assignment
from vqalab.sim import STATE_MAX_QUBITS, Blocks, Diagonal, SiteRotation, _as_operator

SETTINGS = settings(max_examples=25, deadline=None)
seeds = st.integers(0, 2**32 - 1)
probs = st.sampled_from([0.3, 0.5, 0.8, 1.0])


def dense_twin(inst: VqaInstance) -> VqaInstance:
    return VqaInstance(
        initial=inst.initial,
        generators=tuple(h.to_dense() for h in inst.generators),
        observable=inst.observable.to_dense(),
    )


def angles(seed: int, n: int, high: float = 2 * np.pi) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0, high, n)


@SETTINGS
@given(d=st.integers(2, 8), p=probs, seed=seeds)
def test_oracular_matches_dense_simulation(d, p, seed):
    inst = oracular_vqa_instance(random_graph(d, p, seed % 1000))
    phi = angles(seed, d)
    assert abs(simulate_expectation(inst, phi) - simulate_expectation(dense_twin(inst), phi)) <= 1e-12


@SETTINGS
@given(kd=st.sampled_from([(k, d) for k in (1, 2, 3, 4) for d in range(2, 9) if k * d <= 8]), p=probs, seed=seeds)
def test_boosted_matches_dense_simulation(kd, p, seed):
    k, d = kd
    inst = boosted_vqa_instance(random_graph(d, p, seed % 1000), k)
    phi = angles(seed, d)
    assert abs(simulate_expectation(inst, phi) - simulate_expectation(dense_twin(inst), phi)) <= 1e-12


@SETTINGS
@given(d=st.integers(2, 8), p=probs, seed=seeds)
def test_logdim_and_single_layer_match_dense_simulation(d, p, seed):
    g = random_graph(d, p, seed % 1000)
    inst = logdim_vqa_instance(g)
    phi = angles(seed, d)
    assert abs(simulate_expectation(inst, phi) - simulate_expectation(dense_twin(inst), phi)) <= 1e-12
    inst = single_layer_instance(g, 16)
    t = angles(seed, 1, high=16.0 ** min(d, 3))
    assert abs(simulate_expectation(inst, t) - simulate_expectation(dense_twin(inst), t)) <= 1e-12


@SETTINGS
@given(n=st.integers(1, 8), data=st.data())
def test_structured_extremes_and_apply_match_dense(n, data):
    seed = data.draw(seeds)
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    diag = Diagonal(rng.integers(-6, 7, size=1 << n) / 4)
    assert diag.extremes() == spectral_extremes(diag.to_dense())
    assert np.abs(diag.apply(psi) - diag.to_dense() @ psi).max() <= 1e-12
    sites = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    rot = SiteRotation(tuple(sorted(sites)), n)
    lo, hi, width = rot.extremes()
    dense_lo, dense_hi, dense_width = spectral_extremes(rot.to_dense())
    assert abs(lo - dense_lo) <= 1e-12 and abs(hi - dense_hi) <= 1e-12 and abs(width - dense_width) <= 1e-12
    assert np.abs(rot.apply(psi) - rot.to_dense() @ psi).max() <= 1e-12
    theta = rng.uniform(-5, 5)
    assert np.abs(rot.apply_exp(psi, theta) - _as_operator(rot.to_dense()).apply_exp(psi, theta)).max() <= 1e-12


def kron_site_operator(site: int, n: int) -> np.ndarray:
    """sigma_y/2 on qubit ``site`` of ``n`` as the np.kron chain I (x) ... (x) I."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, np.array([[0, -1j], [1j, 0]]) / 2 if k == site else np.eye(2))
    return out


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    # through the uint64 view, -0.0 and +0.0 differ
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64))


@pytest.mark.parametrize("n", range(1, 9))
def test_site_rotation_dense_is_the_kron_chain(n):
    for site in range(n):
        assert_same_bits(SiteRotation(site, n).to_dense(), kron_site_operator(site, n))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_boosted_site_rotation_dense_is_the_sum_of_kron_chains(k):
    # the boosted generator i acts on qubit i of each of k copies of a d-qubit register
    for d in range(1, 8 // k + 1):
        for i in range(d):
            sites = tuple(c * d + i for c in range(k))
            want = sum(kron_site_operator(q, k * d) for q in sites)
            assert_same_bits(SiteRotation(sites, k * d).to_dense(), want)


@SETTINGS
@given(n=st.integers(1, 5), k=st.integers(1, 6), seed=seeds)
def test_apply_exp_on_column_states_matches_each_column(n, k, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << n
    states = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    theta = rng.uniform(-5, 5)
    for op in (Diagonal(rng.normal(size=dim)), SiteRotation(tuple(range(n)), n), _as_operator((a + a.conj().T) / 2)):
        columns = np.column_stack([op.apply_exp(col, theta) for col in states.T])
        assert np.abs(op.apply_exp(states, theta) - columns).max() <= 1e-12


@st.composite
def hermitian_matrices(draw):
    """(a + a^H) / 2 for a complex k x k matrix a, k in 1..16, its parts
    drawn from [-10, 10]; shrinking drives it to zeros and repeated
    eigenvalues."""
    k = draw(st.integers(1, 16))
    parts = draw(hnp.arrays(np.float64, (2, k, k), elements=st.floats(-10.0, 10.0)))
    a = parts[0] + 1j * parts[1]
    return (a + a.conj().T) / 2


@SETTINGS
@given(
    mat=hermitian_matrices(),
    m=st.integers(1, 5),
    theta=st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
    seed=seeds,
)
def test_wrapped_matrix_is_the_dense_arithmetic(mat, m, theta, seed):
    # a matrix becomes a one-block Blocks: its eigh, exponential, product,
    # extremes and dense form must be the dense arithmetic's, bit for bit,
    # and expectation must still flag a raw non-Hermitian matrix
    rng = np.random.default_rng(seed)
    k = len(mat)
    op, ref = _as_operator(mat), DenseReference(mat)
    assert isinstance(op, Blocks) and op.dim == k
    psi = rng.normal(size=k) + 1j * rng.normal(size=k)
    states = rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m))
    for x in (psi, states):
        got, want = op.apply_exp(x, theta), ref.apply_exp(x, theta)
        if x.shape == (1, 1):
            # the one exception: numpy multiplies the phase of a (1,) spectrum
            # into a transposed (1, 1) state in another complex loop than a
            # (1, 1, 1) stack into a (1, 1, 1) one, and the two round apart
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(x).max()
        else:
            assert_same_bits(got, want)
        assert_same_bits(op.apply(x), ref.apply(x))
    assert op.extremes() == ref.extremes()
    assert_same_bits(op.to_dense(), ref.to_dense())
    # expectation multiplies a raw matrix as it is: i/2 on the diagonal shows
    # as the imaginary residue 1/2, where the wrapping refuses the matrix
    bad = mat + 0.5j * np.eye(k)
    with pytest.raises(ValueError, match="imaginary residue 5.000e-01"):
        expectation(psi / np.linalg.norm(psi), bad)
    with pytest.raises(ValueError, match="not Hermitian"):
        _as_operator(bad)


def fresh_qaoa_apply(inst, beta, gamma):
    """qaoa_apply with eigendecompositions computed on the spot."""
    vals_b, vecs_b = np.linalg.eigh(inst.generators[1].to_dense())
    vals_c, vecs_c = np.linalg.eigh(inst.observable.to_dense())
    psi = inst.initial
    for b, c in zip(beta, gamma):
        psi = vecs_c @ (np.exp(-1j * vals_c * c) * (vecs_c.conj().T @ psi))
        psi = vecs_b @ (np.exp(-1j * vals_b * b) * (vecs_b.conj().T @ psi))
    return psi, float(np.vdot(psi, inst.observable.to_dense() @ psi).real)


@SETTINGS
@given(d=st.integers(2, 5), p=probs, seed=seeds)
def test_qaoa1_cached_spectra_are_bit_identical(d, p, seed):
    inst = qaoa_single_layer_instance(random_graph(d, p, seed % 1000), 1e-3, 16)
    beta, gamma = angles(seed, 1), angles(seed + 1, 1, high=2 * np.pi / 1e-3)
    for _ in range(2):  # the second call reads the cached decompositions
        psi, val = qaoa_apply(inst, beta, gamma)
        fresh_psi, fresh_val = fresh_qaoa_apply(inst, beta, gamma)
        assert np.array_equal(psi, fresh_psi)
        assert val == fresh_val


@settings(max_examples=8, deadline=None)
@given(d=st.integers(2, 3), p=probs, seed=seeds)
def test_qaoa_multi_cached_spectra_are_bit_identical(d, p, seed):
    # the Blocks operators diagonalise small blocks, not the dense matrices
    # fresh_qaoa_apply decomposes, so the two agree to rounding only
    g = random_graph(d, p, seed % 1000)
    if g.edge_count == 0:
        return
    inst = qaoa_multilayer_instance(g)
    beta, gamma = angles(seed, d), angles(seed + 1, d)
    psi, val = qaoa_apply(inst, beta, gamma)
    for cached_psi, cached_val in (qaoa_apply(inst, beta, gamma), qaoa_apply(qaoa_multilayer_instance(g), beta, gamma)):
        assert np.array_equal(cached_psi, psi)
        assert cached_val == val
    dense_psi, dense_val = fresh_qaoa_apply(inst, beta, gamma)
    assert np.abs(psi - dense_psi).max() <= 1e-12
    assert abs(val - dense_val) <= 1e-12


def random_blocks(data):
    """A Blocks operator on a shuffled space: 1-3 groups of 1-4 index rows of
    size 1-4, each row taking one of 1-n distinct blocks by its kind, so that
    kinds repeat. Returns the operator, its (index, blocks, kinds) groups and
    the generator."""
    rng = np.random.default_rng(data.draw(seeds))
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3))
    dim = sum(n * k for n, k in shapes)
    order = rng.permutation(dim)
    groups, start = [], 0
    for n, k in shapes:
        m = data.draw(st.integers(1, n))
        a = rng.normal(size=(m, k, k)) + 1j * rng.normal(size=(m, k, k))
        kinds = rng.integers(0, m, size=n)
        groups.append((order[start : start + n * k].reshape(n, k), (a + a.conj().transpose(0, 2, 1)) / 2, kinds))
        start += n * k
    return Blocks(dim, groups), groups, rng


@SETTINGS
@given(data=st.data())
def test_blocks_match_dense_eigh(data):
    op, _, rng = random_blocks(data)
    dense = op.to_dense()
    vals, vecs = np.linalg.eigh(dense)
    assert np.array_equal(dense, dense.conj().T)
    lo, hi, width = op.extremes()
    assert abs(lo - vals[0]) <= 1e-12 and abs(hi - vals[-1]) <= 1e-12 and abs(width - (vals[-1] - vals[0])) <= 1e-12
    theta = rng.uniform(-5, 5)
    exp_dense = (vecs * np.exp(-1j * vals * theta)) @ vecs.conj().T
    for shape in ((op.dim,), (op.dim, 3)):
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert op.apply(psi).shape == shape and op.apply_exp(psi, theta).shape == shape
        assert np.abs(op.apply(psi) - dense @ psi).max() <= 1e-12
        assert np.abs(op.apply_exp(psi, theta) - exp_dense @ psi).max() <= 1e-12


def assert_kinds_match_expanded(op: Blocks, rng) -> None:
    """``op`` and the same groups passed expanded, one block per index row
    (``op.groups`` holds them so), agree bit for bit."""
    expanded = Blocks(op.dim, op.groups)
    for got, want in zip(op.eigh(), expanded.eigh(), strict=True):
        for a, b in zip(got, want, strict=True):
            assert_same_bits(a, b)
    assert op.extremes() == expanded.extremes()
    assert_same_bits(op.to_dense(), expanded.to_dense())
    psi = rng.normal(size=op.dim) + 1j * rng.normal(size=op.dim)
    states = rng.normal(size=(op.dim, 3)) + 1j * rng.normal(size=(op.dim, 3))
    for x in (psi, states):
        assert_same_bits(op.apply(x), expanded.apply(x))
    for x, theta in ((psi, rng.uniform(-5, 5)), (states, rng.uniform(-5, 5)), (states, rng.uniform(-5, 5, 3))):
        assert_same_bits(op.apply_exp(x, theta), expanded.apply_exp(x, theta))


@SETTINGS
@given(data=st.data())
def test_blocks_kinds_match_expanded_groups_bit_for_bit(data):
    op, _, rng = random_blocks(data)
    assert_kinds_match_expanded(op, rng)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_qaoa_multi_kinds_match_expanded_groups_bit_for_bit(d):
    inst = qaoa_multilayer_instance(random_graph(d, 1.0, 0))
    rng = np.random.default_rng(d)
    for op in (inst.generators[1], inst.observable):
        assert_kinds_match_expanded(op, rng)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_qaoa_multi_decomposes_each_distinct_block_once(d, monkeypatch):
    # rung 0's rank-one block, the H1, H2 and H3 transfer kinds, then one H0
    # kind and one penalty kind
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        shapes.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    inst = qaoa_multilayer_instance(random_graph(d, 1.0, 0))
    inst.generators[1].eigh()
    inst.observable.eigh()
    dim_k = 4 * d * d
    assert shapes == [(1, dim_k, dim_k), (3, 2, 2), (1, 2, 2), (1, 4, 4)]


@SETTINGS
@given(data=st.data())
def test_blocks_reject_bad_groups(data):
    op, groups, _ = random_blocks(data)
    index, blocks = op.groups[0]
    rest = op.groups[1:]
    skewed = blocks.copy()
    skewed[0, 0, -1] += 1e-6 if blocks.shape[1] > 1 else 1e-6j
    with pytest.raises(ValueError, match="not Hermitian"):
        Blocks(op.dim, [(index, skewed), *rest])
    infinite = blocks.copy()
    infinite[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="must be finite"):
        Blocks(op.dim, [(index, infinite), *rest])
    missing = index.copy()
    missing[0, 0] = op.dim
    with pytest.raises(ValueError, match="partition"):
        Blocks(op.dim, [(missing, blocks), *rest])
    if op.dim > 1:
        overlap = index.copy()
        overlap[0, 0] = (index[0, 0] + 1) % op.dim
        with pytest.raises(ValueError, match="partition"):
            Blocks(op.dim, [(overlap, blocks), *rest])
    with pytest.raises(ValueError, match="partition"):
        Blocks(op.dim + 1, op.groups)


@SETTINGS
@given(data=st.data())
def test_blocks_reject_bad_kinds_groups(data):
    op, groups, _ = random_blocks(data)
    (index, blocks, kinds), rest = groups[0], groups[1:]
    n, m = len(index), len(blocks)
    # the checks read the distinct blocks, kinds or no kinds
    skewed = blocks.copy()
    skewed[-1, 0, -1] += 1e-6 if blocks.shape[1] > 1 else 1e-6j
    with pytest.raises(ValueError, match="not Hermitian"):
        Blocks(op.dim, [(index, skewed, kinds), *rest])
    infinite = blocks.copy()
    infinite[-1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        Blocks(op.dim, [(index, infinite, kinds), *rest])
    with pytest.raises(ValueError, match=f"expected {m} blocks"):
        Blocks(op.dim, [(index, blocks[:, :-1], kinds), *rest])
    bad_kinds = [
        kinds[:-1],  # too short
        np.append(kinds, 0),  # too long
        kinds[:, None],  # not 1-D
        kinds.astype(float),  # not integers
        kinds.astype(bool),
        np.where(np.arange(n) == 0, m, kinds),  # past the last block
        np.where(np.arange(n) == 0, -1, kinds),  # would wrap to the last block
    ]
    for bad in bad_kinds:
        with pytest.raises(ValueError, match=f"kinds must be {n} integers in 0..{m - 1}"):
            Blocks(op.dim, [(index, blocks, bad), *rest])
    # the partition check is the same for a kinds group
    missing = index.copy()
    missing[0, 0] = op.dim
    with pytest.raises(ValueError, match="partition"):
        Blocks(op.dim, [(missing, blocks, kinds), *rest])


class TestSizeLimits:
    def test_oracular_d16_matches_mu_and_maxcut(self):
        g = random_graph(16, 0.4, 16)
        inst = oracular_vqa_instance(g)
        rng = np.random.default_rng(16)
        for _ in range(3):
            phi = rng.uniform(0, 2 * np.pi, 16)
            assert abs(simulate_expectation(inst, phi) - mu(g, phi)) <= 1e-9
        mc, witness = maxcut_bruteforce(g)
        assert abs(simulate_expectation(inst, phases_from_assignment(witness)) + mc) <= 1e-9

    def test_state_limit_is_a_clear_error(self):
        with pytest.raises(ValueError, match=f"limit is {STATE_MAX_QUBITS} qubits"):
            oracular_vqa_instance(random_graph(STATE_MAX_QUBITS + 1, 0.1, 0))
        with pytest.raises(ValueError, match=f"limit is {STATE_MAX_QUBITS} qubits"):
            boosted_vqa_instance(random_graph(11, 0.3, 0), 2)

    def test_to_dense_refuses_above_dense_cap(self):
        inst = oracular_vqa_instance(random_graph(13, 0.3, 0))
        with pytest.raises(ValueError, match="dense form .* too large"):
            inst.observable.to_dense()
        with pytest.raises(ValueError, match="dense form .* too large"):
            inst.generators[0].to_dense()

    def test_export_above_dense_cap_exits_1(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["export", "--family", "oracular", "--random-graph", "13:0.3"])
        assert rc == 1
        assert "dense form" in err.getvalue() and "too large" in err.getvalue()
