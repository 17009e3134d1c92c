import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqalab import (
    fermionic_vqa_instance,
    gaussian_expectation,
    ground_covariance,
    mu,
    random_graph,
)
from vqalab.fermions import (
    FOCK_MAX_MODES,
    FermionInstance,
    _fock_system,
    _sector_operator,
    evolve_coefficient,
    fermion_expectation,
    fock_bruteforce_expectation,
    fock_system,
    second_quantized_all,
)
from vqalab.sim import Blocks, Diagonal


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_instance(n, layers, rng):
    return FermionInstance(
        initial=random_hermitian(n, rng),
        generators=tuple(random_hermitian(n, rng) for _ in range(layers)),
        observable=random_hermitian(n, rng),
    )


def annihilation_operators(n):
    """Dense 2^n annihilation operators as Jordan-Wigner kron chains."""
    z = np.diag([1.0, -1.0])
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1> -> |0>
    eye = np.eye(2)
    ops = []
    for j in range(n):
        op = np.array([[1.0 + 0j]])
        for k in range(n):
            op = np.kron(op, z if k < j else lower if k == j else eye)
        ops.append(op)
    return ops


def second_quantized(h, cs):
    """2^n matrix of sum h_ij c_i^dag c_j from the dense operators."""
    h = np.asarray(h, dtype=complex)
    out = np.zeros((cs[0].shape[0],) * 2, dtype=complex)
    for i in range(h.shape[0]):
        for j in range(h.shape[0]):
            if h[i, j] != 0:
                out += h[i, j] * (cs[i].conj().T @ cs[j])
    return out


def kron_fock_matrices(inst):
    """2^n matrices of h0, the observable and every generator from the
    kron-chain operators, forming c_i^dag c_j anew for every matrix."""
    cs = annihilation_operators(inst.dim)
    hs = [inst.initial, inst.observable.to_dense(), *(h.to_dense() for h in inst.generators)]
    return [second_quantized(h, cs) for h in hs]


def fock_covariance(rho, cs):
    """Correlation matrix Gamma_ij = Tr[c_j^dag c_i rho] from a Fock density matrix."""
    n = len(cs)
    return np.array([[np.trace(cs[j].conj().T @ cs[i] @ rho) for j in range(n)] for i in range(n)])


def eigh_gaussian_expectation(inst, phi):
    """The covariance pipeline on dense matrices, each generator and h0
    diagonalised by eigh on the spot."""
    w = np.eye(inst.dim, dtype=complex)
    for h, angle in zip(inst.generators, phi):
        vals, vecs = np.linalg.eigh(h.to_dense())
        w = ((vecs * np.exp(1j * vals * angle)) @ vecs.conj().T) @ w
    o_phi = w @ inst.observable.to_dense() @ w.conj().T
    return fermion_expectation(o_phi, ground_covariance(inst.initial))


def fock_ground_columns(h_full, degeneracy_tol=1e-10):
    """Eigenvectors of the lowest eigenspace of a 2^n matrix, as columns."""
    vals, vecs = np.linalg.eigh(h_full)
    return vecs[:, vals <= vals[0] + degeneracy_tol]


def fock_ground_state(ground):
    """Density matrix of the zero-temperature state: the uniform mixture of
    the ground columns (the beta -> infinity limit of the Gibbs state)."""
    return (ground @ ground.conj().T) / ground.shape[1]


def unitary_fock_expectation(inst, phi):
    """The slow-path Fock oracle as a density-matrix product: Tr[O u rho u^dag]
    with u = U_1(phi_1) ... U_L(phi_L) multiplied out as 2^n x 2^n unitaries,
    each from a full 2^n eigh of the kron-chain matrix."""
    h0, obs, *gens = kron_fock_matrices(inst)
    rho = fock_ground_state(fock_ground_columns(h0))
    u = np.eye(rho.shape[0], dtype=complex)
    for h, angle in zip(gens, phi):
        vals, vecs = np.linalg.eigh(h)
        u = u @ ((vecs * np.exp(-1j * vals * angle)) @ vecs.conj().T)
    rho = u @ rho @ u.conj().T
    return float(np.trace(obs @ rho).real)


def fresh_fock_expectation(inst, phi):
    """The slow-path Fock oracle with every 2^n matrix built on the spot and
    diagonalised by a full 2^n eigh: the ground columns of h0 evolved by U_L
    first, then U_{L-1}, ..., U_1."""
    cs = annihilation_operators(inst.dim)
    psi = ground = fock_ground_columns(second_quantized(inst.initial, cs))
    for h, angle in zip(reversed(inst.generators), phi[::-1]):
        vals, vecs = np.linalg.eigh(second_quantized(h.to_dense(), cs))
        psi = vecs @ (np.exp(-1j * vals * angle)[:, None] * (vecs.conj().T @ psi))
    obs = second_quantized(inst.observable.to_dense(), cs)
    return float((np.vdot(psi, obs @ psi) / ground.shape[1]).real)


def popcounts(n):
    """Particle number of each of the 2^n basis states."""
    return np.array([bin(s).count("1") for s in range(1 << n)])


def zero_mode_hermitian(n, rng):
    """A random Hermitian matrix with one zero eigenvalue: its many-body
    ground space is two-fold, the zero mode empty or filled."""
    vals = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    vals[0] = 0.0
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * vals) @ q.conj().T


def mixed_zero_hermitian(n, rng):
    """A Hermitian matrix whose entries are drawn from zero, -0.0, purely
    imaginary with a real part of 0.0 or -0.0, real with an imaginary part of
    -0.0, and general complex values."""
    h = random_hermitian(n, rng)
    for i in range(n):
        for j in range(i, n):
            a, b = h[i, j].real, h[i, j].imag
            zero = float(rng.choice([0.0, -0.0]))
            if i == j:
                h[i, i] = complex([0.0, -0.0, a][rng.integers(3)], zero)
            else:
                h[i, j] = [0j, complex(-0.0, -0.0), complex(zero, b), complex(a, -0.0), complex(a, b)][rng.integers(5)]
                h[j, i] = np.conj(h[i, j])
    return h


def assert_same_fock_bytes(inst):
    """second_quantized_all's matrices equal the kron-chain products byte for
    byte, signed zeros included.

    The tests built on this pin only the matrix builder, not fock_system's
    output: that is checked exactly against a fresh sector build by
    test_built_once_equals_fresh, and within 1e-12 against the slow-path
    oracle."""
    hs = [inst.initial, inst.observable.to_dense(), *(h.to_dense() for h in inst.generators)]
    mats, loop_mats = second_quantized_all(hs, inst.dim), kron_fock_matrices(inst)
    assert len(mats) == len(loop_mats)
    for mat, loop_mat in zip(mats, loop_mats):
        assert mat.tobytes() == loop_mat.tobytes()


class TestGroundCovariance:
    def test_negative_mode_projector(self):
        h = np.diag([-2.0, 3.0, 5.0]).astype(complex)
        assert np.allclose(ground_covariance(h), np.diag([1.0, 0.0, 0.0]))

    def test_zero_mode_gets_half(self):
        h = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        assert np.allclose(ground_covariance(h), np.diag([1.0, 0.5, 0.0]))

    def test_is_low_temperature_limit(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(4, rng)
        vals, vecs = np.linalg.eigh(h)
        with np.errstate(over="ignore"):
            fermi_dirac = 1.0 / (np.exp(1e4 * vals) + 1.0)
        assert np.allclose(ground_covariance(h), (vecs * fermi_dirac) @ vecs.conj().T, atol=1e-8)

    def test_matches_fock_ground_state(self):
        # the zero mode is half filled in both: weight 1/2 in the covariance,
        # empty in one ground column and filled in the other
        rng = np.random.default_rng(7)
        cs = annihilation_operators(3)
        for h in (random_hermitian(3, rng), zero_mode_hermitian(3, rng)):
            rho = fock_ground_state(fock_ground_columns(second_quantized(h, cs)))
            assert np.allclose(ground_covariance(h), fock_covariance(rho, cs), atol=1e-10)


class TestEvolution:
    def test_zero_angles_identity(self):
        rng = np.random.default_rng(9)
        o = random_hermitian(4, rng)
        gens = [random_hermitian(4, rng) for _ in range(3)]
        assert np.allclose(evolve_coefficient(o, gens, np.zeros(3)), o)

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_preserved(self, seed):
        rng = np.random.default_rng(20 + seed)
        o = random_hermitian(5, rng)
        gens = [random_hermitian(5, rng) for _ in range(2)]
        evolved = evolve_coefficient(o, gens, rng.uniform(0, 2 * np.pi, 2))
        assert np.allclose(np.linalg.eigvalsh(evolved), np.linalg.eigvalsh(o), atol=1e-10)

    def test_commuting_generators_compose(self):
        d1 = np.diag([1.0, -1.0, 0.5]).astype(complex)
        d2 = np.diag([0.3, 0.7, -0.2]).astype(complex)
        o = random_hermitian(3, np.random.default_rng(1))
        both = evolve_coefficient(o, [d1, d2], [0.4, 1.1])
        swapped = evolve_coefficient(o, [d2, d1], [1.1, 0.4])
        assert np.allclose(both, swapped, atol=1e-12)

    def test_angle_count_mismatch(self):
        o = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="angle count"):
            evolve_coefficient(o, [o], np.zeros(2))


class TestFermionExpectation:
    def test_identity_observable_counts_particles(self):
        gamma = np.diag([1.0, 0.0, 1.0]).astype(complex)
        assert fermion_expectation(np.eye(3, dtype=complex), gamma) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mode counts"):
            fermion_expectation(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


class TestGaussianVsFock:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_quadratic_circuits_agree(self, seed):
        rng = np.random.default_rng(100 + seed)
        inst = random_instance(4, 3, rng)
        phi = rng.uniform(0, 2 * np.pi, 3)
        assert gaussian_expectation(inst, phi) == pytest.approx(
            fock_bruteforce_expectation(fock_system(inst), phi), abs=1e-9
        )

    def test_fock_oracle_refuses_many_modes(self):
        n = 10
        inst = FermionInstance(
            initial=np.eye(n, dtype=complex),
            generators=(np.eye(n, dtype=complex),),
            observable=np.eye(n, dtype=complex),
        )
        with pytest.raises(ValueError, match="Fock oracle limit"):
            fock_system(inst)

    @pytest.mark.parametrize("seed", range(3))
    def test_built_once_equals_fresh(self, seed):
        rng = np.random.default_rng(300 + seed)
        for inst in (random_instance(3 + seed, 2, rng), fermionic_vqa_instance(random_graph(2 + seed, 0.7, seed))):
            fock, kron = fock_system(inst), kron_fock_matrices(inst)
            for _ in range(4):
                phi = rng.uniform(0, 2 * np.pi, inst.layers)
                value = fock_bruteforce_expectation(fock, phi)
                assert value == fock_bruteforce_expectation(_fock_system(kron, inst.dim), phi)
                assert value == pytest.approx(fresh_fock_expectation(inst, phi), abs=1e-12)


    @settings(max_examples=10, deadline=None)
    @given(d=st.integers(2, 4), p=st.sampled_from([0.3, 0.5, 1.0]), seed=st.integers(0, 999), random=st.booleans())
    def test_second_quantized_all_is_bit_identical_to_loop_build(self, d, p, seed, random):
        # a random instance has every coefficient nonzero: 2d - 2 modes keep it small
        rng = np.random.default_rng(seed)
        inst = random_instance(2 * d - 2, d, rng) if random else fermionic_vqa_instance(random_graph(d, p, seed))
        assert_same_fock_bytes(inst)

    @pytest.mark.parametrize("n", range(1, FOCK_MAX_MODES + 1))
    def test_second_quantized_all_is_bit_identical_on_signed_zero_and_imaginary_coefficients(self, n):
        rng = np.random.default_rng(400 + n)
        inst = FermionInstance(
            initial=mixed_zero_hermitian(n, rng),
            generators=(mixed_zero_hermitian(n, rng),),
            observable=mixed_zero_hermitian(n, rng),
        )
        assert_same_fock_bytes(inst)


class TestFockOracle:
    @pytest.mark.parametrize("zero_mode", [False, True])
    @pytest.mark.parametrize("n", range(1, FOCK_MAX_MODES + 1))
    def test_column_evolution_matches_unitary_product(self, n, zero_mode):
        rng = np.random.default_rng(500 + n)
        inst = FermionInstance(
            initial=(zero_mode_hermitian if zero_mode else random_hermitian)(n, rng),
            generators=tuple(random_hermitian(n, rng) for _ in range(3)),
            observable=random_hermitian(n, rng),
        )
        fock = fock_system(inst)
        ground = fock[0]
        assert ground.shape == (1 << n, 2 if zero_mode else 1)
        # each column lies in one particle-number sector, a zero mode's two in two
        sectors = {frozenset(popcounts(n)[np.abs(col) > 0]) for col in ground.T}
        assert all(len(sector) == 1 for sector in sectors) and len(sectors) == ground.shape[1]
        for _ in range(3):
            phi = rng.uniform(0, 2 * np.pi, 3)
            assert fock_bruteforce_expectation(fock, phi) == pytest.approx(unitary_fock_expectation(inst, phi), abs=1e-12)

    @pytest.mark.parametrize("seed", range(2))
    def test_gaussian_pipeline_at_the_mode_limit(self, seed):
        inst = fermionic_vqa_instance(random_graph(4, 0.5, 700 + seed))
        assert inst.dim == FOCK_MAX_MODES
        fock = fock_system(inst)
        rng = np.random.default_rng(700 + seed)
        for _ in range(20):
            phi = rng.uniform(0, 2 * np.pi, 4)
            assert fock_bruteforce_expectation(fock, phi) == pytest.approx(gaussian_expectation(inst, phi), abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maxcut_generators_are_diagonal_and_h0_splits_by_popcount(self, d):
        inst = fermionic_vqa_instance(random_graph(d, 0.5, 900 + d))
        n = inst.dim
        _, _, gens = fock_system(inst)
        assert all(isinstance(op, Diagonal) for op in gens)
        h0 = _sector_operator(second_quantized_all([inst.initial], n)[0], n)
        assert isinstance(h0, Blocks)
        # popcounts k and n - k share a sector size and so one group
        assert len(h0.groups) == n // 2 + 1
        count = popcounts(n)
        rows = sorted(tuple(row) for index, _ in h0.groups for row in index)
        assert rows == sorted(tuple(np.flatnonzero(count == k)) for k in range(n + 1))

    @pytest.mark.parametrize("src, dst", [(0, 1), (0, 3), (1, 7)])
    def test_sector_coupling_entry_raises(self, src, dst):
        # a hopping term inside the one-particle sector, plus one entry that
        # changes the particle number (a pairing term for (0, 3))
        mat = np.zeros((8, 8), dtype=complex)
        mat[1, 2] = mat[2, 1] = 0.5
        mat[dst, src] = mat[src, dst] = 1.0
        with pytest.raises(ValueError, match="particle-number sectors"):
            _sector_operator(mat, 3)

    def test_imaginary_residue_on_the_diagonal_is_accepted(self):
        # each coefficient diagonal is within the Hermitian tolerance, but a
        # Fock diagonal entry sums up to n of them
        rng = np.random.default_rng(950)
        h = random_hermitian(6, rng)
        h[np.diag_indices(6)] += 4e-13j
        inst = FermionInstance(initial=h, generators=(h, random_hermitian(6, rng)), observable=random_hermitian(6, rng))
        fock = fock_system(inst)
        phi = rng.uniform(0, 2 * np.pi, 2)
        assert fock_bruteforce_expectation(fock, phi) == pytest.approx(unitary_fock_expectation(inst, phi), abs=1e-12)

    def test_angle_count_mismatch(self):
        fock = fock_system(random_instance(2, 2, np.random.default_rng(8)))
        with pytest.raises(ValueError, match="angle count"):
            fock_bruteforce_expectation(fock, np.zeros(3))


class TestInstanceShape:
    def test_initial_must_be_hermitian(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            FermionInstance(initial=np.array([[0.0, 1.0], [0.0, 0.0]]), generators=(eye,), observable=eye)

    def test_dimension_is_the_mode_count(self, k3):
        inst = fermionic_vqa_instance(k3)
        assert (inst.dim, inst.layers, inst.kind, inst.family) == (6, 3, "fermion", "fermion")


class TestMaxcutEncoding:
    def test_initial_covariance_is_uniform_projector(self, k3):
        inst = fermionic_vqa_instance(k3)
        n = inst.dim
        assert np.allclose(inst.covariance, np.ones((n, n)) / n, atol=1e-12)

    def test_covariance_is_computed_on_first_use(self, k3):
        inst = fermionic_vqa_instance(k3)
        assert "covariance" not in vars(inst)
        gaussian_expectation(inst, np.zeros(3))
        assert vars(inst)["covariance"] is inst.covariance

    def test_zero_phases(self, k3):
        inst = fermionic_vqa_instance(k3)
        assert gaussian_expectation(inst, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_expectation_equals_mu(self, d):
        g = random_graph(d, 0.6, d + 11)
        inst = fermionic_vqa_instance(g)
        rng = np.random.default_rng(d)
        for _ in range(25):
            phi = rng.uniform(0, 2 * np.pi, d)
            assert gaussian_expectation(inst, phi) == pytest.approx(mu(g, phi), abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(d=st.integers(2, 8), p=st.sampled_from([0.3, 0.5, 0.8, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_operator_evolution_is_bit_identical_to_eigh(self, d, p, seed):
        inst = fermionic_vqa_instance(random_graph(d, p, seed % 1000))
        rng = np.random.default_rng(seed)
        for _ in range(4):
            phi = rng.uniform(0, 2 * np.pi, d)
            assert gaussian_expectation(inst, phi) == eigh_gaussian_expectation(inst, phi)

    def test_full_fock_confirms_d2(self, single_edge):
        inst = fermionic_vqa_instance(single_edge)
        fock = fock_system(inst)
        rng = np.random.default_rng(2)
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi, 2)
            assert fock_bruteforce_expectation(fock, phi) == pytest.approx(
                mu(single_edge, phi), abs=1e-9
            )
