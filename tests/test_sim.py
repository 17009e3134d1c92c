import numpy as np
import pytest

from scipy.linalg import expm

from vqalab import (
    VqaInstance,
    apply_circuit,
    expectation,
    ising_observable,
    maxcut_bruteforce,
    random_graph,
    simulate_expectation,
    spectral_extremes,
)
from vqalab.sim import Dense, Diagonal, Operator, assert_hermitian, assert_state


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def exp_matrix(op, theta):
    """The matrix of exp(-i H theta), as the Operator's apply_exp gives it."""
    return op.apply_exp(np.eye(op.dim, dtype=complex), theta)


class TestHermExp:
    """The Hermitian exponential exp(-i H theta) as the operators apply it."""

    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(0)
        h = Dense(random_hermitian(5, rng))
        assert np.allclose(exp_matrix(h, 0.0), np.eye(5))

    def test_diagonal_hand_value(self):
        u = exp_matrix(Diagonal([1.0, -1.0]), np.pi)
        assert np.allclose(u, -np.eye(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        h = Dense(random_hermitian(6, rng))
        u = exp_matrix(h, rng.uniform(-5, 5))
        assert np.abs(u.conj().T @ u - np.eye(6)).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_group_property(self, seed):
        rng = np.random.default_rng(50 + seed)
        h = Dense(random_hermitian(4, rng))
        a, b = rng.uniform(-2, 2, 2)
        assert np.abs(exp_matrix(h, a + b) - exp_matrix(h, a) @ exp_matrix(h, b)).max() <= 1e-9

    def test_rejects_non_hermitian(self):
        # a matrix becomes an operator only through the Hermitian check
        with pytest.raises(ValueError, match="Hermitian"):
            VqaInstance(
                initial=np.array([1.0, 0.0], dtype=complex),
                generators=(np.array([[0.0, 1.0], [0.0, 0.0]]),),
                observable=np.eye(2, dtype=complex),
            )


class TestApplyCircuit:
    def _instance(self, rng, dim=4, layers=3):
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        gens = tuple(random_hermitian(dim, rng) for _ in range(layers))
        return VqaInstance(initial=psi, generators=gens, observable=random_hermitian(dim, rng))

    def test_zero_phases_leave_state(self):
        rng = np.random.default_rng(1)
        inst = self._instance(rng)
        assert np.allclose(apply_circuit(inst, np.zeros(3)), inst.initial)

    def test_diagonal_generator_preserves_probabilities(self):
        psi = np.array([0.6, 0.8], dtype=complex)
        inst = VqaInstance(
            initial=psi,
            generators=(np.diag([1.0, -1.0]).astype(complex),),
            observable=np.eye(2, dtype=complex),
        )
        out = apply_circuit(inst, [1.3])
        assert np.allclose(np.abs(out) ** 2, np.abs(psi) ** 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_explicit_matrix_chain(self, seed):
        rng = np.random.default_rng(10 + seed)
        inst = self._instance(rng, dim=8, layers=4)
        phi = rng.uniform(0, 2 * np.pi, 4)
        chain = inst.initial
        for h, angle in zip(inst.generators, phi):
            chain = expm(-1j * angle * h.to_dense()) @ chain
        assert np.allclose(apply_circuit(inst, phi), chain, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(20 + seed)
        inst = self._instance(rng)
        out = apply_circuit(inst, rng.uniform(0, 2 * np.pi, 3))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_length_mismatch(self):
        rng = np.random.default_rng(2)
        inst = self._instance(rng)
        with pytest.raises(ValueError, match="angles"):
            apply_circuit(inst, np.zeros(2))

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle(self, x):
        inst = self._instance(np.random.default_rng(3))
        with pytest.raises(ValueError, match="finite"):
            apply_circuit(inst, [0.1, x, 0.2])

    def test_norm_change_raises(self):
        class Doubling(Operator):
            """A broken generator whose exponential scales the state by 2."""

            dim = 2

            def apply_exp(self, psi, theta):
                return 2 * psi

        inst = VqaInstance(
            initial=np.array([1.0, 0.0], dtype=complex),
            generators=(Doubling(),),
            observable=Diagonal([1.0, -1.0]),
        )
        with pytest.raises(ValueError, match="norm by 1.000e"):
            simulate_expectation(inst, [0.3])


class TestExpectation:
    def test_identity_observable(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        assert expectation(psi, np.eye(2, dtype=complex)) == pytest.approx(1.0)

    def test_eigenvector_returns_eigenvalue(self):
        obs = np.diag([3.0, -2.0]).astype(complex)
        psi = np.array([0.0, 1.0], dtype=complex)
        assert expectation(psi, obs) == pytest.approx(-2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_within_spectral_bounds(self, seed):
        rng = np.random.default_rng(30 + seed)
        obs = random_hermitian(6, rng)
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        lo, hi, _ = spectral_extremes(obs)
        assert lo - 1e-9 <= expectation(psi, obs) <= hi + 1e-9

    def test_non_hermitian_observable_flagged(self):
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        bad = np.array([[0.0, 1.0j], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary"):
            expectation(psi, bad)


class TestSpectralExtremes:
    def test_diagonal_hand_value(self):
        assert spectral_extremes(np.diag([3.0, -1.0]).astype(complex)) == (-1.0, 3.0, 4.0)

    def test_k3_ising(self, k3):
        assert spectral_extremes(ising_observable(k3)) == (-2.0, 0.0, 2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_ising_width_equals_maxcut(self, seed):
        g = random_graph(7, 0.5, seed)
        _, _, sw = spectral_extremes(ising_observable(g))
        assert sw == float(maxcut_bruteforce(g)[0])


class TestConstruction:
    def test_assert_hermitian_tolerates_roundoff(self):
        a = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]], dtype=complex)
        assert_hermitian(a, tol=1e-12)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_assert_hermitian_rejects_non_finite(self, x):
        a = np.eye(2, dtype=complex)
        a[0, 1] = a[1, 0] = x
        with pytest.raises(ValueError, match="finite"):
            assert_hermitian(a)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_assert_state_rejects_non_finite(self, x):
        with pytest.raises(ValueError, match="finite"):
            assert_state(np.array([x, 0.0]))

    def test_instance_requires_normalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            VqaInstance(
                initial=np.array([1.0, 1.0], dtype=complex),
                generators=(np.eye(2, dtype=complex),),
                observable=np.eye(2, dtype=complex),
            )

    def test_instance_requires_matching_dims(self):
        with pytest.raises(ValueError, match="dimensions"):
            VqaInstance(
                initial=np.array([1.0, 0.0], dtype=complex),
                generators=(np.eye(3, dtype=complex),),
                observable=np.eye(2, dtype=complex),
            )
