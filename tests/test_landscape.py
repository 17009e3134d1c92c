from itertools import product

import numpy as np
import pytest

from conftest import central_difference_gradient, central_difference_hessian
from vqalab import (
    is_discrete_local_min,
    maxcut_bruteforce,
    mu,
    mu_gradient,
    mu_hessian,
    random_graph,
    reduce_phases,
    round_to_discrete,
)
from vqalab.landscape import (
    discrete_signs,
    phases_from_assignment,
)


class TestMu:
    def test_zero_phases_give_zero(self, k3):
        assert mu(k3, np.zeros(3)) == 0.0

    def test_single_edge_antipodal(self, single_edge):
        assert mu(single_edge, [0.0, np.pi]) == pytest.approx(-1.0)

    def test_k3_discrete_minimum_is_minus_maxcut(self, k3):
        best = min(
            mu(k3, phases_from_assignment(np.array(s)))
            for s in product([1, -1], repeat=3)
        )
        assert best == pytest.approx(-2.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds(self, seed):
        g = random_graph(7, 0.5, seed)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            val = mu(g, rng.uniform(0, 2 * np.pi, 7))
            assert -g.edge_count - 1e-12 <= val <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_two_pi_periodicity_exact(self, seed):
        g = random_graph(6, 0.5, seed)
        rng = np.random.default_rng(seed)
        phi = rng.uniform(0, 2 * np.pi, 6)
        for i in range(6):
            shifted = phi.copy()
            shifted[i] += 2 * np.pi
            # cos is evaluated at a different float, so allow rounding noise
            assert mu(g, shifted) == pytest.approx(mu(g, phi), abs=1e-12)

    def test_dimension_mismatch(self, k3):
        with pytest.raises(ValueError):
            mu(k3, np.zeros(4))


class TestCalculus:
    def test_gradient_vanishes_on_discrete_points(self, c5):
        for s in product([1, -1], repeat=5):
            phi = phases_from_assignment(np.array(s))
            assert np.all(mu_gradient(c5, phi) == 0.0)

    def test_single_edge_hand_value(self, single_edge):
        g = mu_gradient(single_edge, [np.pi / 2, 0.0])
        assert g == pytest.approx([-0.5, 0.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        g = random_graph(6, 0.5, seed)
        rng = np.random.default_rng(100 + seed)
        for _ in range(5):
            phi = rng.uniform(0, 2 * np.pi, 6)
            exact = mu_gradient(g, phi)
            approx = central_difference_gradient(lambda x: mu(g, x), phi)
            assert np.linalg.norm(approx - exact) <= 1e-6 * max(1.0, np.linalg.norm(exact))

    def test_hessian_single_edge_hand_value(self, single_edge):
        h = mu_hessian(single_edge, [0.0, 0.0])
        assert np.allclose(h, np.diag([-0.5, -0.5]))

    def test_hessian_diagonal_on_discrete_points(self, k3):
        for s in product([1, -1], repeat=3):
            h = mu_hessian(k3, phases_from_assignment(np.array(s)))
            assert np.all(h - np.diag(np.diag(h)) == 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_hessian_matches_finite_differences(self, seed):
        g = random_graph(5, 0.6, seed)
        rng = np.random.default_rng(200 + seed)
        phi = rng.uniform(0, 2 * np.pi, 5)
        exact = mu_hessian(g, phi)
        approx = central_difference_hessian(lambda x: mu(g, x), phi)
        assert np.linalg.norm(approx - exact) <= 1e-4 * max(1.0, np.linalg.norm(exact))


class TestRounding:
    def test_discrete_input_unchanged(self, c5):
        phi = phases_from_assignment(np.array([1, -1, 1, -1, 1]))
        assert np.array_equal(round_to_discrete(c5, phi), phi)

    def test_single_edge_example(self, single_edge):
        assert np.array_equal(
            round_to_discrete(single_edge, [0.1, 3.0]), [0.0, np.pi]
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_never_increases_mu(self, seed):
        g = random_graph(7, 0.5, seed)
        rng = np.random.default_rng(300 + seed)
        for _ in range(25):
            phi = rng.uniform(0, 2 * np.pi, 7)
            assert mu(g, round_to_discrete(g, phi)) <= mu(g, phi) + 1e-12


class TestDiscreteLocalMin:
    def test_maximum_cut_is_local_min(self, c5):
        _, witness = maxcut_bruteforce(c5)
        assert is_discrete_local_min(c5, phases_from_assignment(witness))

    def test_single_edge_aligned_is_not(self, single_edge):
        assert not is_discrete_local_min(single_edge, [0.0, 0.0])

    def test_rejects_non_discrete(self, k3):
        with pytest.raises(ValueError, match="not discrete"):
            is_discrete_local_min(k3, [0.3, 0.0, np.pi])

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_cut_local_optimality(self, seed):
        from vqalab.graphs import cut_value

        g = random_graph(6, 0.5, seed)
        for s in product([1, -1], repeat=6):
            v = np.array(s)
            phi = phases_from_assignment(v)
            base = cut_value(g, v)
            cut_local = all(
                cut_value(g, np.where(np.arange(6) == i, -v, v)) <= base
                for i in range(6)
            )
            assert is_discrete_local_min(g, phi) == cut_local

    def test_discrete_minimum_equals_minus_maxcut(self):
        for seed in range(10):
            g = random_graph(8, 0.5, seed)
            lowest = min(mu(g, phases_from_assignment(np.array(v))) for v in product([1, -1], repeat=8))
            assert lowest == pytest.approx(-maxcut_bruteforce(g)[0])


class TestPhaseHelpers:
    def test_reduce_into_interval(self):
        red = reduce_phases([-0.5, 7.0, 2 * np.pi])
        assert np.all((red >= 0) & (red < 2 * np.pi))

    def test_assignment_round_trip(self):
        v = np.array([1, -1, -1, 1])
        assert np.array_equal(discrete_signs(phases_from_assignment(v)), v)
