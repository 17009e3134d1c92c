import math
from itertools import product
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vqalab import (
    apply_circuit,
    boosted_expectation,
    boosted_vqa_instance,
    ergodic_energies,
    ergodic_time,
    expectation,
    ising_observable,
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
from vqalab.reductions import (
    _H0,
    _H1,
    _H2,
    _H3,
    _qaoa_instance,
    ergodic_phase_errors,
    logdim_observable,
    modnorm,
    multilayer_encoding,
    multilayer_lower_bound,
    multilayer_optimal_value,
)


class TestIsingObservable:
    def test_single_edge_diagonal(self, single_edge):
        diag = np.diag(ising_observable(single_edge)).real
        assert np.array_equal(diag, [0.0, -1.0, -1.0, 0.0])

    def test_aligned_basis_state_expectation_zero(self, k3):
        obs = ising_observable(k3)
        assert obs[0, 0] == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_lambda_min_is_minus_maxcut(self, seed):
        g = random_graph(6, 0.5, seed)
        lo, _, _ = spectral_extremes(ising_observable(g))
        assert lo == -float(maxcut_bruteforce(g)[0])

    def test_refuses_large_d(self):
        g = random_graph(13, 0.3, 0)
        with pytest.raises(ValueError, match="too large"):
            ising_observable(g)


class TestOracularIdentity:
    def test_zero_phases(self, k3):
        assert mu(k3, np.zeros(3)) == 0.0

    def test_single_edge_hand_value(self, single_edge):
        assert mu(single_edge, [0.0, np.pi]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_closed_form_matches_statevector(self, d):
        g = random_graph(d, 0.6, d)
        inst = oracular_vqa_instance(g)
        rng = np.random.default_rng(d)
        for _ in range(25):
            phi = rng.uniform(0, 2 * np.pi, d)
            assert simulate_expectation(inst, phi) == pytest.approx(mu(g, phi), abs=1e-9)


class TestBoosting:
    def test_k1_reduces_to_mu(self, k3):
        phi = np.array([0.3, 1.0, 2.0])
        assert boosted_expectation(k3, 1, phi) == pytest.approx(mu(k3, phi))

    def test_k2_single_edge_matches_tensor_simulation(self, single_edge):
        inst = boosted_vqa_instance(single_edge, 2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            phi = rng.uniform(0, 2 * np.pi, 2)
            assert simulate_expectation(inst, phi) == pytest.approx(
                boosted_expectation(single_edge, 2, phi), abs=1e-9
            )

    @pytest.mark.parametrize("k", [1, 2])
    def test_spectral_width_is_maxcut_power(self, k):
        for seed in range(4):
            g = random_graph(4, 0.6, seed)
            mc, _ = maxcut_bruteforce(g)
            lo, _, sw = spectral_extremes(boosted_vqa_instance(g, k).observable)
            assert sw == float(mc) ** k
            assert lo == -float(mc) ** k

    def test_rejects_bad_power(self, k3):
        with pytest.raises(ValueError):
            boosted_expectation(k3, 0, np.zeros(3))


class TestLogdimInstance:
    def test_single_edge_diagonal_entries(self, single_edge):
        obs = logdim_observable(single_edge)
        assert np.allclose(np.diag(obs), -0.5)

    def test_zero_phases(self, k3):
        inst = logdim_vqa_instance(k3)
        assert simulate_expectation(inst, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_expectation_equals_mu(self, d):
        g = random_graph(d, 0.5, d + 100)
        inst = logdim_vqa_instance(g)
        rng = np.random.default_rng(d)
        for _ in range(25):
            phi = rng.uniform(0, 2 * np.pi, d)
            assert simulate_expectation(inst, phi) == pytest.approx(mu(g, phi), abs=1e-9)


def verify_certificate(inst, phi, a: float, tol: float = 1e-9) -> bool:
    """Polynomial-time check of the decision version: <O>(phi) <= a."""
    return expectation(apply_circuit(inst, phi), inst.observable) <= a + tol


class TestCertificate:
    def test_threshold_at_lambda_max(self, k3):
        inst = logdim_vqa_instance(k3)
        _, hi, _ = spectral_extremes(inst.observable)
        rng = np.random.default_rng(0)
        assert verify_certificate(inst, rng.uniform(0, 2 * np.pi, 3), hi)

    def test_single_edge_accept_and_reject(self, single_edge):
        inst = logdim_vqa_instance(single_edge)
        phi = np.array([0.0, np.pi])
        assert verify_certificate(inst, phi, -1.0)
        assert not verify_certificate(inst, phi, -1.5)


class TestErgodicSpectrum:
    def test_direct_formulas(self):
        spec = ergodic_energies(2, 4)
        assert np.allclose(spec.energies, [np.pi / 2, np.pi / 8])
        assert ergodic_energies(3, 16).epsilon == pytest.approx(np.pi / 4)
        assert np.allclose(ergodic_energies(1, 2).energies, [np.pi])

    def test_rejects_base_whose_power_overflows(self):
        # m^n past the float range would give a zero energy, a degenerate spectrum
        assert ergodic_energies(2, 10**110).energies[-1] == pytest.approx(2 * np.pi / 1e220, rel=1e-15)
        for n, m in [(3, 10**110), (1, 10**400), (2, 2**1023)]:
            with pytest.raises(ValueError, match=f"m\\^{n} overflows"):
                ergodic_energies(n, m)

    def test_modnorm_range(self):
        for x in np.linspace(-20, 20, 101):
            assert 0 <= modnorm(x) <= np.pi + 1e-12

    def test_zero_phase_vector(self):
        spec = ergodic_energies(3, 8)
        t = ergodic_time(np.zeros(3), spec)
        assert t == 0
        assert np.all(ergodic_phase_errors(np.zeros(3), spec, t) == 0.0)

    def test_hand_worked_example(self):
        spec = ergodic_energies(2, 4)
        t = ergodic_time(np.array([np.pi, np.pi]), spec)
        assert t == 10
        errs = ergodic_phase_errors(np.array([np.pi, np.pi]), spec, t)
        assert errs[0] == pytest.approx(0.0, abs=1e-12)
        assert errs[1] == pytest.approx(np.pi / 4)

    @pytest.mark.parametrize("m", [8, 64])
    def test_bound_on_random_phases(self, m):
        spec = ergodic_energies(5, m)
        rng = np.random.default_rng(m)
        for _ in range(300):
            phi = rng.uniform(0, 2 * np.pi, 5)
            t = ergodic_time(phi, spec)
            assert ergodic_phase_errors(phi, spec, t).max() <= 4 * np.pi / m

    def test_rejects_out_of_range_phase(self):
        spec = ergodic_energies(2, 8)
        with pytest.raises(ValueError, match="2\\*pi"):
            ergodic_time(np.array([0.0, 7.0]), spec)


class TestSingleLayer:
    def test_zero_time(self, k3):
        inst = single_layer_instance(k3, 16)
        assert simulate_expectation(inst, np.zeros(1)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_simulation_matches_closed_form(self, d):
        g = random_graph(d, 0.5, d + 7)
        inst = single_layer_instance(g, 16)
        rng = np.random.default_rng(d)
        for _ in range(30):
            t = rng.uniform(0, 16.0 ** min(d, 3))
            assert simulate_expectation(inst, np.array([t])) == pytest.approx(
                inst.closed_form(t), abs=1e-9
            )

    def test_dense_scan_approaches_minus_maxcut(self, k3):
        # Lipschitz slack |E| * eps around the discrete optimum
        m = 64
        inst = single_layer_instance(k3, m)
        mc, _ = maxcut_bruteforce(k3)
        ts = np.linspace(0, float(m) ** 3, 50_000)
        best = min(inst.closed_form(t) for t in ts)
        eps = 4 * np.pi / m
        assert best <= -mc + k3.edge_count * eps


class TestQaoaSingleLayer:
    def test_gamma_zero_gives_zero(self, k3):
        inst = qaoa_single_layer_instance(k3, 1e-3, 16)
        _, val = qaoa_apply(inst, np.array([0.7]), np.array([0.0]))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_quarter_period_isolates_f(self, k3):
        tau = 1e-3
        inst = qaoa_single_layer_instance(k3, tau, 16)
        spec = ergodic_energies(3, 16)
        beta = 1.234
        _, val = qaoa_apply(inst, np.array([beta]), np.array([np.pi / (2 * tau)]))
        assert val == pytest.approx(mu(k3, spec.energies * beta), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_simulation_matches_closed_form(self, d):
        tau = 1e-3
        g = random_graph(d, 0.6, d + 3)
        inst = qaoa_single_layer_instance(g, tau, 16)
        rng = np.random.default_rng(d)
        for _ in range(30):
            beta = rng.uniform(0, 2 * np.pi)
            gamma = rng.uniform(0, 2 * np.pi / tau)
            _, val = qaoa_apply(inst, np.array([beta]), np.array([gamma]))
            assert val == pytest.approx(inst.closed_form(beta, gamma), abs=1e-9)

    def test_rejects_bad_parameters(self, k3):
        with pytest.raises(ValueError, match="tau"):
            qaoa_single_layer_instance(k3, 0.0, 16)
        with pytest.raises(ValueError, match="m="):
            qaoa_single_layer_instance(k3, 1e-3, 4)


# The loop-built multilayer matrices that the Blocks operators replaced,
# kept as the oracle for their dense forms.

def _transfer_block(d: int, kappa: Optional[int]) -> np.ndarray:
    """Transfer Hamiltonian on two copies of K = C^d x C^d x C^2 x C^2.

    ``kappa`` is the 1-based layer index selecting the phase-imprinting cases;
    ``None`` builds the uniform H0-type block used by the cost Hamiltonian.
    Overlapping case clauses are resolved first-match, top to bottom.
    """
    dim_k = 4 * d * d
    block = np.zeros((2 * dim_k, 2 * dim_k), dtype=complex)
    for i in range(d):
        for j in range(d):
            for a in range(2):
                for b in range(2):
                    idx = ((i * d + j) * 2 + a) * 2 + b
                    if kappa is None:
                        two = _H0
                    elif i == j or a == 0:
                        two = _H1
                    elif i == kappa - 1 or (j == kappa - 1 and b == 0):
                        two = _H2
                    elif j == kappa - 1 and b == 1:
                        two = _H3
                    else:
                        two = _H1
                    for x in range(2):
                        for y in range(2):
                            block[x * dim_k + idx, y * dim_k + idx] = two[x, y]
    return block


def _gs_vector(g) -> np.ndarray:
    """Edge-superposition ground state of the mixer, in K."""
    d = g.d
    dim_k = 4 * d * d
    psi = np.zeros(dim_k)
    for i in range(d):
        for j in range(d):
            if g.adjacency[i, j]:
                for a in range(2):
                    for b in range(2):
                        psi[((i * d + j) * 2 + a) * 2 + b] = 1.0
    return psi / (2 * math.sqrt(g.adjacency.sum()))


def _penalty_block(d: int) -> np.ndarray:
    """H_p on K: (1/2) sum over a != a~ and all b, b~ per vertex pair."""
    dim_k = 4 * d * d
    hp = np.zeros((dim_k, dim_k))
    for i in range(d):
        for j in range(d):
            base = (i * d + j) * 4
            for a in range(2):
                for b in range(2):
                    for a2 in range(2):
                        for b2 in range(2):
                            if a != a2:
                                hp[base + a * 2 + b, base + a2 * 2 + b2] = 0.5
    return hp.astype(complex)


def loop_built_multilayer(g) -> tuple:
    """(hb, hc, psi0) of the multilayer instance, built entry by entry."""
    d = g.d
    dim_k = 4 * d * d
    dim = (2 * d + 1) * dim_k
    gs = _gs_vector(g)
    hb = np.zeros((dim, dim), dtype=complex)
    hb[:dim_k, :dim_k] = -3 * np.outer(gs, gs)
    for kappa in range(1, d + 1):
        off = (2 * kappa - 1) * dim_k
        hb[off : off + 2 * dim_k, off : off + 2 * dim_k] = _transfer_block(d, kappa)
    hc = np.zeros((dim, dim), dtype=complex)
    transfer = _transfer_block(d, None)
    for pair in range(d):
        off = 2 * pair * dim_k
        hc[off : off + 2 * dim_k, off : off + 2 * dim_k] = transfer
    hc[2 * d * dim_k :, 2 * d * dim_k :] = _penalty_block(d)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[:dim_k] = gs
    return hb, hc, psi0


@settings(max_examples=20, deadline=None)
@given(d=st.integers(2, 4), p=st.sampled_from([0.3, 0.5, 0.8, 1.0]), seed=st.integers(0, 999))
def test_multilayer_operators_equal_loop_built_matrices_byte_for_byte(d, p, seed):
    # tobytes, not array_equal, so that every signed zero is compared too
    g = random_graph(d, p, seed)
    if g.edge_count == 0:
        return
    inst = qaoa_multilayer_instance(g)
    hb, hc, psi0 = loop_built_multilayer(g)
    assert inst.generators[1].to_dense().tobytes() == hb.tobytes()
    assert inst.observable.to_dense().tobytes() == hc.tobytes()
    assert inst.initial.tobytes() == psi0.tobytes()


class TestQaoaMultilayer:
    @pytest.mark.parametrize("text", ["2\n1 2", "3\n1 2\n2 3", "3\n1 2\n2 3\n1 3"])
    def test_operator_norms(self, text):
        from vqalab import parse_graph

        inst = qaoa_multilayer_instance(parse_graph(text))
        lo, hi, _ = spectral_extremes(inst.generators[1])
        assert max(abs(lo), abs(hi)) == pytest.approx(3.0, abs=1e-9)
        lo, hi, _ = spectral_extremes(inst.observable)
        assert max(abs(lo), abs(hi)) == pytest.approx(1.0, abs=1e-9)

    def test_single_edge_optimum_is_minus_one(self, single_edge):
        inst = qaoa_multilayer_instance(single_edge)
        mc, witness = maxcut_bruteforce(single_edge)
        beta, gamma = multilayer_encoding(single_edge, witness)
        _, val = qaoa_apply(inst, beta, gamma)
        assert multilayer_optimal_value(single_edge, mc) == pytest.approx(-1.0)
        assert val == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_maxcut_encoding_attains_closed_form(self, seed):
        g = random_graph(3, 0.8, seed)
        inst = qaoa_multilayer_instance(g)
        mc, witness = maxcut_bruteforce(g)
        beta, gamma = multilayer_encoding(g, witness)
        _, val = qaoa_apply(inst, beta, gamma)
        assert val == pytest.approx(multilayer_optimal_value(g, mc), abs=1e-9)

    def test_discrete_brute_force_confirms_optimum(self, k3):
        inst = qaoa_multilayer_instance(k3)
        mc, _ = maxcut_bruteforce(k3)
        gamma = np.full(3, np.pi)
        best = min(
            qaoa_apply(inst, np.array([np.pi / 2 if s == 1 else 3 * np.pi / 2 for s in signs]), gamma)[1]
            for signs in product([1, -1], repeat=3)
        )
        assert best == pytest.approx(multilayer_optimal_value(k3, mc), abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_lower_bound_inequality(self, seed):
        g = random_graph(2, 1.0, seed) if seed % 2 else random_graph(3, 0.7, seed)
        inst = qaoa_multilayer_instance(g)
        rng = np.random.default_rng(400 + seed)
        for _ in range(10):
            beta = rng.uniform(0, 2 * np.pi, g.d)
            gamma = rng.uniform(0, 2 * np.pi, g.d)
            _, val = qaoa_apply(inst, beta, gamma)
            assert val >= multilayer_lower_bound(g, beta, gamma) - 1e-9

    def test_zero_parameters_leave_initial_state(self, single_edge):
        inst = qaoa_multilayer_instance(single_edge)
        psi, val = qaoa_apply(inst, np.zeros(2), np.zeros(2))
        assert np.allclose(psi, inst.initial)

    def test_unitarity_at_random_parameters(self, single_edge):
        inst = qaoa_multilayer_instance(single_edge)
        rng = np.random.default_rng(11)
        psi, _ = qaoa_apply(inst, rng.uniform(0, 2 * np.pi, 2), rng.uniform(0, 2 * np.pi, 2))
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


class TestQaoaChecks:
    """The checks the QAOA constructors share, on a two-level mixer/cost pair."""

    HB = np.diag([-1.0, 1.0]).astype(complex)
    HC = np.array([[0, 1], [1, 0]], dtype=complex)
    GROUND = np.array([1, 0], dtype=complex)

    def build(self, hb=HB, hc=HC, layers=2, initial=GROUND):
        return _qaoa_instance(hb, hc, layers, initial, None, "qaoa-multi", None)

    def test_alternates_cost_and_mixer(self):
        inst = self.build()
        cost, mixer = inst.generators[:2]
        assert inst.generators == (cost, mixer, cost, mixer)
        assert inst.observable is cost
        assert np.array_equal(mixer.to_dense(), self.HB)
        assert np.array_equal(cost.to_dense(), self.HC)

    def test_rejects_excited_initial_state(self):
        with pytest.raises(ValueError, match="mixer ground state"):
            self.build(initial=np.array([0, 1], dtype=complex))

    def test_rejects_zero_layers(self):
        with pytest.raises(ValueError, match="at least one layer"):
            self.build(layers=0)

    @pytest.mark.parametrize("which", ["hb", "hc", "initial"])
    def test_rejects_dimension_mismatch(self, which):
        big = {
            "hb": np.diag([-1.0, 1.0, 2.0]).astype(complex),
            "hc": np.eye(3, dtype=complex),
            "initial": np.array([1, 0, 0], dtype=complex),
        }
        with pytest.raises(ValueError, match="must have one dimension"):
            self.build(**{which: big[which]})
