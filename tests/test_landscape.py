import functools
import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FD_STEP,
    central_difference_gradient,
    central_difference_hessian,
    chain_rule_landscape,
    finite_difference_gradient,
    int_adjacency_gradient,
    int_adjacency_mu,
    qaoa1_value,
    reference_mu_gradient_rows,
    reference_row_kernels,
    row_wise,
    scalar_landscape,
)
from vqalab import (
    ergodic_energies,
    is_discrete_local_min,
    maxcut_bruteforce,
    mu,
    mu_gradient,
    mu_hessian,
    random_graph,
    reduce_phases,
    round_to_discrete,
)
from vqalab.families import FAMILIES
from vqalab.landscape import (
    _mu_gradient_rows,
    _mu_rows,
    _mu_value_and_gradient_rows,
    _sin_exact,
    discrete_signs,
    phases_from_assignment,
)
from vqalab.optimize import OptimizerConfig, descend
from vqalab.reductions import _boosted_rows, _qaoa1_rows, _qaoa_rows, _single_layer_rows


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


# Reference: mu_hessian as products with the integer adjacency, as conftest
# writes mu and mu_gradient. The kernels read Graph's float copy and must
# match bit for bit.
def int_adjacency_hessian(g, phi):
    c, s = np.cos(phi), _sin_exact(phi)
    h = 0.5 * g.adjacency * np.outer(s, s)
    np.fill_diagonal(h, -0.5 * c * (g.adjacency @ c))
    return h


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


KERNEL_SETTINGS = settings(max_examples=200, deadline=None)
# the written-out chain rules against the kernels, relative to the larger
# of 1 and the gradient's size: the two orders of operations differ in the
# last bits
CHAIN_RULE_TOL = 1e-12


def assert_chain_rule(row, want):
    assert np.abs(row - want).max() <= CHAIN_RULE_TOL * max(1.0, np.abs(want).max())


def fd_bound(h, freq, size):
    """A bound on the error of central differences at step h of a function
    whose values are at most ``size`` in magnitude and which oscillates at
    rates up to ``freq``: the truncation h^2 |f'''| / 6, with |f'''| at most
    freq^3 size, and the round-off of a difference of two values over 2h,
    both doubled."""
    return 2 * (h * h * freq**3 / 6 + np.finfo(float).eps / h) * (1 + size)


@functools.lru_cache(maxsize=None)
def qaoa_multi_instance(d):
    """qaoa-multi's instance on K_d, built once per d."""
    return FAMILIES["qaoa-multi"].build(random_graph(d, 1.0, 0), None)
phase = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-300, 300).map(lambda k: k * np.pi),
    st.just(-0.0),
)


@st.composite
def graphs_and_phases(draw):
    # d starts at 2: a one-vertex graph has no edge, which Graph rejects
    d = draw(st.integers(2, 20))
    g = random_graph(d, draw(st.sampled_from([0.1, 0.3, 1.0])), draw(st.integers(0, 2**32 - 1)))
    return g, np.array(draw(st.lists(phase, min_size=d, max_size=d)), dtype=float)


class TestUncheckedKernels:
    @KERNEL_SETTINGS
    @given(case=graphs_and_phases())
    def test_bit_identical_to_integer_adjacency_expressions(self, case):
        g, phi = case
        value, gradient = int_adjacency_mu(g, phi), int_adjacency_gradient(g, phi)
        assert bits(mu(g, phi)) == bits(value)
        assert bits(mu_gradient(g, phi)) == bits(gradient)
        assert bits(mu_hessian(g, phi)) == bits(int_adjacency_hessian(g, phi))

    @KERNEL_SETTINGS
    @given(case=graphs_and_phases())
    def test_descent_norm_is_numpy_norm(self, case):
        g, phi = case
        for v in (mu_gradient(g, phi), phi):
            assert math.sqrt(v.dot(v)) == np.linalg.norm(v)

    def test_float_adjacency_is_read_only_copy(self, k3):
        assert k3.float_adjacency.dtype == np.float64
        assert np.array_equal(k3.float_adjacency, k3.adjacency)
        assert k3.adjacency_sum == 6.0
        with pytest.raises(ValueError):
            k3.float_adjacency[0, 1] = 0.0

    @pytest.mark.parametrize("family", ["oracular", "boosted"])
    def test_descent_from_non_finite_start_raises(self, family, c5):
        land = FAMILIES[family].landscape(c5, SimpleNamespace(k=2), None)
        start = np.zeros((1, land.n_params))
        start[0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite objective"):
            descend(land, start, OptimizerConfig())

    @pytest.mark.parametrize("public", [mu, mu_gradient, mu_hessian, round_to_discrete, is_discrete_local_min])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_public_functions_check_their_input(self, public, bad, k3):
        with pytest.raises(ValueError, match="must be finite"):
            public(k3, [0.0, bad, np.pi])
        with pytest.raises(ValueError, match="does not match"):
            public(k3, [0.0, np.pi])


@st.composite
def graphs_and_stacks(draw):
    """A graph with d in 2..20 and a stack of phase rows: up to five drawn
    rows, then the all-zero, all-minus-zero and all-pi rows, where mu is
    exactly 0 and its gradient vanishes."""
    g, first = draw(graphs_and_phases())
    rows = draw(st.lists(st.lists(phase, min_size=g.d, max_size=g.d), max_size=4))
    edges = [np.zeros(g.d), np.full(g.d, -0.0), np.full(g.d, np.pi)]
    return g, np.array([first, *rows, *edges], dtype=float)


class TestRowKernels:
    """Each family's row kernels against its scalar kernels (conftest's
    scalar_landscape), row by row, bit for bit; qaoa-multi's within
    round-off."""

    @KERNEL_SETTINGS
    @given(case=graphs_and_stacks())
    def test_mu_rows(self, case):
        # the gradient and the value-and-gradient kernels against _mu_rows
        # and the gradient kernel as it was before they shared np.cos(X)
        # (conftest's reference_mu_gradient_rows), and those against the
        # scalar kernels
        g, X = case
        values, gradients = _mu_rows(g, X), reference_mu_gradient_rows(g, X)
        for x, value, gradient in zip(X, values, gradients):
            assert bits(value) == bits(int_adjacency_mu(g, x))
            assert bits(gradient) == bits(int_adjacency_gradient(g, x))
        fused_values, fused_gradients = _mu_value_and_gradient_rows(g, X)
        assert bits(fused_values) == bits(values)
        assert bits(fused_gradients) == bits(_mu_gradient_rows(g, X)) == bits(gradients)
        for family in ("oracular", "logdim", "fermion"):
            land = FAMILIES[family].landscape(g, None, None)
            kernel_values, kernel_gradients = land.value_and_gradient(X)
            assert bits(land.objective(X)) == bits(kernel_values) == bits(values)
            assert bits(land.gradient(X)) == bits(kernel_gradients) == bits(gradients)
            assert land.n_params == g.d

    @KERNEL_SETTINGS
    @given(case=graphs_and_stacks(), k=st.integers(1, 5))
    def test_boosted_rows_are_python_powers(self, case, k):
        # boosted descends on the mu kernels and reports their values as
        # -(-mu)^k, bit for bit _boosted_rows and the scalar Python powers;
        # conftest's chain-rule landscape, the descent tests' input, against
        # its scalar kernels and its kernels as they were before each
        # evaluated mu once
        g, X = case
        args = SimpleNamespace(k=k)
        family = FAMILIES["boosted"]
        land = family.landscape(g, args, None)
        values, gradients = land.value_and_gradient(X)
        assert bits(values) == bits(land.objective(X)) == bits(_mu_rows(g, X))
        assert bits(gradients) == bits(land.gradient(X)) == bits(_mu_gradient_rows(g, X))
        reported = family.report(args, values)
        assert bits(reported) == bits(_boosted_rows(g, k, X))
        chain = chain_rule_landscape(g, k)
        f, grad, _ = scalar_landscape("boosted", g, args, None)
        chain_values, chain_gradients = chain.value_and_gradient(X)
        reference, reference_gradient = reference_row_kernels("boosted", g, args)
        assert bits(chain_values) == bits(chain.objective(X)) == bits(reference(X)) == bits(reported)
        assert bits(chain_gradients) == bits(chain.gradient(X)) == bits(reference_gradient(X))
        for x, value, row in zip(X, chain_values, chain_gradients):
            assert bits(value) == bits(f(x))
            assert bits(row) == bits(grad(x))

    @KERNEL_SETTINGS
    @given(case=graphs_and_stacks(), m=st.sampled_from([7, 8, 64]), tau=st.floats(1e-3, 10.0))
    def test_grid_family_rows(self, case, m, tau):
        g, X = case
        args = SimpleNamespace(m=m, tau=tau)
        for family in ("single-layer", "qaoa1"):
            land = FAMILIES[family].landscape(g, args, None)
            f, _, _ = scalar_landscape(family, g, args, None)
            T = X[:, : land.n_params]
            for t, value in zip(T, land.objective(T)):
                assert bits(value) == bits(f(t))

    @KERNEL_SETTINGS
    @given(
        case=graphs_and_phases(),
        gammas=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=6),
        m=st.sampled_from([7, 8, 16, 64]),
        tau=st.sampled_from([0.5, 0.05, 1e-3]) | st.floats(1e-3, 10.0),
    )
    # np.float_power(s, 2) and numpy's s ** 2 (s * s) differ on about one row
    # in a thousand, so the drawn stacks of at most six rows rarely hold one:
    # these 4096 rows hold five
    @example(
        case=(random_graph(6, 1.0, 0), np.random.default_rng(1).uniform(0.0, 2 * np.pi, 6)),
        gammas=np.random.default_rng(0).uniform(-1e4, 1e4, 4096).tolist(),
        m=8,
        tau=0.5,
    )
    def test_qaoa1_rows_equal_the_scalar_kernel(self, case, gammas, m, tau):
        g, phi = case
        energies = ergodic_energies(g.d, m).energies
        X = np.column_stack([np.resize(phi, len(gammas)), gammas])
        scalar = np.array([qaoa1_value(g, energies, tau, beta, gamma) for beta, gamma in X])
        assert _qaoa1_rows(g, energies, tau, X).view(np.int64).tolist() == scalar.view(np.int64).tolist()

    def test_qaoa1_rows_square_with_pow(self, k3):
        # the scalar kernel squares s = sin(tau * gamma) with Python's ** (C
        # pow); at this row pow(s, 2) lies one unit below s * s, numpy's
        # s ** 2, and the value follows it
        energies, tau, beta, gamma = ergodic_energies(3, 8).energies, 0.5, 1.0, 2.516
        s, co = math.sin(tau * gamma), math.cos(tau * gamma)
        assert s**2 == np.float_power(s, 2) != np.square(s) == s * s
        gfun = -math.sin(beta) / 3 * float(np.cos(energies * beta).sum())
        with_pow = s**2 * mu(k3, energies * beta) + 2 * tau * co * s * gfun
        assert with_pow != s * s * mu(k3, energies * beta) + 2 * tau * co * s * gfun
        (value,) = _qaoa1_rows(k3, energies, tau, np.array([[beta, gamma]]))
        assert bits(value) == bits(with_pow) == bits(qaoa1_value(k3, energies, tau, beta, gamma))

    @pytest.mark.parametrize("d", [2, 3])
    def test_qaoa_multi_rows(self, d):
        # one stacked circuit: a row alone is bit for bit the scalar kernel;
        # in a stack the matrix products round differently, within 1e-13
        g = random_graph(d, 1.0, 0)
        inst = FAMILIES["qaoa-multi"].build(g, None)
        land = FAMILIES["qaoa-multi"].landscape(g, None, inst)
        f, _, _ = scalar_landscape("qaoa-multi", g, None, inst)
        X = np.random.default_rng(d).uniform(-7.0, 7.0, (4, land.n_params))
        X[0] = 0.0
        for x, value in zip(X, land.objective(X)):
            assert bits(land.objective(x[None])[0]) == bits(f(x))
            assert abs(value - f(x)) <= 1e-13

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("d", [2, 3])
    def test_landscape_kernels_agree(self, family, d):
        # value_and_gradient's values are the objective's and its gradients
        # the gradient kernel's, bit for bit, for every family; the
        # gradients match the written-out scalar gradients (conftest's
        # scalar_landscape) to CHAIN_RULE_TOL, but for boosted, whose scalar
        # kernels are the chain-rule landscape's, and qaoa-multi's match
        # central differences of qaoa_apply. Every family's width is that of
        # its scalar kernels
        g = random_graph(d, 1.0, d)
        args = SimpleNamespace(k=2, m=8, tau=0.5)
        fam = FAMILIES[family]
        inst = fam.build(g, args) if fam.needs_instance else None
        land = fam.landscape(g, args, inst)
        f, scalar_gradient, n_params = scalar_landscape(family, g, args, inst)
        assert land.n_params == n_params
        X = np.random.default_rng(d).uniform(0.0, 2 * np.pi, (5, land.n_params))
        values, gradients = land.value_and_gradient(X)
        assert values.shape == (5,) and gradients.shape == X.shape
        assert bits(values) == bits(land.objective(X))
        assert bits(gradients) == bits(land.gradient(X))
        if family == "qaoa-multi":
            fd = finite_difference_gradient(row_wise(f), X)
            assert np.abs(gradients - fd).max() <= fd_bound(FD_STEP, 6.0, 1.0)
        elif family != "boosted":
            for x, row in zip(X, gradients):
                assert_chain_rule(row, scalar_gradient(x))

    @KERNEL_SETTINGS
    @given(case=graphs_and_stacks(), m=st.sampled_from([7, 8, 64]), tau=st.floats(1e-3, 10.0))
    def test_grid_family_gradients(self, case, m, tau):
        # the fused kernels of single-layer and qaoa1: their values are the
        # objective's bit for bit, each row's value and gradient are that
        # row's evaluated alone, bit for bit, and the gradients match the
        # written-out chain rule (conftest's single_layer_gradient and
        # qaoa1_gradient) to CHAIN_RULE_TOL
        g, X = case
        energies = ergodic_energies(g.d, m).energies
        args = SimpleNamespace(m=m, tau=tau)
        kernels = {
            "single-layer": (lambda Y, gradient=False: _single_layer_rows(g, energies, Y, gradient)),
            "qaoa1": (lambda Y, gradient=False: _qaoa1_rows(g, energies, tau, Y, gradient)),
        }
        for family, rows in kernels.items():
            land = FAMILIES[family].landscape(g, args, None)
            _, scalar_gradient, n_params = scalar_landscape(family, g, args, None)
            T = np.ascontiguousarray(X[:, :n_params])
            values, gradients = rows(T, True)
            assert bits(values) == bits(rows(T)) == bits(land.objective(T))
            assert bits(land.value_and_gradient(T)[1]) == bits(land.gradient(T)) == bits(gradients)
            for t, value, row in zip(T, values, gradients):
                alone_value, alone_rows = rows(t[None], True)
                assert bits(alone_value) == bits(value) and bits(alone_rows[0]) == bits(row)
                assert_chain_rule(row, scalar_gradient(t))

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["single-layer", "qaoa1", "qaoa-multi"]),
        d=st.integers(2, 6),
        m=st.sampled_from([7, 8, 64]),
        tau=st.sampled_from([0.5, 1e-3]) | st.floats(1e-3, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradients_match_central_differences(self, family, d, m, tau, seed):
        # each fused kernel's gradients, the family landscape's bit for bit,
        # against central differences of its objective at eight random rows
        # in [0, 2 pi)^L, within fd_bound: qaoa-multi on K2 and K3 (its
        # generators' norms are at most 3, its cost's 1), the others on
        # G(d, 0.6)
        if family == "qaoa-multi":
            g = random_graph(2 + d % 2, 1.0, 0)
            inst = qaoa_multi_instance(g.d)
            rows = lambda Y, gradient=False: _qaoa_rows(inst, Y, gradient)
            freq, size = 6.0, 1.0
        else:
            g, inst = random_graph(d, 0.6, seed % 1000), None
            energies = ergodic_energies(d, m).energies
            if family == "single-layer":
                rows = lambda Y, gradient=False: _single_layer_rows(g, energies, Y, gradient)
                freq, size = energies.sum(), g.edge_count
            else:
                rows = lambda Y, gradient=False: _qaoa1_rows(g, energies, tau, Y, gradient)
                freq, size = max(1.0 + energies.sum(), 2 * tau), g.edge_count + 2 * tau
        land = FAMILIES[family].landscape(g, SimpleNamespace(m=m, tau=tau), inst)
        X = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (8, land.n_params))
        _, gradients = rows(X, True)
        assert bits(land.gradient(X)) == bits(gradients)
        fd = finite_difference_gradient(rows, X)
        assert np.abs(gradients - fd).max() <= fd_bound(FD_STEP, freq, size)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_qaoa_multi_adjoint_matches_qaoa_apply(self, d):
        # the adjoint gradient of each row against central differences of
        # qaoa_apply on that row alone, and its values against qaoa_apply:
        # a row alone bit for bit, in the stack within round-off
        g = random_graph(d, 1.0, 0)
        inst = qaoa_multi_instance(d)
        X = np.random.default_rng(d).uniform(0.0, 2 * np.pi, (3, 2 * d))
        values, gradients = _qaoa_rows(inst, X, True)
        f, _, _ = scalar_landscape("qaoa-multi", g, None, inst)
        for x, value, row in zip(X, values, gradients):
            assert abs(value - f(x)) <= 1e-13
            assert np.abs(row - central_difference_gradient(f, x, FD_STEP)).max() <= fd_bound(FD_STEP, 6.0, 1.0)
            alone_value, alone_rows = _qaoa_rows(inst, x[None], True)
            assert bits(alone_value[0]) == bits(f(x))
            assert np.abs(alone_rows[0] - row).max() <= 1e-13

    @KERNEL_SETTINGS
    @given(case=graphs_and_stacks())
    def test_finite_differences_on_rows(self, case):
        # conftest's stacked central differences, the oracle above, against
        # the scalar loop of central differences, bit for bit
        g, X = case
        rows = finite_difference_gradient(lambda Y: _mu_rows(g, Y), X, 1e-5)
        args, T = SimpleNamespace(m=8), X[:, :1]
        single_layer = finite_difference_gradient(FAMILIES["single-layer"].landscape(g, args, None).objective, T, 1e-5)
        f, _, _ = scalar_landscape("single-layer", g, args, None)
        for x, row, t, sl_row in zip(X, rows, T, single_layer):
            assert bits(row) == bits(central_difference_gradient(lambda y: int_adjacency_mu(g, y), x, 1e-5))
            assert bits(sl_row) == bits(central_difference_gradient(f, t, 1e-5))
