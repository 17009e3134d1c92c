import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from vqalab import (
    OptimizerConfig,
    error_metrics,
    gradient_descent,
    maxcut_bruteforce,
    maxcut_greedy,
    mu,
    mu_gradient,
    multistart,
    random_graph,
    reference_minimum,
    round_to_discrete,
)
from vqalab.families import FAMILIES
from vqalab.landscape import is_discrete_local_min, phases_from_assignment
from vqalab.optimize import DescentResult, MultistartResult, build_report


class TestConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError, match="restarts must be positive"):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError, match="restarts must be positive"):
            OptimizerConfig(restarts=-1)

    def test_stop_rule_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["seed", "restarts"]
        assert OptimizerConfig().max_iters == 10_000
        with pytest.raises(TypeError):
            OptimizerConfig(max_iters=5)


class TestStopRule:
    """The two ways gradient_descent stops short of the gradient tolerance;
    TestGradientDescent.test_quadratic_bowl stops at it."""

    def test_runs_to_the_iteration_cap(self):
        # a linear objective always accepts the first step and never flattens
        res = gradient_descent(lambda x: float(x[0]), np.zeros(1), OptimizerConfig(),
                               gradient=lambda x: np.ones(1))
        assert len(res.trajectory) == OptimizerConfig.max_iters + 1 == 10_001
        assert res.converged is False

    def test_stops_when_no_step_passes_armijo(self):
        # the gradient points uphill, so every backtrack raises the value
        res = gradient_descent(lambda x: float(x[0]), np.zeros(1), OptimizerConfig(),
                               gradient=lambda x: -np.ones(1))
        assert res.trajectory == [0.0]
        assert res.converged is False


class TestGradientDescent:
    def test_quadratic_bowl(self):
        res = gradient_descent(
            lambda x: float(x @ x),
            np.array([3.0, -4.0]),
            OptimizerConfig(),
            gradient=lambda x: 2 * x,
        )
        assert res.converged is True
        assert len(res.trajectory) < OptimizerConfig.max_iters + 1
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(res.params) <= 1e-6

    def test_trajectory_monotone(self, k3):
        res = gradient_descent(
            lambda x: mu(k3, x),
            np.array([0.5, 1.7, 4.0]),
            OptimizerConfig(),
            gradient=lambda x: mu_gradient(k3, x),
        )
        assert all(b <= a + 1e-12 for a, b in zip(res.trajectory, res.trajectory[1:]))

    def test_finite_difference_fallback_matches_analytic(self, k3):
        init = np.array([0.5, 1.7, 4.0])
        cfg = OptimizerConfig()
        with_grad = gradient_descent(
            lambda x: mu(k3, x), init, cfg, gradient=lambda x: mu_gradient(k3, x)
        )
        without = gradient_descent(lambda x: mu(k3, x), init, cfg)
        assert without.value == pytest.approx(with_grad.value, abs=1e-6)

    def test_fixed_point_at_discrete_minimum(self, c5):
        _, witness = maxcut_bruteforce(c5)
        phi = phases_from_assignment(witness)
        res = gradient_descent(
            lambda x: mu(c5, x),
            phi,
            OptimizerConfig(),
            gradient=lambda x: mu_gradient(c5, x),
        )
        assert res.converged
        assert np.allclose(res.params, phi)

    def test_non_finite_objective_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            gradient_descent(lambda x: float("nan"), np.zeros(2), OptimizerConfig())

    def test_trapped_at_suboptimal_discrete_minimum(self, trap_graph):
        # all-leaves-vs-centers split cuts only 4 of 5 edges but is a strict
        # single-flip local optimum; descent started there must stay.
        v = np.array([1, -1, -1, 1, -1, -1])
        phi = phases_from_assignment(v)
        assert is_discrete_local_min(trap_graph, phi)
        assert mu(trap_graph, phi) == pytest.approx(-4.0)
        assert maxcut_bruteforce(trap_graph)[0] == 5
        res = gradient_descent(
            lambda x: mu(trap_graph, x),
            phi,
            OptimizerConfig(),
            gradient=lambda x: mu_gradient(trap_graph, x),
        )
        assert res.value == pytest.approx(-4.0)

    def test_trapped_when_started_nearby(self, trap_graph):
        v = np.array([1, -1, -1, 1, -1, -1])
        phi = phases_from_assignment(v)
        rng = np.random.default_rng(0)
        for _ in range(10):
            res = gradient_descent(
                lambda x: mu(trap_graph, x),
                phi + rng.uniform(-5e-4, 5e-4, 6),
                OptimizerConfig(),
                gradient=lambda x: mu_gradient(trap_graph, x),
            )
            assert res.value == pytest.approx(-4.0, abs=1e-6)


class TestMultistart:
    def test_deterministic_given_seed(self, k3):
        cfg = OptimizerConfig(seed=7, restarts=4)
        a = multistart(lambda x: mu(k3, x), 3, cfg, gradient=lambda x: mu_gradient(k3, x))
        b = multistart(lambda x: mu(k3, x), 3, cfg, gradient=lambda x: mu_gradient(k3, x))
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_params, b.best_params)

    def test_k3_reaches_global_minimum(self, k3):
        cfg = OptimizerConfig(seed=0, restarts=20)
        res = multistart(lambda x: mu(k3, x), 3, cfg, gradient=lambda x: mu_gradient(k3, x))
        assert res.best_value == pytest.approx(-2.0, abs=1e-8)

    def test_best_is_minimum_over_restarts(self, c5):
        cfg = OptimizerConfig(seed=3, restarts=6)
        res = multistart(lambda x: mu(c5, x), 5, cfg, gradient=lambda x: mu_gradient(c5, x))
        assert res.best_value == pytest.approx(min(run.trajectory[-1] for run in res.runs))

    @pytest.mark.parametrize("seed", range(5))
    def test_rounded_endpoints_are_discrete_local_minima(self, seed):
        g = random_graph(6, 0.5, seed)
        cfg = OptimizerConfig(seed=seed, restarts=3)
        res = multistart(lambda x: mu(g, x), 6, cfg, gradient=lambda x: mu_gradient(g, x))
        assert is_discrete_local_min(g, round_to_discrete(g, res.best_params))


class TestDiscreteSearch:
    def test_matches_greedy_value(self, c5):
        # the greedy cut seen through the angle correspondence v_i = cos(phi_i)
        for seed in range(5):
            value, witness, _ = maxcut_greedy(c5, seed)
            assert mu(c5, phases_from_assignment(witness)) == pytest.approx(-float(value))


class TestReferenceMinimum:
    @staticmethod
    def reference(family, g, maxcut, k=1, best=-100.0):
        """The family's reference, handed a descent value far below it."""
        return FAMILIES[family].reference(g, maxcut, SimpleNamespace(k=k), None, best)

    def test_exact_families(self, k3):
        assert self.reference("oracular", k3, 2) == -2.0
        assert self.reference("logdim", k3, 2) == -2.0
        assert self.reference("fermion", k3, 2) == -2.0
        assert self.reference("boosted", k3, 2, k=3) == -8.0
        assert self.reference("qaoa-multi", k3, 2) == pytest.approx(1 - 4 / 3)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_qaoa_multi_spectrum_reads_the_operator(self, d):
        # at d = 8 the cost (dimension 4352) is past the dense cap, so the
        # spectrum must come from the operator; below it, eigvalsh is the oracle
        g = random_graph(d, 0.7, d)
        inst = FAMILIES["qaoa-multi"].build(g, SimpleNamespace())
        lo, hi = FAMILIES["qaoa-multi"].spectrum(g, maxcut_bruteforce(g)[0], SimpleNamespace(), inst)
        if d == 8:
            with pytest.raises(ValueError, match="too large"):
                inst.observable.to_dense()
            dense_lo, dense_hi = -1.0, 1.0
        else:
            vals = np.linalg.eigvalsh(inst.observable.to_dense())
            dense_lo, dense_hi = vals[0], vals[-1]
        assert abs(lo - dense_lo) <= 1e-12 and abs(hi - dense_hi) <= 1e-12

    def test_grid_family(self):
        f = lambda t: (t - 1.0) ** 2 - 2.0
        ref = reference_minimum(f, f, (0.0, 2.0), 10_001)
        assert ref == pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("family", ["single-layer", "qaoa1"])
    def test_grid_families_sample_and_lower_to_descent(self, family):
        # on K4 the grid runs over t in [0, m^min(d, 3)] = [0, 512], not
        # [0, m^d], along the first parameter; the scalar closed form on that
        # span is the oracle
        k4 = random_graph(4, 1.0, 0)
        args = SimpleNamespace(m=8, tau=0.5, grid_samples=11)
        inst = FAMILIES[family].build(k4, args)
        objective, _, _ = FAMILIES[family].landscape(k4, args, inst)
        if family == "single-layer":
            scalar = lambda t: inst.closed_form(t)
        else:
            scalar = lambda t: inst.closed_form(t, np.pi / (2 * args.tau))
        grid_min = min(scalar(t) for t in np.linspace(0.0, 512.0, 11))
        assert grid_min != min(scalar(t) for t in np.linspace(0.0, 4096.0, 11))
        reference = FAMILIES[family].reference
        assert reference(k4, 4, args, objective, 0.0) == grid_min
        assert reference(k4, 4, args, objective, grid_min - 1.0) == grid_min - 1.0


class TestErrorMetrics:
    def test_perfect_run(self):
        delta, dm, do = error_metrics(-2.0, -2.0, -2.0, 0.0)
        assert (delta, dm, do) == (0.0, 0.0, 0.0)

    def test_split_adds_up(self):
        delta, dm, do = error_metrics(-1.0, -1.5, -2.0, 0.0)
        assert dm == pytest.approx(0.25)
        assert do == pytest.approx(0.25)
        assert delta == pytest.approx(dm + do)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            error_metrics(0.0, 0.0, 1.0, 1.0)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            error_metrics(-3.0, -2.0, -2.0, 0.0)
        with pytest.raises(ValueError, match="inconsistent"):
            error_metrics(-1.0, -2.5, -2.0, 0.0)

    def test_roundoff_clamped_to_zero(self):
        delta, dm, do = error_metrics(-2.0 - 1e-12, -2.0, -2.0, 0.0)
        assert dm == 0.0 and do == 0.0 and delta == 0.0


class TestReport:
    def test_build_report_fields(self, k3):
        cfg = OptimizerConfig(seed=1, restarts=3)
        res = multistart(lambda x: mu(k3, x), 3, cfg, gradient=lambda x: mu_gradient(k3, x))
        rep = build_report(res, -2.0, -2.0, 0.0)
        assert rep["sw"] == 2.0
        assert rep["delta"] == pytest.approx(rep["delta_m"] + rep["delta_o"])
        assert rep["restarts"] == 3
        assert rep["iterations_per_restart"] == [len(run.trajectory) for run in res.runs]
        assert rep["converged"] == [run.converged for run in res.runs]
        assert rep["best_value"] == res.best_value

    def test_per_restart_entries_follow_runs(self):
        runs = [
            DescentResult(value=-1.0, params=np.zeros(2), trajectory=[0.0, -1.0], converged=False),
            DescentResult(value=-2.0, params=np.ones(2), trajectory=[0.0, -1.5, -2.0], converged=True),
        ]
        rep = build_report(MultistartResult(runs, -2.0, np.ones(2)), -2.0, -2.0, 0.0)
        assert rep["restarts"] == 2
        assert rep["iterations_per_restart"] == [2, 3]
        assert rep["converged"] == [False, True]
        assert rep["best_params"] == [1.0, 1.0]
