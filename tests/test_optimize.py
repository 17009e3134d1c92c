import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    QAOA_MULTI_TOL,
    central_difference_gradient,
    descent_landscape,
    gradient_descent,
    kernels,
    multistart,
    reference_row_kernels,
    qaoa1_value,
    row_wise,
    scalar_landscape,
    single_layer_value,
)
from vqalab import (
    OptimizerConfig,
    ergodic_energies,
    error_metrics,
    maxcut_bruteforce,
    maxcut_greedy,
    mu,
    mu_gradient,
    parse_graph,
    random_graph,
    reference_minimum,
    round_to_discrete,
)
from vqalab import optimize as optimize_module
from vqalab.families import FAMILIES
from vqalab.landscape import is_discrete_local_min, phases_from_assignment
from vqalab.optimize import (
    ARMIJO_C,
    MAX_BACKTRACKS,
    DescentResult,
    Landscape,
    MultistartResult,
    _row_norms,
    _SLOPES,
    _STEP_ARRAY,
    build_report,
    descend,
    finite_difference_gradient,
    optimize,
)


def scalar_gradient_descent(objective, init, cfg, gradient=None) -> DescentResult:
    """The oracle: descent from one start, one restart at a time, as the
    package ran it before restarts descended in lock step."""
    if gradient is None:
        gradient = lambda x: central_difference_gradient(objective, x, cfg.finite_diff_step)
    x = np.asarray(init, dtype=float).copy()
    fx = objective(x)
    if not math.isfinite(fx):
        raise ValueError(f"non-finite objective value {fx!r} at the initial point")
    trajectory = [float(fx)]
    converged = False
    for _ in range(cfg.max_iters):
        g = gradient(x)
        gnorm = math.sqrt(g.dot(g))  # what np.linalg.norm computes for a real vector
        if gnorm <= cfg.grad_tol:
            converged = True
            break
        step = cfg.initial_step
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            cand = x - step * g
            fc = objective(cand)
            if not math.isfinite(fc):
                raise ValueError(f"non-finite objective value {fc!r} during line search")
            if fc <= fx - ARMIJO_C * step * gnorm**2:
                x, fx = cand, fc
                accepted = True
                break
            step /= 2
        if not accepted:
            break  # step underflow: no Armijo decrease available
        trajectory.append(float(fx))
    else:
        g = gradient(x)
        converged = math.sqrt(g.dot(g)) <= cfg.grad_tol
    return DescentResult(value=float(fx), params=x, trajectory=trajectory, converged=converged)


def two_call_descend(objective, starts, cfg, gradient=None, taken=None) -> list[DescentResult]:
    """The oracle of descend's call schedule: lock-step descent as the package
    ran it before one value-and-gradient call at the rung-0 candidates also
    gave the next iteration's gradients. Each iteration makes a gradient call
    of its own (central differences without a gradient), then one objective
    call per line-search block, the blocks shared as descend shares them.
    ``taken``, where given, collects the rung of every step taken."""
    if gradient is None:
        gradient = lambda X: finite_difference_gradient(objective, X, cfg.finite_diff_step)
    x = np.array(starts, dtype=float)
    fx = objective(x).tolist()
    trajectories = [[v] for v in fx]
    results = [None] * len(fx)
    rungs = [0] * len(fx)
    first_failed, error = len(fx), None

    def fail(j, value, where):
        nonlocal first_failed, error
        if ids[j] < first_failed:
            first_failed, error = ids[j], f"non-finite objective value {value!r} {where}"

    def finish(j, converged):
        results[ids[j]] = DescentResult(fx[j], x[j].copy(), trajectories[ids[j]], converged)

    def search(searching, g, gnorms):
        lo, hi = 0, max((rungs[ids[j]] for j in searching), default=0) + 1
        while searching:
            rows = slice(None) if len(searching) == len(x) else searching
            w = hi - lo
            cand = (x[rows, None, :] - _STEP_ARRAY[lo:hi, None] * g[rows, None, :]).reshape(-1, x.shape[1])
            values = objective(cand).tolist()
            later, took, took_from = [], [], []
            for i, j in enumerate(searching):
                gsq = gnorms[j] ** 2
                at = i * w - lo
                for k in range(lo, hi):
                    v = values[at + k]
                    if not math.isfinite(v):
                        fail(j, v, "during line search")
                        break
                    if v <= fx[j] - _SLOPES[k] * gsq:
                        fx[j] = v
                        rungs[ids[j]] = k
                        if taken is not None:
                            taken.append(k)
                        trajectories[ids[j]].append(v)
                        stays[j] = True
                        took.append(j)
                        took_from.append(at + k)
                        break
                else:
                    if hi < MAX_BACKTRACKS:
                        later.append(j)
                    else:
                        finish(j, False)
            x[took] = cand[took_from]
            searching, lo, hi = later, hi, min(MAX_BACKTRACKS, 3 * hi - 2 * lo)

    ids = list(range(len(fx)))
    for j, v in enumerate(fx):
        if not math.isfinite(v):
            fail(j, v, "at the initial point")
    ids = ids[:first_failed]
    x, fx = x[:first_failed], fx[:first_failed]
    for _ in range(cfg.max_iters):
        if not ids:
            break
        g = gradient(x)
        gnorms = _row_norms(g).tolist()
        stays = [False] * len(ids)
        searching = []
        for j, gnorm in enumerate(gnorms):
            if gnorm <= cfg.grad_tol:
                finish(j, True)
            else:
                searching.append(j)
        search(searching, g, gnorms)
        if not all(stays) or ids[-1] >= first_failed:
            keep = [j for j, s in enumerate(stays) if s and ids[j] < first_failed]
            x, ids, fx = x[keep], [ids[j] for j in keep], [fx[j] for j in keep]
    if ids:
        for j, gnorm in enumerate(_row_norms(gradient(x)).tolist()):
            finish(j, gnorm <= cfg.grad_tol)
    if error is not None:
        raise ValueError(error)
    return results


def scalar_starts(n_params, cfg):
    return [
        np.random.default_rng(cfg.seed + r).uniform(0.0, 2 * np.pi, size=n_params)
        for r in range(cfg.restarts)
    ]


def assert_same_runs(runs, expected):
    assert len(runs) == len(expected)
    for run, want in zip(runs, expected):
        assert run.trajectory == want.trajectory
        assert run.params.tobytes() == want.params.tobytes()
        assert run.converged is want.converged
        assert run.value == want.value


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
        f = lambda X: (X[:, 0] - 1.0) ** 2 - 2.0
        ref = reference_minimum(f, lambda ts: ts[:, None], (0.0, 2.0), 10_001)
        assert ref == pytest.approx(-2.0, abs=1e-6)

    @pytest.mark.parametrize("family", ["single-layer", "qaoa1"])
    def test_grid_families_sample_and_lower_to_descent(self, family):
        # on K4 the grid runs over t in [0, m^min(d, 3)] = [0, 512], not
        # [0, m^d], along the first parameter; the written-out closed form on
        # that span is the oracle
        k4 = random_graph(4, 1.0, 0)
        args = SimpleNamespace(m=8, tau=0.5, grid_samples=11)
        inst = FAMILIES[family].build(k4, args)
        objective = FAMILIES[family].landscape(k4, args, inst).objective
        energies = ergodic_energies(4, args.m).energies
        if family == "single-layer":
            scalar = lambda t: single_layer_value(k4, energies, t)
        else:
            scalar = lambda t: qaoa1_value(k4, energies, args.tau, t, np.pi / (2 * args.tau))
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


LOCK_STEP_CASES = [
    *[(family, 1) for family in ("oracular", "logdim", "fermion", "single-layer")],
    *[("boosted", k) for k in range(1, 6)],
    *[("qaoa1", tau) for tau in (0.5, 1e-3)],
]


# oracular and logdim on one G(6, 0.5) with 6 restarts: at seeds 0-2 the
# restarts searching in an iteration took different rungs in the one before
# (3 iterations each), and the shared blocks evaluate 9-13 more rows than
# per-row blocks would
DIVERGING_RUNG_CASES = ["oracular", "logdim"]


@st.composite
def gradient_stacks(draw):
    """An (n, L) stack, n in 1..64 and L in 1..20, of signed magnitudes from
    1e-300 to 1e150, multiples of pi and zeros, with some rows all zero."""
    n, L = draw(st.integers(1, 64)), draw(st.integers(1, 20))
    low, high = sorted(draw(st.lists(st.integers(-300, 150), min_size=2, max_size=2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.choice([-1.0, 1.0], (n, L)) * 10.0 ** rng.uniform(low, high, (n, L))
    kind = rng.integers(0, 4, (n, L))
    G[kind == 1] = rng.integers(-300, 301, int((kind == 1).sum())) * np.pi
    G[kind == 2] = 0.0
    G[rng.random(n) < draw(st.sampled_from([0.0, 0.25, 1.0]))] = 0.0
    return G


class TestLockStep:
    """Lock-step descent against the scalar loop, one restart at a time."""

    @pytest.mark.parametrize("family, k", LOCK_STEP_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_row_kernels_match_the_scalar_loop(self, family, k, seed):
        # k is boosted's power and qaoa1's coupling tau; boosted is the
        # chain-rule landscape, which runs to the iteration cap on most graphs
        # past d = 3
        d = 2 + seed % 2 if family == "boosted" else 3 + 2 * seed
        g = random_graph(d, 0.6, 100 * seed + (k if family == "boosted" else 1))
        args = SimpleNamespace(k=k, m=8, tau=k)
        land = descent_landscape(family, g, args)
        cfg = OptimizerConfig(seed=seed, restarts=4)
        f, grad, _ = scalar_landscape(family, g, args, None)
        expected = [scalar_gradient_descent(f, x0, cfg, grad) for x0 in scalar_starts(land.n_params, cfg)]
        assert_same_runs(optimize(land, cfg).runs, expected)
        assert_same_runs(multistart(f, land.n_params, cfg, grad).runs, expected)

    @pytest.mark.parametrize("family", DIVERGING_RUNG_CASES)
    @pytest.mark.parametrize("seed", range(3))
    def test_diverging_rungs_match_the_scalar_loop(self, family, seed):
        g = random_graph(6, 0.5, 133)
        land = FAMILIES[family].landscape(g, None, None)
        cfg = OptimizerConfig(seed=seed, restarts=6)
        f, grad, _ = scalar_landscape(family, g, None, None)
        expected = [scalar_gradient_descent(f, x0, cfg, grad) for x0 in scalar_starts(land.n_params, cfg)]
        assert_same_runs(optimize(land, cfg).runs, expected)

    @pytest.mark.parametrize("text", ["2\n1 2", "3\n1 2\n2 3\n1 3"], ids=["K2", "K3"])
    def test_qaoa_multi_matches_the_scalar_loop(self, text):
        # qaoa-multi's rows are one stacked circuit, on finite differences:
        # its values move in the last bits with the stack around a row, so
        # runs match the qaoa_apply loop within QAOA_MULTI_TOL, not bit for
        # bit (worst gap measured 4.3e-11); 40 iterations keep the loop short
        class Short(OptimizerConfig):
            max_iters = 40

        g = parse_graph(text)
        family = FAMILIES["qaoa-multi"]
        inst = family.build(g, None)
        land = family.landscape(g, None, inst)
        cfg = Short(seed=1, restarts=3)
        f, grad, _ = scalar_landscape("qaoa-multi", g, None, inst)
        expected = [scalar_gradient_descent(f, x0, cfg, grad) for x0 in scalar_starts(land.n_params, cfg)]
        runs = optimize(land, cfg).runs
        assert len(runs) == len(expected)
        for run, want in zip(runs, expected):
            assert len(run.trajectory) == len(want.trajectory)
            assert run.converged is want.converged
            assert np.abs(np.subtract(run.trajectory, want.trajectory)).max() <= QAOA_MULTI_TOL
            assert np.abs(run.params - want.params).max() <= QAOA_MULTI_TOL

    @settings(max_examples=200, deadline=None)
    @given(G=gradient_stacks())
    def test_stacked_norms_are_row_dots(self, G):
        # descend squares its gradient norms from one stacked product: numpy
        # computes each (1, L) @ (L, 1) as the row's own dot
        stacked = (G[:, None, :] @ G[:, :, None]).ravel()
        dots = np.array([row.dot(row) for row in G])
        assert stacked.view(np.int64).tolist() == dots.view(np.int64).tolist()
        norms = np.array([math.sqrt(row.dot(row)) for row in G])
        assert _row_norms(G).view(np.int64).tolist() == norms.view(np.int64).tolist()

    def test_rows_with_different_last_rungs_share_a_block(self):
        # x[1] names the row. Row A takes rung 2 in its first line search and
        # row B rung 0, so both evaluate rungs 0..2 in the second; B takes
        # rung 0 there, and its rungs 1 and 2 are NaN
        values = {
            (0.0, 0.5): 1.0, (0.0, 0.25): 1.0, (0.0, 0.125): -1.0, (0.0, 0.625): -2.0,
            (1.0, 0.5): -1.0, (1.0, 1.0): -2.0, (1.0, 0.75): np.nan, (1.0, 0.625): np.nan,
        }
        moving = {(0.0, 0.0), (0.0, 0.125), (1.0, 0.0), (1.0, 0.5)}
        evaluated = set()

        def objective(X):
            evaluated.update((kind, t) for t, kind in X.tolist())
            return np.array([0.0 if t == 0.0 else values.get((kind, t), 1.0) for t, kind in X.tolist()])

        def gradient(X):
            return np.array([[-1.0 if (kind, t) in moving else 0.0, 0.0] for t, kind in X.tolist()])

        starts = np.array([[0.0, 0.0], [0.0, 1.0]])
        cfg = OptimizerConfig()
        runs = descend(kernels(objective, 2, gradient), starts, cfg)
        assert {(1.0, 0.75), (1.0, 0.625)} <= evaluated
        expected = [
            scalar_gradient_descent(lambda x: float(objective(x[None])[0]), x0, cfg,
                                    lambda x: gradient(x[None])[0])
            for x0 in starts
        ]
        assert_same_runs(runs, expected)
        assert [run.trajectory for run in runs] == [[0.0, -1.0, -2.0], [0.0, -1.0, -2.0]]
        assert [run.params.tolist() for run in runs] == [[0.625, 0.0], [1.0, 1.0]]

    def test_one_stack_mixes_every_stop_reason(self):
        # x[1] picks the landscape and its gradient component is zero, so it
        # never moves: a bowl that converges, a linear slope that runs to the
        # cap, and an uphill gradient that no step satisfies (TestStopRule)
        def objective(X):
            t, kind = X[:, 0], X[:, 1]
            return np.where(kind == 0.0, t * t, t)

        def gradient(X):
            t, kind = X[:, 0], X[:, 1]
            slope = np.select([kind == 0.0, kind == 1.0], [2 * t, np.ones_like(t)], -np.ones_like(t))
            return np.column_stack([slope, np.zeros_like(t)])

        starts = np.array([[3.0, 0.0], [0.0, 1.0], [0.0, 2.0], [-4.0, 0.0]])
        cfg = OptimizerConfig()
        runs = descend(kernels(objective, 2, gradient), starts, cfg)
        expected = [
            scalar_gradient_descent(lambda x: float(objective(x[None])[0]), x0, cfg,
                                    lambda x: gradient(x[None])[0])
            for x0 in starts
        ]
        assert_same_runs(runs, expected)
        assert [run.converged for run in runs] == [True, False, False, True]
        assert len(runs[1].trajectory) == cfg.max_iters + 1
        assert runs[2].trajectory == [0.0]

    @staticmethod
    def ladder_objective(values):
        """A one-parameter row objective: 0 at the start 0, values[k] at the
        candidate of rung k (step 0.5 / 2**k along the gradient -1), 1 elsewhere;
        the gradient vanishes off the start."""
        at = {0.5 / 2**k: v for k, v in enumerate(values)}

        def objective(X):
            return np.array([0.0 if x[0] == 0.0 else at.get(x[0], 1.0) for x in X])

        def gradient(X):
            return np.where(X == 0.0, -1.0, 0.0)

        return objective, gradient

    @pytest.mark.parametrize("by_row", [False, True], ids=["stacked", "row-wise"])
    def test_nan_past_the_accepted_rung_does_not_raise(self, by_row):
        # rung 0 fails, so the next block holds rungs 1 and 2; rung 1 passes,
        # and the NaN of rung 2 is evaluated but never read
        ladder, gradient = self.ladder_objective([1.0, -1.0, np.nan])
        evaluated = []

        def stacked(X):
            evaluated.extend(X[:, 0].tolist())
            return ladder(X)

        objective = row_wise(lambda x: stacked(x[None])[0]) if by_row else stacked
        (run,) = descend(kernels(objective, 1, gradient), np.zeros((1, 1)), OptimizerConfig())
        assert 0.5 / 2**2 in evaluated  # the candidate of rung 2
        assert run.trajectory == [0.0, -1.0] and run.converged is True
        assert run.params.tolist() == [0.25]

    @pytest.mark.parametrize("values", [[np.nan, -1.0], [1.0, np.nan, -1.0], [1.0, -np.inf], [-np.inf]])
    def test_non_finite_before_the_accepted_rung_raises(self, values):
        objective, gradient = self.ladder_objective(values)
        with pytest.raises(ValueError, match="non-finite objective value .* during line search"):
            descend(kernels(objective, 1, gradient), np.zeros((1, 1)), OptimizerConfig())

    def test_first_failing_restart_gives_the_error(self):
        # row 0 fails in its first line search, row 1 at its start point: a
        # loop over single restarts stops at row 0
        objective, gradient = self.ladder_objective([np.nan])
        stacked = lambda X: np.where(X[:, 0] == 7.0, np.nan, objective(X))
        with pytest.raises(ValueError, match="during line search"):
            descend(kernels(stacked, 1, gradient), np.array([[0.0], [7.0]]), OptimizerConfig())
        with pytest.raises(ValueError, match="at the initial point"):
            descend(kernels(stacked, 1, gradient), np.array([[7.0], [0.0]]), OptimizerConfig())

    @pytest.mark.parametrize("start", [0.25, 1.0], ids=["at-the-start", "after-two-steps"])
    def test_overflowing_gradient_norm_raises(self, start):
        # 0.5 |x|^2, whose rung-0 steps halve x, with a gradient of 1e200 per
        # component at (0.25, 0.25), where its squared norm overflows to inf
        # and no rung can pass. Row 1 gets there at its start or after two
        # steps; row 2 fails at its start first, but a loop over single
        # restarts reaches row 1's error first
        def value_and_gradient(X):
            values = np.where(X[:, 0] == 9.0, np.nan, 0.5 * (X * X).sum(axis=1))
            return values, np.where(X == 0.25, 1e200, X)

        land = kernels(lambda X: value_and_gradient(X)[0], 2, value_and_gradient=value_and_gradient)
        starts = np.array([[0.7, 0.7], [start, start], [9.0, 9.0]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"^non-finite gradient norm inf during descent$"):
                descend(land, starts, OptimizerConfig())
        (run,) = descend(land, starts[:1], OptimizerConfig())
        assert run.converged is True

    @pytest.mark.parametrize("by_row", [False, True], ids=["stacked", "row-wise"])
    def test_armijo_squares_the_norm_with_pow(self, by_row):
        # a gradient norm whose Python square (C pow) is one unit below the
        # product gnorm * gnorm, and a first step that lands exactly on the
        # Armijo threshold made with the former: the scalar loop takes it
        draws = np.random.default_rng(0).uniform(0.5, 2.0, 100_000).tolist()
        slope = ARMIJO_C * OptimizerConfig.initial_step
        gnorm = next(
            (v for v in draws if v**2 < v * v and -slope * v**2 != -slope * (v * v)), draws[0]
        )
        threshold = 0.0 - slope * gnorm**2
        cand = 0.0 - OptimizerConfig.initial_step * gnorm
        objective = lambda X: np.select([X[:, 0] == 0.0, X[:, 0] == cand], [0.0, threshold], 1.0)
        gradient = lambda X: np.where(X == 0.0, gnorm, 0.0)
        scalar = lambda x: float(objective(x[None])[0])
        cfg = OptimizerConfig()
        (run,) = descend(kernels(row_wise(scalar) if by_row else objective, 1, gradient), np.zeros((1, 1)), cfg)
        want = scalar_gradient_descent(scalar, np.zeros(1), cfg, lambda x: gradient(x[None])[0])
        assert_same_runs([run], [want])
        assert run.trajectory == [0.0, threshold]


class TestCentralDifferenceProbe:
    """Without a gradient, descend takes the central differences at a rung-0
    step from the objective call of the line search that took it; the
    two-call loop calls the objective for them, one call per iteration. The
    two must be the same runs, bit for bit."""

    @staticmethod
    def both_ways(objective, n_params, cfg, monkeypatch):
        """The runs and call counts of both ways: ``calls`` counts objective
        calls, ``stencils`` the line-search calls that carried the
        central-difference points of their candidates, ``reads`` the
        iterations whose gradients came from such a call. Every iteration
        with rows left, and the end after max_iters, takes one gradient, so
        descend takes as many as its longest trajectory has values."""
        spied = {name: 0 for name in ("_shifted_rows", "finite_difference_gradient")}
        for name in spied:
            def spy(*args, _f=getattr(optimize_module, name), _name=name):
                spied[_name] += 1
                return _f(*args)

            monkeypatch.setattr(optimize_module, name, spy)
        calls = []

        def counted(X):
            calls.append(len(X))
            return objective(X)

        probed = optimize(kernels(counted, n_params), cfg).runs
        fd = spied["finite_difference_gradient"]
        gradients = max(len(run.trajectory) for run in probed)
        probe = {"calls": len(calls), "stencils": spied["_shifted_rows"] - fd, "reads": gradients - fd}
        calls.clear()
        own = two_call_descend(counted, np.array(scalar_starts(n_params, cfg)), cfg)
        assert_same_runs(probed, own)
        return probed, probe, len(calls)

    @pytest.mark.parametrize("family", ["single-layer", "qaoa1"])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_runs_as_a_gradient_call_of_its_own(self, family, seed, monkeypatch):
        # at seed 1 one qaoa1 restart stalls: it backtracks on most of its
        # iterations up to the cap
        g = random_graph(3 + 2 * seed, 0.6, 100 * seed + 1)
        land = FAMILIES[family].landscape(g, SimpleNamespace(m=8, tau=0.5), None)
        _, probe, _ = self.both_ways(land.objective, land.n_params, OptimizerConfig(seed=seed, restarts=4), monkeypatch)
        assert probe["reads"] > 0

    def test_every_step_at_rung_0_reads_every_stencil(self, monkeypatch):
        # qaoa1 at tau = 1e-3 takes rung 0 on every iteration to the cap, so
        # only the first gradient makes an objective call of its own, and the
        # gradient after the last iteration comes from the stencil too
        class Short(OptimizerConfig):
            max_iters = 40

        g = random_graph(5, 0.6, 101)
        land = FAMILIES["qaoa1"].landscape(g, SimpleNamespace(m=8, tau=1e-3), None)
        runs, probe, own_calls = self.both_ways(land.objective, land.n_params, Short(seed=1, restarts=4), monkeypatch)
        assert [len(run.trajectory) for run in runs] == [41] * 4
        assert probe == {"calls": 1 + 1 + 40, "stencils": 40, "reads": 40}
        assert own_calls == 1 + 2 * 40 + 1

    @pytest.mark.parametrize(
        "family, text, args, restarts, calls, own_calls",
        [
            ("single-layer", "3\n1 2\n1 3\n2 3", SimpleNamespace(m=8), 10, 74, 126),
            ("qaoa1", "2\n1 2", SimpleNamespace(m=64, tau=0.5), 6, 88, 159),
        ],
        ids=["single-layer-K3", "qaoa1-K2"],
    )
    def test_optimize_grid_commands(self, family, text, args, restarts, calls, own_calls, monkeypatch):
        # the descents of the optimize-grid benchmark's commands at seed 1
        # (qaoa1 at the CLI's default --m 64): restarts converge at different
        # iterations, so the stack shrinks, and on qaoa1 a row backtracks past
        # rung 0 in a block that carried the stencil, which then goes unread
        g = parse_graph(text)
        land = FAMILIES[family].landscape(g, args, None)
        cfg = OptimizerConfig(seed=1, restarts=restarts)
        runs, probe, own = self.both_ways(land.objective, land.n_params, cfg, monkeypatch)
        assert len({len(run.trajectory) for run in runs}) > 1
        assert (probe["calls"], own) == (calls, own_calls)
        assert probe["stencils"] > probe["reads"] if family == "qaoa1" else probe["stencils"] == probe["reads"]

    def test_non_finite_stencil_of_a_rejected_candidate_goes_unread(self):
        # t**4 from t = 1: rung 0 lands near -1 and fails the Armijo test,
        # rung 1 near 0 passes; the objective is NaN at the central-difference
        # points of the rung-0 candidate only
        seen = []

        def objective(X):
            t = X[:, 0]
            near = np.abs(np.abs(t + 1.0) - 1e-5) < 1e-7
            seen.extend(t[near].tolist())
            return np.where(near, np.nan, t**4)

        cfg = OptimizerConfig()
        (run,) = descend(kernels(objective, 1), np.ones((1, 1)), cfg)
        (own,) = two_call_descend(objective, np.ones((1, 1)), cfg)
        assert len(seen) == 2
        assert_same_runs([run], [own])
        assert run.converged is True and run.trajectory[1] < 1e-8


# the optimize-descent benchmark's commands at seed 1, on complete graphs:
# (family, d, k), and the kernel calls of descend and of the two-call loop.
# The boosted command descends on mu, as oracular on K2 does; "boosted" is
# the chain-rule landscape on the same graph, whose line search backtracks
DESCENT_COMMANDS = [
    ("oracular", 10, 1, 94, 170),
    ("logdim", 8, 1, 89, 162),
    ("fermion", 8, 1, 89, 162),
    ("oracular", 2, 1, 93, 170),
    ("boosted", 2, 2, 57, 100),
]


class TestFusedDescent:
    """descend on a family's kernels against the two-call loop on the row
    kernels as they were before the value-and-gradient one (conftest's
    reference_row_kernels): the same runs, bit for bit, in no more kernel
    calls. "boosted" is conftest's chain-rule landscape, the input on which
    the line search backtracks."""

    @staticmethod
    def both_ways(family, g, k, cfg, taken=None):
        """The runs of descend and the two-call loop, and the kernel calls of
        each: ``objective``, ``gradient`` and ``fused`` for descend,
        ``reference`` and ``reference_gradient`` for the loop."""
        args = SimpleNamespace(k=k)
        land = descent_landscape(family, g, args)
        reference, reference_gradient = reference_row_kernels(family, g, args)
        calls = dict.fromkeys(("objective", "gradient", "fused", "reference", "reference_gradient"), 0)

        def counted(name, kernel):
            def call(X):
                calls[name] += 1
                return kernel(X)

            return call

        starts = np.array(scalar_starts(land.n_params, cfg))
        counted_land = Landscape(
            counted("objective", land.objective), counted("gradient", land.gradient),
            counted("fused", land.value_and_gradient), land.n_params,
        )
        runs = descend(counted_land, starts, cfg)
        own = two_call_descend(
            counted("reference", reference), starts, cfg, counted("reference_gradient", reference_gradient), taken
        )
        assert_same_runs(runs, own)
        # the same line-search blocks, the rung-0 ones through the
        # value-and-gradient kernel, and a gradient call wherever the loop
        # makes one except after a held iteration
        assert calls["objective"] + calls["fused"] == calls["reference"]
        assert calls["gradient"] <= calls["reference_gradient"]
        return runs, calls

    @pytest.mark.parametrize(
        "family, k", [("oracular", 1), ("logdim", 1), ("fermion", 1), *[("boosted", k) for k in (1, 2, 3)]]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_same_runs_as_the_two_call_loop(self, family, k, seed):
        # boosted on K2 and K3, the others on G(4..7, 0.6). A row that
        # backtracks past rung 0 sends its iteration down the general line
        # search and the next one to a gradient call: that happens at seed 2
        # on the mu families, and for boosted at k >= 2 on K3
        d = 2 + seed % 2 if family == "boosted" else 4 + seed
        g = random_graph(d, 1.0 if family == "boosted" else 0.6, 300 + seed)
        taken = []
        self.both_ways(family, g, k, OptimizerConfig(seed=seed, restarts=6), taken)
        backtracks = k > 1 and d == 3 if family == "boosted" else seed == 2
        assert (max(taken) > 0) == backtracks

    def test_a_row_that_always_backtracks_calls_the_gradient_kernel(self):
        # boosted at k = 3 on K3, seed 1: five restarts backtrack on every
        # one of their 10 000 iterations, so no gradient is ever held: each
        # of the loop's gradient calls is one of the gradient kernel, which
        # leaves out the values at x, and the only value-and-gradient call is
        # the first iteration's
        g = random_graph(3, 1.0, 301)
        _, calls = self.both_ways("boosted", g, 3, OptimizerConfig(seed=1, restarts=6))
        assert calls["gradient"] == calls["reference_gradient"] == 10_001
        assert calls["fused"] == 1

    @pytest.mark.parametrize("family, d, k, descend_calls, two_calls", DESCENT_COMMANDS)
    def test_optimize_descent_commands(self, family, d, k, descend_calls, two_calls):
        # restarts converge at different iterations, so the stack shrinks
        g = random_graph(d, 1.0, 1)
        runs, calls = self.both_ways(family, g, k, OptimizerConfig(seed=1, restarts=10))
        assert len({len(run.trajectory) for run in runs}) > 1
        assert calls["objective"] + calls["gradient"] + calls["fused"] == descend_calls
        assert calls["reference"] + calls["reference_gradient"] == two_calls

    def test_non_finite_gradient_at_a_rejected_candidate_goes_unread(self):
        # t**4 from t = 1: the rung-0 candidate -1 fails the Armijo test and
        # rung 1 (0) passes; the kernel's gradient is NaN at -1 only, and the
        # gradient at 0 is its second output there
        seen = []

        def objective(X):
            return X[:, 0] ** 4

        def value_and_gradient(X):
            seen.extend(X[X[:, 0] == -1.0, 0].tolist())
            return objective(X), np.where(X == -1.0, np.nan, 4 * X**3)

        cfg = OptimizerConfig()
        (run,) = descend(kernels(objective, 1, value_and_gradient=value_and_gradient), np.ones((1, 1)), cfg)
        (own,) = two_call_descend(objective, np.ones((1, 1)), cfg, lambda X: 4 * X**3)
        assert seen == [-1.0]
        assert_same_runs([run], [own])
        assert run.trajectory == [1.0, 0.0] and run.converged is True


class TestBoostedDescent:
    def test_restarts_end_stationary_or_at_the_cap(self):
        # boosted at k = 20 on G(12, 0.5): on the chain-rule landscape every
        # restart stopped after 1 or 2 iterations at a point where |grad mu|
        # is of order 1, since no rung of the ladder absorbs a gradient of
        # norm about 20 * cut^19. Descent on mu ends each restart at
        # |grad mu| <= grad_tol or at the iteration cap
        g = random_graph(12, 0.5, 100)
        cfg = OptimizerConfig(seed=100, restarts=20)
        runs = optimize(FAMILIES["boosted"].landscape(g, SimpleNamespace(k=20), None), cfg).runs
        for run in runs:
            if run.converged:
                assert np.linalg.norm(mu_gradient(g, run.params)) <= cfg.grad_tol
            else:
                assert len(run.trajectory) == cfg.max_iters + 1
        assert min(len(run.trajectory) for run in runs) > 10
