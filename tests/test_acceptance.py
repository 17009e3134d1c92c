"""End-to-end acceptance gate: one numbered check per construction/behavior,
each printing a single pass/fail line.  Ordered so the summary reads as a
checklist of every identity the package claims."""

import contextlib
import io
import json
import sys
import time
from itertools import product

import numpy as np
import pytest

from vqalab import (
    OptimizerConfig,
    boosted_expectation,
    boosted_vqa_instance,
    ergodic_energies,
    ergodic_time,
    error_metrics,
    fermionic_vqa_instance,
    gaussian_expectation,
    ising_observable,
    logdim_vqa_instance,
    maxcut_bruteforce,
    mu,
    mu_gradient,
    mu_hessian,
    oracular_vqa_instance,
    qaoa_apply,
    qaoa_multilayer_instance,
    qaoa_single_layer_instance,
    random_graph,
    round_to_discrete,
    simulate_expectation,
    spectral_extremes,
)
from conftest import central_difference_gradient, central_difference_hessian, qaoa1_value
from vqalab.cli import main
from vqalab.families import FAMILIES
from vqalab.fermions import FermionInstance, fock_bruteforce_expectation, fock_system
from vqalab.graphs import Graph, cut_value
from vqalab.landscape import (
    is_discrete_local_min,
    phases_from_assignment,
)
from vqalab.optimize import descend, optimize
from vqalab.reductions import (
    ergodic_phase_errors,
    multilayer_encoding,
    multilayer_optimal_value,
)

TOL = 1e-9


def _report(number: int, name: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:2d} [{name}]: {status}", file=sys.__stdout__, flush=True)
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_log_dimension_reduction_identity():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(20):
        d = 2 + trial % 7
        g = random_graph(d, 0.5, 1000 + trial)
        inst = logdim_vqa_instance(g)
        for _ in range(100):
            phi = rng.uniform(0, 2 * np.pi, d)
            worst = max(worst, abs(simulate_expectation(inst, phi) - mu(g, phi)))
    elapsed = time.monotonic() - start
    _report(1, "log-dimension reduction identity", worst <= TOL and elapsed <= 10.0)


def test_02_pauli_y_qubit_identity():
    rng = np.random.default_rng(2)
    worst = 0.0
    for d in range(2, 6):
        g = random_graph(d, 0.6, 2000 + d)
        inst = oracular_vqa_instance(g)
        for _ in range(50):
            phi = rng.uniform(0, 2 * np.pi, d)
            worst = max(worst, abs(simulate_expectation(inst, phi) - mu(g, phi)))
    _report(2, "qubit sigma-y ansatz identity", worst <= TOL)


def test_03_boosting():
    rng = np.random.default_rng(3)
    worst = 0.0
    sw_exact = True
    for d, k in product((2, 3, 4), (1, 2)):
        g = random_graph(d, 0.6, 3000 + 10 * d + k)
        inst = boosted_vqa_instance(g, k)
        mc, _ = maxcut_bruteforce(g)
        _, _, sw = spectral_extremes(inst.observable)
        sw_exact &= sw == float(mc) ** k
        for _ in range(25):
            phi = rng.uniform(0, 2 * np.pi, d)
            worst = max(
                worst,
                abs(simulate_expectation(inst, phi) - boosted_expectation(g, k, phi)),
            )
    _report(3, "tensor-power boosting", worst <= TOL and sw_exact)


def test_04_spectral_width_equals_maxcut():
    ok = True
    for trial in range(20):
        d = 2 + trial % 7
        g = random_graph(d, 0.5, 4000 + trial)
        _, _, sw = spectral_extremes(ising_observable(g))
        ok &= sw == float(maxcut_bruteforce(g)[0])
    _report(4, "Ising spectral width = MaxCut", ok)


def test_05_ergodic_spectrum_bound():
    rng = np.random.default_rng(5)
    violations = 0
    for m in (8, 16, 64):
        for n in (2, 4, 6):
            spec = ergodic_energies(n, m)
            for _ in range(1000):
                phi = rng.uniform(0, 2 * np.pi, n)
                t = ergodic_time(phi, spec)
                if ergodic_phase_errors(phi, spec, t).max() > 4 * np.pi / m:
                    violations += 1
    _report(5, "ergodic phase bound 4*pi/m", violations == 0)


def test_06_single_layer_qaoa_closed_form():
    rng = np.random.default_rng(6)
    tau = 1e-3
    worst = 0.0
    for d in range(2, 6):
        g = random_graph(d, 0.6, 6000 + d)
        inst = qaoa_single_layer_instance(g, tau, 16)
        energies = ergodic_energies(d, 16).energies
        for _ in range(100):
            beta = rng.uniform(0, 2 * np.pi)
            gamma = rng.uniform(0, 2 * np.pi / tau)
            _, val = qaoa_apply(inst, np.array([beta]), np.array([gamma]))
            worst = max(worst, abs(val - qaoa1_value(g, energies, tau, beta, gamma)))
    _report(6, "single-layer QAOA closed form", worst <= TOL)


def test_07_multilayer_qaoa():
    start = time.monotonic()
    docs = ["2\n1 2", "3\n1 2\n2 3", "3\n1 2\n2 3\n1 3"]
    from vqalab import parse_graph

    ok = True
    for text in docs:
        g = parse_graph(text)
        inst = qaoa_multilayer_instance(g)
        lo, hi, _ = spectral_extremes(inst.generators[1])
        ok &= abs(max(abs(lo), abs(hi)) - 3.0) <= TOL
        lo, hi, _ = spectral_extremes(inst.observable)
        ok &= abs(max(abs(lo), abs(hi)) - 1.0) <= TOL
        mc, witness = maxcut_bruteforce(g)
        beta, gamma = multilayer_encoding(g, witness)
        _, val = qaoa_apply(inst, beta, gamma)
        target = multilayer_optimal_value(g, mc)
        ok &= abs(val - target) <= TOL
        gamma_all = np.full(g.d, np.pi)
        best = min(
            qaoa_apply(
                inst,
                np.array([np.pi / 2 if s == 1 else 3 * np.pi / 2 for s in signs]),
                gamma_all,
            )[1]
            for signs in product([1, -1], repeat=g.d)
        )
        ok &= abs(best - target) <= TOL
    elapsed = time.monotonic() - start
    _report(7, "multilayer QAOA norms/encoding/optimum", ok and elapsed <= 60.0)


def test_08_free_fermions():
    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(50):
        n = 3 + trial % 4
        layers = 1 + trial % 3

        def rand_herm():
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            return (a + a.conj().T) / 2

        inst = FermionInstance(
            initial=rand_herm(),
            generators=tuple(rand_herm() for _ in range(layers)),
            observable=rand_herm(),
        )
        phi = rng.uniform(0, 2 * np.pi, layers)
        worst = max(
            worst,
            abs(gaussian_expectation(inst, phi) - fock_bruteforce_expectation(fock_system(inst), phi)),
        )
    for d in range(2, 7):
        g = random_graph(d, 0.6, 8000 + d)
        inst = fermionic_vqa_instance(g)
        fock = fock_system(inst) if d == 2 else None
        for _ in range(20):
            phi = rng.uniform(0, 2 * np.pi, d)
            worst = max(worst, abs(gaussian_expectation(inst, phi) - mu(g, phi)))
            if fock is not None:
                worst = max(worst, abs(fock_bruteforce_expectation(fock, phi) - mu(g, phi)))
    _report(8, "free-fermion pipeline vs Fock oracle", worst <= TOL)


def test_09_calculus_oracles():
    rng = np.random.default_rng(9)
    ok = True
    for trial in range(100):
        d = 3 + trial % 4
        g = random_graph(d, 0.6, 9000 + trial)
        phi = rng.uniform(0, 2 * np.pi, d)
        grad = mu_gradient(g, phi)
        fd = central_difference_gradient(lambda x: mu(g, x), phi)
        ok &= np.linalg.norm(fd - grad) <= 1e-6 * max(1.0, np.linalg.norm(grad))
        hess = mu_hessian(g, phi)
        fd2 = central_difference_hessian(lambda x: mu(g, x), phi)
        ok &= np.linalg.norm(fd2 - hess) <= 1e-4 * max(1.0, np.linalg.norm(hess))
    g = random_graph(5, 0.6, 9999)
    for signs in product([1, -1], repeat=5):
        phi = phases_from_assignment(np.array(signs))
        ok &= bool(np.all(mu_gradient(g, phi) == 0.0))
    _report(9, "analytic calculus vs finite differences", ok)


def _atlas_graphs(max_d: int):
    nx = pytest.importorskip("networkx")
    out = []
    for h in nx.graph_atlas_g():
        d = h.number_of_nodes()
        if 2 <= d <= max_d and h.number_of_edges() >= 1:
            a = np.zeros((d, d), dtype=int)
            for u, v in h.edges():
                a[u, v] = a[v, u] = 1
            out.append(Graph(a))
    return out


def test_10_landscape_structure():
    graphs = _atlas_graphs(5)
    graphs += [random_graph(6, 0.5, 10_000 + i) for i in range(10)]
    ok = True
    rounding_trials = 0
    rng = np.random.default_rng(10)
    for g in graphs:
        d = g.d
        lowest = np.inf
        for signs in product([1, -1], repeat=d):
            v = np.array(signs)
            phi = phases_from_assignment(v)
            lowest = min(lowest, mu(g, phi))
            base = cut_value(g, v)
            cut_local = all(
                cut_value(g, np.where(np.arange(d) == i, -v, v)) <= base
                for i in range(d)
            )
            ok &= is_discrete_local_min(g, phi) == cut_local
        ok &= lowest == -float(maxcut_bruteforce(g)[0])
    while rounding_trials < 10_000:
        g = graphs[rounding_trials % len(graphs)]
        phi = rng.uniform(0, 2 * np.pi, g.d)
        ok &= mu(g, round_to_discrete(g, phi)) <= mu(g, phi) + 1e-12
        rounding_trials += 1
    _report(10, "discrete landscape structure", ok)


def test_11_optimizer_behavior():
    # descent on the oracular row kernels, every restart of a graph in lock step
    start = time.monotonic()
    ok = True
    oracular = FAMILIES["oracular"]
    # descent endpoints round to single-flip local optima
    for seed in range(10):
        g = random_graph(8, 0.5, 11_000 + seed)
        cfg = OptimizerConfig(seed=seed, restarts=3)
        res = optimize(oracular.landscape(g, None, None), cfg)
        ok &= is_discrete_local_min(g, round_to_discrete(g, res.best_params))
    # persistence: a strict suboptimal discrete local minimum traps descent
    from vqalab import parse_graph

    trap = parse_graph("6\n1 2\n1 3\n1 4\n4 5\n4 6")
    phi0 = phases_from_assignment(np.array([1, -1, -1, 1, -1, -1]))
    assert is_discrete_local_min(trap, phi0)
    assert maxcut_bruteforce(trap)[0] == 5 and mu(trap, phi0) == -4.0
    (res,) = descend(oracular.landscape(trap, None, None), phi0[None], OptimizerConfig())
    ok &= abs(res.value + 4.0) <= 1e-9
    # delta_o distribution and aggregate over 100 random d=8 graphs
    delta_os = []
    for seed in range(100):
        g = random_graph(8, 0.5, 12_000 + seed)
        mc, _ = maxcut_bruteforce(g)
        cfg = OptimizerConfig(seed=seed, restarts=3)
        res = optimize(oracular.landscape(g, None, None), cfg)
        lo, hi, _ = spectral_extremes(ising_observable(g))
        _, _, delta_o = error_metrics(res.best_value, -float(mc), lo, hi)
        delta_os.append(delta_o)
    aggregate = max(delta_os)
    elapsed = time.monotonic() - start
    ok &= all(0.0 <= x <= 1.0 for x in delta_os) and elapsed <= 300.0
    print(
        f"    delta_o over 100 graphs (d=8): mean={np.mean(delta_os):.4f} "
        f"max={aggregate:.4f} zero-fraction={np.mean(np.array(delta_os) == 0):.2f} "
        f"({elapsed:.1f}s)",
        file=sys.__stdout__,
        flush=True,
    )
    _report(11, "optimizer trapping and error metrics", ok)


def test_12_multilayer_qaoa_at_depth():
    # the Blocks operators carry the theorem past the dense cap: verify runs
    # at d = 6 (dim 1872) and d = 8 (dim 4352), while export, which needs the
    # dense matrices, refuses d = 8 with a clear error
    start = time.monotonic()
    ok = True
    for d in (6, 8):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["verify", "--family", "qaoa-multi", "--random-graph", f"{d}:0.5", "--seed", "1"])
        doc = json.loads(out.getvalue())
        residuals = doc["instances"][0]["max_residuals"]
        ok &= rc == 0 and doc["pass"] is True and len(residuals) == 3
        ok &= all(r <= 1e-12 for r in residuals.values())
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["export", "--family", "qaoa-multi", "--random-graph", "8:0.5"])
    ok &= rc == 1 and "dense form" in err.getvalue() and "too large" in err.getvalue()
    elapsed = time.monotonic() - start
    _report(12, "multilayer QAOA verified at d = 6 and 8", ok and elapsed <= 30.0)
